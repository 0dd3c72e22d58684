import pytest

import layers
from layers import Hook, Installation, Span, Tracer


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > sim [1, 9] > (sched [2, 4] > timing [2.5, 3]), (sched [5, 6])
    spans = [
        Span(0, 0, None, "api", "scenario", 0.0, 10.0),
        Span(0, 1, 0, "sim", "run", 1.0, 9.0),
        Span(0, 2, 1, "sched", "decide", 2.0, 4.0),
        Span(0, 3, 2, "gpu.timing", "execute", 2.5, 3.0),
        Span(0, 4, 1, "sched", "decide", 5.0, 6.0),
    ]
    assert layers.self_times(spans) == {
        "api": 2.0, "sim": 5.0, "sched": 2.5, "gpu.timing": 0.5,
    }


class Model:
    def root(self, n):
        return sum(self.child() for _ in range(n))

    def child(self):
        return self.leaf() + 1

    def leaf(self):
        return 1

    def stream(self):
        yield 1


HERE = __name__


def _hooks():
    return (
        Hook("api", f"{HERE}:Model.root"),
        Hook("sim", f"{HERE}:Model.child"),
        Hook("backend", f"{HERE}:Model.leaf",
             after=lambda tracer, args, result: tracer.count("leaves", result)),
    )


def test_tracer_folds_each_request_and_restores_the_class():
    tracer = Tracer(keep=1)
    original = Model.__dict__["leaf"]
    with Installation(tracer, _hooks()):
        assert Model().leaf() == 1  # outside a request: not traced
        assert Model().root(3) == 6
        assert Model().root(2) == 4
    assert Model.__dict__["leaf"] is original
    first, second = tracer.requests
    assert first.calls == {"api": 1, "sim": 3, "backend": 3}
    assert second.calls == {"api": 1, "sim": 2, "backend": 2}
    assert first.counts == {"leaves": 3}
    assert len(tracer.kept) == 1 and len(tracer.kept[0]) == 7
    assert {span.request for span in tracer.kept[0]} == {0}
    metrics = layers.layer_metrics(tracer.requests)
    assert sum(metrics[f"{layer}.share"] for layer in layers.LAYERS) == pytest.approx(1.0)
    assert metrics["sim.calls_per_req"] == 2.5


def test_missing_hooks_are_reported_absent():
    hooks = _hooks() + (
        Hook("sched", f"{HERE}:Model.gone"),
        Hook("sched", "repro.no_such_module:Thing.run"),
    )
    with Installation(Tracer(), hooks) as installed:
        assert installed.absent() == sorted([f"{HERE}:Model.gone",
                                             "repro.no_such_module:Thing.run"])
        assert installed.status[f"{HERE}:Model.root"] == "hooked"


def test_generator_functions_are_refused_and_nothing_stays_hooked():
    original = Model.__dict__["root"]
    with pytest.raises(TypeError, match="generator"):
        Installation(Tracer(), _hooks() + (Hook("sim", f"{HERE}:Model.stream"),))
    assert Model.__dict__["root"] is original
    with pytest.raises(TypeError, match="generator"):
        Installation(Tracer(), (Hook("core.ipc", "repro.core.ipc:IPCManager.submit"),))


def test_every_table_hook_exists_on_this_commit():
    with Installation(Tracer()) as installed:
        assert installed.absent() == []
