"""The engine op and timeline entry API.

``EngineOp`` is a plain slotted class and ``TimelineEntry`` an immutable
named tuple, both built once per dispatched op.  Their public behaviour
is what a dataclass gave them: a negative duration is refused, a
finished span cannot be edited, and entries compare by their fields.
"""

import pytest

import repro.gpu
from repro.gpu import EngineOp, TimelineEntry
from repro.gpu.engines import Engine
from repro.sim import Environment


def test_gpu_package_exports_op_and_entry():
    assert {"EngineOp", "TimelineEntry"} <= set(repro.gpu.__all__)
    assert repro.gpu.EngineOp is EngineOp
    assert repro.gpu.TimelineEntry is TimelineEntry


def test_submit_rejects_negative_duration_and_queues_nothing():
    env = Environment()
    engine = Engine(env, "e")
    with pytest.raises(ValueError, match="negative duration for 'bad'"):
        engine.submit("bad", -0.5)
    assert engine.queued == 0
    env.run()
    assert engine.timeline == []


def test_submitted_op_fields_and_completion():
    env = Environment()
    engine = Engine(env, "e")
    seen = []
    metadata = {"job_id": 7}
    op = engine.submit("k", 2.0, on_complete=lambda: seen.append(env.now),
                       metadata=metadata)
    assert isinstance(op, EngineOp)
    assert (op.label, op.duration_ms) == ("k", 2.0)
    assert op.metadata is metadata
    assert engine.submit("bare", 1.0).metadata == {}
    env.run()
    assert seen == [2.0]
    assert op.done.value is op
    with pytest.raises(AttributeError):
        op.unknown_field = 1


def test_timeline_entry_is_immutable():
    entry = TimelineEntry("k", 1.0, 3.5)
    for name in ("label", "start_ms", "end_ms", "duration_ms"):
        with pytest.raises(AttributeError):
            setattr(entry, name, 0.0)
    assert (entry.label, entry.start_ms, entry.end_ms) == ("k", 1.0, 3.5)


def test_timeline_entry_duration_and_equality():
    entry = TimelineEntry("k", 1.0, 3.5)
    assert entry.duration_ms == 2.5
    assert entry == TimelineEntry("k", 1.0, 3.5)
    assert hash(entry) == hash(TimelineEntry("k", 1.0, 3.5))
    assert not entry != TimelineEntry("k", 1.0, 3.5)
    for other in (
        TimelineEntry("j", 1.0, 3.5),
        TimelineEntry("k", 1.5, 3.5),
        TimelineEntry("k", 1.0, 4.0),
    ):
        assert entry != other
        assert not entry == other
    # Like the dataclass it was, an entry equals only another entry.
    assert entry != ("k", 1.0, 3.5)
    assert ("k", 1.0, 3.5) != entry
    assert repr(entry) == "TimelineEntry(label='k', start_ms=1.0, end_ms=3.5)"


def test_engine_records_entries_as_it_finishes_ops():
    env = Environment()
    engine = Engine(env, "e")
    engine.submit("a", 1.0)
    engine.submit("b", 2.0)
    env.run()
    assert engine.timeline == [
        TimelineEntry("a", 0.0, 1.0),
        TimelineEntry("b", 1.0, 3.0),
    ]
    assert [e.duration_ms for e in engine.timeline] == [1.0, 2.0]
