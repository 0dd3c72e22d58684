"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import EmptySchedule, Environment, Interrupt


def test_time_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_initial_time_is_respected():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_time():
    env = Environment()

    def proc():
        yield env.timeout(3.0)
        return env.now

    p = env.process(proc())
    assert env.run(p) == 3.0
    assert env.now == 3.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()

    def proc():
        value = yield env.timeout(1.0, value="payload")
        return value

    assert env.run(env.process(proc())) == "payload"


def test_sequential_timeouts_accumulate():
    env = Environment()
    trace = []

    def proc():
        for delay in (1.0, 2.0, 3.0):
            yield env.timeout(delay)
            trace.append(env.now)

    env.process(proc())
    env.run()
    assert trace == [1.0, 3.0, 6.0]


def test_parallel_processes_interleave():
    env = Environment()
    trace = []

    def proc(name, delay):
        yield env.timeout(delay)
        trace.append((name, env.now))

    env.process(proc("slow", 5.0))
    env.process(proc("fast", 1.0))
    env.run()
    assert trace == [("fast", 1.0), ("slow", 5.0)]


def test_process_waits_on_process():
    env = Environment()

    def inner():
        yield env.timeout(2.0)
        return 42

    def outer():
        result = yield env.process(inner())
        return result * 2

    assert env.run(env.process(outer())) == 84


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()

    def opener():
        yield env.timeout(4.0)
        gate.succeed("opened")

    def waiter():
        value = yield gate
        return (env.now, value)

    env.process(opener())
    assert env.run(env.process(waiter())) == (4.0, "opened")


def test_event_cannot_trigger_twice():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()

    def failer():
        yield env.timeout(1.0)
        gate.fail(ValueError("boom"))

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            return str(exc)
        return "no error"

    env.process(failer())
    assert env.run(env.process(waiter())) == "boom"


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_run_until_time():
    env = Environment()
    trace = []

    def ticker():
        while True:
            yield env.timeout(1.0)
            trace.append(env.now)

    env.process(ticker())
    env.run(until=3.5)
    assert trace == [1.0, 2.0, 3.0]
    assert env.now == 3.5


def test_run_until_past_time_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.run(until=0.0)


def test_run_with_no_events_returns():
    env = Environment()
    assert env.run() is None


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_interrupt_delivers_cause():
    env = Environment()

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            return ("interrupted", interrupt.cause, env.now)
        return "completed"

    victim = env.process(sleeper())

    def interrupter():
        yield env.timeout(2.0)
        victim.interrupt(cause="stop-vp")

    env.process(interrupter())
    assert env.run(victim) == ("interrupted", "stop-vp", 2.0)


def test_interrupt_detaches_from_old_target():
    """After an interrupt, the original timeout must not resume the process."""
    env = Environment()
    resumed = []

    def sleeper():
        try:
            yield env.timeout(5.0)
        except Interrupt:
            pass
        yield env.timeout(10.0)
        resumed.append(env.now)

    victim = env.process(sleeper())

    def interrupter():
        yield env.timeout(1.0)
        victim.interrupt()

    env.process(interrupter())
    env.run()
    # Resumes at 1.0 (interrupt) + 10.0, not at 5.0 + 10.0.
    assert resumed == [11.0]


def test_interrupt_dead_process_raises():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    p = env.process(quick())
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_process_return_value_is_event_value():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        return {"answer": 7}

    p = env.process(proc())
    env.run()
    assert p.value == {"answer": 7}


def test_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc():
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(3.0, value="b")
        results = yield env.all_of([t1, t2])
        return (env.now, sorted(results.values()))

    assert env.run(env.process(proc())) == (3.0, ["a", "b"])


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc():
        results = yield env.all_of([])
        return results

    assert env.run(env.process(proc())) == {}


def test_deterministic_fifo_at_same_instant():
    """Events scheduled for the same time fire in scheduling order."""
    env = Environment()
    trace = []

    def proc(name):
        yield env.timeout(1.0)
        trace.append(name)

    for name in ("a", "b", "c"):
        env.process(proc(name))
    env.run()
    assert trace == ["a", "b", "c"]


def test_run_until_event_exhaustion_error():
    env = Environment()
    never = env.event()
    with pytest.raises(RuntimeError):
        env.run(never)


def test_exception_in_process_propagates_from_run():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise KeyError("inside process")

    p = env.process(bad())
    with pytest.raises(KeyError):
        env.run(p)


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0


def test_peek_empty_is_infinite():
    env = Environment()
    assert env.peek() == float("inf")


def _crasher(env):
    yield env.timeout(1.5)
    raise RuntimeError("boom")


def test_run_names_the_process_that_raised():
    env = Environment()
    env.process(_crasher(env), label="vp:a/app")
    with pytest.raises(RuntimeError, match="boom") as excinfo:
        env.run()
    notes = "\n".join(getattr(excinfo.value, "__notes__", []))
    assert "vp:a/app" in notes
    assert "t=1.5ms" in notes


def test_unlabeled_processes_fall_back_to_the_generator_name():
    env = Environment()
    env.process(_crasher(env))
    with pytest.raises(RuntimeError, match="boom") as excinfo:
        env.run()
    notes = "\n".join(getattr(excinfo.value, "__notes__", []))
    assert "_crasher" in notes


# -- lazily succeeded events (reserved heap slots) ---------------------------------


def _poll_scenario(env, succeed):
    """Two timeouts at t=1: the first succeeds ``done`` (with the method
    named ``succeed``) and schedules ``later``; the second, whose slot
    comes before the one ``done`` takes, and ``later``, whose slot comes
    after, poll it."""
    done = env.event()
    seen = []
    first = env.timeout(1.0)
    second = env.timeout(1.0)
    first.callbacks.append(lambda _: getattr(done, succeed)("v"))
    first.callbacks.append(
        lambda _: env.call_soon(lambda _: seen.append(("later", done.processed)))
    )
    second.callbacks.append(lambda _: seen.append(("earlier", done.processed)))
    return done, seen


@pytest.mark.parametrize("lazy", [False, True])
def test_lazy_completion_flips_processed_at_its_reserved_slot(lazy):
    """A poll from an earlier heap slot at the same instant sees the event
    unprocessed, one from a later slot sees it processed, exactly as if it
    had been pushed; only the lazy one skips the heap."""
    env = Environment()
    done, seen = _poll_scenario(env, "succeed_lazily" if lazy else "succeed")
    env.run()
    assert seen == [("earlier", False), ("later", True)]
    assert done.processed and done.value == "v"
    assert env.steps == (3 if lazy else 4)


@pytest.mark.parametrize("lazy", [False, True])
def test_waiter_arriving_before_the_slot_resumes_at_the_slot(lazy):
    """A process that starts waiting between the lazy succeed and its
    slot claims the slot: it resumes there, before a later event."""
    env = Environment()
    done = env.event()
    order = []
    first = env.timeout(1.0)
    second = env.timeout(1.0)
    first.callbacks.append(
        lambda _: (done.succeed_lazily if lazy else done.succeed)("v")
    )
    first.callbacks.append(
        lambda _: env.call_soon(lambda _: order.append(("later", env.now)))
    )

    def waiter():
        yield second
        assert not done.processed
        value = yield done
        order.append((value, env.now))

    env.process(waiter())
    env.run()
    assert order == [("v", 1.0), ("later", 1.0)]
    # Initialize, first, second, done's slot, the process's end, later.
    assert env.steps == 6


def test_waiter_after_the_slot_continues_at_once():
    env = Environment()
    done = env.event()
    trigger = env.timeout(1.0)
    trigger.callbacks.append(lambda _: done.succeed_lazily("v"))
    resumed = []

    def waiter():
        yield env.timeout(2.0)
        assert done.processed
        value = yield done
        resumed.append((value, env.now))

    env.process(waiter())
    env.run()
    assert resumed == [("v", 2.0)]


def test_run_until_a_lazy_event_returns_its_value():
    env = Environment()
    done = env.event()
    env.timeout(1.0).callbacks.append(lambda _: done.succeed_lazily("v"))
    assert env.run(done) == "v"
    assert env.now == 1.0


def test_run_until_a_time_flips_the_slots_before_it():
    env = Environment()
    done = env.event()
    env.timeout(1.0).callbacks.append(lambda _: done.succeed_lazily("v"))
    env.timeout(3.0)
    env.run(until=2.0)
    assert done.processed
    assert env.steps == 1


def test_fail_is_never_lazy():
    env = Environment()
    failed = env.event()
    failed.fail(ValueError("x"))
    assert env.pending == 1
    with pytest.raises(ValueError):
        env.run()


def _tie_scenario(env):
    """Events completed lazily at t=1 and polled, then waited on, by a
    consumer whose timeout slot comes before the producer's, between
    the producer's and the reserved one, or at t=2; returns the log the
    run writes."""
    log = []
    events = [env.event() for _ in range(6)]

    def producer(i):
        yield env.timeout(1.0)
        events[i].succeed_lazily(i)
        log.append(("done", i, env.now))

    def consumer(i):
        yield env.timeout(2.0 if i % 3 == 2 else 1.0)
        log.append(("poll", i, events[i].processed))
        value = yield events[i]
        log.append(("got", value, env.now))

    for i in range(6):
        if i % 3 == 0:
            env.process(consumer(i))
            env.process(producer(i))
        else:
            env.process(producer(i))
            env.process(consumer(i))
    return log


def test_run_and_repeated_step_process_the_same_order():
    ran = Environment()
    run_log = _tie_scenario(ran)
    ran.run()

    stepped = Environment()
    step_log = _tie_scenario(stepped)
    while True:
        try:
            stepped.step()
        except EmptySchedule:
            break
    assert step_log == run_log
    assert stepped.steps == ran.steps
    assert stepped.now == ran.now
    assert {poll for kind, _, poll in run_log if kind == "poll"} == {False, True}
