"""Policy/placement conformance suite: invariants every stage must hold.

Iterates every entry of :data:`repro.sched.POLICIES` and
:data:`repro.sched.PLACEMENTS` and property-checks the pipeline
invariants with hypothesis-generated job tables:

* **work conservation** — with a non-empty candidate list, the policy
  picks one of *those* jobs (never ``None``, never a fabricated job);
* **no drop / no duplicate** — draining a queue through the policy
  dispatches every job exactly once;
* **per-VP partial order** — each VP's jobs dispatch in sequence order
  (enforced structurally by offering only heads, but the drain verifies
  the policy cannot subvert it);
* **determinism** — a fresh policy instance replays the same dispatch
  order for the same job table;
* **backlog quiesce** — the matched add/retire stream through
  :class:`~repro.sched.EngineBacklog` ends with *exactly* zero backlog
  on every engine, no drift events;
* placements pick in-range devices, stick to their first pick, and
  replay deterministically;

plus an end-to-end matrix: every policy × every placement runs a real
scenario (including a 2-GPU host) and must complete with a quiesced
backlog.
"""

import copy
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.jobs import Job, JobKind
from repro.sched import (
    CandidateIndex,
    PLACEMENTS,
    POLICIES,
    EngineBacklog,
    make_placement,
    make_policy,
)
from repro.sim import Environment

POLICY_NAMES = sorted(POLICIES)
#: Policies that rank by an order key (``select`` not overridden).
KEYED_POLICY_NAMES = [name for name in POLICY_NAMES if make_policy(name).keyed]
PLACEMENT_NAMES = sorted(PLACEMENTS)

#: (vp index, job kind index, expected duration in ms) triples; the
#: drain below turns each VP's triples into an ordered job stream.
JOB_TABLES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=len(JobKind) - 1),
        st.floats(min_value=0.0, max_value=16.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=24,
)

KINDS = list(JobKind)


def _build_jobs(env: Environment, table) -> Dict[str, List[Tuple[Job, float]]]:
    """Per-VP ordered (job, expected_ms) streams from a hypothesis table."""
    streams: Dict[str, List[Tuple[Job, float]]] = {}
    for vp_index, kind_index, expected_ms in table:
        vp = f"vp{vp_index}"
        stream = streams.setdefault(vp, [])
        job = Job(vp=vp, seq=len(stream), kind=KINDS[kind_index],
                  completion=env.event())
        stream.append((job, expected_ms))
    return streams


def _drain(policy_name: str, table) -> List[Tuple[str, int]]:
    """Dispatch a job table to exhaustion through one policy.

    Mimics the pipeline's structure: only per-VP heads are offered, the
    backlog is fed the chosen job's expected time on dispatch and
    retired when the next decision is made (a one-slot engine).
    Returns the (vp, seq) dispatch order and asserts the invariants.
    """
    env = Environment()
    policy = make_policy(policy_name)
    backlog = EngineBacklog()
    streams = _build_jobs(env, table)
    cursors = {vp: 0 for vp in streams}
    expected_of = {
        id(job): ms for stream in streams.values() for job, ms in stream
    }
    total = sum(len(s) for s in streams.values())
    order: List[Tuple[str, int]] = []
    inflight: List[Job] = []

    for _ in range(total):
        heads = [
            streams[vp][cursor][0]
            for vp, cursor in sorted(cursors.items())
            if cursor < len(streams[vp])
        ]
        assert heads, "drain ran out of heads before dispatching every job"
        choice = policy.select(list(heads), backlog)
        # Work conservation: candidates offered => one of them chosen.
        assert choice is not None, f"{policy_name} stalled with candidates"
        assert choice in heads, f"{policy_name} fabricated a job"
        backlog.add(choice, expected_of[id(choice)])
        inflight.append(choice)
        cursors[choice.vp] += 1
        order.append((choice.vp, choice.seq))
        # Retire like a one-slot engine: the oldest in-flight completes.
        done = inflight.pop(0)
        backlog.retire(done, expected_of[id(done)])

    # No drop, no duplicate.
    assert len(order) == total
    assert len(set(order)) == total
    # Per-VP partial order: sequence numbers dispatch in order.
    last_seq: Dict[str, int] = {}
    for vp, seq in order:
        assert seq == last_seq.get(vp, -1) + 1, (
            f"{policy_name} broke {vp}'s partial order at seq {seq}"
        )
        last_seq[vp] = seq
    # Backlog accounting returned to exactly zero, without drift.
    assert backlog.quiesced, (
        f"{policy_name} left backlog {backlog.per_engine!r}"
    )
    assert backlog.drift_events == 0
    return order


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
@settings(max_examples=30, deadline=None)
@given(table=JOB_TABLES)
def test_policy_conformance(policy_name, table):
    _drain(policy_name, table)


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
@settings(max_examples=15, deadline=None)
@given(table=JOB_TABLES)
def test_policy_deterministic(policy_name, table):
    """A fresh policy instance replays the identical dispatch order."""
    assert _drain(policy_name, table) == _drain(policy_name, table)


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_policy_empty_returns_none(policy_name):
    assert make_policy(policy_name).select([], EngineBacklog()) is None


@pytest.mark.parametrize("policy_name", KEYED_POLICY_NAMES)
@settings(max_examples=30, deadline=None)
@given(table=JOB_TABLES,
       devices=st.lists(st.integers(min_value=0, max_value=1),
                        min_size=4, max_size=4))
def test_indexed_pick_equals_select(policy_name, table, devices):
    """A :class:`CandidateIndex` fed one head per VP picks what ``select``
    over the same heads picks, decision after decision.

    Only a picked VP's head is replaced between picks, as in a dispatch
    burst, while the engine backlog moves under the standing candidates.
    """
    env = Environment()
    policy = make_policy(policy_name)
    index = CandidateIndex(policy)
    backlog = EngineBacklog()
    streams = _build_jobs(env, table)
    for vp, stream in streams.items():
        for job, expected_ms in stream:
            job.device = devices[int(vp[2:])]
            job.submitted_at_ms = expected_ms  # spreads deadlines too
    cursors = {vp: 0 for vp in streams}
    expected_of = {
        id(job): ms for stream in streams.values() for job, ms in stream
    }
    for vp in sorted(streams):
        index.add(streams[vp][0][0])
    inflight: List[Job] = []
    while len(index):
        reference = copy.deepcopy(policy).select(
            list(index.jobs.values()), backlog
        )
        choice = index.pick(backlog)
        assert choice is reference
        index.discard(choice.vp)
        backlog.add(choice, expected_of[id(choice)])
        inflight.append(choice)
        if len(inflight) > 1:
            done = inflight.pop(0)
            backlog.retire(done, expected_of[id(done)])
        cursors[choice.vp] += 1
        stream = streams[choice.vp]
        if cursors[choice.vp] < len(stream):
            index.add(stream[cursors[choice.vp]][0])
    assert all(cursors[vp] == len(streams[vp]) for vp in streams)


VP_SEQUENCES = st.lists(
    st.integers(min_value=0, max_value=5), min_size=1, max_size=16
)


@pytest.mark.parametrize("placement_name", PLACEMENT_NAMES)
@settings(max_examples=30, deadline=None)
@given(vp_indices=VP_SEQUENCES, n_devices=st.integers(min_value=1, max_value=4))
def test_placement_conformance(placement_name, vp_indices, n_devices):
    """Placements pick in range, stick, and replay deterministically."""
    backlog = EngineBacklog()
    first = make_placement(placement_name)
    second = make_placement(placement_name)
    assigned: Dict[str, int] = {}
    for index in vp_indices:
        vp = f"vp{index}"
        device = first.device_for(vp, n_devices, backlog)
        assert 0 <= device < n_devices
        # Sticky: the first answer is the answer forever.
        assert assigned.setdefault(vp, device) == device
        assert first.device_for(vp, n_devices, backlog) == device
        # Deterministic: a fresh instance fed the same sequence agrees.
        assert second.device_for(vp, n_devices, backlog) == device
    assert first.assignments == assigned


@settings(max_examples=20, deadline=None)
@given(vp_indices=VP_SEQUENCES, n_devices=st.integers(min_value=1, max_value=4))
def test_round_robin_matches_legacy_formula(vp_indices, n_devices):
    """The default placement reproduces the dispatcher's old formula."""
    backlog = EngineBacklog()
    placement = make_placement("round-robin")
    legacy: Dict[str, int] = {}
    for index in vp_indices:
        vp = f"vp{index}"
        if vp not in legacy:
            legacy[vp] = len(legacy) % n_devices
        assert placement.device_for(vp, n_devices, backlog) == legacy[vp]


# -- end-to-end matrix -------------------------------------------------------


def _small_spec():
    from repro.workloads import get_workload

    return get_workload("vectorAdd").scaled_to(1024, iterations=1)


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_policy_end_to_end(policy_name):
    """Every policy drives a real scenario to completion."""
    from repro.core.scenarios import run_sigma_vp

    result = run_sigma_vp(_small_spec(), n_vps=3, policy=policy_name)
    framework = result.extras["framework"]
    dispatcher = framework.dispatcher
    assert result.total_ms > 0.0
    assert dispatcher.stats.completed >= sum(dispatcher.stats.dispatched.values())
    # The quiesce invariant: backlogs return to exactly zero, no drift.
    assert dispatcher.backlog.quiesced
    assert dispatcher.backlog.drift_events == 0
    if policy_name != "interleaving":
        assert f"policy={policy_name}" in result.scenario


@pytest.mark.parametrize("placement_name", PLACEMENT_NAMES)
def test_placement_end_to_end_two_gpus(placement_name):
    """Every placement multiplexes a 2-GPU host correctly."""
    from repro.core.scenarios import run_sigma_vp

    result = run_sigma_vp(
        _small_spec(), n_vps=4, n_host_gpus=2, placement=placement_name
    )
    framework = result.extras["framework"]
    devices = {
        name: framework.dispatcher.device_index_for(name)
        for name in framework.sessions
    }
    assert set(devices.values()) == {0, 1}  # both devices used
    assert framework.dispatcher.backlog.quiesced


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_policy_end_to_end_deterministic(policy_name):
    """Same config twice => bit-identical scenario summaries."""
    from repro.core.scenarios import run_sigma_vp

    first = run_sigma_vp(_small_spec(), n_vps=2, policy=policy_name)
    second = run_sigma_vp(_small_spec(), n_vps=2, policy=policy_name)
    assert first.summary() == second.summary()
