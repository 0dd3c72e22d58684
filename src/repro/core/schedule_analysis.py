"""Schedule analysis: dependency DAGs, critical paths, makespan bounds.

The paper describes the Re-scheduler as "a non-preemptive, optimal
scheduler augmented for job dependencies [14]".  The dispatch policies in
:mod:`repro.sched.policies` are online heuristics; this module supplies
the offline analytics that judge them: build the dependency DAG of a
queue snapshot (per-VP program order, explicit ``depends_on`` edges, and
engine exclusivity), compute the critical path, and derive two lower
bounds on the achievable makespan —

* the **critical-path bound**: no schedule beats the longest dependency
  chain, and
* the **engine-load bound**: no schedule beats the busiest engine's
  total work.

The benchmarks use these to show how close the interleaving policy gets
to optimal (Fig. 9's Eq. 7 is exactly the engine-load bound of the
phase-loop workload).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import networkx as nx

from .jobs import Job
from ..sched.backlog import engine_role

#: Estimates a job's service time (the dispatcher's `_expected_ms`).
DurationFn = Callable[[Job], float]


@dataclass(frozen=True)
class ScheduleAnalysis:
    """Bounds and structure extracted from one queue snapshot."""

    jobs: int
    critical_path_ms: float
    critical_path: List[int]  # job ids, source to sink
    engine_load_ms: Dict[str, float]
    makespan_lower_bound_ms: float

    @property
    def busiest_engine(self) -> str:
        if not self.engine_load_ms:
            return ""
        return max(self.engine_load_ms, key=self.engine_load_ms.get)

    def efficiency(self, achieved_makespan_ms: float) -> float:
        """Lower-bound optimality ratio in (0, 1]; 1 = provably optimal."""
        if achieved_makespan_ms <= 0:
            raise ValueError("achieved makespan must be positive")
        return min(1.0, self.makespan_lower_bound_ms / achieved_makespan_ms)


def build_dependency_dag(
    jobs: Sequence[Job], duration_fn: DurationFn
) -> "nx.DiGraph":
    """The precedence DAG of a job set.

    Nodes are job ids (with ``duration`` and ``engine`` attributes);
    edges are (a) per-VP program order — consecutive sequence numbers
    within one VP — and (b) explicit cross-VP ``depends_on`` links.
    """
    dag = nx.DiGraph()
    by_completion = {}
    for job in jobs:
        dag.add_node(
            job.job_id,
            duration=duration_fn(job),
            engine=engine_role(job),
            vp=job.vp,
        )
        by_completion[id(job.completion)] = job.job_id

    by_vp: Dict[str, List[Job]] = {}
    for job in jobs:
        by_vp.setdefault(job.vp, []).append(job)
    for vp_jobs in by_vp.values():
        ordered = sorted(vp_jobs, key=lambda j: j.seq)
        for earlier, later in zip(ordered, ordered[1:]):
            dag.add_edge(earlier.job_id, later.job_id)

    for job in jobs:
        for dep in job.depends_on:
            source = by_completion.get(id(dep))
            if source is not None:
                dag.add_edge(source, job.job_id)

    if not nx.is_directed_acyclic_graph(dag):  # pragma: no cover - invariant
        raise ValueError("job dependencies contain a cycle")
    return dag


def critical_path(dag: "nx.DiGraph") -> List[int]:
    """The duration-weighted longest path through the DAG (job ids)."""
    if dag.number_of_nodes() == 0:
        return []
    # Longest path by accumulated duration: dynamic programming over a
    # topological order (node weights, so classic dag_longest_path with
    # edge weights does not apply directly).
    best_len: Dict[int, float] = {}
    best_pred: Dict[int, Optional[int]] = {}
    for node in nx.topological_sort(dag):
        duration = dag.nodes[node]["duration"]
        incoming = [
            (best_len[pred] + duration, pred)
            for pred in dag.predecessors(node)
        ]
        if incoming:
            length, pred = max(incoming)
        else:
            length, pred = duration, None
        best_len[node] = length
        best_pred[node] = pred
    tail = max(best_len, key=best_len.get)
    path = [tail]
    while best_pred[path[-1]] is not None:
        path.append(best_pred[path[-1]])
    return list(reversed(path))


def analyze(jobs: Sequence[Job], duration_fn: DurationFn) -> ScheduleAnalysis:
    """Full analysis of a queue snapshot."""
    dag = build_dependency_dag(jobs, duration_fn)
    path = critical_path(dag)
    path_ms = sum(dag.nodes[node]["duration"] for node in path)

    engine_load: Dict[str, float] = {}
    for node, data in dag.nodes(data=True):
        if data["engine"] == "host":
            continue  # host bookkeeping does not use a hardware engine
        engine_load[data["engine"]] = (
            engine_load.get(data["engine"], 0.0) + data["duration"]
        )

    busiest = max(engine_load.values(), default=0.0)
    return ScheduleAnalysis(
        jobs=len(jobs),
        critical_path_ms=path_ms,
        critical_path=path,
        engine_load_ms=engine_load,
        makespan_lower_bound_ms=max(path_ms, busiest),
    )
