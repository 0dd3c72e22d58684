"""The public submission facade: one request schema, three ways to run.

:class:`RunRequest` is the single, frozen, schema-versioned description
of "run this scenario", and :func:`scenario` is the one place a request
becomes a simulation.  Every other path is a caller or a projection:

* :func:`run` — execute through the scenario farm's ``run_job`` path
  (the request's farm-job projection) and return the value plus its
  results digest;
* :func:`scenario` — execute in-process and return the rich
  :class:`~repro.core.scenarios.ScenarioResult` (the CLI's ``run`` /
  ``account`` paths need the live framework for gantt/accounting);
* :func:`submit` / :func:`connect` — hand the request to a running
  ``repro serve`` daemon over its Unix socket
  (:mod:`repro.serve`); the wire protocol is just the request's JSON
  form plus event frames, so the local and remote paths cannot drift.

**Identity rule.**  A request's config hash is the farm's
:func:`~repro.obs.export.config_key` over the scenario job tag (a
frozen name, run by :func:`scenario_summary`) and
:meth:`RunRequest.job_kwargs`: the scenario-shaping fields always, the
tuning fields only when they differ from their defaults.  The hash
enters every results digest and derives the run-stamp seed; the
simulation itself seeds its inputs by VP index.
``tenant``, ``qos`` and ``schema`` are service-level routing, not
scenario identity: two tenants submitting the same scenario share one
config hash and one digest.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .core.scenarios import ScenarioResult
    from .exec.farm import FarmJob
    from .serve.client import ServeClient
    from .workloads.base import WorkloadSpec

__all__ = [
    "SCHEMA_VERSION",
    "RequestError",
    "RunRequest",
    "RunResult",
    "connect",
    "run",
    "scenario",
    "scenario_summary",
    "submit",
]

#: Version of the :class:`RunRequest` wire schema.  Bump on any change
#: that alters field meaning or removes a field; additions of defaulted
#: fields keep the version (old daemons reject unknown fields with a
#: structured error, which is the compatibility signal clients act on).
#: Schema 2 dropped ``shards``; schema 3 dropped ``backend``.
SCHEMA_VERSION = 3

#: The farm job tag of every scenario's config hash (run by
#: :func:`scenario_summary`; frozen, so hashes never move).
_SCENARIO_FN = "repro.exec.jobs:scenario_summary"

#: Fields that always enter the farm-job kwargs (scenario shape).
_ALWAYS_KEYS = (
    "app", "n_vps", "interleaving", "coalescing", "transport",
    "n_host_gpus",
)

#: Fields that enter the kwargs only when non-default, so default runs
#: keep their pre-existing config-hash keys (the legacy ``_sched_kwargs``
#: rule, now in one place).
_OPTIONAL_KEYS = (
    "max_batch", "scale_elements", "scale_iterations", "functional",
    "policy", "placement",
)

#: Service-routing fields excluded from scenario identity.
_ROUTING_KEYS = ("schema", "tenant", "qos")


class RequestError(ValueError):
    """A submission that cannot be accepted, with a structured code.

    ``code`` is the machine-readable reason (``bad-schema``,
    ``bad-field``, ``bad-value``); the daemon maps it straight onto its
    error frames so local validation and remote rejection read the same.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class RunRequest:
    """One versioned, JSON-round-trippable scenario submission.

    This class is the one statement of the scenario field set and its
    defaults; :func:`scenario_summary` takes the same fields as
    ``**fields``.  ``tenant`` and ``qos`` are the service-routing
    fields the daemon schedules tenants by.
    """

    #: Workload name from the catalog (``repro list``).
    app: str
    #: Number of virtual platforms to multiplex.
    n_vps: int = 8
    #: Kernel Interleaving on/off (paper Fig. 3).
    interleaving: bool = True
    #: Kernel Coalescing on/off (paper Fig. 5).
    coalescing: bool = True
    #: IPC transport: ``socket``, ``shm`` or ``shared-memory``.
    transport: str = "socket"
    #: Host GPUs to multiplex.
    n_host_gpus: int = 1
    #: Coalescer batch cap.
    max_batch: int = 64
    #: Optional workload rescaling (elements / iterations).
    scale_elements: Optional[int] = None
    scale_iterations: Optional[int] = None
    #: Execute kernels numerically (numpy) instead of timing-only.
    functional: bool = False
    #: Scheduling policy / placement names (``repro policies``);
    #: ``None`` keeps the legacy derived defaults.
    policy: Optional[str] = None
    placement: Optional[str] = None
    #: Service routing (never part of scenario identity): the tenant a
    #: daemon accounts this job to, and its QoS tier (0 = most urgent).
    tenant: str = "default"
    qos: Optional[int] = None
    #: Wire-schema version; see :data:`SCHEMA_VERSION`.
    schema: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.schema != SCHEMA_VERSION:
            raise RequestError(
                "bad-schema",
                f"unsupported RunRequest schema {self.schema!r}; this "
                f"build speaks schema {SCHEMA_VERSION}",
            )
        from .core.ipc import TRANSPORTS
        from .sched import PLACEMENTS, POLICIES
        from .workloads.catalog import SUITE

        _check_name("app", self.app, SUITE)
        _check_name("transport", self.transport, TRANSPORTS)
        if self.policy is not None:
            _check_name("policy", self.policy, POLICIES)
        if self.placement is not None:
            _check_name("placement", self.placement, PLACEMENTS)
        for name, minimum in (("n_vps", 1), ("n_host_gpus", 1), ("max_batch", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
                raise RequestError(
                    "bad-value", f"{name} must be an int >= {minimum}, got {value!r}"
                )
        for name in ("interleaving", "coalescing", "functional"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise RequestError(
                    "bad-value", f"{name} must be a bool, got {value!r}"
                )
        for name in ("scale_elements", "scale_iterations"):
            value = getattr(self, name)
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool) or value < 1
            ):
                raise RequestError(
                    "bad-value", f"{name} must be None or an int >= 1, got {value!r}"
                )
        if not self.tenant or not isinstance(self.tenant, str) or "\n" in self.tenant:
            raise RequestError(
                "bad-value", f"tenant must be a non-empty line, got {self.tenant!r}"
            )
        if self.qos is not None and (
            not isinstance(self.qos, int) or isinstance(self.qos, bool) or self.qos < 0
        ):
            raise RequestError(
                "bad-value", f"qos must be None or an int >= 0, got {self.qos!r}"
            )

    # -- identity ----------------------------------------------------------

    def job_kwargs(self) -> Dict[str, Any]:
        """The canonical ``scenario_summary`` kwargs for this request.

        Scenario-shaping fields always appear; tuning fields appear only
        when non-default, so default runs keep the config-hash keys
        every pinned digest was recorded under.
        """
        kwargs: Dict[str, Any] = {key: getattr(self, key) for key in _ALWAYS_KEYS}
        for key, default in _OPTIONAL_DEFAULTS.items():
            value = getattr(self, key)
            if value != default:
                kwargs[key] = value
        return kwargs

    def to_farm_job(self) -> "FarmJob":
        """This request as a farm job (config-hash identity included)."""
        from .exec.farm import FarmJob

        return FarmJob(
            fn=_SCENARIO_FN,
            kwargs=self.job_kwargs(),
            label=f"{self.app}:{self.n_vps}vps",
        )

    @property
    def config_hash(self) -> str:
        """The farm's config-hash identity for this scenario."""
        from .obs.export import config_key

        return config_key(_SCENARIO_FN, self.job_kwargs())

    @property
    def seed(self) -> int:
        """Deterministic per-scenario seed (derived from the hash)."""
        from .obs.export import seed_for

        return seed_for(self.config_hash)

    # -- wire format -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Full explicit JSON form (every field, schema included)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunRequest":
        """Parse a wire payload; structured errors on anything off.

        Unknown fields are rejected (not silently dropped): a newer
        client talking to an older daemon must find out, not get a
        subtly different scenario.  A missing ``schema`` defaults to the
        current version; an unsupported one raises ``bad-schema``.
        """
        if not isinstance(payload, dict):
            raise RequestError(
                "bad-frame", f"request payload must be an object, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise RequestError(
                "bad-field",
                f"unknown RunRequest field(s): {', '.join(unknown)} "
                f"(schema {SCHEMA_VERSION} speaks: {', '.join(sorted(known))})",
            )
        schema = payload.get("schema", SCHEMA_VERSION)
        if not isinstance(schema, int) or schema != SCHEMA_VERSION:
            raise RequestError(
                "bad-schema",
                f"unsupported RunRequest schema {schema!r}; this build "
                f"speaks schema {SCHEMA_VERSION}",
            )
        if "app" not in payload:
            raise RequestError("bad-field", "RunRequest requires 'app'")
        try:
            return cls(**payload)
        except TypeError as exc:  # non-keyword-able payload shapes
            raise RequestError("bad-frame", str(exc)) from None

    def with_overrides(self, **overrides: Any) -> "RunRequest":
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **overrides)


#: Default of each tuning field, for the non-default rule.
_OPTIONAL_DEFAULTS: Dict[str, Any] = {
    f.name: f.default for f in fields(RunRequest) if f.name in _OPTIONAL_KEYS
}


def _check_name(field_name: str, value: Any, known: Mapping[str, Any]) -> None:
    """Reject ``value`` unless it is a string key of ``known``."""
    if not isinstance(value, str) or value not in known:
        raise RequestError(
            "bad-value",
            f"unknown {field_name} {value!r}; known: {', '.join(sorted(known))}",
        )


@dataclass(frozen=True)
class RunResult:
    """Outcome of :func:`run`: the value and its digest identity."""

    #: The request that produced this result.
    request: RunRequest
    #: The JSON-able scenario summary (the digest wire format).
    value: Dict[str, Any]
    #: ``results_digest`` over the single (config-hash, value) pair —
    #: bit-identical across the CLI, :func:`run`, and the daemon.
    digest: str
    #: Config-hash identity the value was produced under.
    config_hash: str
    #: Host wall-clock spent executing, in seconds.
    duration_s: float
    #: pid of the process that executed the scenario.
    worker_pid: int = 0


def run(request: RunRequest) -> RunResult:
    """Execute a request locally through the farm's ``run_job`` path.

    This is the exact code path a farm worker and the ``repro serve``
    daemon execute, under the same config-hash key, so the returned
    digest is bit-identical to a daemon-produced one for the same
    request.
    """
    from .exec.farm import results_digest, run_job, warm_worker

    job = request.to_farm_job()
    warm_worker()
    result = run_job(job)
    return RunResult(
        request=request,
        value=result.value,
        digest=results_digest([result]),
        config_hash=job.key,
        duration_s=result.duration_s,
        worker_pid=result.worker_pid,
    )


def scenario(request: RunRequest) -> "ScenarioResult":
    """Execute a request in-process; rich result, live framework.

    The :class:`~repro.core.scenarios.ScenarioResult` carries the live
    framework in ``extras["framework"]`` — what the CLI's ``run`` and
    ``account`` paths need for gantt rendering and per-VP accounting.
    ``result.summary()`` is byte-identical to the ``value`` of
    :func:`run` for the same request (that equality is pinned by the
    service test suite).
    """
    from .core.ipc import resolve_transport
    from .core.scenarios import run_sigma_vp

    return run_sigma_vp(
        _spec(request.app, request.scale_elements, request.scale_iterations),
        n_vps=request.n_vps,
        interleaving=request.interleaving,
        coalescing=request.coalescing,
        transport=resolve_transport(request.transport),
        max_batch=request.max_batch,
        n_host_gpus=request.n_host_gpus,
        functional=request.functional,
        policy=request.policy,
        placement=request.placement,
    )


def scenario_summary(**fields: Any) -> Dict[str, Any]:
    """:func:`scenario` of ``RunRequest(**fields)``, summarized.

    The function behind the scenario job tag that
    :meth:`RunRequest.to_farm_job` builds: what a farm worker, the
    daemon and :func:`run` execute for one request.
    """
    return scenario(RunRequest(**fields)).summary()


def _spec(app: str, scale_elements: Optional[int] = None,
          scale_iterations: Optional[int] = None) -> "WorkloadSpec":
    """The catalogued workload ``app``, rescaled when either size is set."""
    from .workloads.catalog import get_workload

    spec = get_workload(app)
    if scale_elements is not None or scale_iterations is not None:
        spec = spec.scaled_to(
            scale_elements if scale_elements is not None else spec.elements,
            iterations=scale_iterations,
        )
    return spec


def connect(socket_path: Optional[str] = None) -> "ServeClient":
    """Open a client connection to a running ``repro serve`` daemon."""
    from .serve.client import ServeClient

    return ServeClient.connect(socket_path)


def submit(
    request: RunRequest,
    socket_path: Optional[str] = None,
    wait: bool = False,
) -> Dict[str, Any]:
    """Submit a request to a running daemon; returns the job record.

    With ``wait=True`` blocks until the job reaches a terminal state and
    returns the final record (including the result value and digest).
    """
    with connect(socket_path) as client:
        record = client.submit(request)
        if wait:
            record = client.wait(record["job_id"])
        return record
