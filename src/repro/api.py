"""The public submission facade: one request schema, three ways to run.

Historically every layer re-assembled the same scenario description by
hand: ``repro run`` built ``SigmaVP(...)`` kwargs, ``repro trace`` and
``repro metrics`` built ``FarmJob`` kwargs, and the bench/figure code
built yet another copy.  :class:`RunRequest` is the single, frozen,
schema-versioned description of "run this scenario"; everything else is
a projection of it:

* :func:`run` — execute locally through the scenario farm's
  ``run_job`` path and return the value plus its results digest;
* :func:`scenario` — execute in-process and return the rich
  :class:`~repro.core.scenarios.ScenarioResult` (the CLI's ``run`` /
  ``account`` paths need the live framework for gantt/accounting);
* :func:`submit` / :func:`connect` — hand the request to a running
  ``repro serve`` daemon over its Unix socket
  (:mod:`repro.serve`); the wire protocol is just the request's JSON
  form plus event frames, so the local and remote paths cannot drift.

**Identity contract.**  :meth:`RunRequest.to_farm_job` emits exactly
the keyword arguments the legacy CLI plumbing emitted: scenario-shaping
fields always, tuning fields only when they differ from their defaults.
Config-hash keys — and therefore deterministic seeds and results
digests — are byte-identical to every previously recorded run.
``tenant`` and ``qos`` are service-level routing, not scenario
identity: two tenants submitting the same scenario share one config
hash and one digest.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .core.scenarios import ScenarioResult
    from .exec.farm import FarmJob
    from .serve.client import ServeClient

__all__ = [
    "SCHEMA_VERSION",
    "RequestError",
    "RunRequest",
    "RunResult",
    "connect",
    "run",
    "scenario",
    "submit",
]

#: Version of the :class:`RunRequest` wire schema.  Bump on any change
#: that alters field meaning or removes a field; additions of defaulted
#: fields keep the version (old daemons reject unknown fields with a
#: structured error, which is the compatibility signal clients act on).
#: Schema 2 dropped ``shards``; schema 3 dropped ``backend``.
SCHEMA_VERSION = 3

#: Transports a request may name (the farm's resolve_transport accepts
#: the same spellings).
_TRANSPORTS = ("socket", "shm", "shared-memory")

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

    The field set mirrors ``repro.exec.jobs:scenario_summary`` — the
    farm-job function every execution path ultimately calls — plus the
    service-routing fields (``tenant``, ``qos``) the daemon schedules
    tenants by.
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
    #: Registered scheduling policy / placement names (``repro
    #: policies``); ``None`` keeps the legacy derived defaults.
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
        if not self.app or not isinstance(self.app, str):
            raise RequestError("bad-value", f"app must be a non-empty string, got {self.app!r}")
        for name, minimum in (("n_vps", 1), ("n_host_gpus", 1), ("max_batch", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
                raise RequestError(
                    "bad-value", f"{name} must be an int >= {minimum}, got {value!r}"
                )
        if self.transport not in _TRANSPORTS:
            raise RequestError(
                "bad-value",
                f"unknown transport {self.transport!r}; known: "
                f"{', '.join(_TRANSPORTS)}",
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
        when non-default (the legacy ``_sched_kwargs`` rule), so default
        runs keep the config-hash keys every pinned digest was recorded
        under.
        """
        kwargs: Dict[str, Any] = {key: getattr(self, key) for key in _ALWAYS_KEYS}
        defaults = _field_defaults()
        for key in _OPTIONAL_KEYS:
            value = getattr(self, key)
            if value != defaults[key]:
                kwargs[key] = value
        return kwargs

    def to_farm_job(self, label: str = "") -> "FarmJob":
        """This request as a farm job (config-hash identity included)."""
        from .exec.farm import FarmJob

        return FarmJob(
            fn="repro.exec.jobs:scenario_summary",
            kwargs=self.job_kwargs(),
            label=label or f"{self.app}:{self.n_vps}vps",
        )

    @property
    def config_hash(self) -> str:
        """The farm's config-hash identity for this scenario."""
        return self.to_farm_job().key

    @property
    def seed(self) -> int:
        """Deterministic per-scenario seed (derived from the hash)."""
        return self.to_farm_job().seed

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


def _field_defaults() -> Dict[str, Any]:
    """Default value per RunRequest field (for the non-default rule)."""
    return {
        f.name: (f.default if f.default is not dataclasses.MISSING else None)
        for f in fields(RunRequest)
    }


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
    daemon execute — same config-hash key, same deterministic seed — so
    the returned digest is bit-identical to a daemon-produced one for
    the same request.
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
    from .core.scenarios import run_sigma_vp
    from .exec.jobs import _spec, resolve_transport

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
