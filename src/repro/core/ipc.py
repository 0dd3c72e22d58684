"""The Inter-Process Communication manager and VP control.

"The IPC Manager allows the virtual embedded GPUs and the host GPU to
communicate through an IPC method such as socket or shared memory.
Inside the IPC manager, there is a submodule, named VP control, that
stops and resumes the VPs to support the Kernel Interleaving optimization
technique for synchronous kernel invocations" (paper Section 2).

Every request a VP makes crosses the guest/host boundary, paying the
transport's per-message latency plus payload-proportional transfer time.
The two catalogued transports are the ones the paper names: a socket
(higher latency — calibrated so SigmaVP's Table 1 overhead lands at
~3.3x native) and shared memory (the cheaper alternative, benchmarked in
the ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Protocol

from ..obs import metrics as _obs_metrics
from ..obs import tracer as _obs_trace
from ..sim import Environment
from .jobs import Job, JobQueue


@dataclass(frozen=True)
class IPCTransport:
    """A guest/host communication mechanism.

    ``zero_copy`` marks transports where payloads never cross the
    channel: the guest's memory is directly visible to the host (QEMU
    guest RAM *is* host memory), so a shared-memory transport passes a
    descriptor and the host copy engine DMAs straight from the source.
    Socket transports must stream the payload through the channel.
    """

    name: str
    latency_ms: float
    bandwidth_gbps: float
    zero_copy: bool = False

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise ValueError(f"{self.name}: latency must be non-negative")
        if self.bandwidth_gbps <= 0:
            raise ValueError(f"{self.name}: bandwidth must be positive")

    def transfer_ms(self, payload_bytes: int) -> float:
        """One message: fixed latency plus payload streaming time."""
        if payload_bytes < 0:
            raise ValueError(f"negative payload {payload_bytes}")
        if self.zero_copy:
            payload_bytes = 0
        return self.latency_ms + (payload_bytes / 1e9) / self.bandwidth_gbps * 1e3


#: Guest/host socket (e.g. QEMU virtio-serial / TCP loopback).
SOCKET = IPCTransport(name="socket", latency_ms=0.55, bandwidth_gbps=2.0)

#: Shared-memory ring between the virtual GPU model and the host server:
#: descriptors only, payloads read in place.
SHARED_MEMORY = IPCTransport(
    name="shared-memory", latency_ms=0.03, bandwidth_gbps=6.0, zero_copy=True
)

#: Every transport a request or farm job may name.  Read-only: a
#: transport crosses a process boundary by name, so a name must always
#: resolve to the same object.
TRANSPORTS: Mapping[str, IPCTransport] = MappingProxyType({
    SOCKET.name: SOCKET,
    SHARED_MEMORY.name: SHARED_MEMORY,
    "shm": SHARED_MEMORY,
})


def resolve_transport(name: str) -> IPCTransport:
    """The transport :data:`TRANSPORTS` holds under ``name``."""
    try:
        return TRANSPORTS[name]
    except KeyError:
        known = ", ".join(sorted(TRANSPORTS))
        raise KeyError(f"unknown transport {name!r}; known: {known}") from None


class Stoppable(Protocol):
    """What VP control needs from a virtual platform: stop/resume."""

    name: str

    def stop(self) -> None: ...  # noqa: E704

    def resume(self) -> None: ...  # noqa: E704


class VPControl:
    """Stops and resumes virtual platforms (for synchronous interleaving)."""

    def __init__(self):
        self._vps: Dict[str, Stoppable] = {}
        self._stopped: Dict[str, bool] = {}

    def register(self, vp: Stoppable) -> None:
        if vp.name in self._vps:
            raise ValueError(f"VP {vp.name!r} is already registered")
        self._vps[vp.name] = vp
        self._stopped[vp.name] = False

    def registered(self) -> List[str]:
        return sorted(self._vps)

    def is_stopped(self, name: str) -> bool:
        return self._stopped.get(name, False)

    def stop(self, name: str) -> None:
        vp = self._require(name)
        if not self._stopped[name]:
            vp.stop()
            self._stopped[name] = True
            self._mark("vp.stop", vp)

    def resume(self, name: str) -> None:
        vp = self._require(name)
        if self._stopped[name]:
            vp.resume()
            self._stopped[name] = False
            self._mark("vp.resume", vp)

    @staticmethod
    def _mark(event: str, vp: Stoppable) -> None:
        """Record a stop/resume decision with the VP's own clock."""
        tracer = _obs_trace.TRACER
        if tracer is not None:
            env = getattr(vp, "env", None)
            tracer.instant(
                "vp-control", event,
                env.now if env is not None else 0.0,
                cat="sched", args={"vp": vp.name},
            )
        registry = _obs_metrics.REGISTRY
        if registry is not None:
            registry.counter(f"vpcontrol.{event.rpartition('.')[2]}s").inc()

    def resume_all(self) -> None:
        for name in self._vps:
            self.resume(name)

    def _require(self, name: str) -> Stoppable:
        try:
            return self._vps[name]
        except KeyError:
            raise KeyError(f"VP {name!r} is not registered with VP control") from None


class IPCManager:
    """Moves job requests from the VPs into the host Job Queue."""

    def __init__(
        self,
        env: Environment,
        queue: JobQueue,
        transport: IPCTransport = SOCKET,
    ):
        self.env = env
        self.queue = queue
        self.transport = transport
        self.vp_control = VPControl()
        self.messages_sent = 0
        self.bytes_transferred = 0

    def __repr__(self) -> str:
        return (
            f"<IPCManager transport={self.transport.name} "
            f"messages={self.messages_sent}>"
        )

    def submit(self, job: Job, payload_bytes: int = 0, after_ms: float = 0.0):
        """Generator: deliver ``job`` to the host queue over the transport.

        H2D copies ship their payload across the IPC channel (the guest
        has the data); other requests are small control messages.  The
        send starts ``after_ms`` from now: a guest driver call folds its
        own CPU time into the send's timeout, so one call is one heap
        entry.
        """
        delay = self.transport.transfer_ms(payload_bytes)
        self.messages_sent += 1
        self.bytes_transferred += payload_bytes
        started = self.env.now + after_ms
        yield self.env.timeout_at(started + delay)
        tracer = _obs_trace.TRACER
        if tracer is not None:
            tracer.span(
                f"ipc/{self.transport.name}", "submit",
                started, self.env.now, cat="ipc",
                args={
                    "vp": job.vp, "job": job.job_id,
                    "kind": job.kind.name, "bytes": payload_bytes,
                },
            )
        self.queue.put(job)

    def respond(self, payload_bytes: int = 0, vp: Optional[str] = None):
        """Generator: the host->guest completion notification."""
        delay = self.transport.transfer_ms(payload_bytes)
        self.messages_sent += 1
        self.bytes_transferred += payload_bytes
        started = self.env.now
        yield self.env.timeout(delay)
        tracer = _obs_trace.TRACER
        if tracer is not None:
            tracer.span(
                f"ipc/{self.transport.name}", "respond",
                started, self.env.now, cat="ipc",
                args={"vp": vp, "bytes": payload_bytes},
            )
