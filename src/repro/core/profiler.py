"""The Profiler: collects per-kernel execution information.

In the paper the profiler "is provided by the manufacturer" and "acquires
execution information such as the number of executed instructions (per
instruction type), the elapsed clock cycles, and the percentages of each
occurred stall" (Section 2).  Here it records the
:class:`~repro.gpu.timing.ExecutionProfile` of every kernel the
dispatcher runs on the host GPU, keyed by kernel name and VP, and offers
the lookups the Time/Power Estimation module consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..gpu.timing import ExecutionProfile
from .jobs import Job


@dataclass(frozen=True)
class ProfileRecord:
    """One kernel execution as the profiler saw it."""

    kernel_name: str
    vp: str
    job_id: int
    profile: ExecutionProfile
    coalesced_members: int


class Profiler:
    """Accumulates kernel execution profiles from the host GPU."""

    def __init__(self):
        self._records: List[ProfileRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def record(self, job: Job, profile: ExecutionProfile) -> ProfileRecord:
        record = ProfileRecord(
            kernel_name=profile.kernel_name,
            vp=job.vp,
            job_id=job.job_id,
            profile=profile,
            coalesced_members=len(job.members),
        )
        self._records.append(record)
        return record

    @property
    def records(self) -> List[ProfileRecord]:
        return list(self._records)

    def last_profile(self, kernel_name: Optional[str] = None) -> Optional[ExecutionProfile]:
        for record in reversed(self._records):
            if kernel_name is None or record.kernel_name == kernel_name:
                return record.profile
        return None
