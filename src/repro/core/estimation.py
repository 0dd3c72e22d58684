"""Profile-based execution analysis: time and power estimation.

Implements the paper's Section 4.  The kernel is compiled for both the
host and the target architecture; executing it on the *host* GPU yields a
profile (instruction counts, elapsed cycles, stall breakdown), from which
three increasingly-refined estimates of the target's clock cycles are
derived:

* **C** (Eq. 2)  — scale the target's expected instruction count
  sigma{K,T} by the peak-IPC ratio between target and host.  Ignores
  per-instruction-type latencies and every stall.
* **C'** (Eq. 4) — add per-type instruction latencies: ideal target
  cycles (Eq. 3) plus the host's *measured* stall cycles carried over
  verbatim.
* **C''** (Eq. 5) — replace the host's measured data-dependency stalls
  Upsilon[data]{K,H} with a prediction of the target's
  Upsilon[data]{K,T} from the probabilistic cache model.

Power (Eq. 6) combines the static dissipation with per-instruction-type
runtime energy at the estimated execution rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..gpu import cache as cache_model
from ..gpu.arch import GPUArchitecture
from ..gpu.timing import ExecutionProfile, KernelTimingModel
from ..kernels.compiler import KernelCompiler
from ..kernels.ir import ALL_TYPES, InstructionType, MEMORY_TYPES
from ..kernels.launch import LaunchConfig
from ..kernels.ir import KernelIR


@dataclass(frozen=True)
class TimingEstimate:
    """The three cycle estimates for one kernel on one target."""

    kernel_name: str
    host_name: str
    target_name: str
    sigma_target: Dict[InstructionType, float]
    c_cycles: float
    c_prime_cycles: float
    c_double_prime_cycles: float
    host_elapsed_cycles: float

    def cycles(self, model: str) -> float:
        """Select an estimate by name: 'C', \"C'\", or \"C''\"."""
        try:
            return {
                "C": self.c_cycles,
                "C'": self.c_prime_cycles,
                "C''": self.c_double_prime_cycles,
            }[model]
        except KeyError:
            raise ValueError(f"unknown estimate {model!r}; use C, C', or C''") from None


@dataclass(frozen=True)
class PowerEstimate:
    """Estimated power dissipation for one kernel on the target."""

    kernel_name: str
    target_name: str
    static_w: float
    dynamic_w: float
    execution_time_ms: float

    @property
    def total_w(self) -> float:
        return self.static_w + self.dynamic_w

    @property
    def energy_mj(self) -> float:
        """Energy for the launch in millijoules."""
        return self.total_w * self.execution_time_ms / 1e3


class ExecutionAnalyzer:
    """Derives target time/power from host profiles (paper Fig. 7)."""

    def __init__(
        self,
        host: GPUArchitecture,
        target: GPUArchitecture,
        compiler: Optional[KernelCompiler] = None,
    ):
        self.host = host
        self.target = target
        self.compiler = compiler or KernelCompiler()

    def __repr__(self) -> str:
        return f"ExecutionAnalyzer(host={self.host.name!r}, target={self.target.name!r})"

    # -- Eq. (1): expected dynamic instruction count ----------------------

    def sigma(
        self, kernel: KernelIR, launch: LaunchConfig, arch: GPUArchitecture
    ) -> Dict[InstructionType, float]:
        """sigma{K_i, A}: expected executed instructions per type."""
        compiled = self.compiler.compile(kernel, arch)
        return compiled.sigma(launch)

    # -- Eq. (3): ideal (stall-free) cycles -------------------------------

    def ideal_cycles(
        self, kernel: KernelIR, launch: LaunchConfig, arch: GPUArchitecture
    ) -> float:
        """C^P{K,A} = sum_i sigma{K_i,A} * tau{i,A} (device-level tau)."""
        sigma = self.sigma(kernel, launch, arch)
        return sum(
            sigma[itype] * arch.device_issue_cycles(itype) for itype in ALL_TYPES
        )

    # -- Eq. (2): the peak-IPC estimate ------------------------------------

    def estimate_c(self, kernel: KernelIR, launch: LaunchConfig) -> float:
        """C{K,T} = sigma{K,T} / (IPC_H * IPC_{H->T})."""
        sigma_total = sum(self.sigma(kernel, launch, self.target).values())
        ipc_host = self.host.ipc_peak
        ipc_host_to_target = self.target.ipc_peak / self.host.ipc_peak
        return sigma_total / (ipc_host * ipc_host_to_target)

    # -- Eq. (4): latency-aware estimate ------------------------------------

    def estimate_c_prime(
        self, kernel: KernelIR, launch: LaunchConfig, host_profile: ExecutionProfile
    ) -> float:
        """C'{K,T} = C^P{K,T} + C{K,H} - C^P{K,H}.

        The host's measured extra cycles (everything above ideal — all
        stalls) are carried over to the target unchanged.
        """
        cp_target = self.ideal_cycles(kernel, launch, self.target)
        cp_host = self.ideal_cycles(kernel, launch, self.host)
        return cp_target + host_profile.elapsed_cycles - cp_host

    # -- Eq. (5): cache-corrected estimate -------------------------------------

    def predicted_data_stalls(
        self, kernel: KernelIR, launch: LaunchConfig, arch: GPUArchitecture
    ) -> float:
        """Upsilon[data]{K,A} from the probabilistic cache model.

        Uses the ideal (Eq. 3) cycles as the issue stream that hides
        bandwidth time — the estimator's static stand-in for the real
        issue profile.
        """
        sigma = self.sigma(kernel, launch, arch)
        accesses = sum(sigma[t] for t in MEMORY_TYPES)
        return cache_model.data_stall_cycles(
            arch,
            kernel.footprint,
            accesses,
            launch.block_size,
            launch.grid_size,
            self.ideal_cycles(kernel, launch, arch),
        )

    def estimate_c_double_prime(
        self, kernel: KernelIR, launch: LaunchConfig, host_profile: ExecutionProfile
    ) -> float:
        """C''{K,T} = C'{K,T} - Upsilon[data]{K,H} + Upsilon[data]{K,T}."""
        c_prime = self.estimate_c_prime(kernel, launch, host_profile)
        upsilon_host = host_profile.data_stall_cycles
        upsilon_target = self.predicted_data_stalls(kernel, launch, self.target)
        return c_prime - upsilon_host + upsilon_target

    # -- the full estimate bundle -------------------------------------------------

    def analyze(
        self, kernel: KernelIR, launch: LaunchConfig,
        host_profile: Optional[ExecutionProfile] = None,
    ) -> TimingEstimate:
        """Run the whole Fig. 7 flow for one kernel launch.

        If no measured host profile is supplied, the kernel is executed
        on the host GPU model to obtain one (profiling run).
        """
        if host_profile is None:
            host_profile = self.profile_on_host(kernel, launch)
        return TimingEstimate(
            kernel_name=kernel.name,
            host_name=self.host.name,
            target_name=self.target.name,
            sigma_target=self.sigma(kernel, launch, self.target),
            c_cycles=self.estimate_c(kernel, launch),
            c_prime_cycles=self.estimate_c_prime(kernel, launch, host_profile),
            c_double_prime_cycles=self.estimate_c_double_prime(
                kernel, launch, host_profile
            ),
            host_elapsed_cycles=host_profile.elapsed_cycles,
        )

    def profile_on_host(self, kernel: KernelIR, launch: LaunchConfig) -> ExecutionProfile:
        """Execute the kernel on the host GPU model (Fig. 7 step 2)."""
        model = KernelTimingModel(self.host)
        compiled = self.compiler.compile(kernel, self.host)
        return model.execute(compiled, launch)

    def observe_on_target(self, kernel: KernelIR, launch: LaunchConfig) -> ExecutionProfile:
        """Ground truth: run the reference model at target parameters.

        This plays the role of the paper's measurement on the actual
        Tegra K1 board.
        """
        model = KernelTimingModel(self.target)
        compiled = self.compiler.compile(kernel, self.target)
        return model.execute(compiled, launch)

    # -- time and power ----------------------------------------------------------

    def estimated_time_ms(self, cycles: float) -> float:
        """ET{K,T}: estimated cycles through the target clock."""
        if cycles < 0:
            raise ValueError(f"negative cycle count {cycles}")
        return self.target.cycles_to_ms(cycles)

    def estimate_power(
        self,
        kernel: KernelIR,
        launch: LaunchConfig,
        cycles: Optional[float] = None,
        host_profile: Optional[ExecutionProfile] = None,
    ) -> PowerEstimate:
        """Eq. (6): P{K,T} = P_static + sum_i sigma_i/ET * RP_i.

        Uses C'' for the cycle count unless ``cycles`` is given, as the
        paper does ("We use C'' as the clock cycles for calculating the
        estimated power consumption").
        """
        if cycles is None:
            cycles = self.estimate_c_double_prime(
                kernel, launch,
                host_profile or self.profile_on_host(kernel, launch),
            )
        et_ms = self.estimated_time_ms(cycles)
        if et_ms <= 0:
            raise ValueError("estimated execution time must be positive")
        et_seconds = et_ms / 1e3
        sigma = self.sigma(kernel, launch, self.target)
        dynamic_w = sum(
            (sigma[itype] / et_seconds)
            * self.target.instruction_energy_nj[itype] * 1e-9
            for itype in ALL_TYPES
        )
        return PowerEstimate(
            kernel_name=kernel.name,
            target_name=self.target.name,
            static_w=self.target.static_power_w,
            dynamic_w=dynamic_w,
            execution_time_ms=et_ms,
        )

    def observed_power(self, kernel: KernelIR, launch: LaunchConfig) -> PowerEstimate:
        """Ground-truth power: what a meter on the target board reads.

        Unlike the Eq. (6) estimate, the measurement reflects the actual
        elapsed cycles *and* the DRAM interface energy of every line
        fill — activity the per-instruction power model does not cover,
        which is what keeps Fig. 13's estimates within (rather than at)
        ~10% of the measured values.
        """
        profile = self.observe_on_target(kernel, launch)
        et_ms = self.estimated_time_ms(profile.elapsed_cycles)
        et_seconds = et_ms / 1e3
        sigma = profile.sigma
        dynamic_w = sum(
            (sigma[itype] / et_seconds)
            * self.target.instruction_energy_nj[itype] * 1e-9
            for itype in ALL_TYPES
        )
        dram_w = (
            profile.cache_misses / et_seconds
        ) * self.target.dram_access_energy_nj * 1e-9
        return PowerEstimate(
            kernel_name=kernel.name,
            target_name=self.target.name,
            static_w=self.target.static_power_w,
            dynamic_w=dynamic_w + dram_w,
            execution_time_ms=et_ms,
        )
