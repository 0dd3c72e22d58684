"""Virtual platform substrate: guest CPU, CUDA runtime, emulation."""

from .cpu import (
    BINARY_TRANSLATION_SLOWDOWN,
    CPUModel,
    EMULATION_BT_PENALTY,
    GUEST_DRIVER_CALL_OPS,
    HOST_XEON,
    QEMU_ARM_VP,
)
from .cuda_runtime import (
    AsyncResult,
    CudaRuntime,
    EmulationBackend,
    NativeGPUBackend,
    SigmaVPBackend,
)
from .emulation import EMULATION_OPS, EmulationCost, GPUEmulator
from .opencl_runtime import OpenCLRuntime
from .platform import VirtualPlatform

__all__ = [
    "AsyncResult",
    "BINARY_TRANSLATION_SLOWDOWN",
    "CPUModel",
    "CudaRuntime",
    "EMULATION_BT_PENALTY",
    "EMULATION_OPS",
    "EmulationBackend",
    "EmulationCost",
    "GPUEmulator",
    "GUEST_DRIVER_CALL_OPS",
    "HOST_XEON",
    "NativeGPUBackend",
    "OpenCLRuntime",
    "QEMU_ARM_VP",
    "SigmaVPBackend",
    "VirtualPlatform",
]
