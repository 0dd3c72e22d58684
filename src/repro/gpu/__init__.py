"""Host GPU hardware models: architectures, engines, memory, timing."""

from .arch import (
    CATALOG,
    CacheGeometry,
    GPUArchitecture,
    GRID_K520,
    QUADRO_4000,
    TEGRA_K1,
    get_architecture,
)
from .cache import CacheBehavior, hit_probability, predict_behavior
from .device import HostGPU
from .engines import ComputeEngine, CopyEngine, Engine, EngineOp, TimelineEntry
from .memory import DeviceBuffer, DeviceMemoryAllocator, OutOfDeviceMemory
from .stream import GPUStream
from .timing import ExecutionProfile, KernelTimingModel

__all__ = [
    "CATALOG",
    "CacheBehavior",
    "CacheGeometry",
    "ComputeEngine",
    "CopyEngine",
    "DeviceBuffer",
    "DeviceMemoryAllocator",
    "Engine",
    "EngineOp",
    "ExecutionProfile",
    "GPUArchitecture",
    "GPUStream",
    "GRID_K520",
    "HostGPU",
    "KernelTimingModel",
    "OutOfDeviceMemory",
    "QUADRO_4000",
    "TEGRA_K1",
    "TimelineEntry",
    "get_architecture",
    "hit_probability",
    "predict_behavior",
]
