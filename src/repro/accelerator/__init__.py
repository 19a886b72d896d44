"""Loop accelerator: configuration, stream binding, machine, executors,
area."""

from repro.accelerator.addrgen import ResolvedStream, resolve_pattern
from repro.accelerator.area import AreaBreakdown, accelerator_area
from repro.accelerator.config import INFINITE_LA, LAConfig, PROPOSED_LA, UNBOUNDED
from repro.accelerator.machine import (
    AcceleratorFault,
    AcceleratorRun,
    KernelImage,
    LoopAccelerator,
)
from repro.accelerator.jit import (
    SpecializationUnsupported,
    SpecializedKernel,
    execute_pipelined,
    specialize,
)
from repro.accelerator.pipeline_executor import (
    OverlappedRun,
    execute_overlapped,
)

__all__ = [
    "AcceleratorFault", "AcceleratorRun", "AreaBreakdown", "INFINITE_LA",
    "KernelImage", "LAConfig", "LoopAccelerator", "OverlappedRun",
    "PROPOSED_LA", "ResolvedStream", "SpecializationUnsupported",
    "SpecializedKernel", "UNBOUNDED", "accelerator_area",
    "execute_overlapped", "execute_pipelined", "resolve_pattern",
    "specialize",
]
