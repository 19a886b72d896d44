"""Co-designed virtual machine: translator, code cache, runtime, guard."""

from repro.vm.costmodel import (
    DEFAULT_WEIGHTS,
    PHASES,
    TranslationMeter,
    translation_cycles,
)
from repro.vm.guard import (
    GuardConfig,
    GuardStats,
    GuardVerdict,
    GuardedExecutor,
    GuardedRun,
    LoopBlacklist,
    differential_check,
)
from repro.vm.runtime import AppRun, LoopOutcome, VMConfig, VirtualMachine
from repro.vm.translator import (
    TranslationOptions,
    TranslationResult,
    translate_loop,
)

__all__ = [
    "AppRun", "DEFAULT_WEIGHTS", "GuardConfig",
    "GuardStats", "GuardVerdict", "GuardedExecutor", "GuardedRun",
    "LoopBlacklist", "LoopOutcome", "PHASES", "TranslationMeter",
    "TranslationOptions", "TranslationResult", "VMConfig", "VirtualMachine",
    "differential_check", "translate_loop", "translation_cycles",
]
