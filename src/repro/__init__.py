"""VEAL: Virtualized Execution Accelerator for Loops — full reproduction.

Reproduces Clark, Hormati & Mahlke, ISCA 2008: a generalized loop
accelerator plus a co-designed virtual machine that dynamically modulo
schedules baseline-ISA loops onto whatever accelerator is present.

Quick start (the stable facade — see ``repro.api``)::

    import repro

    loop = repro.workloads.kernels.fir_filter(taps=8)
    result = repro.translate(loop)            # proposed LA by default
    print(result.image.ii, result.image.stage_count)

    session = repro.Session()                 # shared cache across calls
    outcome = session.run_loop(loop)          # translate + execute + time

Package map:
    ``repro.ir``          — baseline RISC IR, DFG, CFG, loop builder
    ``repro.analysis``    — streams, partitioning, schedulability, SCCs
    ``repro.transform``   — static transforms (fission, if-conversion, ...)
    ``repro.cca``         — CCA model + greedy subgraph mapper
    ``repro.scheduler``   — Swing modulo scheduling, MII, registers
    ``repro.accelerator`` — the loop accelerator machine + area model
    ``repro.cpu``         — scalar interpreter and in-order timing models
    ``repro.isa``         — binary encoding + Figure 9 annotations
    ``repro.vm``          — the co-designed VM (translator, code cache,
                            guarded execution)
    ``repro.errors``      — structured failure taxonomy
    ``repro.workloads``   — kernels, benchmark suite, loop generator
    ``repro.experiments`` — one module per paper figure/table
    ``repro.api``         — the stable facade (Session, Settings, ...)
    ``repro.service``     — long-running multi-session loop service
    ``repro.obs``         — span tracing + process-wide metrics
    ``repro.perf``        — experiment engine (caches, parallel sweeps)
    ``repro.resilience``  — incidents, crash-safe cache, fault
                            injectors and the seeded campaign engine
"""

from repro.accelerator import (
    INFINITE_LA,
    KernelImage,
    LAConfig,
    LoopAccelerator,
    PROPOSED_LA,
    accelerator_area,
)
from repro.cpu import ARM11, CORTEX_A8, QUAD_ISSUE, Interpreter, Memory
from repro.errors import (
    ReproError,
    ServiceError,
    ServiceOverload,
    SettingsError,
    TranslationError,
)
from repro.ir import Loop, LoopBuilder, Opcode, build_dfg
from repro.vm import (
    GuardConfig,
    GuardedExecutor,
    TranslationOptions,
    VMConfig,
    VirtualMachine,
    translate_loop,
)

# The stable facade (and the submodules it composes: ``repro.obs`` /
# ``repro.perf`` come in as side effects of the ``repro.vm`` import
# above, so re-exporting the api costs no extra import work).
from repro import obs, perf, workloads
from repro.api import (
    Session,
    Settings,
    benchmark,
    compare,
    connect,
    figures,
    run_figure,
    run_loop,
    run_suite,
    sweep,
    translate,
)
from repro.resilience.incidents import incident_log, record_incident

__version__ = "1.3.0"

__all__ = [
    "ARM11", "CORTEX_A8", "GuardConfig", "GuardedExecutor", "INFINITE_LA",
    "Interpreter", "KernelImage", "LAConfig", "Loop", "LoopAccelerator",
    "LoopBuilder", "Memory", "Opcode", "PROPOSED_LA", "QUAD_ISSUE",
    "ReproError", "ServiceError", "ServiceOverload", "Session",
    "Settings", "SettingsError", "TranslationError", "TranslationOptions",
    "VMConfig", "VirtualMachine", "accelerator_area", "benchmark",
    "build_dfg", "compare", "connect", "figures", "incident_log", "obs",
    "perf", "record_incident",
    "run_figure", "run_loop", "run_suite", "service", "sweep",
    "translate", "translate_loop", "workloads", "xp",
]


def __getattr__(name: str):
    # ``repro.service`` stays a lazy attribute: the service pulls in
    # concurrent.futures/multiprocessing machinery that plain library
    # use should not pay for.
    if name == "service":
        import repro.service as service
        return service
    # The experiment manager is lazy for the same reason: plain library
    # use should not pay for the measurement/aggregation stack.
    if name == "xp":
        import repro.xp as xp
        return xp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
