"""Every guard deopt records one ``guard-violation`` incident.

Both deoptimization paths — the guarded executor's and the VM's — log
through :func:`repro.vm.guard.record_deopt`, so guard deopts and
infrastructure faults share one incident log.
"""

from repro.accelerator import PROPOSED_LA
from repro.cpu import standard_live_ins
from repro.resilience.faults import FaultInjector, FaultSite, FaultSpec
from repro.resilience.incidents import incident_log
from repro.vm.guard import GuardConfig, GuardedExecutor
from repro.vm.runtime import VMConfig, VirtualMachine
from repro.vm.translator import translation_key
from repro.workloads import kernels as K
from repro.workloads.suite import DEFAULT_SCALARS
from tests.conftest import seeded_memory


def _records(seq: int) -> list:
    return [i for i in incident_log().since(seq)
            if i.kind == "guard-violation"]


def test_guarded_executor_deopt_records_one_incident():
    loop = K.quantize(trip_count=24)
    executor = GuardedExecutor(PROPOSED_LA, GuardConfig.checked_mode())
    memory = seeded_memory(loop, seed=4)
    seq = len(incident_log())
    run = executor.run(
        loop, memory, standard_live_ins(loop, memory, DEFAULT_SCALARS),
        fault_hook=FaultInjector(FaultSpec(FaultSite.REGFILE, 0, 9)))
    assert run.detected
    [incident] = _records(seq)
    assert incident.component == "guard"
    assert incident.details == {
        "loop": loop.name, "key": executor.key_for(loop),
        "verdict": run.verdict.describe()}


def test_vm_deopt_records_one_incident(monkeypatch):
    from repro.vm import runtime as runtime_mod

    class Diverged:
        class verdict:
            ok = False
            mismatches = []

            @staticmethod
            def describe():
                return "forced divergence (test)"

    monkeypatch.setattr(runtime_mod, "differential_check",
                        lambda *a, **k: Diverged)
    config = VMConfig(accelerator=PROPOSED_LA,
                      guard=GuardConfig.checked_mode())
    loop = K.quantize(trip_count=24)
    seq = len(incident_log())
    outcome = VirtualMachine(config).run_loop(loop)
    assert outcome.deoptimized
    [incident] = _records(seq)
    assert incident.details == {
        "loop": loop.name,
        "key": translation_key(loop, PROPOSED_LA, config.options),
        "verdict": "deoptimized: forced divergence (test)"}
