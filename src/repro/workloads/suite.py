"""The benchmark suite.

Mirrors the paper's evaluation set: MediaBench applications and SPECfp
codes on the "left portion of Figure 2" (high modulo-schedulable
coverage — the accelerator's targets), plus SPECint-style control
benchmarks from the right portion whose time sits in while-loops,
subroutine loops and acyclic code.

Each benchmark is a set of kernels (real IR loops) with invocation
counts and trip counts chosen to reproduce the paper's *shape*:

* rawcaudio/rawdaudio have one critical loop with huge dynamic weight —
  translation cost amortises away;
* mpeg2dec has several large loops with moderate reuse — fully dynamic
  translation visibly hurts (paper: 2.1 -> 1.15);
* pegwit and 172.mgrid run big or rarely-reused loops — fully dynamic
  translation erases the benefit entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from repro.cpu.pipeline import ARM11, CPUConfig, InOrderPipeline
from repro.ir.builder import LoopBuilder
from repro.ir.loop import Loop
from repro.perf.memo import RuntimeMemos
from repro.transform.fission import fission_loop
from repro.workloads import kernels as K


def _tagged(loop: Loop, *transforms: str) -> Loop:
    """Record which static loop transforms produced this kernel.

    Binaries compiled without these transforms cannot use the
    accelerator for the loop (Figure 7); the VM's untransformed mode
    keys off this annotation.
    """
    loop.annotations["static_transforms"] = list(transforms)
    return loop


#: Content digest -> fissioned halves.  Fission is deterministic on
#: loop content and dominates suite construction cost; every suite
#: build used to re-run the O(n^2) cut search.  Callers get fresh
#: ``rebuild()`` copies, so the cached halves stay pristine.
_fission_cache: dict[str, tuple[Loop, Loop]] = {}


def fissioned(loop: Loop) -> list[Loop]:
    """Statically fission a too-large loop into accelerable halves."""
    from repro.perf.digest import loop_digest
    key = loop_digest(loop)
    halves = _fission_cache.get(key)
    if halves is None:
        halves = fission_loop(loop)
        _fission_cache[key] = halves
    return [_tagged(half.rebuild(), "fission") for half in halves]

#: Scalar live-in values used whenever a kernel is executed functionally.
DEFAULT_SCALARS: dict[str, float] = {
    "a": 3, "b0": 5, "a1": 3, "a2": 2, "y1": 0, "y2": 0,
    "valpred": 0, "step": 16, "acc": 0, "recip": 1311, "buf": 1,
    "h": 0x1234, "best": -(1 << 40), "besti": 0, "facc": 0.0,
    "c0": 0.5, "c1": 0.25, "a0": 1.5, "tdts": 0.125, "rel": 0.9,
}
for _t in range(16):
    DEFAULT_SCALARS[f"c{_t}"] = (_t * 7 + 3) % 31 - 15
for _r in range(4):
    for _c in range(4):
        DEFAULT_SCALARS[f"m{_r}{_c}"] = 0.25 * (_r + 1) * (_c - 1.5)


def acyclic_probe() -> Loop:
    """A canonical straight-line integer/branch mix used to estimate a
    core's relative performance on acyclic (non-loop) code, so the
    2-issue and 4-issue configurations speed up acyclic regions
    realistically instead of not at all."""
    b = LoopBuilder("acyclic_probe", trip_count=64)
    x = b.array("px", length=128)
    i = b.counter()
    v = b.load(b.add(x, i))
    t = b.add(v, 3)
    u = b.xor(t, v)
    w = b.shl(u, 1)
    q = b.sub(w, t)
    r = b.and_(q, 255)
    s = b.add(r, u)
    p = b.cmpgt(s, 0)
    z = b.select(p, s, r)
    b.store(b.add(x, i), z)
    return b.finish()


@dataclass
class Benchmark(RuntimeMemos):
    """One application of the evaluation suite.

    Attributes:
        name: Application name (matches the paper where possible).
        suite: "mediabench", "specfp" or "specint".
        kernels: The hot loops, with per-loop trip and invocation counts.
        acyclic_fraction: Fraction of *baseline* (ARM11) execution time
            spent outside all loops — Figure 2's "Acyclic" category.
        scalars: Live-in scalar bindings for functional execution.
        data_seed: RNG seed for array contents.
    """

    name: str
    suite: str
    kernels: list[Loop]
    acyclic_fraction: float = 0.10
    scalars: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_SCALARS))
    data_seed: int = 20080621  # ISCA 2008
    #: Kernel set as a normally-compiled binary would present it (no
    #: static fission/if-conversion/inlining); None means identical
    #: structure, with acceleration gated purely by the
    #: "static_transforms" annotations.
    untransformed_kernels: Optional[list[Loop]] = None

    _arm11_loop_cycles: Optional[float] = field(default=None, repr=False)

    def baseline_loop_cycles(self) -> float:
        """Total ARM11 cycles spent in this benchmark's loops."""
        if self._arm11_loop_cycles is None:
            pipe = InOrderPipeline(ARM11)
            total = 0.0
            for loop in self.kernels:
                total += pipe.loop_cycles(loop) * loop.invocations
            self._arm11_loop_cycles = total
        return self._arm11_loop_cycles

    def acyclic_arm11_cycles(self) -> float:
        """ARM11 cycles in acyclic code, from the declared fraction."""
        f = self.acyclic_fraction
        if f <= 0:
            return 0.0
        return self.baseline_loop_cycles() * f / (1.0 - f)

    def acyclic_cycles(self, pipeline: InOrderPipeline) -> float:
        """Acyclic-region cycles on *pipeline* (scaled by probe IPC)."""
        base = self.acyclic_arm11_cycles()
        if base == 0.0:
            return 0.0
        return base / _acyclic_speedup(pipeline.config)

    def untransformed(self) -> list[Loop]:
        """The kernels of a regularly-compiled binary (Figure 7)."""
        if self.untransformed_kernels is not None:
            return self.untransformed_kernels
        return self.kernels


@lru_cache(maxsize=None)
def _acyclic_speedup(config: CPUConfig) -> float:
    """How much faster *config* runs the acyclic probe than ARM11."""
    probe = acyclic_probe()
    arm = InOrderPipeline(ARM11).steady_cycles_per_iteration(probe)
    other = InOrderPipeline(config).steady_cycles_per_iteration(probe)
    return max(arm / other, 1e-9)


def _media_fp() -> list[Benchmark]:
    mk = Benchmark
    return [
        mk("rawcaudio", "mediabench",
           [K.adpcm_encode(trip_count=2048, invocations=320)],
           acyclic_fraction=0.03),
        mk("rawdaudio", "mediabench",
           [K.adpcm_decode(trip_count=2048, invocations=320)],
           acyclic_fraction=0.03),
        mk("g721enc", "mediabench",
           [K.iir_biquad(trip_count=1024, invocations=32, name="g721e_iir"),
            K.fir_filter(taps=6, trip_count=1024, invocations=32,
                         name="g721e_fir"),
            K.quantize(trip_count=1024, invocations=32, name="g721e_quant")],
           acyclic_fraction=0.10),
        mk("g721dec", "mediabench",
           [K.iir_biquad(trip_count=1024, invocations=32, name="g721d_iir"),
            K.adpcm_decode(trip_count=1024, invocations=32,
                           name="g721d_rec"),
            K.fir_filter(taps=4, trip_count=1024, invocations=32,
                         name="g721d_fir")],
           acyclic_fraction=0.10),
        mk("epic", "mediabench",
           [K.fir_filter(taps=4, trip_count=512, invocations=24,
                         name="epic_wavelet"),
            K.vector_max(trip_count=512, invocations=24, name="epic_peak"),
            K.quantize(trip_count=512, invocations=24, name="epic_quant"),
            K.bitpack(trip_count=512, invocations=24, name="epic_pack")],
           acyclic_fraction=0.12),
        mk("unepic", "mediabench",
           [K.upsample(trip_count=512, invocations=24, name="unepic_up"),
            K.quantize(trip_count=512, invocations=24, name="unepic_deq"),
            K.fir_filter(taps=4, trip_count=512, invocations=24,
                         name="unepic_synth")],
           acyclic_fraction=0.14),
        mk("mpeg2dec", "mediabench",
           [*fissioned(K.dct_butterfly(trip_count=192, invocations=24,
                                       name="mpeg2d_idct")),
            K.color_convert(trip_count=768, invocations=24,
                            name="mpeg2d_conv"),
            K.quantize(trip_count=768, invocations=24, name="mpeg2d_deq"),
            K.upsample(trip_count=768, invocations=24, name="mpeg2d_mc"),
            K.bitpack(trip_count=768, invocations=24, name="mpeg2d_vld")],
           acyclic_fraction=0.12,
           untransformed_kernels=[
               K.dct_butterfly(trip_count=192, invocations=24,
                               name="mpeg2d_idct"),
               K.color_convert(trip_count=768, invocations=24,
                               name="mpeg2d_conv"),
               K.quantize(trip_count=768, invocations=24,
                          name="mpeg2d_deq"),
               K.upsample(trip_count=768, invocations=24, name="mpeg2d_mc"),
               K.bitpack(trip_count=768, invocations=24,
                         name="mpeg2d_vld")]),
        mk("mpeg2enc", "mediabench",
           [K.sad_16(trip_count=1024, invocations=48, name="mpeg2e_sad"),
            *fissioned(K.dct_butterfly(trip_count=192, invocations=24,
                                       name="mpeg2e_dct")),
            K.quantize(trip_count=768, invocations=24, name="mpeg2e_quant"),
            K.color_convert(trip_count=768, invocations=24,
                            name="mpeg2e_conv")],
           acyclic_fraction=0.08),
        mk("pegwitenc", "mediabench",
           [K.gf_mult(trip_count=256, invocations=10, name="pege_gf"),
            K.checksum(trip_count=512, invocations=10, name="pege_hash"),
            K.bitpack(trip_count=256, invocations=10, name="pege_pack")],
           acyclic_fraction=0.18),
        mk("pegwitdec", "mediabench",
           [K.gf_mult(trip_count=256, invocations=8, name="pegd_gf"),
            K.checksum(trip_count=512, invocations=8, name="pegd_hash"),
            K.viterbi_acs(trip_count=256, invocations=8,
                          name="pegd_unpack")],
           acyclic_fraction=0.18),
        mk("gsmencode", "mediabench",
           [K.fir_filter(taps=8, trip_count=640, invocations=40,
                         name="gsme_lpc"),
            K.sad_16(trip_count=640, invocations=40, name="gsme_ltp"),
            K.quantize(trip_count=640, invocations=40, name="gsme_rpe")],
           acyclic_fraction=0.07),
        mk("gsmdecode", "mediabench",
           [K.viterbi_acs(trip_count=640, invocations=40, name="gsmd_acs"),
            K.fir_filter(taps=8, trip_count=640, invocations=40,
                         name="gsmd_synth")],
           acyclic_fraction=0.07),
        mk("cjpeg", "mediabench",
           [*fissioned(K.dct_butterfly(trip_count=192, invocations=20,
                                       name="cjpeg_dct")),
            K.color_convert(trip_count=768, invocations=20,
                            name="cjpeg_conv"),
            K.quantize(trip_count=768, invocations=20, name="cjpeg_quant")],
           acyclic_fraction=0.16),
        mk("djpeg", "mediabench",
           [*fissioned(K.dct_butterfly(trip_count=192, invocations=20,
                                       name="djpeg_idct")),
            K.upsample(trip_count=768, invocations=20, name="djpeg_up"),
            K.color_convert(trip_count=768, invocations=20,
                            name="djpeg_conv")],
           acyclic_fraction=0.16),
        mk("101.tomcatv", "specfp",
           [K.tomcatv_residual(trip_count=512, invocations=24,
                               name="tomcatv_res"),
            K.daxpy(trip_count=512, invocations=24, name="tomcatv_axpy"),
            K.dot_product(trip_count=512, invocations=24,
                          name="tomcatv_dot")],
           acyclic_fraction=0.05),
        mk("171.swim", "specfp",
           [K.swim_update(trip_count=1024, invocations=24,
                          name="swim_uv"),
            K.stencil5(trip_count=1024, invocations=24, name="swim_calc"),
            K.daxpy(trip_count=1024, invocations=24, name="swim_axpy")],
           acyclic_fraction=0.04),
        mk("172.mgrid", "specfp",
           [K.mgrid_resid(trip_count=640, invocations=2,
                          name="mgrid_resid"),
            K.stencil5(trip_count=640, invocations=3, name="mgrid_psinv")],
           acyclic_fraction=0.04),
        mk("177.mesa", "specfp",
           [K.mesa_transform(trip_count=256, invocations=16,
                             name="mesa_xform"),
            K.color_convert(trip_count=1024, invocations=16,
                            name="mesa_shade"),
            K.daxpy(trip_count=1024, invocations=16, name="mesa_blend")],
           acyclic_fraction=0.18),
    ]


def _spec_int() -> list[Benchmark]:
    """Right-portion (Figure 2) control benchmarks: mostly while-loops,
    subroutine loops and acyclic time; the LA barely applies."""
    mk = Benchmark
    return [
        mk("164.gzip", "specint",
           [K.while_scan(trip_count=256, invocations=40, name="gzip_match"),
            K.checksum(trip_count=512, invocations=12, name="gzip_crc"),
            K.bitpack(trip_count=256, invocations=12, name="gzip_emit")],
           acyclic_fraction=0.45),
        mk("181.mcf", "specint",
           [K.while_scan(trip_count=512, invocations=48, name="mcf_chase"),
            K.vector_max(trip_count=128, invocations=8, name="mcf_price")],
           acyclic_fraction=0.55),
        mk("197.parser", "specint",
           [K.while_scan(trip_count=128, invocations=64,
                         name="parser_scan"),
            K.libm_loop(trip_count=64, invocations=8, name="parser_hash")],
           acyclic_fraction=0.55),
        mk("130.li", "specint",
           [K.libm_loop(trip_count=128, invocations=24, name="li_eval"),
            K.while_scan(trip_count=128, invocations=24, name="li_gc")],
           acyclic_fraction=0.50),
    ]


#: The built media/FP suite, one per cache generation: a build (fission,
#: then digesting fresh loops) costs more than a warm sweep point.
#: Callers get a fresh list of the shared Benchmark objects, which, like
#: their loops, are never mutated after construction apart from their
#: own deterministic memos.  ``perf.clear_caches`` empties it.
_suite_cache: dict[str, list[Benchmark]] = {}


def media_fp_benchmarks() -> list[Benchmark]:
    """The accelerator's target applications (left of Figure 2) — the
    set every design-space and speedup experiment uses."""
    suite = _suite_cache.get("media_fp")
    if suite is None:
        suite = _suite_cache.setdefault("media_fp", _media_fp())
    return list(suite)


def control_benchmarks() -> list[Benchmark]:
    """SPECint-style benchmarks used only for Figure 2's coverage."""
    return _spec_int()


def all_benchmarks() -> list[Benchmark]:
    return media_fp_benchmarks() + control_benchmarks()


def benchmark_by_name(name: str) -> Benchmark:
    for bench in all_benchmarks():
        if bench.name == name:
            return bench
    raise KeyError(name)
