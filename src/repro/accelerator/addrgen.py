"""Address-generator streams.

"At the top of the accelerator ... address generators stream data into
the accelerator.  The address patterns typically follow a simple,
deterministic pattern ... Address generators can be time multiplexed to
fetch multiple streams." (Section 2.1.)

:func:`resolve_pattern` binds a stream pattern's symbolic base to the
invocation's live-in values; the resulting :class:`ResolvedStream`
yields the iteration-k address the generator issues.  The event
executor (:mod:`repro.accelerator.pipeline_executor`) cross-checks
every address the datapath computes against that prediction, an
end-to-end validation of the stream analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.analysis.streams import StreamPattern
from repro.ir.ops import Reg


@dataclass(frozen=True)
class ResolvedStream:
    """A stream pattern with its base bound to a concrete address.

    ``base`` is the pattern's affine base evaluated against the
    accelerator register file at invocation time (array base registers
    plus any scalar terms).
    """

    stream_id: int
    base: int
    stride: int
    is_store: bool

    def address(self, iteration: int) -> int:
        """Address this stream touches on loop iteration *iteration*."""
        return self.base + self.stride * iteration


def resolve_pattern(pattern: StreamPattern, stream_id: int,
                    live_ins: Mapping[Reg, object]) -> ResolvedStream:
    """Bind *pattern*'s symbolic base to initial register values."""
    base = pattern.base.const
    for (space, name), coeff in pattern.base.terms:
        reg = Reg(name, space)
        if reg not in live_ins:
            raise KeyError(f"stream base needs live-in {reg} which was "
                           f"not provided")
        base += coeff * int(live_ins[reg])
    return ResolvedStream(stream_id=stream_id, base=base,
                          stride=pattern.stride, is_store=pattern.is_store)
