"""Runtime memos on immutable objects, kept out of their pickles.

Loops, benchmarks, cached translation entries and kernel images are
never mutated once built, so derived facts (content digests, cache
keys, identified loops, finalized images, timing constants) are
memoised on the objects themselves under ``_veal_*`` attributes.
Those memos are per-process caches: they must never change the bytes
an object pickles to (disk-cache entry files, AOT artifacts included,
and wire bodies), and a received pickle must never plant one.
"""

from __future__ import annotations

MEMO_PREFIX = "_veal_"


class RuntimeMemos:
    """Mixin: pickle without ``_veal_*`` attributes, refuse them on load."""

    def __getstate__(self) -> dict:
        # Filter a copy: another thread may plant a memo mid-pickle, and
        # ``dict.copy`` takes the snapshot without a thread switch.
        return {k: v for k, v in self.__dict__.copy().items()
                if not k.startswith(MEMO_PREFIX)}

    def __setstate__(self, state: dict) -> None:
        # A crafted pickle must not plant a memo: every receiver derives
        # memos from the object's own content.
        self.__dict__.update({k: v for k, v in state.items()
                              if not k.startswith(MEMO_PREFIX)})


def memo_table(obj, name: str) -> dict:
    """The dict memo *obj* keeps under *name*, created on first use.

    ``setdefault`` makes racing first callers share one table.
    """
    table = obj.__dict__.get(name)
    if table is None:
        table = obj.__dict__.setdefault(name, {})
    return table
