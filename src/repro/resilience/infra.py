"""Infrastructure fault injectors: corrupt caches, fail I/O, break shards.

The datapath injectors (:mod:`repro.resilience.faults`) flip bits to
prove the differential guard; these injectors attack the *experiment
infrastructure* instead — the on-disk translation cache, the service
wire and the shard fleet — to prove the resilience layer
(:mod:`repro.resilience`).  The cache
families:

* **I/O errors** — the cache's load/store paths consult
  :func:`check_io` and receive an injected :class:`OSError`, exactly
  once per armed fault, simulating transient disk failures.
* **Cache corruption** — :func:`corrupt_entry` truncates, bit-flips or
  header-mangles an on-disk entry in place (the parent does this
  between runs, modelling a torn write or bitrot found at read time).

Arming crosses process boundaries through the environment
(``REPRO_CHAOS_SPEC`` holds a JSON fault list; spawned processes
inherit it), and *fire-once* semantics survive retries and restarts
through sentinel files: a fault fires only if its ``O_CREAT|O_EXCL``
sentinel creation wins, so a rebuilt store is not re-failed.  When
nothing is armed the hot-path checks are a single falsy test.

Long-lived processes (cluster shards) cannot see faults armed in the
parent *after* they started — the environment is a spawn-time
snapshot.  For them ``REPRO_CHAOS_SPEC_FILE`` names a spec *file* set
up before the shards boot: :func:`arm`/:func:`disarm` rewrite it
atomically and every armed check re-reads it, so the cluster chaos
campaign can arm shard faults against already-running shard processes.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass
from typing import Optional

CHAOS_SPEC_ENV = "REPRO_CHAOS_SPEC"
#: Path of a live spec file shared with already-running processes
#: (cluster shards re-read it on every check; see module docstring).
CHAOS_SPEC_FILE_ENV = "REPRO_CHAOS_SPEC_FILE"


class InfraFaultMode(enum.Enum):
    """Which piece of infrastructure the fault attacks."""

    IO_ERROR = "io-error"
    CACHE_TRUNCATE = "cache-truncate"
    CACHE_FLIP = "cache-flip"
    CACHE_HEADER = "cache-header"
    CACHE_STALE_VERSION = "cache-stale-version"
    # Network transport faults: applied by the TCP server's
    # response path to attack the wire the retrying client depends on.
    NET_RESET = "net-reset"            # abort mid-frame (RST)
    NET_CORRUPT = "net-corrupt"        # flip a payload byte
    NET_TRUNCATE = "net-truncate"      # send a prefix, then close
    NET_STALL = "net-stall"            # hold the response past deadline
    NET_DROP = "net-drop"              # never send the response
    # Cluster shard faults: attack whole shard processes and the
    # shard map the failover client routes by.
    SHARD_KILL = "shard-kill"          # shard SIGKILLs itself mid-request
    SHARD_HANG = "shard-hang"          # shard stalls every response
    SHARD_SLOW_START = "shard-slow-start"  # restarted shard boots slowly
    MAP_STALE = "map-stale"            # client drops one shard-map update


#: The corruption modes :func:`corrupt_entry` can apply in place.
CORRUPTION_MODES = (InfraFaultMode.CACHE_TRUNCATE,
                    InfraFaultMode.CACHE_FLIP,
                    InfraFaultMode.CACHE_HEADER,
                    InfraFaultMode.CACHE_STALE_VERSION)

#: The wire faults the network chaos campaign injects server-side.
NET_FAULT_MODES = (InfraFaultMode.NET_RESET,
                   InfraFaultMode.NET_CORRUPT,
                   InfraFaultMode.NET_TRUNCATE,
                   InfraFaultMode.NET_STALL,
                   InfraFaultMode.NET_DROP)

#: The shard/cluster faults the cluster chaos campaign injects.
SHARD_FAULT_MODES = (InfraFaultMode.SHARD_KILL,
                     InfraFaultMode.SHARD_HANG,
                     InfraFaultMode.SHARD_SLOW_START,
                     InfraFaultMode.MAP_STALE)


@dataclass(frozen=True)
class InfraFaultSpec:
    """One armed infrastructure fault.

    ``token`` names the fault (unique per campaign) and doubles as its
    fire-once sentinel filename; ``io_op`` targets I/O faults at the
    cache's ``"load"`` or ``"store"`` path.
    """

    mode: InfraFaultMode
    token: str
    io_op: Optional[str] = None
    #: Stall duration for ``NET_STALL`` / ``SHARD_HANG``, boot delay
    #: for ``SHARD_SLOW_START`` (seconds).
    delay_s: Optional[float] = None
    #: Targets shard faults at one shard; None matches any shard.
    shard_id: Optional[int] = None

    def to_json(self) -> dict:
        return {"mode": self.mode.value, "token": self.token,
                "io_op": self.io_op,
                "delay_s": self.delay_s, "shard_id": self.shard_id}

    @staticmethod
    def from_json(data: dict) -> "InfraFaultSpec":
        return InfraFaultSpec(mode=InfraFaultMode(data["mode"]),
                              token=data["token"],
                              io_op=data.get("io_op"),
                              delay_s=data.get("delay_s"),
                              shard_id=data.get("shard_id"))


# -- arming (environment-carried, so spawned processes inherit it) ------------

def arm(specs: list[InfraFaultSpec], state_dir: str) -> None:
    """Arm *specs*; sentinels for fire-once live under *state_dir*.

    When ``REPRO_CHAOS_SPEC_FILE`` is set (the cluster campaign sets it
    before booting shards), the spec is also written to that file so
    already-running shard processes — which snapshotted their
    environment at spawn — see the new arming on their next check.
    """
    os.makedirs(state_dir, exist_ok=True)
    payload = json.dumps({
        "state_dir": state_dir,
        "faults": [s.to_json() for s in specs],
    })
    os.environ[CHAOS_SPEC_ENV] = payload
    spec_file = os.environ.get(CHAOS_SPEC_FILE_ENV)
    if spec_file:
        _write_spec_file(spec_file, payload)


def disarm() -> None:
    os.environ.pop(CHAOS_SPEC_ENV, None)
    spec_file = os.environ.get(CHAOS_SPEC_FILE_ENV)
    if spec_file:
        _write_spec_file(spec_file, "")


def _write_spec_file(path: str, payload: str) -> None:
    """Atomically replace the live spec file (shards read concurrently)."""
    tmp = f"{path}.next.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload)
    os.replace(tmp, path)


def _armed() -> tuple[Optional[str], list[InfraFaultSpec]]:
    # The live spec file, when configured, is authoritative: a shard
    # spawned while some earlier fault was armed carries that stale
    # spec in its environment snapshot forever, so the env is only a
    # fallback (for processes with no file channel).
    raw = None
    spec_file = os.environ.get(CHAOS_SPEC_FILE_ENV)
    if spec_file:
        try:
            with open(spec_file, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError:
            raw = None
    if not raw:
        raw = os.environ.get(CHAOS_SPEC_ENV)
    if not raw:
        return None, []
    try:
        data = json.loads(raw)
        return data["state_dir"], [InfraFaultSpec.from_json(f)
                                   for f in data["faults"]]
    except (ValueError, KeyError, TypeError):
        return None, []


def _claim(state_dir: str, token: str) -> bool:
    """Atomically claim the fire-once sentinel for *token*."""
    try:
        fd = os.open(os.path.join(state_dir, token),
                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:
        return False
    os.close(fd)
    return True


def fired(state_dir: str, token: str) -> bool:
    """Whether the fault named *token* has fired (sentinel exists)."""
    return os.path.exists(os.path.join(state_dir, token))


# -- hot-path hooks -----------------------------------------------------------

def check_io(op: str, path: str) -> None:
    """Called by the disk cache before a load/store touches *path*.

    Raises an injected :class:`OSError` once per armed fault whose
    ``io_op`` matches; the error message embeds the fault token so the
    resulting incident record is attributable to its injection.
    """
    state_dir, specs = _armed()
    if state_dir is None:
        return
    for spec in specs:
        if (spec.mode is InfraFaultMode.IO_ERROR and spec.io_op == op
                and _claim(state_dir, spec.token)):
            raise OSError(f"injected I/O fault {spec.token} "
                          f"({op} {os.path.basename(path)})")


def claim_shard_fault(mode: InfraFaultMode,
                      shard_id: Optional[int] = None,
                      ) -> Optional[InfraFaultSpec]:
    """Claim the first still-unfired armed shard fault of *mode*.

    Shard processes call this from their dispatch/boot paths with their
    own ``shard_id``; specs targeted at a different shard are skipped,
    untargeted specs match anyone.  ``MAP_STALE`` is claimed
    client-side (``shard_id=None``).  Returns the claimed spec (its
    fire-once sentinel now exists) or None.
    """
    state_dir, specs = _armed()
    if state_dir is None:
        return None
    for spec in specs:
        if spec.mode is not mode:
            continue
        if (spec.shard_id is not None and shard_id is not None
                and spec.shard_id != shard_id):
            continue
        if _claim(state_dir, spec.token):
            return spec
    return None


def claim_net_fault() -> Optional[InfraFaultSpec]:
    """Called by the TCP server just before writing a response frame.

    Returns the first still-unfired armed network fault (claiming its
    fire-once sentinel), or None.  The server applies the mode —
    abort, corrupt, truncate, stall or drop — and records the matching
    incident, so every fired wire fault is attributable in the
    incident log by its token.
    """
    state_dir, specs = _armed()
    if state_dir is None:
        return None
    for spec in specs:
        if spec.mode in NET_FAULT_MODES and _claim(state_dir, spec.token):
            return spec
    return None


# -- parent-side cache corruption ---------------------------------------------

def corrupt_entry(path: str, mode: InfraFaultMode,
                  rng=None) -> str:
    """Corrupt the on-disk entry at *path* in place; returns a detail
    string describing what was done.

    Overwrites go through a plain ``open``, not the atomic writer —
    the whole point is to fabricate the torn/rotten states a crash
    produces.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if mode is InfraFaultMode.CACHE_TRUNCATE:
        keep = len(blob) // 2 if rng is None else int(
            rng.integers(0, max(1, len(blob))))
        with open(path, "wb") as handle:
            handle.write(blob[:keep])
        return f"truncated to {keep}/{len(blob)} bytes"
    if mode is InfraFaultMode.CACHE_FLIP:
        from repro.resilience.integrity import HEADER_SIZE
        if len(blob) <= HEADER_SIZE:
            offset = max(0, len(blob) - 1)
        elif rng is None:
            offset = HEADER_SIZE
        else:
            offset = int(rng.integers(HEADER_SIZE, len(blob)))
        corrupted = bytearray(blob)
        corrupted[offset] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(corrupted))
        return f"flipped byte at offset {offset}"
    if mode is InfraFaultMode.CACHE_HEADER:
        corrupted = b"XXXX" + blob[4:]
        with open(path, "wb") as handle:
            handle.write(corrupted)
        return "overwrote magic"
    if mode is InfraFaultMode.CACHE_STALE_VERSION:
        import struct
        corrupted = bytearray(blob)
        struct.pack_into("<I", corrupted, 4, 0)  # version 0 never valid
        with open(path, "wb") as handle:
            handle.write(bytes(corrupted))
        return "rewrote format version to 0"
    raise ValueError(f"not a corruption mode: {mode}")
