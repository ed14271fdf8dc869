"""Versioned, CRC-guarded, atomic snapshots of Picasso iteration state.

Algorithm 1 is a loop over *committed* state: the global color array,
the uncolored-vertex set ``Vu`` (the palette bitsets of an iteration
are derived from the RNG stream, so saving the bit-generator state
saves them too), the palette offset, the possibly-grown palette
fraction, and the RNG bit-generator state.  A snapshot of that tuple at
an iteration boundary is everything a resumed run needs to replay the
remaining iterations **bit-identically**: the next iteration draws the
same candidate lists from the same generator state over the same active
set, so every downstream choice — conflict edges, Algorithm 2
tie-breaks, Vu rollover — repeats exactly.

File format (all integers little-endian)::

    8 bytes   magic  b"RPCKPT\\x00\\x00"
    u32       format version
    u32       CRC32 of the payload
    u64       payload byte count
    payload   pickled state dict (numpy arrays in-band)

Three failure modes of a crash-interrupted writer are covered:

- **torn write** — snapshots are written to a temp file in the target
  directory, fsynced, then ``os.replace``d into place, so the named
  checkpoint either exists completely or not at all;
- **silent corruption** — the CRC is verified on load, and
  :func:`latest_checkpoint` *skips* corrupt or short files rather than
  returning them (a run resumes from the newest snapshot that survived,
  which the atomic rename guarantees is the previous one);
- **wrong run** — every snapshot embeds a fingerprint of the
  algorithmic parameters and problem size
  (:func:`checkpoint_fingerprint`); loading against a different
  configuration raises :class:`CheckpointError` instead of silently
  producing a coloring from mixed trajectories.  Execution knobs
  (backend, workers, gather, hosts) are deliberately **excluded** from
  the fingerprint: backends are bit-identical per seed, so a run
  checkpointed on a cluster may resume on a pool or serially — that is
  the failover story.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "PicassoCheckpoint",
    "checkpoint_fingerprint",
    "save_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
]

MAGIC = b"RPCKPT\x00\x00"
#: Bumped whenever the payload schema changes; load rejects mismatches.
CHECKPOINT_VERSION = 1

_HEADER = struct.Struct("<8sIIQ")  # magic, version, crc32, payload_len

#: Snapshots kept per directory (older ones are pruned on save).  Two
#: generations back is enough to survive a crash *during* a save plus a
#: corrupt newest file.
KEEP_CHECKPOINTS = 3

_PREFIX = "picasso-it"
_SUFFIX = ".ckpt"


class CheckpointError(RuntimeError):
    """A checkpoint file is corrupt, from another format version, or
    from a different run configuration."""


@dataclass
class PicassoCheckpoint:
    """Committed Algorithm 1 state at the end of iteration ``iteration``.

    ``colors``/``active`` are global vertex ids; ``rng_state`` is the
    numpy bit-generator state dict *after* the iteration's draws;
    ``iterations`` carries the per-iteration telemetry so a resumed
    result reports the full trace, not just the tail.
    """

    iteration: int
    colors: np.ndarray
    active: np.ndarray
    base_color: int
    palette_fraction: float
    rng_state: dict
    fingerprint: str
    peak_bytes: int = 0
    iterations: list = field(default_factory=list)


def checkpoint_fingerprint(params, n_total: int) -> str:
    """Digest of everything that shapes the random trajectory.

    Algorithmic knobs plus the problem size — not the execution knobs,
    which are bit-identical across backends by the library's core
    contract (a checkpoint written under ``--hosts`` resumes under
    ``--executor serial`` and still matches).
    """
    key = repr((
        int(n_total),
        float(params.palette_fraction),
        float(params.alpha),
        int(params.min_palette),
        float(params.grow_on_stall),
        int(params.max_iterations),
        str(params.conflict_order),
        str(params.resolved_color_engine()),
    ))
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def _checkpoint_path(directory: str | os.PathLike, iteration: int) -> str:
    return os.path.join(
        os.fspath(directory), f"{_PREFIX}{iteration:06d}{_SUFFIX}"
    )


def save_checkpoint(
    directory: str | os.PathLike,
    ckpt: PicassoCheckpoint,
    keep: int = KEEP_CHECKPOINTS,
) -> str:
    """Atomically write ``ckpt`` into ``directory``; returns the path.

    Write-temp-then-rename: a crash at any byte leaves either the
    previous snapshot set untouched or the new file complete.  After a
    successful rename, snapshots older than the newest ``keep`` are
    pruned (best-effort).
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    payload = pickle.dumps(
        {
            "iteration": int(ckpt.iteration),
            "colors": np.ascontiguousarray(ckpt.colors),
            "active": np.ascontiguousarray(ckpt.active),
            "base_color": int(ckpt.base_color),
            "palette_fraction": float(ckpt.palette_fraction),
            "rng_state": ckpt.rng_state,
            "fingerprint": ckpt.fingerprint,
            "peak_bytes": int(ckpt.peak_bytes),
            "iterations": list(ckpt.iterations),
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    header = _HEADER.pack(
        MAGIC, CHECKPOINT_VERSION, zlib.crc32(payload), len(payload)
    )
    path = _checkpoint_path(directory, ckpt.iteration)
    tmp = os.path.join(
        directory, f".tmp-{os.getpid()}-{os.path.basename(path)}"
    )
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if keep is not None:
        for old in _list_checkpoints(directory)[keep:]:
            try:
                os.unlink(old)
            except OSError:  # pragma: no cover - prune is best-effort
                pass
    return path


def load_checkpoint(
    path: str | os.PathLike, expect_fingerprint: str | None = None
) -> PicassoCheckpoint:
    """Read and verify one snapshot; raises :class:`CheckpointError` on
    any corruption, version skew, or fingerprint mismatch."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise CheckpointError(f"{path}: truncated header")
            magic, version, crc, n = _HEADER.unpack(header)
            if magic != MAGIC:
                raise CheckpointError(f"{path}: not a Picasso checkpoint")
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"{path}: checkpoint format v{version}, this build "
                    f"reads v{CHECKPOINT_VERSION}"
                )
            payload = fh.read(n)
    except OSError as exc:
        raise CheckpointError(f"{path}: unreadable ({exc})") from None
    if len(payload) != n:
        raise CheckpointError(
            f"{path}: truncated payload ({len(payload)}/{n} bytes)"
        )
    if zlib.crc32(payload) != crc:
        raise CheckpointError(f"{path}: CRC mismatch — corrupt snapshot")
    state = pickle.loads(payload)
    if (
        expect_fingerprint is not None
        and state["fingerprint"] != expect_fingerprint
    ):
        raise CheckpointError(
            f"{path}: checkpoint is from a different run configuration "
            f"(fingerprint {state['fingerprint']}, this run "
            f"{expect_fingerprint}) — refusing to mix trajectories"
        )
    return PicassoCheckpoint(**state)


def _list_checkpoints(directory: str) -> list[str]:
    """Snapshot paths in ``directory``, newest (highest iteration)
    first.  Ignores temp files and foreign names."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    found = []
    for name in names:
        if not (name.startswith(_PREFIX) and name.endswith(_SUFFIX)):
            continue
        digits = name[len(_PREFIX) : -len(_SUFFIX)]
        if digits.isdigit():
            found.append((int(digits), os.path.join(directory, name)))
    found.sort(reverse=True)
    return [p for _, p in found]


def latest_checkpoint(
    directory: str | os.PathLike, expect_fingerprint: str | None = None
) -> str | None:
    """Path of the newest snapshot in ``directory`` that passes
    verification, or ``None`` when none does.

    Corrupt or truncated files are *skipped*, not raised: after a crash
    the newest file may be damaged and the point of keeping
    ``KEEP_CHECKPOINTS`` generations is to fall back.  A fingerprint
    mismatch, by contrast, raises — every snapshot in the directory
    belongs to some other run, and resuming silently from nothing when
    the operator pointed at real checkpoints would discard their run.
    """
    for path in _list_checkpoints(os.fspath(directory)):
        try:
            load_checkpoint(path, expect_fingerprint)
        except CheckpointError as exc:
            if "different run configuration" in str(exc):
                raise
            continue
        return path
    return None
