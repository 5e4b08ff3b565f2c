"""Room-granular checkpoint spill: crash recovery that never reruns
finished work.

A shard that dies after simulating 9 of its 10 rooms has *computed*
90% of its answer; without a spill the retry recomputes all of it.
:class:`CheckpointStore` writes each completed :class:`RoomReport` to
disk as it lands, so a re-execution (retry or hedge) loads the
finished rooms and simulates only the remainder.  Because rooms are
deterministic, a loaded report is bit-identical to what the rerun
would have computed — resume changes wall-clock, never results, which
is the fleet loop's exactness contract.

The file format is paranoid about the one failure mode a spill has:
a worker dying *mid-write*.  Every checkpoint is

* written to a temp file and ``os.replace``-d into place (atomic on
  POSIX — a reader never sees a half-renamed file), and
* framed as ``MAGIC | length | crc32 | payload``, so even a torn or
  truncated file that somehow lands at the final path is detected and
  **discarded**, never half-loaded.  A corrupt checkpoint costs a
  recompute; a trusted one would corrupt the fleet report.

Payloads are plain pickles of :class:`RoomReport` (the same object
that already crosses the process boundary in shard results), so the
registry contents and merge order survive the round trip exactly.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from pathlib import Path

from .. import obs
from .room import RoomReport

#: Format tag; bump on any framing change so stale spills are rejected.
MAGIC = b"RPCKPT1\n"

#: ``length | crc32`` header that follows MAGIC (big-endian).
_HEADER = struct.Struct(">QI")


class CheckpointError(ValueError):
    """A checkpoint file failed validation (torn, truncated, stale)."""


def _frame(payload: bytes) -> bytes:
    return MAGIC + _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _unframe(blob: bytes, context: str) -> bytes:
    if not blob.startswith(MAGIC):
        raise CheckpointError(f"{context}: bad magic (not a checkpoint "
                              f"or written by an older format)")
    header = blob[len(MAGIC):len(MAGIC) + _HEADER.size]
    if len(header) < _HEADER.size:
        raise CheckpointError(f"{context}: truncated header")
    length, crc = _HEADER.unpack(header)
    payload = blob[len(MAGIC) + _HEADER.size:]
    if len(payload) != length:
        raise CheckpointError(
            f"{context}: payload is {len(payload)} bytes, header "
            f"promised {length} (torn write)"
        )
    if zlib.crc32(payload) != crc:
        raise CheckpointError(f"{context}: crc mismatch (corrupt payload)")
    return payload


class CheckpointStore:
    """Spill directory of completed room reports, one file per room.

    One store serves one fleet run.  Shards never share a room id, but
    file names carry the shard anyway, so a shard's rooms load with one
    glob, and a hedge and the straggler it shadows write the *same*
    paths — last atomic replace wins, and both sides wrote identical
    bytes for identical rooms, so the race is harmless by construction.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._m_saved = obs.counter("fleet.checkpoint.rooms_saved")
        self._m_loaded = obs.counter("fleet.checkpoint.rooms_loaded")
        self._m_discarded = obs.counter("fleet.checkpoint.files_discarded")

    # ------------------------------------------------------------------

    def _room_path(self, shard_id: int, room_id: int) -> Path:
        return self.root / f"shard{shard_id:05d}-room{room_id:06d}.ckpt"

    # ------------------------------------------------------------------

    def save_room(self, shard_id: int, room: RoomReport) -> Path:
        """Atomically spill one finished room report."""
        payload = pickle.dumps(room, protocol=pickle.HIGHEST_PROTOCOL)
        path = self._room_path(shard_id, room.room_id)
        tmp = f"{path}.tmp{os.getpid()}"
        with open(tmp, "wb") as handle:
            handle.write(_frame(payload))
        os.replace(tmp, path)
        self._m_saved.inc()
        return path

    def load_rooms(self, shard_id: int) -> dict[int, RoomReport]:
        """Every valid checkpointed room of one shard, keyed by room id.

        Invalid files (torn writes, bad crc, unpicklable or wrong-type
        payloads) are deleted and skipped — a discarded checkpoint is
        a recompute, a trusted bad one is a wrong answer.
        """
        rooms: dict[int, RoomReport] = {}
        for path in sorted(self.root.glob(f"shard{shard_id:05d}-room*.ckpt")):
            try:
                payload = _unframe(path.read_bytes(), path.name)
                room = pickle.loads(payload)
                if not isinstance(room, RoomReport):
                    raise CheckpointError(
                        f"{path.name}: payload is "
                        f"{type(room).__name__}, not RoomReport"
                    )
            except (CheckpointError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError, IndexError):
                self._m_discarded.inc()
                path.unlink(missing_ok=True)
                continue
            rooms[room.room_id] = room
            self._m_loaded.inc()
        return rooms


def checkpoint_roundtrip_exact(room: RoomReport) -> bool:
    """Whether a room report survives the spill byte-exactly — the
    invariant the exactness contract leans on."""
    clone = pickle.loads(
        _unframe(_frame(pickle.dumps(room, pickle.HIGHEST_PROTOCOL)), "probe")
    )
    return clone.identity_signature() == room.identity_signature()


__all__ = [
    "MAGIC",
    "CheckpointError",
    "CheckpointStore",
    "checkpoint_roundtrip_exact",
]
