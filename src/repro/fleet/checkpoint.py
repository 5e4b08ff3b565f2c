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
a worker dying *mid-write*.  Each shard spills to one append-only
file, one frame per room, each framed as ``MAGIC | length | crc32 |
payload`` and appended with a single unbuffered write.  A torn or
truncated frame is therefore detected and **discarded**, never
half-loaded.  A corrupt checkpoint costs a recompute; a trusted one
would corrupt the fleet report.

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

#: One ``os.write`` per frame, always at the end of the shard file.
_APPEND_FLAGS = os.O_WRONLY | os.O_APPEND | os.O_CREAT


class CheckpointError(ValueError):
    """A checkpoint file failed validation (torn, truncated, stale)."""


def _frame(payload: bytes) -> bytes:
    return MAGIC + _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _read_frame(blob: bytes, offset: int, context: str) -> tuple[bytes, int]:
    """The payload of the frame at ``offset`` and the offset after it."""
    if not blob.startswith(MAGIC, offset):
        raise CheckpointError(f"{context}: bad magic (not a checkpoint "
                              f"or written by an older format)")
    start = offset + len(MAGIC)
    header = blob[start:start + _HEADER.size]
    if len(header) < _HEADER.size:
        raise CheckpointError(f"{context}: truncated header")
    length, crc = _HEADER.unpack(header)
    start += _HEADER.size
    payload = blob[start:start + length]
    if len(payload) != length:
        raise CheckpointError(
            f"{context}: payload is {len(payload)} bytes, header "
            f"promised {length} (torn write)"
        )
    if zlib.crc32(payload) != crc:
        raise CheckpointError(f"{context}: crc mismatch (corrupt payload)")
    return payload, start + length


def _unframe(blob: bytes, context: str) -> bytes:
    """The payload of a blob holding exactly one frame."""
    payload, end = _read_frame(blob, 0, context)
    if end != len(blob):
        raise CheckpointError(
            f"{context}: {len(blob) - end} bytes after the frame"
        )
    return payload


class CheckpointStore:
    """Spill directory of completed room reports, one file per shard.

    One store serves one fleet run.  A hedge and the straggler it
    shadows append to the *same* shard file; every frame is one
    ``O_APPEND`` write, and both sides write identical bytes for
    identical rooms, so a room spilled twice loads the same either way.
    """

    def __init__(self, root: str | Path) -> None:
        #: Created by the first :meth:`save_room`: most shard attempts
        #: never crash, and a run that spills nothing pays for no
        #: directory.
        self.root = Path(root)
        self._m_saved = obs.counter("fleet.checkpoint.rooms_saved")
        self._m_loaded = obs.counter("fleet.checkpoint.rooms_loaded")
        self._m_discarded = obs.counter("fleet.checkpoint.files_discarded")

    # ------------------------------------------------------------------

    def _shard_path(self, shard_id: int) -> Path:
        return self.root / f"shard{shard_id:05d}.ckpt"

    # ------------------------------------------------------------------

    def save_room(self, shard_id: int, room: RoomReport) -> Path:
        """Append one finished room report to its shard's spill file."""
        frame = _frame(pickle.dumps(room, protocol=pickle.HIGHEST_PROTOCOL))
        path = self._shard_path(shard_id)
        try:
            fd = os.open(path, _APPEND_FLAGS, 0o600)
        except FileNotFoundError:
            self.root.mkdir(mode=0o700, parents=True, exist_ok=True)
            fd = os.open(path, _APPEND_FLAGS, 0o600)
        try:
            os.write(fd, frame)
        finally:
            os.close(fd)
        self._m_saved.inc()
        return path

    def load_rooms(self, shard_id: int) -> dict[int, RoomReport]:
        """Every valid checkpointed room of one shard, keyed by room id.

        The first invalid frame (torn write, bad crc, unpicklable or
        wrong-type payload) and everything after it are cut from the
        file (the file goes if nothing before it survives) and skipped
        — a discarded checkpoint is a recompute, a trusted bad one is a
        wrong answer.

        A hedge loads while the straggler it shadows may still be
        appending, and a read can catch a frame half-written: the hedge
        then counts it discarded and cuts it, and any whole frames the
        straggler appends before the cut, too.  That costs recompute,
        never exactness (a cut frame is gone, never half-loaded), but
        it makes ``files_discarded`` and the resume count of a hedged
        run timing-dependent.
        """
        path = self._shard_path(shard_id)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return {}
        rooms: dict[int, RoomReport] = {}
        offset = 0
        while offset < len(blob):
            try:
                payload, end = _read_frame(blob, offset, path.name)
                room = pickle.loads(payload)
                if not isinstance(room, RoomReport):
                    raise CheckpointError(
                        f"{path.name}: payload is "
                        f"{type(room).__name__}, not RoomReport"
                    )
            except (CheckpointError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError, IndexError):
                self._m_discarded.inc()
                if offset:
                    os.truncate(path, offset)
                else:
                    path.unlink(missing_ok=True)
                break
            rooms[room.room_id] = room
            offset = end
        self._m_loaded.inc(len(rooms))
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
