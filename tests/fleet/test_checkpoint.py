"""Checkpoint spill: exact round-trips, torn-write paranoia."""

import pickle

import pytest

from repro.faults.process import ProcessFaultPlan, SimulatedWorkerCrash
from repro.fleet import (
    FleetSpec,
    ShardJob,
    merge_fleet_metrics,
    run_room,
    run_shard,
)
from repro.fleet.checkpoint import (
    MAGIC,
    CheckpointError,
    CheckpointStore,
    _frame,
    _unframe,
    checkpoint_roundtrip_exact,
)

SPEC = FleetSpec(num_rooms=2, switches_per_room=3, horizon=1.0, seed=17)
SHARD = SPEC.shard_specs(1)[0]


@pytest.fixture(scope="module")
def rooms():
    return [run_room(room_spec) for room_spec in SHARD.rooms]


def test_room_report_round_trips_exactly(rooms):
    # The exactness contract's foundation: spill + load is identity.
    for room in rooms:
        assert checkpoint_roundtrip_exact(room)


def test_shard_report_pickle_preserves_registry_merge_order(tmp_path,
                                                           rooms):
    # ShardReport crosses the process boundary whole; the registry
    # merged from its rooms (room-order merge) must survive exactly,
    # not just approximately.
    report = run_shard(ShardJob(shard=SHARD, checkpoint_dir=str(tmp_path)))
    clone = pickle.loads(pickle.dumps(report, pickle.HIGHEST_PROTOCOL))
    assert clone.shard_id == report.shard_id
    assert (merge_fleet_metrics([clone]).snapshot()
            == merge_fleet_metrics([report]).snapshot())
    assert ([room.identity_signature() for room in clone.rooms]
            == [room.identity_signature() for room in report.rooms])


def test_save_load_round_trip(tmp_path, rooms):
    store = CheckpointStore(tmp_path)
    for room in rooms:
        store.save_room(SHARD.shard_id, room)
    loaded = store.load_rooms(SHARD.shard_id)
    assert sorted(loaded) == [room.room_id for room in rooms]
    for room in rooms:
        assert (loaded[room.room_id].identity_signature()
                == room.identity_signature())


def test_truncated_spill_is_discarded_not_half_loaded(tmp_path, rooms):
    store = CheckpointStore(tmp_path)
    path = store.save_room(SHARD.shard_id, rooms[0])
    blob = path.read_bytes()
    # Tear the write at every interesting boundary: mid-magic,
    # mid-header, mid-payload.
    for cut in (3, len(MAGIC) + 4, len(blob) // 2, len(blob) - 1):
        path.write_bytes(blob[:cut])
        loaded = store.load_rooms(SHARD.shard_id)
        assert loaded == {}, f"cut at {cut} was half-loaded"
        assert not path.exists(), f"cut at {cut} was not discarded"
        path.write_bytes(blob)  # restore for the next cut
    # Untorn file still loads after all that.
    assert rooms[0].room_id in store.load_rooms(SHARD.shard_id)


def test_corrupt_payload_and_bad_magic_are_discarded(tmp_path, rooms):
    store = CheckpointStore(tmp_path)
    path = store.save_room(SHARD.shard_id, rooms[0])
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0xFF  # flip a payload bit: crc must catch it
    path.write_bytes(bytes(blob))
    assert store.load_rooms(SHARD.shard_id) == {}
    path2 = store.save_room(SHARD.shard_id, rooms[0])
    path2.write_bytes(b"JUNKFILE" + b"\x00" * 64)
    assert store.load_rooms(SHARD.shard_id) == {}


def test_wrong_type_payload_is_discarded(tmp_path, rooms):
    store = CheckpointStore(tmp_path)
    path = store.save_room(SHARD.shard_id, rooms[0])
    path.write_bytes(_frame(pickle.dumps({"not": "a RoomReport"})))
    assert store.load_rooms(SHARD.shard_id) == {}
    assert not path.exists()


def test_unframe_error_messages():
    with pytest.raises(CheckpointError, match="bad magic"):
        _unframe(b"nope", "t")
    with pytest.raises(CheckpointError, match="truncated header"):
        _unframe(MAGIC + b"\x00\x03", "t")
    framed = _frame(b"payload")
    with pytest.raises(CheckpointError, match="torn write"):
        _unframe(framed[:-2], "t")
    assert _unframe(framed, "t") == b"payload"


def test_atomic_write_leaves_no_tmp_droppings(tmp_path, rooms):
    store = CheckpointStore(tmp_path)
    store.save_room(SHARD.shard_id, rooms[0])
    leftovers = [p for p in tmp_path.rglob("*") if ".tmp" in p.name]
    assert leftovers == []


def test_run_shard_spills_every_room_but_the_last(tmp_path):
    # No crash can follow a shard's last room, so only the rooms before
    # it are worth spilling for a retry to resume.  A worker-process
    # job always spills: the worker may die without unwinding.
    spec = FleetSpec(num_rooms=3, switches_per_room=2, horizon=0.25)
    shard = spec.shard_specs(1)[0]
    run_shard(ShardJob(shard=shard, checkpoint_dir=str(tmp_path),
                       hard_crash_ok=True))
    assert sorted(CheckpointStore(tmp_path).load_rooms(0)) == [0, 1]


def test_in_process_attempt_spills_only_when_fault_fated(tmp_path):
    # In this interpreter a clean attempt writes nothing; a crash-fated
    # one spills the rooms it finished, and its retry resumes them
    # exactly.
    spec = FleetSpec(num_rooms=4, switches_per_room=2, horizon=0.25)
    shard = spec.shard_specs(1)[0]
    clean = run_shard(ShardJob(shard=shard, checkpoint_dir=str(tmp_path)))
    assert not tmp_path.joinpath("shard00000.ckpt").exists()

    plan = ProcessFaultPlan(crash_rate=1.0, max_faulty_attempts=0)
    with pytest.raises(SimulatedWorkerCrash):
        run_shard(ShardJob(shard=shard, checkpoint_dir=str(tmp_path),
                           faults=plan, seed=3))
    spilled = CheckpointStore(tmp_path).load_rooms(0)
    assert spilled and sorted(spilled) == list(range(len(spilled)))
    retry = run_shard(ShardJob(shard=shard, checkpoint_dir=str(tmp_path),
                               faults=plan, seed=3, attempt=1))
    assert retry.rooms_resumed == len(spilled)
    assert ([room.identity_signature() for room in retry.rooms]
            == [room.identity_signature() for room in clean.rooms])


def test_a_redelivered_attempt_resumes_its_rooms(tmp_path):
    # An attempt fated to be redelivered spills as it goes, so the
    # redelivery (the same job again) resumes every spilled room.
    spec = FleetSpec(num_rooms=3, switches_per_room=2, horizon=0.25)
    plan = ProcessFaultPlan(duplicate_rate=1.0, max_faulty_attempts=0)
    job = ShardJob(shard=spec.shard_specs(1)[0],
                   checkpoint_dir=str(tmp_path), faults=plan)
    first = run_shard(job)
    again = run_shard(job)
    assert (first.rooms_resumed, again.rooms_resumed) == (0, 2)
    assert ([room.identity_signature() for room in again.rooms]
            == [room.identity_signature() for room in first.rooms])


def test_torn_tail_keeps_the_whole_frames_before_it(tmp_path, rooms):
    store = CheckpointStore(tmp_path)
    path = store.save_room(SHARD.shard_id, rooms[0])
    first_frame = path.stat().st_size
    store.save_room(SHARD.shard_id, rooms[1])
    blob = path.read_bytes()
    assert store.load_rooms(SHARD.shard_id).keys() == {0, 1}
    path.write_bytes(blob[:-5])
    loaded = store.load_rooms(SHARD.shard_id)
    assert list(loaded) == [rooms[0].room_id]
    assert (loaded[rooms[0].room_id].identity_signature()
            == rooms[0].identity_signature())
    # The torn frame is cut, so later spills land after a whole frame.
    assert path.stat().st_size == first_frame
    store.save_room(SHARD.shard_id, rooms[1])
    assert store.load_rooms(SHARD.shard_id).keys() == {0, 1}


def test_a_room_spilled_twice_loads_once(tmp_path, rooms):
    # A hedge and its straggler append the same room to one shard file.
    store = CheckpointStore(tmp_path)
    for room in (rooms[0], rooms[0], rooms[1]):
        store.save_room(SHARD.shard_id, room)
    loaded = store.load_rooms(SHARD.shard_id)
    assert sorted(loaded) == [0, 1]


def test_no_spill_directory_until_the_first_save(tmp_path, rooms):
    root = tmp_path / "spill"
    store = CheckpointStore(root)
    assert store.load_rooms(SHARD.shard_id) == {}
    assert not root.exists()
    store.save_room(SHARD.shard_id, rooms[0])
    assert list(store.load_rooms(SHARD.shard_id)) == [rooms[0].room_id]
