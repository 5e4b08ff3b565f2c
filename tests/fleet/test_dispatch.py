"""Shard dispatch through run_fleet: pool breaks, hung workers, retries,
queueing, and the checks made before any pool starts.

Faults come from seeded :class:`ProcessFaultPlan` schedules.  Each
test picks the first seed whose schedule faults exactly the
``(shard, attempt)`` pairs it needs, so the scenario is a pure function
of the seed, whichever process runs it.
"""

import time

import pytest

from repro.faults.process import ProcessFaultPlan, shard_fault_decision
from repro.fleet import (
    FleetConfigError,
    FleetSpec,
    SupervisorPolicy,
    run_fleet,
)

#: Four one-room shards.
SPEC = FleetSpec(num_rooms=4, switches_per_room=2)
NUM_SHARDS = 4


def _seed_where(plan: ProcessFaultPlan, fault: str,
                fated: dict[int, set[int]]) -> int:
    """First seed under which, over every shard's faultable attempts,
    ``fault`` ("crash" or "straggle") hits exactly the attempts listed
    in ``fated`` (shard id -> attempt indices)."""
    attempts = range(plan.max_faulty_attempts + 1)
    for seed in range(10_000):
        hits = {
            shard_id: {attempt for attempt in attempts
                       if getattr(shard_fault_decision(
                           plan, seed, shard_id, attempt), fault)}
            for shard_id in range(NUM_SHARDS)
        }
        if all(hits[shard_id] == fated.get(shard_id, set())
               for shard_id in hits):
            return seed
    raise AssertionError("no seed yields the requested fault schedule")


def _run(backend, plan, fault, fated, workers=2, **policy):
    seed = _seed_where(plan, fault, fated)
    return run_fleet(SPEC, num_shards=NUM_SHARDS, backend=backend,
                     workers=workers, faults=plan, seed=seed,
                     policy=SupervisorPolicy(**policy))


def test_transient_failure_gets_one_retry():
    plan = ProcessFaultPlan(crash_rate=0.5, max_faulty_attempts=0)
    report = _run("serial", plan, "crash", {0: {0}}, max_attempts=2)
    assert [shard.shard_id for shard in report.shards] == [0, 1, 2, 3]
    assert not report.failures
    # Shard 0 failed once, was retried, and its retry succeeded.
    assert [shard.attempt for shard in report.shards] == [1, 0, 0, 0]
    assert report.supervisor.crashes_detected == 1


def test_exhausted_attempts_become_a_counted_failure():
    plan = ProcessFaultPlan(crash_rate=0.5, max_faulty_attempts=1)
    report = _run("serial", plan, "crash", {1: {0, 1}}, max_attempts=2,
                  quarantine_threshold=10)
    assert [shard.shard_id for shard in report.shards] == [0, 2, 3]
    assert [f.shard_id for f in report.failures] == [1]
    assert report.failures[0].attempts == 2
    assert not report.failures[0].quarantined


def test_unpicklable_shard_is_rejected_before_the_pool():
    spec = FleetSpec(num_rooms=1, switches_per_room=2,
                     scene=lambda sim, channel, rng: None)
    with pytest.raises(FleetConfigError, match="shard_id=0"):
        run_fleet(spec, backend="process", workers=1)


def test_constructor_validation():
    with pytest.raises(ValueError, match="max_attempts"):
        SupervisorPolicy(max_attempts=0)
    with pytest.raises(ValueError, match="workers"):
        run_fleet(SPEC, num_shards=NUM_SHARDS, backend="process", workers=0)
    with pytest.raises(ValueError, match="shard_deadline_s"):
        SupervisorPolicy(shard_deadline_s=0.0)


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("workers", [0, -1])
def test_workers_must_be_positive(backend, workers):
    with pytest.raises(FleetConfigError, match="workers must be >= 1"):
        run_fleet(SPEC, num_shards=NUM_SHARDS, backend=backend,
                  workers=workers)


# ----------------------------------------------------------------------
# process-level failure shapes (real pool)
# ----------------------------------------------------------------------

def test_broken_pool_becomes_counted_retry_and_one_rebuild():
    # Regression pin: a worker calling os._exit used to surface as an
    # uncaught BrokenProcessPool from wait(); now it is a failed
    # attempt (retried) plus a pool rebuild per break.
    plan = ProcessFaultPlan(crash_rate=0.5, hard_crash=True,
                            max_faulty_attempts=0)
    report = _run("process", plan, "crash", {0: {0}}, max_attempts=2)
    assert [shard.shard_id for shard in report.shards] == [0, 1, 2, 3]
    assert not report.failures
    assert report.supervisor.crashes_detected == 1
    assert report.supervisor.pool_rebuilds >= 1


def test_broken_pool_exhausting_attempts_is_a_counted_failure():
    # A shard whose *every* attempt kills its worker must end as a
    # counted ShardFailure, never a crashed or hung run — and the
    # innocent shards that were in flight when the pool broke must not
    # pay for it: a break is charged only to an attempt running alone.
    plan = ProcessFaultPlan(crash_rate=0.5, hard_crash=True,
                            max_faulty_attempts=1)
    report = _run("process", plan, "crash", {0: {0, 1}}, max_attempts=2,
                  quarantine_threshold=10)
    assert [shard.shard_id for shard in report.shards] == [1, 2, 3]
    assert [f.shard_id for f in report.failures] == [0]
    assert report.failures[0].attempts == 2
    assert "BrokenProcessPool" in report.failures[0].error or "broken" in \
        report.failures[0].error.lower()
    assert report.supervisor.crashes_detected == 2
    assert all(shard.attempt == 0 for shard in report.shards)


def test_hung_worker_is_timed_out_killed_and_retried():
    # Without a deadline this run would block for the whole sleep; with
    # it, the wedged worker is killed, counted, and the shard's retry
    # (which does not hang) completes the run.
    plan = ProcessFaultPlan(straggler_rate=0.5, straggler_delay_s=300.0,
                            max_faulty_attempts=0)
    start = time.monotonic()
    report = _run("process", plan, "straggle", {0: {0}}, max_attempts=2,
                  shard_deadline_s=1.0)
    wall = time.monotonic() - start
    assert [shard.shard_id for shard in report.shards] == [0, 1, 2, 3]
    assert not report.failures
    assert report.supervisor.deadline_kills == 1
    assert report.supervisor.pool_rebuilds >= 1
    assert wall < 60.0  # evicted the hang, did not sit out the sleep


def test_pool_queue_wait_is_not_straggling():
    # Eight straggling shards on two workers: each attempt lives about
    # 0.3 s, well under the deadline, but the last ones would wait
    # ~0.9 s in the pool queue.  Attempts are capped at the pool width
    # and stamped when a slot takes them, so nobody is killed or
    # retried.
    spec = FleetSpec(num_rooms=8, switches_per_room=2, horizon=0.25)
    plan = ProcessFaultPlan(straggler_rate=1.0, straggler_delay_s=0.3,
                            max_faulty_attempts=0)
    report = run_fleet(spec, num_shards=8, backend="process", workers=2,
                       faults=plan,
                       policy=SupervisorPolicy(shard_deadline_s=1.0))
    assert not report.failures
    assert report.supervisor.deadline_kills == 0
    assert report.supervisor.pool_rebuilds == 0
    assert report.supervisor.attempts_total == 8
