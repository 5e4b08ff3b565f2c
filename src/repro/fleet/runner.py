"""Fleet reports, the one shard worker entry, and the merge.

:func:`run_shard` is what every fleet execution runs per attempt — in
this interpreter for ``backend="serial"``, in a pool worker for
``backend="process"`` (see :func:`repro.fleet.supervisor.run_fleet`).
It simulates the shard's rooms in order through this module's
``run_room`` and, whenever the attempt may be re-executed, spills each
finished room but the last to the
:class:`~repro.fleet.checkpoint.CheckpointStore`, so a re-execution
resumes instead of recomputing.  It also honours the deterministic
process fault model (:func:`~repro.faults.process.shard_fault_decision`)
for its ``(shard, attempt)``: sleep if straggling, die mid-shard if
crashing, hand back poison if poisoned.  With no fault plan it is plain
shard execution.

Every backend produces the same :class:`FleetReport`: per-room results
merged in global room order, with ``MetricsRegistry.merge`` rolling
every room's simulation-deterministic metrics into one fleet-wide
registry.  ``FleetReport.identity_signature()`` is the equality
contract the tests pin: serial and process backends — at any shard
count, under any recovered fault schedule — must match it exactly.

Everything a worker touches stays module-level and picklable: jobs
cross the process boundary by value, :func:`run_shard` by reference.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..faults.process import (
    PoisonedShardReport,
    ProcessFaultPlan,
    crash_now,
    shard_fault_decision,
)
from ..obs import MetricsRegistry
from .checkpoint import CheckpointStore
from .room import RoomReport, run_room
from .specs import FleetSpec, ShardSpec

if TYPE_CHECKING:
    from .supervisor import SupervisorStats

#: Gauges roll up with the peak policy fleet-wide (the one gauge the
#: rooms emit is a peak; last-write across isolated rooms would be
#: meaningless).
FLEET_GAUGE_POLICY = "max"


@dataclass
class ShardFailure:
    """One shard that never produced a report."""

    shard_id: int
    error: str
    attempts: int
    #: True when the shard's breaker tripped on a repeat offender
    #: rather than the attempt budget running out.
    quarantined: bool = False


@dataclass
class ShardReport:
    """One shard's rooms, for the trip home.

    Compact by construction: per-room counts and registries — never
    signals, channels or simulators — so a 1000-room fleet's results
    fit in a few hundred kilobytes of pickled reports.  There is no
    per-shard rollup: the fleet merge works from the room leaves.
    """

    shard_id: int
    rooms: list[RoomReport]
    wall_s: float = 0.0
    #: Rooms loaded from checkpoint spill instead of simulated
    #: (execution detail, excluded from identity).
    rooms_resumed: int = 0
    #: Which execution attempt produced this report (0 = first try).
    attempt: int = 0

    @property
    def emissions(self) -> int:
        return sum(room.emissions for room in self.rooms)

    @property
    def onsets(self) -> int:
        return sum(room.onsets for room in self.rooms)

    @property
    def delivered(self) -> int:
        return sum(room.delivered for room in self.rooms)

    @property
    def delivery_ratio(self) -> float:
        emissions = self.emissions
        return self.delivered / emissions if emissions else 0.0


@dataclass(frozen=True)
class ShardJob:
    """One attempt at one shard, fully described by values."""

    shard: ShardSpec
    #: Where finished rooms are spilled and resumed from.
    checkpoint_dir: str
    attempt: int = 0
    seed: int = 0
    faults: ProcessFaultPlan | None = None
    #: True only when this job runs in a disposable worker process —
    #: a hard (``os._exit``) crash fault in the calling interpreter
    #: would kill the whole run, so the serial backend
    #: downgrades it to the exception-shaped crash.  Such a job always
    #: spills its finished rooms (see :func:`run_shard`).
    hard_crash_ok: bool = False


def run_shard(job: ShardJob) -> ShardReport | PoisonedShardReport:
    """Execute one (possibly fault-fated, possibly resumed) attempt.

    Rooms run in shard order; resumed rooms contribute their
    checkpointed reports in place of fresh simulation, which is the
    same values by determinism.
    """
    wall_start = _time.perf_counter()
    decision = shard_fault_decision(
        job.faults, job.seed, job.shard.shard_id, job.attempt
    )
    if decision.straggle and decision.straggler_delay_s > 0:
        _time.sleep(decision.straggler_delay_s)
    store = CheckpointStore(job.checkpoint_dir)
    resumed = store.load_rooms(job.shard.shard_id)
    last = len(job.shard.rooms) - 1
    crash_after = decision.crash_after_rooms(last + 1)
    # A spill insures a re-execution.  A worker process can die without
    # unwinding at any moment, and a fault-fated attempt may crash, be
    # poisoned or be redelivered, so those spill.  A clean attempt in
    # this interpreter can only be cut short by a real error, which its
    # retry would meet again at the same room, so it writes nothing.
    spill = job.hard_crash_ok or not decision.clean
    rooms = []
    for index, room_spec in enumerate(job.shard.rooms):
        if crash_after is not None and index >= crash_after:
            crash_now(decision.hard and job.hard_crash_ok)
        room = resumed.get(room_spec.room_id)
        if room is None:
            room = run_room(room_spec)
            # The last room goes home in the report a moment later, and
            # no crash fires after it: its spill would insure nothing.
            if spill and index < last:
                store.save_room(job.shard.shard_id, room)
        rooms.append(room)
    if decision.poison:
        return PoisonedShardReport(shard_id=job.shard.shard_id)
    return ShardReport(
        shard_id=job.shard.shard_id,
        rooms=rooms,
        wall_s=_time.perf_counter() - wall_start,
        rooms_resumed=len(resumed),
        attempt=job.attempt,
    )


@dataclass
class FleetReport:
    """The merged view of one fleet execution."""

    spec: FleetSpec
    backend: str
    num_shards: int
    workers: int
    shards: list[ShardReport]
    failures: list[ShardFailure]
    #: Fleet-wide rollup of every room's registry, in room order.
    metrics: MetricsRegistry
    #: Recovery accounting of the run.  Execution detail — excluded
    #: from the identity signature like every wall-clock field.
    supervisor: SupervisorStats
    wall_s: float = 0.0
    cpu_count: int = field(default_factory=lambda: os.cpu_count() or 1)

    @property
    def rooms(self) -> list[RoomReport]:
        """Every room report, in global room order."""
        ordered = [room for shard in self.shards for room in shard.rooms]
        ordered.sort(key=lambda room: room.room_id)
        return ordered

    @property
    def emissions(self) -> int:
        return sum(shard.emissions for shard in self.shards)

    @property
    def onsets(self) -> int:
        return sum(shard.onsets for shard in self.shards)

    @property
    def delivered(self) -> int:
        return sum(shard.delivered for shard in self.shards)

    @property
    def delivery_ratio(self) -> float:
        emissions = self.emissions
        return self.delivered / emissions if emissions else 0.0

    @property
    def simulated_seconds(self) -> float:
        """Total simulated time across rooms (rooms run concurrently
        in the fiction; the simulator work is per-room horizon)."""
        return self.spec.horizon * sum(
            len(shard.rooms) for shard in self.shards
        )

    @property
    def real_time_factor(self) -> float:
        """Simulated seconds delivered per wall-clock second."""
        return self.simulated_seconds / self.wall_s if self.wall_s else 0.0

    def identity_signature(self) -> dict:
        """Everything deterministic: per-room signatures (in room
        order) plus the merged metrics snapshot.  Wall-clock fields and
        shard grouping are excluded — they are execution detail, not
        result."""
        return {
            "rooms": [room.identity_signature() for room in self.rooms],
            "metrics": self.metrics.snapshot(),
        }


def merge_fleet_metrics(reports: list[ShardReport]) -> MetricsRegistry:
    """Roll shard results up into one fleet-wide registry.

    Merges from the room *leaves* in global room order, not from the
    per-shard rollups: float summation is non-associative, so a
    hierarchical rollup would make the merged histogram mean depend
    on the shard count in the last ulp — breaking the bit-identity
    contract between shard counts.
    """
    metrics = MetricsRegistry()
    ordered = sorted(
        (room for shard in reports for room in shard.rooms),
        key=lambda room: room.room_id,
    )
    for room in ordered:
        metrics.merge(room.metrics, gauge_policy=FLEET_GAUGE_POLICY)
    return metrics


def build_fleet_report(
    spec: FleetSpec,
    backend: str,
    num_shards: int,
    workers: int,
    shards: list[ShardReport],
    failures: list[ShardFailure],
    wall_s: float,
    supervisor: SupervisorStats,
) -> FleetReport:
    """Assemble the merged report (shards and failures are re-sorted by
    shard id so completion order can never leak into the result)."""
    shards = sorted(shards, key=lambda report: report.shard_id)
    failures = sorted(failures, key=lambda failure: failure.shard_id)
    return FleetReport(
        spec=spec,
        backend=backend,
        num_shards=num_shards,
        workers=workers,
        shards=shards,
        failures=failures,
        metrics=merge_fleet_metrics(shards),
        wall_s=wall_s,
        supervisor=supervisor,
    )
