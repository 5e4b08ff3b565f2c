"""XEXT17 — chaos sweep: exact recovery under process-level faults.

XEXT15 proved the fleet scales out; this experiment proves it scales
out *on unreliable workers*.  :func:`repro.fleet.run_fleet`, with a
hedging and deadline policy, drives the same sharded fleet while
:class:`~repro.faults.process.ProcessFaultPlan` injects the four
canonical process faults — crashes (soft exceptions and hard
``os._exit`` pool breaks), stragglers, poisoned reports and duplicate
deliveries — at swept rates, and every point answers three questions:

* **did it finish?** — completion wall-clock and per-point failure
  count (zero everywhere: ``max_attempts`` exceeds the plan's
  ``max_faulty_attempts``, so progress is guaranteed by construction);
* **what did recovery cost?** — wall-clock relative to the fault-free
  baseline under the same policy (checkpoint resume keeps the crash points cheap;
  hedging keeps the straggler points near the baseline instead of
  paying the full sleep per shard);
* **was it exact?** — the headline contract: the recovered
  ``FleetReport.identity_signature()`` must equal the *fault-free
  serial reference* bit-for-bit at every point, chaos notwithstanding.

Results land in ``.benchmarks/BENCH_chaos.json``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..faults.process import ProcessFaultPlan
from ..fleet import FleetSpec, SupervisorPolicy, run_fleet

#: Seed for every xext17 fleet (PR sequence number, like XEXT15_SEED).
XEXT17_SEED = 17

#: Default artifact path (override with the BENCH_CHAOS_JSON env var).
BENCH_PATH = Path(".benchmarks") / "BENCH_chaos.json"


@dataclass
class ChaosPoint:
    """One fault mix through the supervised fleet."""

    name: str
    crash_rate: float
    hard_crash: bool
    straggler_rate: float
    poison_rate: float
    duplicate_rate: float
    wall_s: float
    #: wall_s / fault-free supervised wall_s — the price of recovery.
    recovery_overhead: float
    #: Identity matches the fault-free serial reference bit-for-bit.
    identical: bool
    failures: int
    attempts_total: int
    crashes_detected: int
    stragglers_hedged: int
    hedges_wasted: int
    rooms_resumed: int
    poisoned_reports: int
    duplicates_dropped: int
    retries_scheduled: int
    pool_rebuilds: int


@dataclass
class Xext17Result:
    """The full chaos record (and the BENCH_chaos.json shape)."""

    num_rooms: int
    switches_per_room: int
    num_switches: int
    horizon: float
    num_shards: int
    workers: int
    cpu_count: int
    #: Fault-free serial reference wall-clock (default policy).
    serial_wall_s: float
    #: Supervised, fault-free wall-clock — the overhead denominator.
    baseline_wall_s: float
    #: The fault-free supervised run matched the serial reference.
    baseline_identical: bool
    points: list[ChaosPoint] = field(default_factory=list)

    @property
    def all_exact(self) -> bool:
        """Every chaos point recovered to the exact reference result."""
        return self.baseline_identical and all(
            point.identical and point.failures == 0
            for point in self.points
        )

    @property
    def worst_overhead(self) -> float:
        return max((p.recovery_overhead for p in self.points), default=1.0)

    def export(self, path: str | Path | None = None) -> Path:
        """Write the chaos record to ``BENCH_chaos.json``."""
        target = Path(path or os.environ.get("BENCH_CHAOS_JSON", BENCH_PATH))
        target.parent.mkdir(parents=True, exist_ok=True)
        payload = asdict(self)
        payload["all_exact"] = self.all_exact
        payload["worst_overhead"] = self.worst_overhead
        target.write_text(json.dumps(payload, indent=2) + "\n")
        return target


def chaos_experiment(smoke: bool = False,
                     seed: int = XEXT17_SEED) -> Xext17Result:
    """Sweep fault mixes through the supervised fleet and verify exact
    recovery at every point.

    ``smoke`` shrinks the fleet and the straggler sleeps so CI walks
    the whole chaos path — hard pool breaks, hedging, checkpoint
    resume, dedup — in a few seconds.
    """
    if smoke:
        spec = FleetSpec(num_rooms=4, switches_per_room=4,
                         seed=seed, horizon=0.5)
        num_shards, workers = 2, 2
        straggler_delay_s, hedge_after_s = 0.4, 0.15
    else:
        spec = FleetSpec(num_rooms=12, switches_per_room=8,
                         seed=seed, horizon=1.0)
        num_shards, workers = 4, 4
        straggler_delay_s, hedge_after_s = 1.0, 0.3

    serial = run_fleet(spec, num_shards=1, backend="serial")
    reference = serial.identity_signature()

    # Quarantine must stay out of reach in exactness runs: a
    # quarantined shard is a *counted loss*, and the contract here is
    # zero loss.  max_attempts > max_faulty_attempts guarantees a
    # clean attempt exists for every shard.
    policy = SupervisorPolicy(
        max_attempts=6,
        quarantine_threshold=10,
        hedge_after_s=hedge_after_s,
        shard_deadline_s=30.0,
    )

    baseline = run_fleet(
        spec, num_shards=num_shards, backend="process", workers=workers,
        policy=policy, seed=seed,
    )
    baseline_wall = baseline.wall_s or 1e-9
    baseline_identical = baseline.identity_signature() == reference

    mixes = [
        ("crash20", ProcessFaultPlan(crash_rate=0.20)),
        ("crash50_hard", ProcessFaultPlan(crash_rate=0.50,
                                          hard_crash=True)),
        ("stragglers", ProcessFaultPlan(
            straggler_rate=0.50, straggler_delay_s=straggler_delay_s)),
        ("poison_dup", ProcessFaultPlan(poison_rate=0.30,
                                        duplicate_rate=0.30)),
        ("everything", ProcessFaultPlan(
            crash_rate=0.30, hard_crash=True, straggler_rate=0.30,
            straggler_delay_s=straggler_delay_s, poison_rate=0.20,
            duplicate_rate=0.20)),
    ]

    points: list[ChaosPoint] = []
    for name, plan in mixes:
        report = run_fleet(
            spec, num_shards=num_shards, backend="process",
            workers=workers, faults=plan, policy=policy, seed=seed,
        )
        stats = report.supervisor
        points.append(ChaosPoint(
            name=name,
            crash_rate=plan.crash_rate,
            hard_crash=plan.hard_crash,
            straggler_rate=plan.straggler_rate,
            poison_rate=plan.poison_rate,
            duplicate_rate=plan.duplicate_rate,
            wall_s=report.wall_s,
            recovery_overhead=report.wall_s / baseline_wall,
            identical=report.identity_signature() == reference,
            failures=len(report.failures),
            attempts_total=stats.attempts_total,
            crashes_detected=stats.crashes_detected,
            stragglers_hedged=stats.stragglers_hedged,
            hedges_wasted=stats.hedges_wasted,
            rooms_resumed=stats.rooms_resumed,
            poisoned_reports=stats.poisoned_reports,
            duplicates_dropped=stats.duplicates_dropped,
            retries_scheduled=stats.retries_scheduled,
            pool_rebuilds=stats.pool_rebuilds,
        ))

    return Xext17Result(
        num_rooms=spec.num_rooms,
        switches_per_room=spec.switches_per_room,
        num_switches=spec.num_switches,
        horizon=spec.horizon,
        num_shards=num_shards,
        workers=workers,
        cpu_count=os.cpu_count() or 1,
        serial_wall_s=serial.wall_s,
        baseline_wall_s=baseline.wall_s,
        baseline_identical=baseline_identical,
        points=points,
    )
