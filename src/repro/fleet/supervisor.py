"""``run_fleet`` — the one fleet execution loop, self-healing and exact.

Every fleet run — serial or pooled, clean or under injected faults —
goes through one event loop.  The backends differ only in the
executor it submits :func:`~repro.fleet.runner.run_shard` jobs to:

* ``backend="process"`` — a ``ProcessPoolExecutor``.  Rooms are
  acoustically isolated, so shards share no state and the pool is
  embarrassingly parallel;
* ``backend="serial"`` — an in-process executor whose ``submit`` runs
  the job to completion and returns a finished future.  Hard crash
  faults are downgraded to exceptions (the calling interpreter is not
  disposable).  This is the obviously-correct reference.

The loop keeps at most ``workers`` attempts in flight, hedges
included, and stamps each attempt when it is handed to a free slot —
so waiting in the pool's queue never looks like straggling.  It
survives every fault shape :mod:`repro.faults.process` injects:

* **hedging** — an attempt older than ``hedge_after_s`` gets a second
  attempt racing it; the first valid result wins and the loser is
  counted ``hedges_wasted``, never merged;
* **deadlines** — an attempt older than ``shard_deadline_s`` is charged
  a failure and its worker killed (pool rebuild); the other attempts
  in flight are refunded and re-queued;
* **pool breaks** — a worker dying by ``os._exit`` breaks the whole
  pool and every future in it, so the wreck does not say who did it.
  Every attempt in flight is refunded and its shard becomes a
  *suspect* that re-runs alone; a break is charged only to an attempt
  that was running alone, so innocent neighbours never burn budget;
* **checkpoint resume** — workers, and serial attempts fated to
  crash, be poisoned or be redelivered, spill every finished room but
  a shard's last (:class:`~repro.fleet.checkpoint.CheckpointStore`),
  so a retry of a shard that died 9 rooms into 10 simulates one room,
  not ten;
* **bounded retries** — a failed attempt re-enters the queue along
  :data:`RETRY_POLICY`, capped by ``max_attempts``;
* **quarantine** — each shard owns a :class:`~repro.infra.CircuitBreaker`;
  a repeat offender whose breaker trips becomes a quarantined
  :class:`~repro.fleet.runner.ShardFailure`;
* **integrity validation** — a result is merged only if it is a
  well-formed :class:`ShardReport` for the right shard with exactly
  the right rooms; poison is a counted failure, redelivered duplicates
  are dropped.

The headline guarantee is **exact recovery**: rooms are deterministic
and the loop only ever re-executes, resumes or discards them, so under
any injected schedule it recovers from,
``FleetReport.identity_signature()`` equals the fault-free serial
reference bit-for-bit.  XEXT17 sweeps exactly this contract.

Recovery accounting goes to ``fleet.supervisor.*`` obs counters and to
``FleetReport.supervisor`` (a :class:`SupervisorStats`).
"""

from __future__ import annotations

import os
import secrets
import shutil
import tempfile
import time as _time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass

from .. import obs
from ..faults.process import ProcessFaultPlan, shard_fault_decision
from ..infra import CircuitBreaker, RetryPolicy
from . import runner
from .room import RoomReport
from .runner import FleetReport, ShardFailure, ShardJob, ShardReport
from .specs import FleetConfigError, FleetSpec, ShardSpec, ensure_picklable

#: Hedges allowed per shard (each consumes an attempt).
MAX_HEDGES_PER_SHARD = 1
#: Backoff of retry *delays*, walked by a shard's consecutive failures
#: (giving up is the attempt budget's and quarantine's job).
RETRY_POLICY = RetryPolicy(initial_timeout=0.02, backoff=2.0,
                           max_timeout=0.25)
#: Event-loop wake interval when nothing sooner is scheduled.
POLL_INTERVAL_S = 0.05
#: Where checkpoint spills go: RAM-backed ``/dev/shm`` when the OS has
#: it (a spill only has to outlive a worker, not the machine, and file
#: creation there is several times cheaper), else the temp directory.
SPILL_ROOT = "/dev/shm" if os.access("/dev/shm", os.W_OK) else None


@dataclass(frozen=True)
class SupervisorPolicy:
    """The recovery knobs, all bounded, all explicit.  The defaults are
    what a plain ``run_fleet`` call runs under: retries and quarantine,
    no hedging, no deadline."""

    #: Total executions allowed per shard, hedges included.  Must
    #: exceed the fault plan's ``max_faulty_attempts`` for the
    #: guaranteed-progress bound to hold.
    max_attempts: int = 5
    #: Age (seconds) past which a sole in-flight attempt gets a hedged
    #: re-execution.  ``None`` disables hedging.
    hedge_after_s: float | None = None
    #: Hard per-attempt deadline: an attempt older than this is
    #: abandoned and its worker killed.  ``None`` disables.
    shard_deadline_s: float | None = None
    #: Consecutive failures that quarantine a shard (its breaker's
    #: failure threshold).
    quarantine_threshold: int = 4

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.hedge_after_s is not None and self.hedge_after_s <= 0:
            raise ValueError(
                f"hedge_after_s must be positive, got {self.hedge_after_s}"
            )
        if self.shard_deadline_s is not None and self.shard_deadline_s <= 0:
            raise ValueError(
                f"shard_deadline_s must be positive, "
                f"got {self.shard_deadline_s}"
            )
        if self.quarantine_threshold < 1:
            raise ValueError(
                f"quarantine_threshold must be >= 1, "
                f"got {self.quarantine_threshold}"
            )


@dataclass
class SupervisorStats:
    """Recovery accounting for one run (execution detail — never part
    of the identity signature)."""

    backend: str = "serial"
    workers: int = 1
    attempts_total: int = 0
    crashes_detected: int = 0
    stragglers_hedged: int = 0
    hedges_wasted: int = 0
    rooms_resumed: int = 0
    poisoned_reports: int = 0
    duplicates_injected: int = 0
    duplicates_dropped: int = 0
    late_results_dropped: int = 0
    retries_scheduled: int = 0
    deadline_kills: int = 0
    pool_rebuilds: int = 0
    shards_quarantined: int = 0
    shards_failed: int = 0


#: Stats fields mirrored by a ``fleet.supervisor.<field>`` obs counter.
_COUNTED = (
    "crashes_detected", "stragglers_hedged", "hedges_wasted",
    "rooms_resumed", "poisoned_reports", "duplicates_injected",
    "duplicates_dropped", "late_results_dropped", "retries_scheduled",
    "deadline_kills", "pool_rebuilds", "shards_quarantined",
)

#: Which counter each kind of failed attempt bumps.
_FAILURE_COUNTERS = {
    "crash": "crashes_detected",
    "poison": "poisoned_reports",
    "deadline": "deadline_kills",
}


def validate_shard_report(report: object, shard: ShardSpec) -> str | None:
    """Why ``report`` must not be merged for ``shard`` — or ``None``
    if it is sound.  This is the poison gate: everything the driver
    is about to trust is checked against the spec it dispatched."""
    if not isinstance(report, ShardReport):
        return (f"expected ShardReport, got "
                f"{type(report).__name__} (poisoned result)")
    if report.shard_id != shard.shard_id:
        return (f"shard id mismatch: report says {report.shard_id}, "
                f"spec says {shard.shard_id}")
    want = [room.room_id for room in shard.rooms]
    got = [getattr(room, "room_id", None) for room in report.rooms]
    if got != want:
        return f"room set mismatch: report has {got}, spec wants {want}"
    if any(not isinstance(room, RoomReport) for room in report.rooms):
        return "report contains non-RoomReport rooms (poisoned result)"
    return None


def _terminate_pool(pool) -> None:
    """Shut a pool down even if its workers are wedged.

    ``shutdown(wait=True)`` on a pool with a hung worker blocks
    forever, so the workers are terminated first; joining the corpses
    afterwards is prompt.  Reaches into ``_processes`` — a CPython
    implementation detail, but the only eviction mechanism
    ``ProcessPoolExecutor`` has, and guarded so a future stdlib rename
    degrades to a plain (possibly blocking) shutdown rather than a
    crash.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            if process.is_alive():
                process.terminate()
        except Exception:  # pragma: no cover - best-effort teardown
            pass
    pool.shutdown(wait=True, cancel_futures=True)


class _InProcessExecutor:
    """The serial backend: ``submit`` runs the job to completion in
    this interpreter and hands back an already-finished future."""

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as error:
            future.set_exception(error)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False):
        pass


class _Flight:
    """One in-flight execution attempt."""

    __slots__ = ("shard_id", "attempt", "hedge", "duplicate", "started_at")

    def __init__(self, shard_id: int, attempt: int, hedge: bool = False,
                 duplicate: bool = False) -> None:
        self.shard_id = shard_id
        self.attempt = attempt
        self.hedge = hedge
        #: The injected redelivery of an already-merged result.
        self.duplicate = duplicate
        #: When the attempt was handed to a free slot.
        self.started_at = 0.0


class _ShardState:
    """Loop-side bookkeeping for one shard."""

    __slots__ = ("spec", "attempts", "hedges", "report", "failure",
                 "breaker", "inflight", "ready_at", "exhausted_error")

    def __init__(self, spec: ShardSpec, breaker: CircuitBreaker) -> None:
        self.spec = spec
        self.attempts = 0          # executions charged (hedges included)
        self.hedges = 0
        self.report: ShardReport | None = None
        self.failure: ShardFailure | None = None
        self.breaker = breaker
        self.inflight = 0
        self.ready_at: float | None = 0.0   # next launch time
        self.exhausted_error: str | None = None

    @property
    def resolved(self) -> bool:
        return self.report is not None or self.failure is not None


class _ShardLoop:
    """One fleet execution: the event loop and its bookkeeping."""

    def __init__(self, shards: tuple[ShardSpec, ...], backend: str,
                 workers: int, faults: ProcessFaultPlan | None, seed: int,
                 policy: SupervisorPolicy, checkpoint_dir: str) -> None:
        self.process = backend == "process"
        self.workers = workers
        self.faults = faults
        self.seed = seed
        self.policy = policy
        self.checkpoint_dir = checkpoint_dir
        self.stats = SupervisorStats(backend=backend, workers=workers)
        self.counters = {name: obs.counter(f"fleet.supervisor.{name}")
                         for name in _COUNTED}
        # Quarantine is final for the run: the recovery timeout is far
        # beyond any run length, so a tripped shard is never re-probed.
        self.states = {
            shard.shard_id: _ShardState(shard, CircuitBreaker(
                f"fleet.shard{shard.shard_id}",
                failure_threshold=policy.quarantine_threshold,
                recovery_timeout=86_400.0,
            ))
            for shard in shards
        }
        self.inflight: dict[Future, _Flight] = {}
        self.redeliveries: list[_Flight] = []
        #: Shards whose attempt was in flight when the pool broke; each
        #: runs alone until an attempt of it completes.
        self.suspects: set[int] = set()
        self.pool = self._new_pool()

    def _new_pool(self):
        if self.process:
            return ProcessPoolExecutor(max_workers=self.workers)
        return _InProcessExecutor()

    def count(self, name: str, amount: int = 1) -> None:
        setattr(self.stats, name, getattr(self.stats, name) + amount)
        self.counters[name].inc(amount)

    # ------------------------------------------------------------------

    def run(self) -> tuple[list[ShardReport], list[ShardFailure]]:
        states = self.states.values()
        try:
            while self.redeliveries or not all(s.resolved for s in states):
                self._launch_ready()
                done = self._wait()
                if done is None:
                    break
                if not self._collect(done):
                    self._hedge_stragglers()
                    self._kill_expired()
        finally:
            # Hedge losers and redeliveries may still be pending; they
            # will never be used — count them and kill the pool.
            for flight in [*self.inflight.values(), *self.redeliveries]:
                self._drop_stale(flight)
            _terminate_pool(self.pool)
        failures = [s.failure for s in states if s.failure is not None]
        self.stats.shards_failed = len(failures)
        return [s.report for s in states if s.report is not None], failures

    def _solo(self) -> bool:
        """A suspect is in flight, so nothing may join it."""
        return any(flight.shard_id in self.suspects
                   for flight in self.inflight.values())

    def _launch_ready(self) -> None:
        """Hand ready attempts to free slots.  While a suspect is ready
        the pool drains, then the suspect runs alone."""
        if self._solo():
            return
        now = _time.monotonic()
        ready = [state for state in self.states.values()
                 if not state.resolved and state.ready_at is not None
                 and state.ready_at <= now]
        suspects = [state for state in ready
                    if state.spec.shard_id in self.suspects]
        if suspects:
            if not self.inflight:
                self._launch(suspects[0])
            return
        while self.redeliveries and len(self.inflight) < self.workers:
            if not self._submit(self.redeliveries.pop(0)):
                return
        for state in ready:
            if len(self.inflight) >= self.workers or not self._launch(state):
                return

    def _launch(self, state: _ShardState, hedge: bool = False) -> bool:
        if not self._submit(_Flight(state.spec.shard_id, state.attempts,
                                    hedge=hedge)):
            return False
        state.attempts += 1
        state.ready_at = None
        return True

    def _submit(self, flight: _Flight) -> bool:
        """Start one attempt; ``False`` if the pool turned out broken."""
        state = self.states[flight.shard_id]
        job = ShardJob(
            shard=state.spec, checkpoint_dir=self.checkpoint_dir,
            attempt=flight.attempt, seed=self.seed, faults=self.faults,
            hard_crash_ok=self.process,
        )
        flight.started_at = _time.monotonic()
        try:
            future = self.pool.submit(runner.run_shard, job)
        except BrokenExecutor as error:
            if flight.duplicate:
                self._drop_stale(flight)
            self._break(error)
            return False
        self.inflight[future] = flight
        state.inflight += 1
        self.stats.attempts_total += 1
        return True

    def _wait(self) -> set[Future] | None:
        """Block until a completion or the next timer; ``None`` when
        nothing is in flight or scheduled (the loop has stalled)."""
        now = _time.monotonic()
        pending = [state.ready_at for state in self.states.values()
                   if not state.resolved and state.ready_at is not None]
        if not self.inflight:
            if not pending:
                self._give_up()
                return None
            _time.sleep(max(min(pending) - now, 0.0))
            return set()
        timers = [now + POLL_INTERVAL_S, *pending]
        hedge_after = self.policy.hedge_after_s
        deadline = self.policy.shard_deadline_s
        for flight in self.inflight.values():
            if (hedge_after is not None and self.states[flight.shard_id]
                    .hedges < MAX_HEDGES_PER_SHARD):
                timers.append(flight.started_at + hedge_after)
            if deadline is not None:
                timers.append(flight.started_at + deadline)
        # Timers already past are blocked on a busy slot; only a
        # completion can unblock them, and wait() returns on that.
        wake_at = min(timer for timer in timers if timer > now)
        done, _ = wait(self.inflight, timeout=wake_at - now,
                       return_when=FIRST_COMPLETED)
        return done

    def _collect(self, done: set[Future]) -> bool:
        """Settle finished attempts; ``True`` if the pool broke."""
        broken = None
        for future in done:
            error = future.exception()
            if isinstance(error, BrokenExecutor):
                broken = error  # settled below, with the rest in flight
                continue
            flight = self.inflight.pop(future)
            state = self.states[flight.shard_id]
            state.inflight -= 1
            if state.resolved:
                self._drop_stale(flight)
                continue
            self.suspects.discard(flight.shard_id)
            if error is not None:
                self._fail_attempt(state, repr(error), "crash")
                continue
            report = future.result()
            invalid = validate_shard_report(report, state.spec)
            if invalid is not None:
                self._fail_attempt(state, invalid, "poison")
            else:
                self._accept(state, flight, report)
        if broken is None:
            return False
        self._break(broken)
        return True

    def _accept(self, state: _ShardState, flight: _Flight,
                report: ShardReport) -> None:
        state.report = report
        state.breaker.record_success(_time.monotonic())
        self.count("rooms_resumed", report.rooms_resumed)
        if shard_fault_decision(self.faults, self.seed, state.spec.shard_id,
                                flight.attempt).duplicate:
            # An at-least-once queue redelivers the same attempt (cheap:
            # it resumes every room from checkpoint); dedup drops it.
            self.count("duplicates_injected")
            self.redeliveries.append(_Flight(
                state.spec.shard_id, flight.attempt, duplicate=True))

    def _drop_stale(self, flight: _Flight) -> None:
        if flight.hedge:
            self.count("hedges_wasted")
        elif flight.duplicate:
            self.count("duplicates_dropped")
        else:
            self.count("late_results_dropped")

    def _fail_attempt(self, state: _ShardState, error: str,
                      kind: str) -> None:
        """One attempt died; decide retry, quarantine or give up."""
        self.count(_FAILURE_COUNTERS[kind])
        now = _time.monotonic()
        state.breaker.record_failure(now)
        with obs.span("fleet.supervisor.recover",
                      shard=state.spec.shard_id, kind=kind):
            if not state.breaker.allow(now):
                self._finalize(
                    state,
                    f"quarantined after "
                    f"{state.breaker.consecutive_failures} consecutive "
                    f"failures (last: {error})",
                    quarantined=True,
                )
            elif state.attempts >= self.policy.max_attempts:
                state.exhausted_error = error
                if state.inflight == 0 and state.ready_at is None:
                    self._finalize(
                        state, f"attempt budget exhausted ({error})")
            elif state.inflight == 0 and state.ready_at is None:
                # (Otherwise a retry is queued already, or a sibling
                # attempt is still racing.)
                state.ready_at = now + RETRY_POLICY.delay(
                    state.breaker.consecutive_failures - 1)
                self.count("retries_scheduled")

    def _finalize(self, state: _ShardState, error: str,
                  quarantined: bool = False) -> None:
        state.failure = ShardFailure(
            shard_id=state.spec.shard_id, error=error,
            attempts=state.attempts, quarantined=quarantined,
        )
        state.ready_at = None
        self.suspects.discard(state.spec.shard_id)
        if quarantined:
            self.count("shards_quarantined")

    def _give_up(self) -> None:
        """Stall guard: no attempt is live or scheduled, yet shards are
        unresolved (unreachable by construction; a hang is worse)."""
        for state in self.states.values():
            if not state.resolved:
                self._finalize(state, state.exhausted_error
                               or "no live or scheduled attempt left")

    def _hedge_stragglers(self) -> None:
        hedge_after = self.policy.hedge_after_s
        if hedge_after is None or self.suspects:
            return
        now = _time.monotonic()
        for flight in list(self.inflight.values()):
            if len(self.inflight) >= self.workers:
                return
            state = self.states[flight.shard_id]
            if (state.resolved or state.inflight != 1
                    or state.hedges >= MAX_HEDGES_PER_SHARD
                    or state.attempts >= self.policy.max_attempts
                    or now - flight.started_at < hedge_after):
                continue
            if not self._launch(state, hedge=True):
                return
            state.hedges += 1
            self.count("stragglers_hedged")

    def _kill_expired(self) -> None:
        deadline = self.policy.shard_deadline_s
        if deadline is None:
            return
        now = _time.monotonic()
        expired = [flight for future, flight in self.inflight.items()
                   if now - flight.started_at >= deadline
                   and not future.done()]
        if expired:
            self._evict(expired, f"attempt exceeded {deadline:.3f} s "
                                 f"deadline (worker killed)", "deadline")

    def _break(self, error: BaseException) -> None:
        """The pool broke under the attempts in flight.  One running
        alone is charged; otherwise all are refunded as suspects."""
        flights = list(self.inflight.values())
        self._evict(flights if len(flights) == 1 else [], repr(error),
                    "crash", suspect=True)

    def _evict(self, charged: list[_Flight], error: str, kind: str,
               suspect: bool = False) -> None:
        """Kill the pool under every attempt in flight and stand up a
        fresh one.  ``charged`` attempts fail with ``error``; every
        other live attempt is refunded and re-queued — a casualty, not
        an offender — and, after a break, marked a suspect."""
        flights = list(self.inflight.values())
        self.inflight.clear()
        _terminate_pool(self.pool)
        self.pool = self._new_pool()
        self.count("pool_rebuilds")
        now = _time.monotonic()
        for flight in flights:
            state = self.states[flight.shard_id]
            state.inflight -= 1
            if state.resolved:
                self._drop_stale(flight)
                continue
            if suspect:
                self.suspects.add(flight.shard_id)
            if flight in charged:
                self._fail_attempt(state, error, kind)
                continue
            state.attempts -= 1
            self.stats.attempts_total -= 1
            if state.ready_at is None:
                state.ready_at = now


def run_fleet(
    spec: FleetSpec,
    num_shards: int = 1,
    backend: str = "serial",
    workers: int | None = None,
    faults: ProcessFaultPlan | None = None,
    policy: SupervisorPolicy | None = None,
    seed: int | None = None,
) -> FleetReport:
    """Partition the fleet into shards and execute them.

    Parameters
    ----------
    spec:
        The fleet topology.
    num_shards:
        How many contiguous room-groups to cut the fleet into.
    backend:
        ``"serial"`` (reference) or ``"process"`` (pool).
    workers:
        Pool width for the process backend (also the cap on attempts
        in flight); defaults to ``num_shards``.  Must be >= 1.
    faults:
        Optional process fault plan (chaos testing).
    policy:
        Recovery knobs; the default retries and quarantines but never
        hedges or kills.
    seed:
        Seed of the fault schedule; defaults to ``spec.seed``.
    """
    if backend not in ("serial", "process"):
        raise ValueError(f"unknown fleet backend {backend!r}")
    if workers is not None and workers < 1:
        raise FleetConfigError(f"workers must be >= 1, got {workers}")
    wall_start = _time.perf_counter()
    shards = spec.shard_specs(num_shards)
    if backend == "process":
        workers = num_shards if workers is None else workers
        for shard in shards:
            ensure_picklable(shard, f"ShardSpec(shard_id={shard.shard_id})")
    else:
        workers = 1
    # A fresh, unguessable path that only the first spill creates.
    checkpoint_dir = os.path.join(
        SPILL_ROOT or tempfile.gettempdir(),
        f"repro-fleet-ckpt-{secrets.token_hex(8)}",
    )
    try:
        loop = _ShardLoop(
            shards, backend, workers, faults,
            spec.seed if seed is None else seed,
            policy or SupervisorPolicy(), checkpoint_dir,
        )
        reports, failures = loop.run()
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    return runner.build_fleet_report(
        spec=spec,
        backend=backend,
        num_shards=num_shards,
        workers=workers,
        shards=reports,
        failures=failures,
        wall_s=_time.perf_counter() - wall_start,
        supervisor=loop.stats,
    )


#: The supervised entry point's earlier name; the same function.
run_fleet_supervised = run_fleet


__all__ = [
    "MAX_HEDGES_PER_SHARD",
    "POLL_INTERVAL_S",
    "RETRY_POLICY",
    "SupervisorPolicy",
    "SupervisorStats",
    "run_fleet",
    "run_fleet_supervised",
    "validate_shard_report",
]
