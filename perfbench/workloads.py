"""The benchmark's three closed-loop workloads and their output checks.

Every workload runs in *passes* of fixed work, one after another in one
process: the next room, window or shard starts only when the previous
one has finished.  A pass returns a :class:`PassResult` cut into
:class:`Block` s; the runner times passes until its time budget is spent
and reads its timing metrics from the fastest blocks.

* ``fleet-dense`` — ``run_fleet`` serial over 20-switch rooms (the
  XEXT15 room shape): the acoustic pipeline does most of the work.
* ``telemetry-hh`` — the fig4ab heavy-hitter pipeline driven by real
  packets, stepped one 100 ms listening window per ``Simulator.run``:
  simulator dispatch, forwarding and app logic do most of the work.
* ``fleet-process`` — ``run_fleet`` on a process pool over many light
  2-switch rooms: pool start-up, shard pacing, report pickling and the
  metrics merge get the largest share the fleet layer ever has.

The workloads drive the program only through its public API.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
import weakref
from dataclasses import dataclass, field

from repro.audio import (
    AcousticChannel,
    FrequencyDetector,
    Microphone,
    SpectrumAnalyzer,
)
from repro.core import MusicAgent, ToneCounter
from repro.core.apps import (
    FlowToneMapper,
    HeavyHitterDetectorApp,
    HeavyHitterEmitter,
    score_heavy_hitter,
)
from repro.experiments.fig4 import heavy_hitter_experiment
from repro.experiments.rigs import build_testbed
from repro.fleet import FleetSpec, run_fleet
from repro.fleet import runner as fleet_runner
from repro.net import (
    FlowTable,
    Host,
    HostSink,
    Simulator,
    Switch,
    VectorizedFlowDriver,
    build_workload,
)

from tracing import SpanRecorder
from yardstick import yardstick

#: The fig4ab telemetry configuration.
TRAFFIC_MIX = "elephants-mice"
TRAFFIC_FLOWS = 40
HH_BUCKETS = 16
HH_COUNT_THRESHOLD = 5
TELEMETRY_WINDOW = 0.1

#: Step targets sit this far past each window boundary, so a listening
#: timer that lands one ulp after ``k * TELEMETRY_WINDOW`` still fires
#: inside step ``k`` and every step holds exactly one window.
STEP_SLACK = 1e-7

#: Telemetry windows per :class:`Block` (10 simulated seconds).
BLOCK_WINDOWS = 100


@dataclass(frozen=True)
class Sizes:
    """How much work one pass does (the benchmark's run size)."""

    #: Rooms per ``fleet-dense`` pass.
    dense_rooms: int = 5
    #: Simulated seconds per ``telemetry-hh`` pass (3000 windows, so the
    #: controller's 600-window channel prune fires five times).
    telemetry_horizon: float = 300.0
    #: Rooms and shards per ``fleet-process`` pass.
    process_rooms: int = 40
    process_shards: int = 8
    #: Horizon of the untimed telemetry cross-check.
    check_horizon: float = 30.0
    #: Fresh interpreters started to measure ``setup_s``.
    setup_probes: int = 5


#: A run small enough for the benchmark's own tests.
TINY = Sizes(dense_rooms=2, telemetry_horizon=10.0, process_rooms=4,
             process_shards=3, check_horizon=2.0, setup_probes=1)


@dataclass
class Block:
    """A short stretch of consecutive work inside one pass (about 0.1 to
    0.4 s), the unit the runner ranks by speed."""

    #: Simulated room-seconds the block covered.
    sim_seconds: float
    wall_s: float
    #: Host wall ms per simulated room-second: one sample per room
    #: (fleets) or per 10 consecutive windows (telemetry).
    room_ms: list[float]
    #: Host wall ms per listening window: each stepped run (telemetry),
    #: or each room's wall over its window count (fleets).
    window_ms: list[float]
    #: Wall seconds of the yardstick run just before the block.
    yardstick_s: float


@dataclass
class PassResult:
    """What one pass measured and produced."""

    #: Simulated room-seconds the pass covered.
    sim_seconds: float
    wall_s: float
    blocks: list[Block]
    #: Digest of everything deterministic the pass produced.
    digest: str
    attempted: int
    failed: int
    #: Counts the program itself reports for this pass.
    counts: dict[str, float] = field(default_factory=dict)
    #: Result quality, printed but not gated (it is fixed by the seed).
    quality: dict[str, float] = field(default_factory=dict)


def digest_of(value: object) -> str:
    """Stable hex digest of a JSON-able structure."""
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# Fleets
# ----------------------------------------------------------------------


class FleetWorkload:
    """``run_fleet`` over a fixed spec, once per pass."""

    def __init__(self, name: str, spec: FleetSpec, backend: str,
                 num_shards: int, workers: int) -> None:
        self.name = name
        self.spec = spec
        self.backend = backend
        self.num_shards = num_shards
        self.workers = workers
        self.units_per_pass = spec.num_rooms
        self.window_s = spec.listen_interval

    def _run(self, recorder: SpanRecorder | None):
        kwargs = dict(num_shards=min(self.num_shards, self.spec.num_rooms),
                      backend=self.backend, workers=self.workers)
        if recorder is None:
            return run_fleet(self.spec, **kwargs)
        return recorder.call("fleet.run_fleet", run_fleet, self.spec,
                             **kwargs)

    def setup(self) -> None:
        """Fill first-call caches: one serial room in this process
        (forked workers inherit them) and, for the pool, one small
        pooled run."""
        warm = FleetSpec(num_rooms=1,
                         switches_per_room=self.spec.switches_per_room,
                         horizon=self.spec.horizon, backend=self.spec.backend,
                         seed=self.spec.seed)
        run_fleet(warm, backend="serial")
        if self.backend == "process":
            pooled = FleetSpec(num_rooms=self.workers,
                               switches_per_room=self.spec.switches_per_room,
                               horizon=self.spec.horizon, seed=self.spec.seed)
            run_fleet(pooled, num_shards=self.workers, backend="process",
                      workers=self.workers)

    def run_pass(self, recorder: SpanRecorder | None = None) -> PassResult:
        machine = yardstick()
        start = time.perf_counter()
        report = self._run(recorder)
        wall = time.perf_counter() - start
        rooms = report.rooms
        onsets = sum(room.onsets for room in rooms)
        spurious = sum(room.spurious_onsets for room in rooms)
        precision = (onsets - spurious) / onsets if onsets else 0.0
        return PassResult(
            sim_seconds=self.spec.horizon * len(rooms),
            wall_s=wall,
            blocks=[Block(
                sim_seconds=self.spec.horizon * len(rooms),
                wall_s=wall,
                room_ms=[room.wall_s * 1e3 / self.spec.horizon
                         for room in rooms],
                window_ms=[room.wall_s * 1e3 / room.windows
                           for room in rooms],
                yardstick_s=machine,
            )],
            digest=digest_of(report.identity_signature()),
            attempted=self.spec.num_rooms,
            failed=self.spec.num_rooms - len(rooms),
            counts={
                "controller.windows": sum(room.windows for room in rooms),
                "controller.detections": sum(room.detections for room in rooms),
                "controller.onsets": onsets,
                "fleet.shard_busy_ms": sum(
                    shard.wall_s for shard in report.shards) * 1e3,
                "fleet.report_kb": len(pickle.dumps(report.shards)) / 1024.0,
                "fleet.shard_failures": len(report.failures),
            },
            quality={
                "delivery_ratio": report.delivery_ratio,
                "onset_precision": precision,
                "emissions": report.emissions,
                "delivered": report.delivered,
            },
        )

    def check(self, passes: list[PassResult]) -> list[str]:
        """Output checks; returns one message per failed check."""
        problems = check_same_digest(passes)
        for result in passes:
            delivered, emissions = (result.quality["delivered"],
                                    result.quality["emissions"])
            if not 0 < delivered <= emissions:
                problems.append(
                    f"delivered chirps {delivered} outside (0, {emissions}]")
        if self.backend == "process" and passes:
            serial = run_fleet(self.spec, backend="serial")
            if digest_of(serial.identity_signature()) != passes[0].digest:
                problems.append("process fleet differs from the serial "
                                "run of the same spec")
        return problems

    def instrument(self, recorder: SpanRecorder, counts: dict) -> None:
        """Wrap the parent-side fleet functions and, when rooms run in
        this process, every in-process layer."""
        recorder.wrap(fleet_runner, "build_fleet_report",
                      "fleet.build_fleet_report")
        if self.backend == "serial":
            recorder.wrap(fleet_runner, "run_room", "fleet.run_room",
                          unit_of=lambda args: args[0].room_id)
            instrument_layers(recorder, counts)


def fleet_dense(seed: int, sizes: Sizes) -> FleetWorkload:
    spec = FleetSpec(num_rooms=sizes.dense_rooms, switches_per_room=20,
                     horizon=1.0, backend="fft", seed=seed)
    return FleetWorkload("fleet-dense", spec, "serial", 1, 1)


def fleet_process(seed: int, sizes: Sizes) -> FleetWorkload:
    spec = FleetSpec(num_rooms=sizes.process_rooms, switches_per_room=2,
                     horizon=1.0, seed=seed)
    workers = min(2, os.cpu_count() or 1)
    return FleetWorkload("fleet-process", spec, "process",
                         sizes.process_shards, workers)


# ----------------------------------------------------------------------
# Packet-driven heavy-hitter telemetry
# ----------------------------------------------------------------------


class TelemetryWorkload:
    """The fig4ab heavy-hitter pipeline, stepped window by window."""

    name = "telemetry-hh"
    units_per_pass = 1
    window_s = TELEMETRY_WINDOW
    workers = 0

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.horizon = sizes.telemetry_horizon
        self.check_horizon = sizes.check_horizon
        self._spec = None

    def setup(self) -> None:
        """Build the traffic input, then fill first-call caches with a
        short stepped run."""
        self._spec = build_workload(TRAFFIC_MIX, num_flows=TRAFFIC_FLOWS,
                                    seed=self.seed, duration=self.horizon)
        self.run_stepped(self._spec, min(self.horizon, 2.0))

    def run_stepped(self, spec, horizon: float,
                    recorder: SpanRecorder | None = None,
                    yardsticks: list[float] | None = None):
        """Build the testbed exactly as ``heavy_hitter_experiment``
        does and run it to ``horizon`` one window per
        ``Simulator.run``; returns ``(testbed, app, population,
        window_seconds)``.  With ``yardsticks``, the yardstick runs
        before every block of windows and its times are appended."""
        testbed = build_testbed("single")
        allocation = testbed.plan.allocate("s1", HH_BUCKETS)
        mapper = FlowToneMapper(allocation)
        HeavyHitterEmitter(testbed.topo.switches["s1"],
                           testbed.agents["s1"], mapper)
        app = HeavyHitterDetectorApp(testbed.controller, mapper,
                                     count_threshold=HH_COUNT_THRESHOLD)
        testbed.controller.start()
        population = spec.build().retarget(testbed.topo.hosts["h2"].ip)
        sink = HostSink(testbed.topo.hosts["h1"], population)
        VectorizedFlowDriver(testbed.sim, population, sink,
                             stop=horizon).launch()
        steps = int(round(horizon / TELEMETRY_WINDOW))
        window_seconds = []
        clock = time.perf_counter
        run = testbed.sim.run
        for step in range(1, steps + 1):
            until = (horizon if step == steps
                     else step * TELEMETRY_WINDOW + STEP_SLACK)
            if yardsticks is not None and step % BLOCK_WINDOWS == 1:
                yardsticks.append(yardstick())
            if recorder is not None:
                recorder.unit = step
            start = clock()
            run(until)
            window_seconds.append(clock() - start)
        app.finalize(horizon)
        return testbed, app, population, window_seconds

    def run_pass(self, recorder: SpanRecorder | None = None) -> PassResult:
        machine: list[float] = []
        start = time.perf_counter()
        testbed, app, population, windows = self.run_stepped(
            self._spec, self.horizon, recorder, machine)
        wall = time.perf_counter() - start - sum(machine)
        score = score_heavy_hitter(app, population)
        controller = testbed.controller
        per_second = int(round(1.0 / TELEMETRY_WINDOW))
        blocks = []
        for first in range(0, len(windows) - BLOCK_WINDOWS + 1,
                           BLOCK_WINDOWS):
            block = windows[first:first + BLOCK_WINDOWS]
            blocks.append(Block(
                yardstick_s=machine[first // BLOCK_WINDOWS],
                sim_seconds=BLOCK_WINDOWS * TELEMETRY_WINDOW,
                wall_s=sum(block),
                room_ms=[sum(block[i:i + per_second]) * 1e3
                         for i in range(0, BLOCK_WINDOWS, per_second)],
                window_ms=[seconds * 1e3 for seconds in block],
            ))
        queues = [direction.queue for link in testbed.topo.links
                  for direction in (link.a_to_b, link.b_to_a)]
        return PassResult(
            sim_seconds=self.horizon,
            wall_s=wall,
            blocks=blocks,
            digest=digest_of({
                "alerts": alert_rows(app.alerts),
                "score": score.as_dict(),
                "windows": controller.windows_processed,
                "detections": controller.detections,
                "onsets": controller.onsets,
                "events": testbed.sim.events_processed,
            }),
            attempted=1,
            failed=0,
            counts={
                "controller.windows": controller.windows_processed,
                "controller.detections": controller.detections,
                "controller.onsets": controller.onsets,
                "hh.alerts": len(app.alerts),
                "queue.drops": sum(queue.dropped for queue in queues),
            },
            quality={"hh_precision": score.precision,
                     "hh_recall": score.recall, "hh_f1": score.f1},
        )

    def check(self, passes: list[PassResult]) -> list[str]:
        problems = check_same_digest(passes)
        problems.extend(self.cross_check())
        return problems

    def cross_check(self) -> list[str]:
        """The stepped pipeline must equal ``heavy_hitter_experiment``
        on a short horizon."""
        spec = build_workload(TRAFFIC_MIX, num_flows=TRAFFIC_FLOWS,
                              seed=self.seed, duration=self.check_horizon)
        _testbed, app, population, _windows = self.run_stepped(
            spec, self.check_horizon)
        reference = heavy_hitter_experiment(
            duration=self.check_horizon, num_flows=TRAFFIC_FLOWS,
            num_buckets=HH_BUCKETS, count_threshold=HH_COUNT_THRESHOLD,
            seed=self.seed, workload=TRAFFIC_MIX,
        )
        problems = []
        if alert_rows(app.alerts) != alert_rows(reference.alerts):
            problems.append("stepped telemetry alerts differ from "
                            "heavy_hitter_experiment")
        if score_heavy_hitter(app, population).as_dict() != reference.precision_recall:
            problems.append("stepped telemetry F1 differs from "
                            "heavy_hitter_experiment")
        return problems

    def instrument(self, recorder: SpanRecorder, counts: dict) -> None:
        instrument_layers(recorder, counts)


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------


def alert_rows(alerts) -> list[tuple]:
    """Heavy-hitter alerts as plain comparable rows."""
    return [(a.interval_start, a.frequency, a.count) for a in alerts]


def check_same_digest(passes: list[PassResult]) -> list[str]:
    """Every pass at one seed must produce the same result."""
    digests = {result.digest for result in passes}
    if len(digests) > 1:
        return [f"passes at one seed produced {len(digests)} different "
                f"results (identity digests differ)"]
    return []


def instrument_layers(recorder: SpanRecorder, counts: dict) -> None:
    """Wrap every in-process layer boundary and count its work.

    ``counts`` receives plain totals; the runner normalizes them.
    """
    live: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    hits_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    events_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    for key in ("sim.events", "channel.renders", "channel.render_hits",
                "channel.tones_pruned", "channel.tones_live_peak",
                "fft.peaks", "detector.events", "agent.plays",
                "agent.played", "switch.packets"):
        counts.setdefault(key, 0)

    def on_run(args, _result):
        sim = args[0]
        total = sim.events_processed
        counts["sim.events"] += total - events_seen.get(sim, 0)
        events_seen[sim] = total

    def on_render(args, _result):
        channel = args[0]
        hits = channel.render_cache_hits
        counts["channel.renders"] += 1
        if hits > hits_seen.get(channel, 0):
            counts["channel.render_hits"] += 1
        hits_seen[channel] = hits

    def on_play_tone(args, _result):
        channel = args[0]
        tones = live.get(channel, 0) + 1
        live[channel] = tones
        if tones > counts["channel.tones_live_peak"]:
            counts["channel.tones_live_peak"] = tones

    def on_prune(args, dropped):
        live[args[0]] = live.get(args[0], 0) - dropped
        counts["channel.tones_pruned"] += dropped

    def on_peaks(_args, peaks):
        counts["fft.peaks"] += len(peaks)

    def on_detect(_args, events):
        counts["detector.events"] += len(events)

    def on_play(_args, played):
        counts["agent.plays"] += 1
        counts["agent.played"] += bool(played)

    def on_receive(_args, _result):
        counts["switch.packets"] += 1

    recorder.wrap(Simulator, "run", "sim.run", after=on_run)
    recorder.wrap(Microphone, "record", "mic.record")
    recorder.wrap(AcousticChannel, "render_at", "channel.render_at",
                  after=on_render)
    recorder.wrap(AcousticChannel, "play_tone", "channel.play_tone",
                  after=on_play_tone)
    recorder.wrap(AcousticChannel, "prune", "channel.prune", after=on_prune)
    recorder.wrap(SpectrumAnalyzer, "analyze", "fft.analyze")
    recorder.wrap(SpectrumAnalyzer, "find_peaks", "fft.find_peaks",
                  after=on_peaks)
    recorder.wrap(FrequencyDetector, "detect", "detector.detect",
                  after=on_detect)
    recorder.wrap(MusicAgent, "play", "agent.play", after=on_play)
    recorder.wrap(Switch, "receive", "switch.receive", after=on_receive)
    recorder.wrap(FlowTable, "lookup", "flowtable.lookup")
    recorder.wrap(Host, "send_packet", "host.send_packet")
    recorder.wrap(HostSink, "emit_batch", "driver.emit_batch")
    recorder.wrap(ToneCounter, "observe", "telemetry.observe")
    recorder.wrap(ToneCounter, "flush", "telemetry.flush")


WORKLOADS = {
    "fleet-dense": fleet_dense,
    "telemetry-hh": TelemetryWorkload,
    "fleet-process": fleet_process,
}


def make_workload(name: str, seed: int, sizes: Sizes = Sizes()):
    """The named workload at ``seed`` and ``sizes``."""
    return WORKLOADS[name](seed, sizes)
