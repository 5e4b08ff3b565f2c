"""The repository benchmark: end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-dense --seed 1 --seconds 30 --trace 0

``--trace 0`` times untraced passes and prints every end-to-end metric;
``--trace 1`` alternates untraced and traced passes for the budget and
prints every per-layer metric with the self-time table and the tracing
overhead.  Output checks that fail make the command exit non-zero.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

See README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import os

# One thread per process for every BLAS/OpenMP pool, set before numpy
# is first imported (pool workers inherit the environment).
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                  "NUMEXPR_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import gc
import json
import math
import multiprocessing
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))
if (SRC / "repro").is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from yardstick import NOMINAL_S, yardstick  # noqa: E402  (after the pins)

WORKLOAD_NAMES = ("fleet-dense", "telemetry-hh", "fleet-process")

#: name -> unit, printed by ``--trace 0``.
END_TO_END = {
    "rtf": "s/s",
    "setup_s": "s",
    "room_ms_p50": "ms",
    "window_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

#: Share of blocks, fastest first, that the timing metrics are read
#: from.  On a shared box the speed of identical work swings up to 2x
#: over seconds to minutes; medians over every block follow that swing,
#: the fastest tenth follows it far less.
QUIET_SHARE = 0.1

#: name -> unit, printed by ``--trace 1``.  Times are self times per
#: simulated room-second, counts are per simulated room-second.
PER_LAYER = {
    "channel.render_ms": "ms/sim-s",
    "channel.renders": "1/sim-s",
    "channel.render_cache_hit_ratio": "ratio",
    "channel.play_tone_ms": "ms/sim-s",
    "channel.prune_ms": "ms/sim-s",
    "channel.tones_pruned": "1/sim-s",
    "channel.tones_live_peak": "count",
    "mic.record_self_ms": "ms/sim-s",
    "fft.analyze_ms": "ms/sim-s",
    "fft.analyze_us_p50": "us",
    "fft.analyze_us_p90": "us",
    "fft.find_peaks_ms": "ms/sim-s",
    "fft.peaks_per_window": "count",
    "detector.detect_self_ms": "ms/sim-s",
    "detector.events_per_window": "count",
    "detector.peak_yield": "ratio",
    "agent.play_ms": "ms/sim-s",
    "agent.plays": "1/sim-s",
    "agent.play_yield": "ratio",
    "controller.windows": "1/sim-s",
    "controller.detections": "1/sim-s",
    "controller.onsets": "1/sim-s",
    "sim.self_ms": "ms/sim-s",
    "sim.events": "1/sim-s",
    "sim.events_per_window": "count",
    "switch.receive_ms": "ms/sim-s",
    "switch.packets": "1/sim-s",
    "flowtable.lookup_ms": "ms/sim-s",
    "host.send_ms": "ms/sim-s",
    "driver.emit_ms": "ms/sim-s",
    "queue.drops": "1/sim-s",
    "telemetry.observe_ms": "ms/sim-s",
    "telemetry.flush_ms": "ms/sim-s",
    "hh.alerts": "1/sim-s",
    "fleet.run_ms": "ms/sim-s",
    "fleet.shard_busy_ms": "ms/sim-s",
    "fleet.parallel_efficiency": "ratio",
    "fleet.merge_ms": "ms/sim-s",
    "fleet.report_kb": "KB/sim-s",
    "fleet.shard_failures": "count",
    "fleet.room_self_ms": "ms/sim-s",
    "trace.untimed_ms": "ms/sim-s",
    "trace.overhead_ratio": "ratio",
}

#: Yardstick runs each setup probe times once it is ready.
PROBE_YARDSTICKS = 5

#: The paper's Fig 2b: about 90% of ~50 ms samples analyzed in <= 0.35 ms.
PAPER_FIG2B_P90_US = 350.0


def percentile(values: list[float], q: int) -> float:
    """``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def timed_passes(workload, seconds: float, recorder=None, at_least: int = 1):
    """Closed loop: run whole passes until ``seconds`` have elapsed and
    ``at_least`` were tried.  Returns ``(passes, attempted, failed)``."""
    passes = []
    tries = attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while tries < at_least or time.perf_counter() < deadline:
        tries += 1
        gc.collect()
        try:
            result = workload.run_pass(recorder)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            attempted += workload.units_per_pass
            failed += workload.units_per_pass
            continue
        passes.append(result)
        attempted += result.attempted
        failed += result.failed
    return passes, attempted, failed


def interleaved_passes(workload, seconds: float, recorder, counts: dict):
    """Alternate one untraced and one traced pass (A/B/A/B) until
    ``seconds`` have elapsed, so both see the same machine.  Returns
    ``(plain, traced, attempted, failed)``."""
    plain, traced = [], []
    attempted = failed = rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        rounds += 1
        done, tried, lost = timed_passes(workload, 0.0)
        plain += done
        workload.instrument(recorder, counts)
        try:
            more, more_tried, more_lost = timed_passes(workload, 0.0,
                                                       recorder)
        finally:
            recorder.restore()
        traced += more
        attempted += tried + more_tried
        failed += lost + more_lost
    return plain, traced, attempted, failed


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus the largest child
    reaped so far (pool workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure_setup(workload: str, seed: int, probes: int) -> list[float]:
    """Scaled seconds from starting a fresh interpreter to the moment it
    is ready for its first timed pass, once per probe.  Each probe then
    times the yardstick, which scales its own sample."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed), "--setup-probe"]
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            wall = time.perf_counter() - start
            rest = child.stdout.read()
            code = child.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited with {code}: {line!r}")
        samples.append(wall * NOMINAL_S / float(rest))
    return samples


def setup_probe(workload: str, seed: int) -> None:
    """The child side of :func:`measure_setup`."""
    import workloads
    workloads.make_workload(workload, seed).setup()
    print("ready", flush=True)
    print(min(yardstick() for _ in range(PROBE_YARDSTICKS)), flush=True)


def fastest_tenth(values) -> list:
    values = sorted(values)
    return values[:max(1, math.ceil(len(values) * QUIET_SHARE))]


def quiet_blocks(passes) -> list:
    """The fastest tenth of all blocks (at least one), by wall time per
    simulated second: the stretches the rest of the machine left alone."""
    blocks = [block for result in passes for block in result.blocks]
    cutoff = fastest_tenth(b.wall_s / b.sim_seconds for b in blocks)[-1]
    return [b for b in blocks if b.wall_s / b.sim_seconds <= cutoff]


def speed_scale(passes) -> float:
    """Factor that turns a wall time measured in ``passes`` into one on
    a machine running the yardstick in ``NOMINAL_S``: the nominal time
    over the median of the fastest tenth of the yardstick runs."""
    runs = fastest_tenth(b.yardstick_s for r in passes for b in r.blocks)
    return NOMINAL_S / statistics.median(runs)


def quiet_ms(passes) -> float:
    """Scaled median wall ms per simulated second of the quiet blocks."""
    return speed_scale(passes) * statistics.median(
        b.wall_s * 1e3 / b.sim_seconds for b in quiet_blocks(passes))


def raw_timings(passes) -> dict:
    """The timing metrics of the quiet blocks, before speed scaling."""
    quiet = quiet_blocks(passes)
    return {
        "rtf": statistics.median(b.sim_seconds / b.wall_s for b in quiet),
        "room_ms_p50": percentile([ms for b in quiet for ms in b.room_ms], 50),
        "window_ms_p50": percentile([ms for b in quiet for ms in b.window_ms],
                                    50),
    }


def end_to_end(passes, setup: list[float], rss_mb: float) -> dict:
    scale = speed_scale(passes)
    raw = raw_timings(passes)
    return {
        "rtf": raw["rtf"] / scale,
        "setup_s": statistics.median(setup),
        "room_ms_p50": raw["room_ms_p50"] * scale,
        "window_ms_p50": raw["window_ms_p50"] * scale,
        "peak_rss_mb": rss_mb,
    }


def print_raw(passes) -> None:
    """Unscaled figures, and tails over every block (not gated)."""
    yardsticks = [b.yardstick_s * 1e3 for r in passes for b in r.blocks]
    raw = raw_timings(passes)
    print(f"# yardstick: median {statistics.median(yardsticks):.3f} ms, "
          f"fastest tenth {NOMINAL_S / speed_scale(passes) * 1e3:.3f} ms "
          f"over {len(yardsticks)} runs; nominal {NOMINAL_S * 1e3:.3f} ms, "
          f"so times scale by {speed_scale(passes):.4f}")
    print(f"# unscaled quiet blocks: rtf {raw['rtf']:.4f} s/s, room_ms_p50 "
          f"{raw['room_ms_p50']:.4f} ms, window_ms_p50 "
          f"{raw['window_ms_p50']:.4f} ms")
    rooms = [ms for r in passes for b in r.blocks for ms in b.room_ms]
    windows = [ms for r in passes for b in r.blocks for ms in b.window_ms]
    print(f"# unscaled, all blocks (not gated): room_ms p50 "
          f"{percentile(rooms, 50):.4f} p90 {percentile(rooms, 90):.4f} over "
          f"{len(rooms)} room-seconds; window_ms p50 "
          f"{percentile(windows, 50):.4f} p99 {percentile(windows, 99):.4f} "
          f"over {len(windows)} windows")


def layer_metrics(workload, recorder, counts: dict, traced, plain) -> dict:
    """Per-layer metrics of the traced passes, normalized per simulated
    room-second; ``plain`` (untraced passes) gives the overhead base.
    Times are scaled by the median yardstick of the traced passes."""
    sim_s = sum(result.sim_seconds for result in traced)
    scale = traced_scale(traced)
    program: dict[str, float] = {}
    for result in traced:
        for key, value in result.counts.items():
            program[key] = program.get(key, 0) + value
    selfs = recorder.self_times()

    def self_ms(name: str) -> float:
        return scale * selfs.get(name, (0, 0.0))[1] * 1e3 / sim_s

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    windows = program.get("controller.windows", 0)
    analyzes = sorted(scale * seconds * 1e6
                      for seconds in recorder.durations("fft.analyze"))
    run_s = sum(recorder.durations("fleet.run_fleet"))
    traced_wall = sum(result.wall_s for result in traced)
    count = counts.get
    return {
        "channel.render_ms": self_ms("channel.render_at"),
        "channel.renders": count("channel.renders", 0) / sim_s,
        "channel.render_cache_hit_ratio": ratio(
            count("channel.render_hits", 0), count("channel.renders", 0)),
        "channel.play_tone_ms": self_ms("channel.play_tone"),
        "channel.prune_ms": self_ms("channel.prune"),
        "channel.tones_pruned": count("channel.tones_pruned", 0) / sim_s,
        "channel.tones_live_peak": count("channel.tones_live_peak", 0),
        "mic.record_self_ms": self_ms("mic.record"),
        "fft.analyze_ms": self_ms("fft.analyze"),
        "fft.analyze_us_p50": percentile(analyzes, 50) if analyzes else 0.0,
        "fft.analyze_us_p90": percentile(analyzes, 90) if analyzes else 0.0,
        "fft.find_peaks_ms": self_ms("fft.find_peaks"),
        "fft.peaks_per_window": ratio(count("fft.peaks", 0), len(analyzes)),
        "detector.detect_self_ms": self_ms("detector.detect"),
        "detector.events_per_window": ratio(count("detector.events", 0),
                                            len(analyzes)),
        "detector.peak_yield": ratio(count("detector.events", 0),
                                     count("fft.peaks", 0)),
        "agent.play_ms": self_ms("agent.play"),
        "agent.plays": count("agent.plays", 0) / sim_s,
        "agent.play_yield": ratio(count("agent.played", 0),
                                  count("agent.plays", 0)),
        "controller.windows": windows / sim_s,
        "controller.detections": program.get("controller.detections", 0) / sim_s,
        "controller.onsets": program.get("controller.onsets", 0) / sim_s,
        "sim.self_ms": self_ms("sim.run"),
        "sim.events": count("sim.events", 0) / sim_s,
        "sim.events_per_window": ratio(count("sim.events", 0), windows),
        "switch.receive_ms": self_ms("switch.receive"),
        "switch.packets": count("switch.packets", 0) / sim_s,
        "flowtable.lookup_ms": self_ms("flowtable.lookup"),
        "host.send_ms": self_ms("host.send_packet"),
        "driver.emit_ms": self_ms("driver.emit_batch"),
        "queue.drops": program.get("queue.drops", 0) / sim_s,
        "telemetry.observe_ms": self_ms("telemetry.observe"),
        "telemetry.flush_ms": self_ms("telemetry.flush"),
        "hh.alerts": program.get("hh.alerts", 0) / sim_s,
        "fleet.run_ms": scale * run_s * 1e3 / sim_s,
        "fleet.shard_busy_ms": (scale * program.get("fleet.shard_busy_ms", 0)
                                / sim_s),
        "fleet.parallel_efficiency": ratio(
            program.get("fleet.shard_busy_ms", 0) / 1e3,
            workload.workers * run_s),
        "fleet.merge_ms": self_ms("fleet.build_fleet_report"),
        "fleet.report_kb": program.get("fleet.report_kb", 0) / sim_s,
        "fleet.shard_failures": program.get("fleet.shard_failures", 0),
        "fleet.room_self_ms": self_ms("fleet.run_room"),
        "trace.untimed_ms": (scale * (traced_wall - recorder.root_seconds())
                             * 1e3 / sim_s),
        "trace.overhead_ratio": quiet_ms(traced) / quiet_ms(plain) - 1.0,
    }


def traced_scale(traced) -> float:
    """Speed scale for totals over whole traced passes: the nominal
    yardstick time over the median yardstick run during them."""
    return NOMINAL_S / statistics.median(
        b.yardstick_s for r in traced for b in r.blocks)


def print_trace_table(workload, recorder, traced, plain, layers) -> None:
    """Self time per span next to the untraced wall, per simulated
    room-second; rows plus the untimed residue sum to the traced wall."""
    sim_s = sum(result.sim_seconds for result in traced)
    traced_ms = sum(result.wall_s for result in traced) * 1e3 / sim_s
    plain_ms = (sum(r.wall_s for r in plain) * 1e3
                / sum(r.sim_seconds for r in plain))
    print(f"# traced passes: {len(traced)} ({sim_s:g} simulated "
          f"room-seconds); untraced passes: {len(plain)}; table unscaled, "
          f"per-layer times below scaled by {traced_scale(traced):.4f}")
    print(f"{'span':28s} {'calls':>9s} {'self ms/sim-s':>14s} {'share':>7s}")
    total = 0.0
    for name, (calls, seconds) in sorted(recorder.self_times().items(),
                                         key=lambda item: -item[1][1]):
        ms = seconds * 1e3 / sim_s
        total += ms
        print(f"{name:28s} {calls:9d} {ms:14.4f} {ms / traced_ms:7.1%}")
    untimed = traced_ms - recorder.root_seconds() * 1e3 / sim_s
    print(f"{'untimed (no span)':28s} {'':9s} {untimed:14.4f} "
          f"{untimed / traced_ms:7.1%}")
    print(f"{'= traced wall':28s} {'':9s} {total + untimed:14.4f} "
          f"(measured {traced_ms:.4f})")
    print(f"{'untraced wall':28s} {'':9s} {plain_ms:14.4f}")
    print(f"# tracing overhead: {layers['trace.overhead_ratio']:+.2%} "
          f"(quiet traced blocks {quiet_ms(traced):.4f} ms/sim-s against "
          f"the base, quiet untraced blocks {quiet_ms(plain):.4f} ms/sim-s)")
    if layers["trace.overhead_ratio"] < 0:
        print("# warning: negative tracing overhead means the traced and "
              "untraced passes did not see the same machine; rerun")
    if workload.name == "fleet-process":
        print("# worker-side layers (rooms, simulator, channel, fft, "
              "detector, agents) run in pool workers and are not traced; "
              "they are visible only through RoomReport/ShardReport "
              "wall_s (fleet.shard_busy_ms), so their per-layer metrics "
              "read 0 here")
    analyzes = sorted(s * 1e6 for s in recorder.durations("fft.analyze"))
    if analyzes:
        print(f"# Fig 2b from this harness: fft.analyze p50 "
              f"{percentile(analyzes, 50):.1f} us, p90 "
              f"{percentile(analyzes, 90):.1f} us unscaled over "
              f"{len(analyzes)} windows of {workload.window_s * 1e3:.1f} ms "
              f"(paper: <= {PAPER_FIG2B_P90_US:.0f} us at p90 for ~50 ms "
              f"windows)")


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  sizes=None) -> dict:
    """Set up, measure and check one workload; prints the report and
    returns the result object (without printing it)."""
    import workloads
    from tracing import SpanRecorder

    sizes = sizes or workloads.Sizes()
    env = environment(name, seed, seconds, trace)
    print("# env " + json.dumps(env, sort_keys=True))
    workload = workloads.make_workload(name, seed, sizes)
    workload.setup()
    if not trace:
        units = END_TO_END
        passes, attempted, failed = timed_passes(workload, seconds,
                                                 at_least=2)
        rss = peak_rss_mb()
        if not passes:
            return failed_result(attempted, failed, units)
        problems = workload.check(passes)
        values = end_to_end(passes, measure_setup(name, seed,
                                                  sizes.setup_probes), rss)
        blocks = sum(len(result.blocks) for result in passes)
        quiet = quiet_blocks(passes)
        print(f"# passes: {len(passes)}; blocks: {blocks}, timing metrics "
              f"from the fastest {len(quiet)} "
              f"({sum(len(b.room_ms) for b in quiet)} room-seconds, "
              f"{sum(len(b.window_ms) for b in quiet)} windows); "
              f"setup probes: {sizes.setup_probes}")
        print_raw(passes)
    else:
        recorder = SpanRecorder()
        counts: dict = {}
        plain, traced, attempted, failed = interleaved_passes(
            workload, seconds, recorder, counts)
        units = PER_LAYER
        if not (plain and traced):
            return failed_result(attempted, failed, units)
        passes = plain + traced
        problems = workload.check(passes)
        values = layer_metrics(workload, recorder, counts, traced, plain)
        print_trace_table(workload, recorder, traced, plain, values)
        spans = OUT / f"spans-{name}-seed{seed}.csv"
        recorder.write(spans)
        print(f"# spans written to {spans}")
    for metric, unit in units.items():
        print(f"{metric:32s} {values[metric]:14.6g} {unit}")
    print("# quality at this seed (not gated; fixed by the seed): "
          + json.dumps(passes[-1].quality, sort_keys=True))
    print(f"# failed_share: {failed}/{attempted}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in units.items()},
    }


def failed_result(attempted: int, failed: int, units: dict) -> dict:
    """The result when no pass completed: nothing to measure or check."""
    print(f"# CHECK FAILED: no pass completed ({failed}/{attempted} failed)")
    return {
        "correct": False,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": 0.0, "unit": unit}
                    for metric, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program's sources ({SRC.name}/repro) are "
              f"not next to {HERE.name}/; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
