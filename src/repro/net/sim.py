"""Discrete-event simulation core shared by the network and the air.

The testbed substitution (DESIGN.md §2) hinges on one clock: switches
chirp at simulated times, queues fill at simulated times, and the MDN
controller's microphone windows are cut from the same timeline.  This
module provides that clock: a classic heap-based event scheduler with
cancellable events and periodic timers.

Two observability notes (DESIGN.md §5):

* :class:`PeriodicTimer` re-arms on an **absolute grid** — firing
  ``n`` lands at ``origin + n * interval`` (one float multiply, one
  add) rather than accumulating ``now + interval`` per firing, so a
  300 ms chirp timer stays phase-locked to the grid over hour-long
  runs instead of drifting by the rounding error of thousands of
  chained additions.
* When ``repro.obs`` is enabled before construction, the simulator
  registers ``sim.events_processed``, a pull-gauge for heap depth, a
  peak-depth gauge, and per-callback-site ``sim.callback_ms.*``
  latency histograms; ``run`` is wrapped in a ``sim.run`` trace span
  and the tracer is bound to this clock.  All of it costs one ``is
  not None`` check per event when disabled.
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable

from .. import obs


@dataclass(order=True)
class Event:
    """A scheduled callback.  Ordered by (time, sequence) so ties fire
    in scheduling order."""

    time: float
    sequence: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Prevent the event from firing (lazy removal from the heap)."""
        self.cancelled = True


class Simulator:
    """A minimal, deterministic discrete-event simulator.

    Time is in seconds.  Determinism matters: every experiment in the
    benchmarks must regenerate the same figure series on every run, so
    no wall-clock or unordered-set iteration is involved anywhere.
    (Observability timestamps wall time *around* callbacks but never
    feeds it back into scheduling.)
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[Event] = []
        self._sequence = itertools.count()
        self._events = obs.counter("sim.events_processed")
        self._obs = obs.get_registry()
        if self._obs is not None:
            self._obs.gauge_fn("sim.heap_depth", lambda: len(self._heap))
            self._heap_peak = self._obs.register(obs.Gauge("sim.heap_peak"))
            self._callback_hist = self._obs.register(
                obs.Histogram("sim.callback_ms")
            )
            self._site_hists: dict[str, obs.Histogram] = {}
        tracer = obs.get_tracer()
        if tracer is not None:
            tracer.bind_clock(lambda: self.now)

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for tests and debugging)."""
        return self._events.value

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` at absolute simulation ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past (now={self.now}, requested={time})"
            )
        event = Event(time, next(self._sequence), callback, args)
        heapq.heappush(self._heap, event)
        if self._obs is not None and len(self._heap) > self._heap_peak.value:
            self._heap_peak.set(len(self._heap))
        return event

    def every(
        self,
        interval: float,
        callback: Callable[..., None],
        *args: Any,
        start: float | None = None,
    ) -> "PeriodicTimer":
        """Run ``callback(*args)`` every ``interval`` seconds.

        The first firing is at ``start`` (absolute; defaults to
        ``now + interval``) and firing ``n`` (0-based) lands exactly at
        ``start + n * interval`` — the timer never drifts off that
        grid.  Returns a handle whose :meth:`stop` cancels future
        firings.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        timer = PeriodicTimer(self, interval, callback, args)
        first = self.now + interval if start is None else start
        timer._arm(first)
        return timer

    def run(self, until: float) -> None:
        """Execute events in order until the clock reaches ``until``.

        The clock is left exactly at ``until`` even if the heap drains
        early, so back-to-back ``run`` calls compose.
        """
        if until < self.now:
            raise ValueError(f"cannot run backwards (now={self.now}, until={until})")
        observed = self._obs is not None
        with obs.span("sim.run", until=until):
            while self._heap and self._heap[0].time <= until:
                event = heapq.heappop(self._heap)
                if event.cancelled:
                    continue
                self.now = event.time
                self._events.inc()
                if observed:
                    self._dispatch_observed(event)
                else:
                    event.callback(*event.args)
            self.now = until

    def run_to_completion(self, max_events: int = 1_000_000) -> None:
        """Drain the event heap entirely (bounded by ``max_events``)."""
        remaining = max_events
        observed = self._obs is not None
        while self._heap:
            if remaining <= 0:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events; likely a "
                    "timer loop that never stops"
                )
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = event.time
            self._events.inc()
            if observed:
                self._dispatch_observed(event)
            else:
                event.callback(*event.args)
            remaining -= 1

    def _dispatch_observed(self, event: Event) -> None:
        """Execute one event with per-callback-site wall timing."""
        start = _time.perf_counter()
        event.callback(*event.args)
        elapsed_ms = (_time.perf_counter() - start) * 1e3
        self._callback_hist.observe(elapsed_ms)
        callback = event.callback
        site = getattr(callback, "__qualname__", None) or type(callback).__name__
        hist = self._site_hists.get(site)
        if hist is None:
            hist = self._obs.histogram(f"sim.callback_ms.{site}")
            self._site_hists[site] = hist
        hist.observe(elapsed_ms)

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for event in self._heap if not event.cancelled)


class PeriodicTimer:
    """Handle for a repeating event created by :meth:`Simulator.every`.

    Re-arming is grid-based: the ``n``-th firing (1-based) is scheduled
    at ``origin + (n - 1) * interval``, where ``origin`` is the first
    firing time.  The naive ``now + interval`` re-arm accumulates one
    float rounding error per firing (~3.6e-10 s after 10,000 firings of
    a 0.3 s chirp timer, growing linearly), which is enough to walk a
    chirp off the listening-window boundaries it was aligned with over
    an hour-long run.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[..., None],
        args: tuple,
    ) -> None:
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._args = args
        self._event: Event | None = None
        self._stopped = False
        self._origin: float | None = None
        self.fire_count = 0

    def _arm(self, time: float) -> None:
        if self._origin is None:
            self._origin = time
        self._event = self._sim.schedule_at(time, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fire_count += 1
        self._callback(*self._args)
        if not self._stopped:
            assert self._origin is not None
            self._arm(self._origin + self.fire_count * self.interval)

    def stop(self) -> None:
        """Cancel all future firings.  Drops the callback too: the
        cancelled event stays in the heap until it surfaces, and must not
        keep the callback's owner alive through it."""
        self._stopped = True
        self._callback = None
        self._args = ()
        if self._event is not None:
            self._event.cancel()
