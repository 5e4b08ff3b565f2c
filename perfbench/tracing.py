"""In-memory span recorder for the traced benchmark run.

The traced run wraps public functions of the program from the
benchmark's side (nothing under ``src/`` knows it is being traced).
Each wrapped call becomes one span: name, start, end, parent span and
the unit (room id or window index) it ran for.  Spans stay in memory
and are written out once, when the run ends.

A span's *self time* is its duration minus the durations of its direct
children.  Summed over every span this telescopes to the summed
duration of the root spans, so self times plus the wall time no span
covers ("untimed") add up to the traced wall time exactly.
"""

from __future__ import annotations

import csv
import functools
import time
from pathlib import Path
from typing import Callable


class SpanRecorder:
    """Records nested spans of wrapped calls, in parallel lists."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.units: list[int] = []
        #: Room id or window index the next spans belong to.
        self.unit = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.units.append(self.unit)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        return index

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Callable | None = None,
        unit_of: Callable | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanning wrapper until
        :meth:`restore`.

        ``after(args, result)`` runs once the span has closed, so its
        cost is charged to the parent span; ``unit_of(args)`` sets the
        unit id for this span and everything under it.
        """
        original = getattr(owner, attr)
        recorder = self
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if unit_of is not None:
                recorder.unit = unit_of(args)
            index = recorder._open(name)
            recorder.starts[index] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.ends[index] = clock()
                recorder._stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def call(self, name: str, function: Callable, *args, **kwargs):
        """Run ``function`` from the benchmark's own code as one span."""
        index = self._open(name)
        self.starts[index] = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every span called ``name``, in open order."""
        return [end - start for span_name, start, end
                in zip(self.names, self.starts, self.ends)
                if span_name == name]

    def self_times(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, total self seconds)``."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        children = [0.0] * len(durations)
        for duration, parent in zip(durations, self.parents):
            if parent >= 0:
                children[parent] += duration
        table: dict[str, tuple[int, float]] = {}
        for name, duration, child in zip(self.names, durations, children):
            calls, total = table.get(name, (0, 0.0))
            table[name] = (calls + 1, total + duration - child)
        return table

    def root_seconds(self) -> float:
        """Summed duration of the spans no other span contains."""
        return sum(end - start for start, end, parent
                   in zip(self.starts, self.ends, self.parents)
                   if parent < 0)

    def write(self, path: Path) -> None:
        """Write every span as one CSV row (times relative to the
        first span's start)."""
        origin = min(self.starts, default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["span", "name", "start_us", "end_us",
                             "parent", "unit"])
            for index, (name, start, end, parent, unit) in enumerate(zip(
                    self.names, self.starts, self.ends, self.parents,
                    self.units)):
                writer.writerow([index, name,
                                 round((start - origin) * 1e6, 3),
                                 round((end - origin) * 1e6, 3),
                                 parent, unit])
