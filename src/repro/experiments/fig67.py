"""Figure 6 and 7 experiments: server fan failure detection.

* **Fig 6** — mel spectrograms of a server in {datacenter, office} ×
  {fan on, fan off}: the blade-pass harmonics visible while on, gone
  while off, in both rooms.
* **Fig 7** — FFT amplitude-difference traces: on↔on comparisons sit
  near the baseline; on↔off jump; a threshold separates them and fires
  the out-of-band alert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..audio import SpectrumAnalyzer, mel_spectrogram
from ..core.apps import FanWatchdog
from ..fans import RoomScene, Server, datacenter_scene, office_scene
from ..net import TimeSeries
from .report import Table, optional

ROOMS = ("datacenter", "office")


def _scene(room: str, duration: float, server: Server | None) -> RoomScene:
    if room == "datacenter":
        return datacenter_scene(duration=duration, server=server)
    if room == "office":
        return office_scene(duration=duration, server=server)
    raise ValueError(f"unknown room {room!r} (use one of {ROOMS})")


@dataclass
class Fig6Panel:
    """One of the four Figure 6 spectrogram panels."""

    room: str
    fan_on: bool
    spectrogram: tuple[np.ndarray, np.ndarray, np.ndarray]
    blade_pass_hz: float
    blade_line_level_db: float
    noise_floor_db: float

    @property
    def line_prominence_db(self) -> float:
        """How far the fan's strongest line stands above the floor."""
        return self.blade_line_level_db - self.noise_floor_db

    def tables(self) -> list[Table]:
        panel = "abcd"[2 * ROOMS.index(self.room) + (not self.fan_on)]
        return [Table(f"Fig 6{panel}: blade-pass line vs room floor", [
            ("room", "fan", "blade-pass Hz", "line dB", "floor dB",
             "prominence dB"),
            (self.room, "ON" if self.fan_on else "OFF",
             f"{self.blade_pass_hz:.0f}", f"{self.blade_line_level_db:.1f}",
             f"{self.noise_floor_db:.1f}", f"{self.line_prominence_db:.1f}"),
        ])]


def fan_spectrogram_panel(room: str, fan_on: bool,
                          duration: float = 6.0) -> Fig6Panel:
    """Render one Figure 6 panel and measure the blade-pass line."""
    server = Server("target")
    if not fan_on:
        server.fail_all(0.0)
    scene = _scene(room, duration, server)
    capture = scene.capture(1.0, duration - 1.0)
    spectrogram = mel_spectrogram(capture, num_filters=64, frame_duration=0.1)
    spectrum = SpectrumAnalyzer().analyze(capture)
    blade_pass = server.fans[0].blade_pass_hz
    return Fig6Panel(
        room=room,
        fan_on=fan_on,
        spectrogram=spectrogram,
        blade_pass_hz=blade_pass,
        blade_line_level_db=spectrum.level_at(blade_pass),
        noise_floor_db=spectrum.noise_floor_db(),
    )


@dataclass
class Fig7Result:
    """One Figure 7 trace: difference scores around a failure."""

    room: str
    scores: TimeSeries
    threshold: float
    failure_time: float
    detection_time: float | None
    on_on_max_score: float
    on_off_min_score: float

    @property
    def detected(self) -> bool:
        return self.detection_time is not None

    @property
    def separation_ratio(self) -> float:
        """on↔off score over on↔on score: the Figure 7 gap."""
        if self.on_on_max_score <= 0:
            return float("inf")
        return self.on_off_min_score / self.on_on_max_score

    def tables(self) -> list[Table]:
        figure = f"Fig 7{'ab'[ROOMS.index(self.room)]}"
        scores = [("t (s)", "score")]
        scores += [(f"{time:.1f}", f"{score:.1f}") for time, score
                   in zip(self.scores.times, self.scores.values)]
        return [
            Table(f"{figure}: amplitude-difference failure detection", [
                ("room", "failure at", "on-on max", "on-off min",
                 "separation", "threshold", "detected at"),
                (self.room, f"{self.failure_time:.1f} s",
                 f"{self.on_on_max_score:.1f}", f"{self.on_off_min_score:.1f}",
                 f"{self.separation_ratio:.1f}x", f"{self.threshold:.1f}",
                 optional(self.detection_time, "{:.1f} s")),
            ]),
            Table(f"{figure}: amplitude-difference score over time "
                  f"({self.room})", scores),
        ]


def fan_failure_experiment(
    room: str = "datacenter",
    duration: float = 14.0,
    failure_time: float = 7.0,
    threshold_factor: float = 3.0,
) -> Fig7Result:
    """Run the Figure 7 detection experiment in one room."""
    server = Server("target")
    server.fail_all(failure_time)
    scene = _scene(room, duration, server)
    watchdog = FanWatchdog(scene.channel, scene.microphone,
                           threshold_factor=threshold_factor)
    watchdog.run(0.0, duration)
    healthy = watchdog.scores.window(0.0, failure_time - 0.5)
    failed = watchdog.scores.window(failure_time + 2.5, duration)
    return Fig7Result(
        room=room,
        scores=watchdog.scores,
        threshold=watchdog.threshold,
        failure_time=failure_time,
        detection_time=watchdog.detection_time(),
        on_on_max_score=healthy.max(),
        on_off_min_score=failed.min() if len(failed) else 0.0,
    )
