"""Known-frequency detection: turning captured audio into events.

The MDN controller always listens for a *known* set of frequencies —
its frequency plan tells it which tones each switch may play (§3: "Each
switch in our testbed was assigned a unique set of frequencies").  The
:class:`FrequencyDetector` matches spectral energy in a capture window
against that watch list and reports :class:`DetectionEvent`s.

Two interchangeable backends exercise the ablation described in
DESIGN.md §5:

* ``"fft"`` — one windowed FFT per capture, whose interpolated peaks
  are the candidates;
* ``"goertzel"`` — a Goertzel bank evaluated only at the watched
  frequencies (cheaper for small watch lists), whose above-floor bins
  are the candidates.

Either way the candidates, loudest first, go through one routine,
``FrequencyDetector._events``: sidelobe rejection, the level floor,
nearest-watched matching within tolerance, one event per watched
frequency.  Single windows (:meth:`FrequencyDetector.detect`) and
streams (:meth:`FrequencyDetector.detect_stream`) share that path.
"""

from __future__ import annotations

import math
import time as _time
from bisect import bisect_left
from dataclasses import dataclass

from .. import obs
from ..infra.cache import spectrum_fingerprint
from .fft import SpectrumAnalyzer
from .goertzel import GoertzelBank
from .signal import AudioSignal

#: The paper's empirical separability limit between adjacent tones.
DEFAULT_TOLERANCE_HZ = 10.0

#: How far above the per-window noise floor a tone must stand.
DEFAULT_THRESHOLD_DB = 10.0

#: Absolute minimum received level for a valid detection.  §3: "in our
#: experiments we played sounds of at least 30 dB"; anything quieter is
#: treated as leakage or noise.
DEFAULT_MIN_LEVEL_DB = 30.0

#: A candidate peak this many dB below a stronger peak nearby is
#: rejected as a window/envelope sidelobe of that peak.  Short tones
#: cut by the capture-window boundary smear up to ~-16 dB of energy
#: into ±40 Hz sidebands, so the margin is 15 dB.  The flip side is a
#: near-far limit: a genuine tone more than 15 dB quieter than a
#: simultaneous neighbour within ``SIDELOBE_RADIUS_HZ`` is masked —
#: inherent to any shared acoustic medium, and the reason the paper
#: assigns *disjoint per-switch frequency sets* rather than relying on
#: level separation.
SIDELOBE_REJECTION_DB = 15.0

#: Radius, in Hz, within which sidelobe rejection applies.
SIDELOBE_RADIUS_HZ = 120.0


@dataclass(frozen=True)
class DetectionEvent:
    """One watched frequency heard in one capture window.

    Attributes
    ----------
    frequency:
        The *watched* frequency that matched (Hz) — i.e. the plan
        entry, not the raw spectral estimate.
    measured_frequency:
        The spectral estimate that matched it (Hz).
    level_db:
        Received level of the tone, dB SPL.
    time:
        Capture-window start time, seconds (simulation clock).
    epoch:
        Frequency-plan epoch the tone is attributed to (0 until a
        spectrum migration ever commits).  During a make-before-break
        handover, a tone heard on a *pre-migration* frequency carries
        the epoch it was emitted under while ``frequency`` already
        names its relocated plan entry — so no event is lost or
        misattributed across a PLAN_COMMIT boundary.
    """

    frequency: float
    measured_frequency: float
    level_db: float
    time: float
    epoch: int = 0


class FrequencyDetector:
    """Matches capture windows against a watch list of frequencies.

    Parameters
    ----------
    watched_frequencies:
        The frequencies the listening application cares about.
    tolerance_hz:
        Maximum |measured − watched| distance for a match.  Defaults to
        half the paper's 20 Hz guard spacing, so adjacent plan entries
        can never both claim one peak.
    threshold_db:
        Required prominence above the window's noise floor.
    backend:
        ``"fft"`` or ``"goertzel"``.  The Goertzel bank evaluates only
        the watched bins and has no peak structure to reject smear
        with, so tones cut by window boundaries can bleed into a 20 Hz
        neighbour's bin; plans driving a Goertzel deployment should use
        a 40 Hz guard (the FFT backend resolves 20 Hz).
    spectrum_sink:
        Optional ``callback(spectrum, time)`` invoked with every window
        spectrum the FFT backend computes during :meth:`detect` —
        *before* events are returned.  This is how the interference
        sentinel (:mod:`repro.core.spectrum`) estimates per-band noise
        occupancy from spectra the detector already paid for, with no
        extra FFTs.  ``None`` (the default) costs a single ``is not
        None`` check per window.
    spectra_cache:
        Optional :class:`repro.infra.SpectraCache`: window spectra are
        memoized by content fingerprint, so a second detector analyzing
        the same capture (co-located listeners sharing a microphone)
        reuses the transform instead of recomputing it.  FFT backend
        only; ``None`` (the default) costs one ``is not None`` check
        per window.  The sink still fires per *detect call*, cached or
        not — every consumer sees every window.
    """

    def __init__(
        self,
        watched_frequencies: list[float],
        tolerance_hz: float = DEFAULT_TOLERANCE_HZ,
        threshold_db: float = DEFAULT_THRESHOLD_DB,
        min_level_db: float = DEFAULT_MIN_LEVEL_DB,
        backend: str = "fft",
        spectrum_sink=None,
        spectra_cache=None,
    ) -> None:
        if not watched_frequencies:
            raise ValueError("watched_frequencies must not be empty")
        watched = [float(f) for f in watched_frequencies]
        if not all(math.isfinite(f) and f >= 0 for f in watched):
            raise ValueError(
                "watched_frequencies must be finite and non-negative"
            )
        if not tolerance_hz > 0:
            raise ValueError("tolerance_hz must be positive")
        for name, level in (("threshold_db", threshold_db),
                            ("min_level_db", min_level_db)):
            if math.isnan(level):
                raise ValueError(f"{name} must not be NaN")
        if backend not in ("fft", "goertzel"):
            raise ValueError(f"unknown backend {backend!r}")
        self.watched = sorted(set(watched))
        self.tolerance_hz = tolerance_hz
        self.threshold_db = threshold_db
        self.min_level_db = min_level_db
        self.backend = backend
        self._analyzer = SpectrumAnalyzer(zero_pad_factor=2)
        self.spectrum_sink = spectrum_sink
        self.spectra_cache = spectra_cache
        for name, hook in (("spectrum_sink", spectrum_sink),
                           ("spectra_cache", spectra_cache)):
            if hook is not None and backend != "fft":
                raise ValueError(
                    f"{name} requires the fft backend (the Goertzel "
                    "bank computes no full spectrum)"
                )
        self._goertzel = GoertzelBank(self.watched) if backend == "goertzel" else None
        # Observability (repro.obs).  Detectors are rebuilt whenever the
        # watch list changes, so the instruments are get-or-create on the
        # registry (shared across rebuilds) rather than per-instance.
        self._obs = obs.get_registry()
        if self._obs is not None:
            self._m_detect_ms = self._obs.histogram("detector.detect_ms")
            self._m_windows = self._obs.counter("detector.windows")
            self._m_events = self._obs.counter("detector.events")

    def detect(self, window: AudioSignal, time: float = 0.0) -> list[DetectionEvent]:
        """Watched frequencies present in one capture window.

        Returns at most one event per watched frequency, sorted by
        ascending frequency.
        """
        if len(window) == 0:
            return []
        if self._obs is None:
            return self._events(self._candidates(window, time), time)
        wall_start = _time.perf_counter()
        events = self._events(self._candidates(window, time), time)
        self._m_detect_ms.observe((_time.perf_counter() - wall_start) * 1e3)
        self._m_windows.inc()
        self._m_events.inc(len(events))
        return events

    def detect_stream(
        self,
        signal: AudioSignal,
        frame_duration: float = 0.05,
        hop_duration: float | None = None,
        start_time: float = 0.0,
    ) -> list[DetectionEvent]:
        """:meth:`detect` over every :meth:`AudioSignal.frames` frame of
        a longer capture, in frame order, so each frame feeds the sink,
        cache and metrics like any window.  Event times are
        ``start_time`` plus the frame offset; the partial tail is dropped.
        """
        return [
            event
            for offset, frame in signal.frames(frame_duration, hop_duration)
            for event in self.detect(frame, start_time + offset)
        ]

    def _candidates(self, window: AudioSignal, time: float) -> list:
        """Spectral candidates of one window, loudest first: the FFT
        backend's ``SpectralPeak`` list, or the Goertzel bank's
        ``GoertzelResult`` list of watched bins above the window's floor.
        """
        if self._goertzel is not None:
            hits = self._goertzel.detect(window, self.threshold_db)
            return sorted(hits, key=lambda h: h.magnitude, reverse=True)
        if self.spectra_cache is not None:
            key = spectrum_fingerprint(window, time, self._analyzer)
            spectrum = self.spectra_cache.get(key, time)
            if spectrum is None:
                spectrum = self._analyzer.analyze(window)
                self.spectra_cache.put(key, spectrum, time)
        else:
            spectrum = self._analyzer.analyze(window)
        if self.spectrum_sink is not None:
            self.spectrum_sink(spectrum, time)
        return self._analyzer.find_peaks(spectrum, self.threshold_db)

    def _events(self, candidates: list, time: float) -> list[DetectionEvent]:
        """The one place candidates (loudest first) become events.

        Sidelobes are rejected, then the level floor applies (either
        order gives the same survivors: a candidate only shadows one at
        least ``SIDELOBE_REJECTION_DB`` quieter).  Each survivor claims
        its nearest watched frequency within tolerance (the lower one on
        an exact tie); the first, loudest claim wins.  Events come back
        sorted by frequency.
        """
        events: dict[float, DetectionEvent] = {}
        for frequency, level_db in _reject_sidelobes(
            [(c.frequency, c.level_db) for c in candidates]
        ):
            if level_db < self.min_level_db:
                continue
            watched = self._match(frequency)
            if watched is not None and watched not in events:
                events[watched] = DetectionEvent(
                    watched, frequency, level_db, time
                )
        return [events[watched] for watched in sorted(events)]

    def _match(self, measured: float) -> float | None:
        """The watched frequency nearest ``measured``, if within
        tolerance; on an exact tie the lower frequency wins."""
        # Only the two neighbours of the insertion point can be nearest.
        watched = self.watched
        index = bisect_left(watched, measured)
        if index == 0:
            best = watched[0]
        elif index == len(watched):
            best = watched[-1]
        else:
            lower, upper = watched[index - 1], watched[index]
            best = upper if abs(upper - measured) < abs(lower - measured) else lower
        if abs(best - measured) <= self.tolerance_hz:
            return best
        return None


def _reject_sidelobes(
    candidates: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """The ``(frequency, level_db)`` candidates (loudest first) that are
    not plausibly window sidelobes of a stronger nearby kept one (see
    ``SIDELOBE_REJECTION_DB``), including a loud neighbour's leakage
    *at* a watched Goertzel bin.  Each level is computed once, by the
    caller, instead of once per pair."""
    kept: list[tuple[float, float]] = []
    for frequency, level_db in candidates:
        for strong_frequency, strong_db in kept:
            if (abs(strong_frequency - frequency) <= SIDELOBE_RADIUS_HZ
                    and strong_db - level_db >= SIDELOBE_REJECTION_DB):
                break
        else:
            kept.append((frequency, level_db))
    return kept
