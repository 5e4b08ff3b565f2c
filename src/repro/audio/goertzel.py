"""Goertzel single-frequency detection — the cheap detector backend.

When the listening application already knows exactly which frequencies
to expect (which is the common case in Music-Defined Networking: the
controller "knows what frequencies are associated with each port for a
switch, so we know which frequencies to listen for", §4), a full FFT is
wasteful.  The Goertzel algorithm evaluates a single DFT bin in O(N)
with one multiply per sample, so a bank of K watched frequencies costs
O(K·N) instead of O(N log N) — cheaper for small K.

:func:`goertzel_magnitude` is the scalar reference implementation; the
:class:`GoertzelBank` evaluates every watched frequency (and its noise
floor probes) with a single matmul against a per-window-length phasor
matrix, cached across the identically sized capture windows of the
listening loop.  The XCAP ablation benchmark compares this backend
against the FFT backend for both accuracy and speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import obs
from .fft import hann_taper
from .signal import AudioSignal, amplitude_to_db

#: Minimum distance, in Hz, between a noise-floor probe and any watched
#: frequency.  A probe that lands on (or within the main lobe of) a
#: watched tone measures the tone, not the floor, inflating the noise
#: estimate and suppressing valid detections.  20 Hz — the paper's
#: empirical separability limit — keeps every probe at least one guard
#: spacing clear of the watch list.
FLOOR_PROBE_CLEARANCE_HZ = 20.0


def goertzel_magnitude(signal: AudioSignal, frequency: float) -> float:
    """RMS-calibrated magnitude of one frequency in a window.

    Matches the calibration of :class:`~repro.audio.fft.SpectrumAnalyzer`:
    a pure sinusoid of RMS level ``r`` at ``frequency`` reports ``r``.
    Uses a Hann window for sidelobe suppression, like the FFT backend.
    This is the scalar reference the vectorized :class:`GoertzelBank`
    must match within 1e-9.
    """
    count = len(signal)
    if count == 0:
        return 0.0
    if frequency < 0 or frequency > signal.sample_rate / 2:
        raise ValueError(
            f"frequency {frequency} outside [0, Nyquist] for "
            f"sample rate {signal.sample_rate}"
        )
    taper, gain = hann_taper(count)
    samples = signal.samples * taper

    # Evaluate the single DFT bin nearest the target frequency.  The
    # classic Goertzel recurrence is a scalar loop; the equivalent dot
    # product form below computes the identical bin and vectorizes.
    k = int(round(frequency * count / signal.sample_rate))
    omega = 2.0 * math.pi * k / count
    n = np.arange(count)
    real = float(np.dot(samples, np.cos(omega * n)))
    imag = float(np.dot(samples, np.sin(omega * n)))
    magnitude = math.hypot(real, imag)
    # One-sided x-sqrt(2) RMS correction, except at DC and Nyquist
    # which have no mirrored bin (matches SpectrumAnalyzer's
    # one_sided_scale calibration).
    scale = 1.0 if k == 0 or 2 * k == count else math.sqrt(2.0)
    return magnitude * scale / (count * gain)


@dataclass(frozen=True)
class GoertzelResult:
    """Detection result for one watched frequency."""

    frequency: float
    magnitude: float

    @property
    def level_db(self) -> float:
        return amplitude_to_db(self.magnitude)


def _phasor_table(
    frequencies: np.ndarray, count: int, sample_rate: int
) -> tuple[np.ndarray, np.ndarray]:
    """Phasor matrix and calibration row for one window length.

    Returns ``(phasors, scales)`` where ``phasors`` has shape
    ``(K, N)`` with row *j* equal to ``exp(-i·2π·k_j·n/N)`` for the DFT
    bin ``k_j`` nearest frequency *j*, and ``scales`` holds the
    per-row one-sided RMS correction (1 at DC/Nyquist, sqrt(2)
    elsewhere).  ``|phasors @ windowed| * scales / (count * gain)``
    then reproduces :func:`goertzel_magnitude` for every row at once.
    """
    ks = np.rint(frequencies * count / sample_rate).astype(np.int64)
    omegas = 2.0 * np.pi * ks / count
    n = np.arange(count)
    phasors = np.exp(-1j * np.outer(omegas, n))
    scales = np.where((ks == 0) | (2 * ks == count), 1.0, math.sqrt(2.0))
    return phasors, scales


class GoertzelBank:
    """A bank of Goertzel detectors for a fixed set of watched frequencies.

    The bank precomputes, per window length, a ``(K, N)`` phasor matrix
    for the watched frequencies (and one for its noise-floor probes) so
    that analyzing a window is a single matmul instead of K independent
    cos/sin evaluations.  Capture windows in the listening loop all
    share one length, so the cache is hit on every window after the
    first.

    Parameters
    ----------
    frequencies:
        The tone frequencies the listening application cares about.
    """

    def __init__(self, frequencies: list[float]) -> None:
        if not frequencies:
            raise ValueError("GoertzelBank requires at least one frequency")
        self.frequencies = sorted(float(f) for f in frequencies)
        self._freq_array = np.array(self.frequencies)
        # (count, sample_rate) -> (phasors, scales) for the watch list.
        self._watch_tables: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        # (count, sample_rate) -> (phasors, scales) for the floor probes.
        self._probe_tables: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        # sample_rate -> probe frequency array.
        self._probe_freqs: dict[int, np.ndarray] = {}
        # Observability: per-window floor estimates (get-or-create, so
        # rebuilt banks keep feeding the same histogram).
        self._obs = obs.get_registry()
        if self._obs is not None:
            self._m_floor_db = self._obs.histogram("goertzel.floor_db")

    # ------------------------------------------------------------------
    # Phasor caches
    # ------------------------------------------------------------------

    def _watch_table(
        self, count: int, sample_rate: int
    ) -> tuple[np.ndarray, np.ndarray]:
        key = (count, sample_rate)
        table = self._watch_tables.get(key)
        if table is None:
            nyquist = sample_rate / 2
            for frequency in self.frequencies:
                if frequency < 0 or frequency > nyquist:
                    raise ValueError(
                        f"frequency {frequency} outside [0, Nyquist] for "
                        f"sample rate {sample_rate}"
                    )
            table = _phasor_table(self._freq_array, count, sample_rate)
            self._watch_tables[key] = table
        return table

    def _probe_table(
        self, count: int, sample_rate: int
    ) -> tuple[np.ndarray, np.ndarray]:
        key = (count, sample_rate)
        table = self._probe_tables.get(key)
        if table is None:
            probes = np.array(self.floor_probe_frequencies(sample_rate))
            table = _phasor_table(probes, count, sample_rate)
            self._probe_tables[key] = table
        return table

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def analyze(self, signal: AudioSignal) -> list[GoertzelResult]:
        """Magnitude of every watched frequency in one window."""
        count = len(signal)
        if count == 0:
            return [GoertzelResult(f, 0.0) for f in self.frequencies]
        magnitudes = self.analyze_block(
            signal.samples[np.newaxis, :], signal.sample_rate
        )[0]
        return [
            GoertzelResult(freq, float(mag))
            for freq, mag in zip(self.frequencies, magnitudes)
        ]

    def analyze_block(self, frames: np.ndarray, sample_rate: int) -> np.ndarray:
        """Watched-frequency magnitudes for a batch of equal-length frames.

        Parameters
        ----------
        frames:
            Sample matrix of shape ``(T, N)`` (e.g. from
            :meth:`AudioSignal.frame_matrix`).
        sample_rate:
            Sample rate of the frames, Hz.

        Returns
        -------
        numpy.ndarray
            Magnitudes of shape ``(T, K)``, row *t* matching
            :meth:`analyze` of frame *t* (and therefore
            :func:`goertzel_magnitude` per frequency) within 1e-9.
        """
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2:
            raise ValueError(f"frames must be 2-D, got shape {frames.shape}")
        count = frames.shape[1]
        if count == 0:
            return np.zeros((frames.shape[0], len(self.frequencies)))
        phasors, scales = self._watch_table(count, sample_rate)
        return self._magnitudes(frames, count, phasors, scales)

    @staticmethod
    def _magnitudes(
        frames: np.ndarray, count: int, phasors: np.ndarray, scales: np.ndarray
    ) -> np.ndarray:
        taper, gain = hann_taper(count)
        windowed = frames * taper
        return np.abs(windowed @ phasors.T) * (scales / (count * gain))

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------

    def detect(
        self, signal: AudioSignal, threshold_db: float = 10.0
    ) -> list[GoertzelResult]:
        """Watched frequencies present ``threshold_db`` above the local floor.

        The floor is estimated from probe frequencies placed between
        (and clear of) the watched ones, mirroring the FFT backend's
        median floor.
        """
        count = len(signal)
        if count == 0:
            return []
        frames = signal.samples[np.newaxis, :]
        magnitudes = self.analyze_block(frames, signal.sample_rate)[0]
        floor = self.floor_block(frames, signal.sample_rate)[0]
        if self._obs is not None and floor > 0:
            self._m_floor_db.observe(amplitude_to_db(float(floor)))
        threshold = max(floor, 1e-12) * 10.0 ** (threshold_db / 20.0)
        return [
            GoertzelResult(freq, float(mag))
            for freq, mag in zip(self.frequencies, magnitudes)
            if mag >= threshold
        ]

    def floor_block(self, frames: np.ndarray, sample_rate: int) -> np.ndarray:
        """Per-frame noise-floor estimates for a batch of frames.

        Median magnitude across the off-tone probe frequencies, shape
        ``(T,)``.  Frames where no valid probe exists report 0.0.
        """
        frames = np.asarray(frames, dtype=np.float64)
        count = frames.shape[1]
        if count == 0 or not self.floor_probe_frequencies(sample_rate):
            return np.zeros(frames.shape[0])
        phasors, scales = self._probe_table(count, sample_rate)
        magnitudes = self._magnitudes(frames, count, phasors, scales)
        return np.median(magnitudes, axis=1)

    def floor_probe_frequencies(self, sample_rate: int) -> list[float]:
        """Off-tone probe frequencies used for noise-floor estimation.

        Probes are midpoints between adjacent watched frequencies plus
        one probe below and one above the watch list.  Every probe is
        kept at least ``FLOOR_PROBE_CLEARANCE_HZ`` away from all
        watched frequencies — a probe closer than that (e.g. the low
        edge probe of a 20–40 Hz plan) measures a watched tone itself
        and inflates the floor, suppressing valid detections.  Edge
        probes that fail the clearance fall back to exactly one
        clearance outside the watch list.
        """
        cached = self._probe_freqs.get(sample_rate)
        if cached is not None:
            return list(cached)
        nyquist = sample_rate / 2
        freqs = self._freq_array

        def valid(probe: float) -> bool:
            return (
                0 < probe < nyquist
                and float(np.min(np.abs(freqs - probe)))
                >= FLOOR_PROBE_CLEARANCE_HZ
            )

        probes = []
        for low, high in zip(freqs[:-1], freqs[1:]):
            midpoint = 0.5 * (low + high)
            if valid(midpoint):
                probes.append(float(midpoint))
        for candidate, fallback in (
            (min(freqs[0] * 0.5 + 10.0, nyquist - 1.0),
             freqs[0] - FLOOR_PROBE_CLEARANCE_HZ),
            (min(freqs[-1] * 1.3, nyquist - 1.0),
             freqs[-1] + FLOOR_PROBE_CLEARANCE_HZ),
        ):
            if valid(candidate):
                probes.append(float(candidate))
            elif valid(fallback):
                probes.append(float(fallback))
        self._probe_freqs[sample_rate] = np.array(probes)
        return probes
