"""Equivalence suite: vectorized hot paths vs their scalar references.

The listening loop's vectorized implementations (the Goertzel phasor
bank, the batched spectrogram, the streaming detector) must reproduce
the scalar/looped reference implementations within 1e-9 — the RMS
calibration contract of DESIGN.md §5 — across window sizes, hop sizes
and zero-pad factors, including non-divisible frame/hop combinations.
"""

import numpy as np
import pytest

from repro.audio import (
    AudioSignal,
    FrequencyDetector,
    GoertzelBank,
    SpectrumAnalyzer,
    chirp,
    goertzel_magnitude,
    power_spectrogram,
    power_spectrogram_reference,
    sine_tone,
    white_noise,
)

TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def busy_signal():
    """One second of tones + noise: every bin has energy to compare."""
    rng = np.random.default_rng(99)
    return AudioSignal.from_components([
        sine_tone(500, 1.0, level_db=62.0),
        sine_tone(940, 1.0, level_db=58.0),
        chirp(1200, 2400, 1.0, level_db=55.0),
        white_noise(1.0, level_db=45.0, rng=rng),
    ])


class TestGoertzelBankEquivalence:
    @pytest.mark.parametrize("window_duration", [0.02, 0.05, 0.1, 0.0501])
    def test_bank_matches_scalar_reference(self, busy_signal, window_duration):
        """analyze() equals goertzel_magnitude per watched frequency."""
        window = busy_signal.slice_time(0.1, 0.1 + window_duration)
        frequencies = [500.0 + 40.0 * i for i in range(16)]
        bank = GoertzelBank(frequencies)
        vectorized = np.array([r.magnitude for r in bank.analyze(window)])
        reference = np.array([
            goertzel_magnitude(window, f) for f in frequencies
        ])
        np.testing.assert_allclose(vectorized, reference, atol=TOLERANCE)

    def test_bank_matches_reference_at_odd_window_length(self, busy_signal):
        """Odd sample counts exercise the no-Nyquist-bin phasor path."""
        window = AudioSignal(busy_signal.samples[:801])
        frequencies = [0.0, 440.0, 8000.0]
        bank = GoertzelBank(frequencies)
        vectorized = np.array([r.magnitude for r in bank.analyze(window)])
        reference = np.array([
            goertzel_magnitude(window, f) for f in frequencies
        ])
        np.testing.assert_allclose(vectorized, reference, atol=TOLERANCE)

    @pytest.mark.parametrize(("frame_duration", "hop_duration"),
                             [(0.05, None), (0.05, 0.02), (0.05, 0.037)])
    def test_analyze_block_matches_per_window(self, busy_signal,
                                              frame_duration, hop_duration):
        """Batched frames produce the same magnitudes as one-at-a-time."""
        bank = GoertzelBank([500.0, 940.0, 1500.0, 2400.0])
        times, frames = busy_signal.frame_matrix(frame_duration, hop_duration)
        block = bank.analyze_block(frames, busy_signal.sample_rate)
        assert block.shape == (len(times), 4)
        for index, (_start, frame) in enumerate(
            busy_signal.frames(frame_duration, hop_duration)
        ):
            reference = np.array([r.magnitude for r in bank.analyze(frame)])
            np.testing.assert_allclose(block[index], reference, atol=TOLERANCE)

    def test_floor_block_matches_scalar_probe_median(self, busy_signal):
        """floor_block == median of scalar goertzel_magnitude probes."""
        bank = GoertzelBank([500.0, 940.0, 1500.0])
        rate = busy_signal.sample_rate
        probes = bank.floor_probe_frequencies(rate)
        times, frames = busy_signal.frame_matrix(0.05)
        floors = bank.floor_block(frames, rate)
        for index, (_start, frame) in enumerate(busy_signal.frames(0.05)):
            reference = np.median([goertzel_magnitude(frame, p) for p in probes])
            assert floors[index] == pytest.approx(reference, abs=TOLERANCE)


class TestSpectrogramEquivalence:
    @pytest.mark.parametrize(("frame_duration", "hop_duration"), [
        (0.05, None),          # non-overlapping
        (0.05, 0.025),         # half-overlap
        (0.05, 0.037),         # non-divisible frame/hop
        (0.1, 0.03),           # hop does not divide the frame
        (0.0501, 0.0203),      # neither aligns with the sample grid
    ])
    @pytest.mark.parametrize("zero_pad_factor", [1, 2, 3])
    def test_batched_matches_looped_reference(self, busy_signal,
                                              frame_duration, hop_duration,
                                              zero_pad_factor):
        analyzer = SpectrumAnalyzer(zero_pad_factor=zero_pad_factor)
        times, frequencies, magnitudes = power_spectrogram(
            busy_signal, frame_duration, hop_duration, analyzer
        )
        ref_times, ref_frequencies, ref_magnitudes = power_spectrogram_reference(
            busy_signal, frame_duration, hop_duration, analyzer
        )
        np.testing.assert_array_equal(times, ref_times)
        np.testing.assert_array_equal(frequencies, ref_frequencies)
        np.testing.assert_allclose(magnitudes, ref_magnitudes, atol=TOLERANCE)

    def test_rect_window_matches_reference(self, busy_signal):
        analyzer = SpectrumAnalyzer(window="rect")
        _t, _f, magnitudes = power_spectrogram(busy_signal, 0.05, None, analyzer)
        _t, _f, reference = power_spectrogram_reference(
            busy_signal, 0.05, None, analyzer
        )
        np.testing.assert_allclose(magnitudes, reference, atol=TOLERANCE)

    def test_frame_matrix_matches_frames_iterator(self, busy_signal):
        times, frames = busy_signal.frame_matrix(0.05, 0.037)
        reference = list(busy_signal.frames(0.05, 0.037))
        assert len(times) == len(reference)
        for index, (start, frame) in enumerate(reference):
            assert times[index] == start
            np.testing.assert_array_equal(frames[index], frame.samples)


class TestDetectStreamEquivalence:
    @pytest.mark.parametrize("backend", ["fft", "goertzel"])
    @pytest.mark.parametrize("hop_duration", [None, 0.03])
    def test_stream_matches_manual_framing(self, busy_signal, backend,
                                           hop_duration):
        """detect_stream == framing the signal yourself + detect per frame."""
        detector = FrequencyDetector([500.0, 940.0, 1500.0], backend=backend)
        stream = detector.detect_stream(busy_signal, 0.05, hop_duration)
        manual = [
            event
            for start, frame in busy_signal.frames(0.05, hop_duration)
            for event in detector.detect(frame, start)
        ]
        assert len(stream) == len(manual)
        for got, want in zip(stream, manual):
            assert got.frequency == want.frequency
            assert got.time == want.time
            assert got.measured_frequency == pytest.approx(
                want.measured_frequency, abs=TOLERANCE
            )
            assert got.level_db == pytest.approx(want.level_db, abs=TOLERANCE)
