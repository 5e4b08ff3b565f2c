"""Unit tests for the FFT analysis pipeline."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.audio import (
    AudioSignal,
    SpectralPeak,
    Spectrum,
    SpectrumAnalyzer,
    power_spectrogram,
    sine_tone,
    white_noise,
)
from repro.audio.fft import median


class TestCalibration:
    def test_sine_reports_its_rms_level(self, analyzer):
        for level in (40.0, 60.0, 80.0):
            tone = sine_tone(1000, 0.2, level_db=level)
            spectrum = analyzer.analyze(tone)
            assert spectrum.level_at(1000) == pytest.approx(level, abs=0.5)

    def test_rect_window_calibration(self):
        analyzer = SpectrumAnalyzer(window="rect")
        # Bin-exact frequency: 1000 Hz with a 0.1 s window at 16 kHz.
        tone = sine_tone(1000, 0.1, level_db=60.0, ramp=0.0)
        spectrum = analyzer.analyze(tone)
        assert spectrum.level_at(1000) == pytest.approx(60.0, abs=0.1)

    def test_empty_signal(self, analyzer):
        spectrum = analyzer.analyze(AudioSignal(np.zeros(0)))
        assert len(spectrum.frequencies) == 0
        assert spectrum.magnitude_at(100) == 0.0

    def test_bin_width(self, analyzer):
        tone = sine_tone(500, 0.1)  # 0.1 s window -> 10 Hz resolution
        spectrum = analyzer.analyze(tone)
        # zero_pad_factor=2 halves the bin spacing (interpolation).
        assert spectrum.bin_width == pytest.approx(5.0)

    def test_bin_frequencies_are_shared_and_read_only(self, analyzer):
        first = analyzer.analyze(sine_tone(500, 0.1))
        second = analyzer.analyze(sine_tone(700, 0.1))
        assert first.frequencies is second.frequencies
        assert not first.frequencies.flags.writeable
        np.testing.assert_array_equal(
            first.frequencies, np.fft.rfftfreq(3200, 1.0 / 16_000)
        )


class TestValidation:
    def test_unknown_window(self):
        with pytest.raises(ValueError):
            SpectrumAnalyzer(window="hamming")

    def test_bad_zero_pad(self):
        with pytest.raises(ValueError):
            SpectrumAnalyzer(zero_pad_factor=0)


class TestNoiseFloor:
    def test_floor_tracks_noise_level(self, rng):
        analyzer = SpectrumAnalyzer()
        quiet = white_noise(0.5, level_db=30.0, rng=np.random.default_rng(1))
        loud = white_noise(0.5, level_db=60.0, rng=np.random.default_rng(1))
        assert (
            analyzer.analyze(loud).noise_floor_db()
            > analyzer.analyze(quiet).noise_floor_db() + 25
        )

    def test_floor_robust_to_tones(self, rng):
        """A strong tone must barely move the median-based floor."""
        analyzer = SpectrumAnalyzer()
        noise = white_noise(0.5, level_db=40.0, rng=np.random.default_rng(2))
        with_tone = noise.mix(sine_tone(1000, 0.5, level_db=80.0))
        clean_floor = analyzer.analyze(noise).noise_floor_db()
        tone_floor = analyzer.analyze(with_tone).noise_floor_db()
        assert abs(tone_floor - clean_floor) < 3.0


class TestPeaks:
    def test_single_peak_found(self, analyzer):
        tone = sine_tone(1234, 0.2, level_db=70.0)
        peaks = analyzer.find_peaks(analyzer.analyze(tone), 10.0)
        assert peaks[0].frequency == pytest.approx(1234, abs=1.0)

    def test_parabolic_interpolation_beats_bin_centers(self):
        """Off-bin frequency estimated better than half a bin width."""
        analyzer = SpectrumAnalyzer()  # 10 Hz bins at 0.1 s / 16 kHz
        tone = sine_tone(1003.0, 0.1, level_db=70.0)
        peaks = analyzer.find_peaks(analyzer.analyze(tone), 10.0)
        assert peaks[0].frequency == pytest.approx(1003.0, abs=3.0)

    def test_multiple_tones_sorted_by_magnitude(self, analyzer):
        mix = AudioSignal.from_components([
            sine_tone(800, 0.2, level_db=60.0),
            sine_tone(2000, 0.2, level_db=75.0),
        ])
        peaks = analyzer.find_peaks(analyzer.analyze(mix), 10.0, max_peaks=2)
        assert peaks[0].frequency == pytest.approx(2000, abs=2)
        assert peaks[1].frequency == pytest.approx(800, abs=2)

    def test_frequency_range_filter(self, analyzer):
        mix = AudioSignal.from_components([
            sine_tone(800, 0.2, level_db=70.0),
            sine_tone(2000, 0.2, level_db=70.0),
        ])
        peaks = analyzer.find_peaks(
            analyzer.analyze(mix), 10.0, min_frequency=1500, max_frequency=2500
        )
        assert all(1500 <= peak.frequency <= 2500 for peak in peaks)

    def test_noisy_tone_detected(self, rng, analyzer):
        mix = sine_tone(1500, 0.2, level_db=65.0).mix(
            white_noise(0.2, level_db=45.0, rng=rng)
        )
        peaks = analyzer.find_peaks(analyzer.analyze(mix), 10.0)
        assert any(abs(p.frequency - 1500) < 5 for p in peaks)

    def test_silence_yields_no_peaks(self, analyzer):
        spectrum = analyzer.analyze(AudioSignal.silence(0.1))
        assert analyzer.find_peaks(spectrum, 10.0) == []


def find_peaks_oracle(spectrum, threshold_db=10.0, min_frequency=0.0,
                      max_frequency=None, max_peaks=None):
    """The per-peak loop ``SpectrumAnalyzer.find_peaks`` replaced, kept
    as the scalar reference: one parabolic refinement, clip and
    prominence per candidate bin, then a stable loudest-first sort."""
    mags = spectrum.magnitudes
    freqs = spectrum.frequencies
    if len(mags) < 3:
        return []
    floor = max(float(np.median(mags)), 1e-12)
    min_magnitude = floor * 10.0 ** (threshold_db / 20.0)
    high_limit = max_frequency if max_frequency is not None else freqs[-1]

    candidates = np.where(
        (mags[1:-1] > mags[:-2])
        & (mags[1:-1] >= mags[2:])
        & (mags[1:-1] >= min_magnitude)
    )[0] + 1

    peaks = []
    for index in candidates:
        freq = freqs[index]
        if not min_frequency <= freq <= high_limit:
            continue
        left, centre, right = mags[index - 1], mags[index], mags[index + 1]
        denominator = left - 2.0 * centre + right
        if denominator != 0.0:
            offset = 0.5 * (left - right) / denominator
            offset = float(np.clip(offset, -0.5, 0.5))
        else:
            offset = 0.0
        refined = freq + offset * spectrum.bin_width
        prominence = 20.0 * np.log10(centre / floor)
        peaks.append(SpectralPeak(float(refined), float(centre),
                                  float(prominence)))

    peaks.sort(key=lambda p: p.magnitude, reverse=True)
    if max_peaks is not None:
        peaks = peaks[:max_peaks]
    return peaks


@st.composite
def peak_queries(draw):
    """A spectrum plus ``find_peaks`` arguments, biased toward the cases
    where a rewrite can drift from the loop: magnitudes from a small
    pool (plateaus, equal peaks whose order is a tie-break, flat tops),
    zero bins (a zero noise floor), band edges exactly on bin
    frequencies, ``max_peaks`` cuts, and spectra shorter than 3 bins."""
    count = draw(st.one_of(st.integers(0, 3), st.integers(4, 60)))
    bin_width = draw(st.sampled_from([5.0, 15.0, 31.25, 0.1]))
    pool = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-9, 1e3), st.integers(1, 8).map(float)),
        min_size=1, max_size=6,
    ))
    if draw(st.booleans()):
        # A value one ulp under a plateau: ``left - 2*centre + right``
        # can round to exactly 0 there (a flat top with a peak).
        pool += [float(np.nextafter(value, 0.0)) for value in pool if value]
    magnitudes = np.array(draw(st.lists(st.sampled_from(pool),
                                        min_size=count, max_size=count)))
    frequencies = np.arange(count) * bin_width
    spectrum = Spectrum(frequencies, magnitudes, 16_000, 0.05)
    edges = st.one_of(st.sampled_from(list(frequencies) or [0.0]),
                      st.floats(-10.0, count * bin_width + 10.0))
    return spectrum, {
        "threshold_db": draw(st.sampled_from([-20.0, 0.0, 3.0, 10.0])),
        "min_frequency": draw(st.one_of(st.just(0.0), edges)),
        "max_frequency": draw(st.one_of(st.none(), edges)),
        "max_peaks": draw(st.sampled_from([None, 0, 1, 2, 5])),
    }


FLAT_TOP = Spectrum(np.arange(6) * 5.0,
                    np.array([0.0, np.nextafter(1.0, 0.0), 1.0, 1.0, 0.0, 0.0]),
                    16_000, 0.05)


@settings(max_examples=400, deadline=None)
@given(query=peak_queries())
@example(query=(FLAT_TOP, {"threshold_db": -20.0, "min_frequency": 0.0,
                           "max_frequency": None, "max_peaks": None}))
def test_find_peaks_matches_the_scalar_loop(query):
    spectrum, kwargs = query
    assert SpectrumAnalyzer().find_peaks(spectrum, **kwargs) == (
        find_peaks_oracle(spectrum, **kwargs)
    )


def test_find_peaks_matches_the_scalar_loop_on_real_windows(analyzer):
    """Dense tone mixes in noise, as a fleet room hears them."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        mix = AudioSignal.from_components(
            [sine_tone(float(f), 1 / 30, level_db=float(level))
             for f, level in zip(rng.uniform(400, 3000, 12),
                                 rng.uniform(40, 80, 12))]
        ).mix(white_noise(1 / 30, level_db=30.0, rng=rng))
        spectrum = analyzer.analyze(mix)
        assert analyzer.find_peaks(spectrum, 10.0) == (
            find_peaks_oracle(spectrum, 10.0)
        )


class TestTiming:
    def test_timed_analyze_returns_elapsed(self, analyzer):
        tone = sine_tone(1000, 0.05)
        spectrum, elapsed = analyzer.timed_analyze(tone)
        assert elapsed > 0
        assert spectrum.level_at(1000) > 50

    def test_50ms_window_is_fast(self, analyzer):
        """The Figure 2b claim territory: ~50 ms windows analyze in
        well under 5 ms on any modern machine."""
        tone = sine_tone(1000, 0.05)
        timings = [analyzer.timed_analyze(tone)[1] for _ in range(50)]
        assert np.median(timings) < 0.005


class TestSpectrogram:
    def test_shapes(self):
        tone = sine_tone(1000, 1.0)
        times, freqs, mags = power_spectrogram(tone, frame_duration=0.1)
        assert len(times) == 10
        assert mags.shape == (10, len(freqs))

    def test_tracks_frequency_over_time(self):
        first = sine_tone(500, 0.5, level_db=70.0)
        second = sine_tone(2000, 0.5, level_db=70.0)
        signal = first.concat(second)
        times, freqs, mags = power_spectrogram(signal, frame_duration=0.1)
        early_peak = freqs[np.argmax(mags[1])]
        late_peak = freqs[np.argmax(mags[-2])]
        assert early_peak == pytest.approx(500, abs=20)
        assert late_peak == pytest.approx(2000, abs=20)

    def test_empty_signal(self):
        times, freqs, mags = power_spectrogram(AudioSignal(np.zeros(0)))
        assert len(times) == 0

    def test_short_signal_shapes_are_consistent(self):
        """A signal shorter than one frame yields zero frames but a
        full frequency axis, so ``mags`` is ``(0, F)`` — not the old
        mismatched ``frequencies`` empty / ``mags`` ``(0, 0)``."""
        short = sine_tone(1000, 0.01)  # 10 ms < the 50 ms frame
        times, freqs, mags = power_spectrogram(short, frame_duration=0.05)
        assert len(times) == 0
        assert len(freqs) == 401  # 800-sample frame -> 401 rfft bins
        assert mags.shape == (0, len(freqs))

    def test_empty_signal_shapes_are_consistent(self):
        times, freqs, mags = power_spectrogram(
            AudioSignal(np.zeros(0)), frame_duration=0.05
        )
        assert len(times) == 0
        assert len(freqs) > 0
        assert mags.shape == (0, len(freqs))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(
    st.one_of(st.floats(allow_nan=True, allow_infinity=True),
              st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.5])),
    min_size=1, max_size=40,
))
def test_median_matches_numpy_median(values):
    """The spectrum noise floor's median is ``np.median``, bit for bit
    (even and odd counts, ties, signed zeros, infinities and NaN)."""
    values = np.array(values)
    with np.errstate(over="ignore", invalid="ignore"):  # huge pairs sum to inf
        expected = float(np.median(values))
        got = median(values)
    if np.isnan(expected):
        assert np.isnan(got)
    else:
        assert got == expected and np.signbit(got) == np.signbit(expected)
