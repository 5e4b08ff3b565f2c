"""Unit tests for the known-frequency detector (both backends)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.audio import (
    AudioSignal,
    DetectionEvent,
    FrequencyDetector,
    GoertzelResult,
    SongNoise,
    SpectralPeak,
    db_to_amplitude,
    sine_tone,
    white_noise,
)
from repro.audio.detector import SIDELOBE_RADIUS_HZ, SIDELOBE_REJECTION_DB

BACKENDS = ("fft", "goertzel")


class TestConstruction:
    def test_requires_frequencies(self):
        with pytest.raises(ValueError):
            FrequencyDetector([])

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            FrequencyDetector([1000], tolerance_hz=0)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            FrequencyDetector([1000], backend="wavelet")

    @pytest.mark.parametrize(("kwargs", "name"), [
        ({"tolerance_hz": float("nan")}, "tolerance_hz"),
        ({"threshold_db": float("nan")}, "threshold_db"),
        ({"min_level_db": float("nan")}, "min_level_db"),
        ({"watched_frequencies": [1000.0, float("nan")]}, "watched_frequencies"),
        ({"watched_frequencies": [-5.0, 1000.0]}, "watched_frequencies"),
        ({"watched_frequencies": [float("inf")]}, "watched_frequencies"),
    ])
    def test_rejects_malformed_inputs(self, kwargs, name):
        """A NaN knob would make the detector silently deaf (or drop its
        level floor); a NaN or negative watch list has no order to match
        against."""
        kwargs = {"watched_frequencies": [1000.0], **kwargs}
        with pytest.raises(ValueError, match=name):
            FrequencyDetector(**kwargs)

    def test_deduplicates_watch_list(self):
        detector = FrequencyDetector([1000, 1000.0, 2000])
        assert detector.watched == [1000.0, 2000.0]


@pytest.mark.parametrize("backend", BACKENDS)
class TestDetection:
    def test_single_tone(self, backend):
        detector = FrequencyDetector([500, 1000, 1500], backend=backend)
        events = detector.detect(sine_tone(1000, 0.1, level_db=60.0))
        assert [e.frequency for e in events] == [1000.0]

    def test_level_reported(self, backend):
        detector = FrequencyDetector([1000], backend=backend)
        events = detector.detect(sine_tone(1000, 0.1, level_db=60.0))
        assert events[0].level_db == pytest.approx(60.0, abs=1.0)

    def test_simultaneous_tones(self, backend):
        detector = FrequencyDetector([500, 1000, 1500], backend=backend)
        mix = AudioSignal.from_components([
            sine_tone(500, 0.2, level_db=60.0),
            sine_tone(1500, 0.2, level_db=58.0),
        ])
        events = detector.detect(mix)
        assert [e.frequency for e in events] == [500.0, 1500.0]

    def test_below_min_level_ignored(self, backend):
        detector = FrequencyDetector([1000], min_level_db=30.0, backend=backend)
        events = detector.detect(sine_tone(1000, 0.1, level_db=20.0))
        assert events == []

    def test_empty_window(self, backend):
        detector = FrequencyDetector([1000], backend=backend)
        assert detector.detect(AudioSignal(np.zeros(0))) == []

    def test_silence(self, backend):
        detector = FrequencyDetector([1000], backend=backend)
        assert detector.detect(AudioSignal.silence(0.1)) == []

    def test_noise_robustness(self, backend, rng):
        detector = FrequencyDetector([800, 1200], backend=backend)
        mix = sine_tone(1200, 0.2, level_db=65.0).mix(
            white_noise(0.2, level_db=45.0, rng=rng)
        )
        events = detector.detect(mix)
        assert [e.frequency for e in events] == [1200.0]

    def test_song_noise_robustness(self, backend):
        """The Figure 4b/4d condition: detection with a pop song in the
        room.  The watched tone must still be found and the song's own
        notes must not register as watched tones."""
        detector = FrequencyDetector([3000, 3100], backend=backend)
        song = SongNoise(seed=4, level_db=55.0).render(0.3)
        mix = sine_tone(3000, 0.3, level_db=68.0).mix(song)
        events = detector.detect(mix)
        assert [e.frequency for e in events] == [3000.0]

    def test_time_propagated(self, backend):
        detector = FrequencyDetector([1000], backend=backend)
        events = detector.detect(sine_tone(1000, 0.1, level_db=60.0), time=42.5)
        assert events[0].time == 42.5


@pytest.mark.parametrize("backend", BACKENDS)
class TestDetectStream:
    def test_tone_change_tracked_across_frames(self, backend):
        """A capture with two consecutive tones yields events for each
        tone stamped with the right frame times."""
        detector = FrequencyDetector([500, 2000], backend=backend)
        signal = sine_tone(500, 0.5, level_db=65.0).concat(
            sine_tone(2000, 0.5, level_db=65.0)
        )
        events = detector.detect_stream(signal, frame_duration=0.1)
        early = {e.frequency for e in events if e.time < 0.4}
        late = {e.frequency for e in events if e.time >= 0.6}
        assert early == {500.0}
        assert late == {2000.0}

    def test_start_time_offsets_event_times(self, backend):
        detector = FrequencyDetector([1000], backend=backend)
        signal = sine_tone(1000, 0.3, level_db=65.0)
        events = detector.detect_stream(signal, frame_duration=0.1,
                                        start_time=7.0)
        assert [e.time for e in events] == pytest.approx([7.0, 7.1, 7.2])

    def test_empty_signal(self, backend):
        detector = FrequencyDetector([1000], backend=backend)
        assert detector.detect_stream(AudioSignal(np.zeros(0))) == []

    def test_signal_shorter_than_one_frame(self, backend):
        detector = FrequencyDetector([1000], backend=backend)
        short = sine_tone(1000, 0.01, level_db=65.0)
        assert detector.detect_stream(short, frame_duration=0.05) == []

    def test_every_frame_counts_as_a_window(self, backend):
        signal = sine_tone(1000, 0.4, level_db=65.0)
        registry, _tracer = obs.enable()
        try:
            detector = FrequencyDetector([1000], backend=backend)
            events = detector.detect_stream(signal, frame_duration=0.1,
                                            hop_duration=0.05)
        finally:
            obs.disable()
        assert registry.counter("detector.windows").value == 7
        assert registry.counter("detector.events").value == len(events) == 7

    def test_overlapping_hop(self, backend):
        detector = FrequencyDetector([1000], backend=backend)
        signal = sine_tone(1000, 0.4, level_db=65.0)
        events = detector.detect_stream(signal, frame_duration=0.1,
                                        hop_duration=0.05)
        assert len(events) == 7  # (0.4 - 0.1) / 0.05 + 1 frames
        assert all(e.frequency == 1000.0 for e in events)


def test_detect_stream_feeds_the_spectrum_sink_per_frame():
    seen = []
    detector = FrequencyDetector(
        [1000], spectrum_sink=lambda spectrum, time: seen.append(time)
    )
    signal = sine_tone(1000, 0.3, level_db=65.0)
    detector.detect_stream(signal, frame_duration=0.1, start_time=2.0)
    assert seen == pytest.approx([2.0, 2.1, 2.2])


def oracle_events(candidates, watched, tolerance_hz, min_level_db, time,
                  level_first):
    """The reference rules for ``_events``, written the long way: an
    all-pairs shadow scan, the level floor (before the scan for Goertzel
    hits, after it for FFT peaks; both orders must agree), ``min`` over
    the whole watch list, and the loudest event per watched frequency."""
    def above_floor(peaks):
        return [p for p in peaks if p.level_db >= min_level_db]

    kept = []
    for peak in above_floor(candidates) if level_first else candidates:
        if not any(
            abs(strong.frequency - peak.frequency) <= SIDELOBE_RADIUS_HZ
            and strong.level_db - peak.level_db >= SIDELOBE_REJECTION_DB
            for strong in kept
        ):
            kept.append(peak)
    events = {}
    for peak in above_floor(kept):
        best = min(watched, key=lambda f: abs(f - peak.frequency))
        if abs(best - peak.frequency) > tolerance_hz:
            continue
        existing = events.get(best)
        if existing is None or peak.level_db > existing.level_db:
            events[best] = DetectionEvent(best, peak.frequency, peak.level_db,
                                          time)
    return sorted(events.values(), key=lambda e: e.frequency)


@st.composite
def candidate_sets(draw):
    """A watch list, a tolerance, and loudest-first candidates of one
    backend's type, biased toward ties: equal magnitudes, exact 15 dB
    gaps, midpoints between watched frequencies, ±tolerance edges."""
    # A plan-like cluster (so candidates crowd within the sidelobe
    # radius and tolerances overlap), plus the odd off-grid frequency.
    base = draw(st.floats(100.0, 7000.0))
    spacing = draw(st.sampled_from([20.0, 40.0, 25.5, 120.0]))
    watched = sorted(set(
        [base + spacing * k
         for k in draw(st.lists(st.integers(0, 12), min_size=1, max_size=8))]
        + draw(st.lists(st.floats(100.0, 8000.0), max_size=2))
    ))
    tolerance = draw(st.sampled_from([0.5, 10.0, 20.0, 50.0]))
    magnitudes = st.one_of(
        st.integers(0, 90).map(lambda db: db_to_amplitude(float(db))),
        st.just(0.0),
    )
    if draw(st.booleans()):
        # The Goertzel bank reports each watched bin at most once.
        bins = draw(st.lists(st.sampled_from(watched), unique=True))
        candidates = [GoertzelResult(f, draw(magnitudes)) for f in bins]
    else:
        near = st.sampled_from(watched)
        frequency = st.one_of(
            st.floats(0.0, 8500.0),
            near,
            near.map(lambda f: f + tolerance),
            near.map(lambda f: f - tolerance),
            st.tuples(near, st.floats(-2 * tolerance, 2 * tolerance)).map(sum),
            st.sampled_from([0.5 * (a + b) for a, b in zip(watched, watched[1:])]
                            or watched),
        )
        candidates = draw(st.lists(
            st.builds(SpectralPeak, frequency, magnitudes, st.just(0.0)),
            max_size=12,
        ))
    candidates = sorted(candidates, key=lambda c: c.magnitude, reverse=True)
    return watched, tolerance, candidates


@settings(max_examples=300, deadline=None)
@given(scenario=candidate_sets(),
       min_level_db=st.sampled_from([-200.0, 0.0, 30.0, 45.0]))
def test_events_match_the_reference_rules(scenario, min_level_db):
    watched, tolerance, candidates = scenario
    detector = FrequencyDetector(watched, tolerance_hz=tolerance,
                                 min_level_db=min_level_db)
    level_first = bool(candidates) and isinstance(candidates[0], GoertzelResult)
    assert detector._events(candidates, 1.5) == oracle_events(
        candidates, watched, tolerance, min_level_db, 1.5, level_first
    )


@pytest.mark.parametrize(("measured", "expected"), [
    (1010.0, [1000.0]),   # exact tie between neighbours: the lower wins
    (1011.0, [1020.0]),
    (995.0, [1000.0]),    # below the whole watch list
    (1029.0, [1020.0]),   # above it
    (1031.0, []),         # past the tolerance
])
def test_nearest_watched_frequency_claims_the_peak(measured, expected):
    detector = FrequencyDetector([1000.0, 1020.0], tolerance_hz=10.0)
    peak = SpectralPeak(measured, db_to_amplitude(60.0), 0.0)
    assert [e.frequency for e in detector._events([peak], 0.0)] == expected


class TestFFTSpecifics:
    def test_twenty_hz_separation_resolved(self):
        """The paper's separability limit: two tones 20 Hz apart, both
        identified, with a 200 ms window."""
        detector = FrequencyDetector([1000, 1020])
        mix = AudioSignal.from_components([
            sine_tone(1000, 0.2, level_db=60.0),
            sine_tone(1020, 0.2, level_db=60.0),
        ])
        events = detector.detect(mix)
        assert [e.frequency for e in events] == [1000.0, 1020.0]

    def test_sidelobe_of_loud_tone_rejected(self):
        """A single loud tone must not trigger its 20 Hz neighbours."""
        detector = FrequencyDetector([1000, 1020, 1040])
        events = detector.detect(sine_tone(1000, 0.2, level_db=80.0))
        assert [e.frequency for e in events] == [1000.0]

    def test_tolerance_match(self):
        """A tone 5 Hz off its plan frequency still matches (mic clock
        drift), but 50 Hz off does not."""
        detector = FrequencyDetector([1000], tolerance_hz=10.0)
        near = detector.detect(sine_tone(1005, 0.2, level_db=60.0))
        far = detector.detect(sine_tone(1050, 0.2, level_db=60.0))
        assert [e.frequency for e in near] == [1000.0]
        assert far == []

    def test_measured_frequency_reported(self):
        detector = FrequencyDetector([1000], tolerance_hz=10.0)
        events = detector.detect(sine_tone(1004, 0.25, level_db=60.0))
        assert events[0].measured_frequency == pytest.approx(1004, abs=2.0)
