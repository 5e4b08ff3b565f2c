"""Equivalence suite: vectorized channel rendering vs the scalar loop.

``AcousticChannel.render_at`` (interval index + batched synthesis +
window memo) must reproduce ``render_at_reference`` (the original
per-tone scalar loop) within 1e-9 — the same contract the listening
side's vectorized paths honour (DESIGN.md §5) — across window seams,
echo taps, partial overlaps, pruned histories, and loop/non-loop noise
beds.  In practice the two paths are bit-identical: they evaluate the
same IEEE operations per sample, in the same accumulation order.
"""

import numpy as np
import pytest

from repro.audio import (
    AcousticChannel,
    Microphone,
    Position,
    ToneSpec,
    white_noise,
)

TOLERANCE = 1e-9

LISTENER = Position(0.3, 0.1, 0.0)


def _assert_paths_match(channel, listener, start, end):
    fast = channel.render_at(listener, start, end)
    reference = channel.render_at_reference(listener, start, end)
    assert len(fast) == len(reference)
    np.testing.assert_allclose(
        fast.samples, reference.samples, atol=TOLERANCE
    )
    return fast


def busy_channel(echo_taps=(), enable_propagation_delay=True, seed=7):
    """Dozens of overlapping tones at staggered offsets and distances."""
    rng = np.random.default_rng(seed)
    channel = AcousticChannel(
        enable_propagation_delay=enable_propagation_delay,
        echo_taps=echo_taps,
    )
    for index in range(30):
        channel.play_tone(
            float(rng.uniform(0.0, 1.5)),
            ToneSpec(
                300.0 + 37.0 * index,
                float(rng.uniform(0.03, 0.4)),
                float(rng.uniform(55.0, 70.0)),
            ),
            Position(
                float(rng.uniform(0.2, 8.0)),
                float(rng.uniform(-3.0, 3.0)),
                0.0,
            ),
        )
    return channel


class TestToneEquivalence:
    @pytest.mark.parametrize(("start", "end"), [
        (0.0, 0.1),      # window opens with the first arrivals
        (0.45, 0.55),    # mid-history
        (0.0, 2.2),      # the whole timeline in one window
        (1.93, 2.08),    # tail: mostly-ended tones, partial overlaps
        (3.0, 3.1),      # silence after every tone ended
        (0.5, 0.5),      # empty window
    ])
    def test_windows_match_reference(self, start, end):
        _assert_paths_match(busy_channel(), LISTENER, start, end)

    def test_with_echo_taps(self):
        channel = busy_channel(echo_taps=((0.013, 9.0), (0.031, 14.0)))
        for start, end in [(0.0, 0.1), (0.7, 0.85), (1.9, 2.3)]:
            _assert_paths_match(channel, LISTENER, start, end)

    def test_without_propagation_delay(self):
        channel = busy_channel(enable_propagation_delay=False)
        _assert_paths_match(channel, LISTENER, 0.2, 0.5)

    def test_colocated_emitter_and_listener(self):
        channel = AcousticChannel()
        channel.play_tone(0.0, ToneSpec(440.0, 0.2, 65.0), Position())
        _assert_paths_match(channel, Position(), 0.0, 0.25)

    def test_distant_emitter_long_flight(self):
        """A tone half a simulated football pitch away arrives late;
        the interval index must not drop it while it is in flight."""
        channel = AcousticChannel()
        channel.play_tone(0.0, ToneSpec(700.0, 0.1, 80.0),
                          Position(50.0, 0.0, 0.0))
        flight = 50.0 / 343.0
        window = _assert_paths_match(
            channel, Position(), flight, flight + 0.1
        )
        assert window.rms() > 0.0

    def test_out_of_order_scheduling(self):
        """Tones scheduled in arbitrary time order render identically
        (the index sorts; the reference iterates insertion order)."""
        channel = AcousticChannel()
        for start in [1.0, 0.1, 0.55, 0.2, 0.9, 0.0]:
            channel.play_tone(start, ToneSpec(500.0 + 400.0 * start, 0.3, 65.0),
                              Position(0.5 + start, 0.0, 0.0))
        for window in [(0.0, 0.4), (0.3, 0.8), (0.9, 1.5)]:
            _assert_paths_match(channel, LISTENER, *window)


class TestBitIdentity:
    """The 1e-9 contract above, tightened to exact equality: the flat
    synthesis must add every sample's segments in the reference's
    order with the reference's arithmetic.  Summation order or a
    reassociated phase (``* (1 / rate)``) moves samples by an ulp,
    far inside 1e-9, so only an exact comparison sees it."""

    @pytest.mark.parametrize("echo_taps", [(), ((0.003, 4.0), (0.011, 9.0))])
    @pytest.mark.parametrize("seed", [7, 11])
    def test_fleet_sized_windows_are_exact(self, echo_taps, seed):
        channel = busy_channel(echo_taps=echo_taps, seed=seed)
        for start in np.arange(0.0, 2.2, 1 / 30):
            end = start + 1 / 30
            fast = channel.render_at(LISTENER, start, end)
            reference = channel.render_at_reference(LISTENER, start, end)
            assert np.array_equal(fast.samples, reference.samples)

    def test_fault_adjusted_levels_are_exact(self):
        from repro.faults import FaultHarness
        from repro.net.sim import Simulator

        channel = busy_channel(echo_taps=((0.005, 6.0),))
        clean = busy_channel(echo_taps=((0.005, 6.0),))
        faults = FaultHarness(Simulator(), seed=3).acoustic(channel)
        emitters = [tone.position for tone in channel.scheduled_tones]
        for index, emitter in enumerate(emitters[:20]):
            faults.degrade_speaker(emitter, 0.0, 2.0, 0.7 + 1.3 * index)
        faults.drop_speaker(emitters[20], 0.0, 2.0)
        assert faults.adjusts_tone_levels
        for start in np.arange(0.0, 2.2, 0.05):
            fast = channel.render_at(LISTENER, start, start + 0.05)
            reference = channel.render_at_reference(LISTENER, start,
                                                    start + 0.05)
            assert np.array_equal(fast.samples, reference.samples)
        # The faults really moved the audio.
        assert not np.array_equal(
            channel.render_at(LISTENER, 0.0, 2.2).samples,
            clean.render_at(LISTENER, 0.0, 2.2).samples,
        )


class TestToneMemo:
    """The per-channel whole-tone waveform memo: renders equal the
    reference exactly however the memo is keyed, filled or evicted."""

    def test_eviction_mid_sweep_keeps_renders_exact(self, monkeypatch):
        from repro.audio import channel as channel_module

        # Room for a few short tones: entries evict throughout the
        # sweep, and tones longer than the bound are never cached.
        monkeypatch.setattr(channel_module, "TONE_CACHE_SAMPLES", 2000)
        channel = busy_channel(echo_taps=((0.003, 4.0),))
        seen = set()
        for start in np.arange(0.0, 2.2, 1 / 30):
            fast = channel.render_at(LISTENER, start, start + 1 / 30)
            reference = channel.render_at_reference(LISTENER, start,
                                                    start + 1 / 30)
            assert np.array_equal(fast.samples, reference.samples)
            assert channel._tone_cache_samples <= 2000
            seen.update(channel._tone_cache)
        assert len(seen) > len(channel._tone_cache) > 0, "nothing evicted"
        # Re-rendering after evictions rebuilds the same samples.
        channel.invalidate_render_cache()
        again = channel.render_at(LISTENER, 0.5, 0.5 + 1 / 30)
        assert np.array_equal(
            again.samples,
            channel.render_at_reference(LISTENER, 0.5, 0.5 + 1 / 30).samples,
        )

    def test_one_tone_at_two_distances_and_faults_never_aliases(self):
        """One (frequency, duration) heard at two listener distances,
        through echo taps, under a level-degrading fault and a dropout:
        each received level is its own waveform."""
        from repro.faults import FaultHarness
        from repro.net.sim import Simulator

        spec = ToneSpec(1200.0, 0.3, 68.0)
        near_emitter = Position(0.5, 0.0, 0.0)
        far_emitter = Position(4.0, 0.0, 0.0)
        dropped_emitter = Position(2.0, 1.0, 0.0)
        channel = AcousticChannel(echo_taps=((0.004, 5.0), (0.009, 11.0)))
        for start in (0.0, 0.1, 0.45):
            channel.play_tone(start, spec, near_emitter)
            channel.play_tone(start + 0.02, spec, far_emitter)
            channel.play_tone(start + 0.05, spec, dropped_emitter)
        faults = FaultHarness(Simulator(), seed=3).acoustic(channel)
        faults.degrade_speaker(far_emitter, 0.0, 0.3, 6.5)
        faults.drop_speaker(dropped_emitter, 0.0, 0.2)
        listeners = (Position(0.0, 0.0, 0.0), Position(0.0, 3.0, 0.0))
        for listener in listeners:
            for start in np.arange(0.0, 0.9, 1 / 30):
                fast = channel.render_at(listener, start, start + 1 / 30)
                reference = channel.render_at_reference(listener, start,
                                                        start + 1 / 30)
                assert np.array_equal(fast.samples, reference.samples)
        # Same frequency and duration, many received levels.
        keys = list(channel._tone_cache)
        assert {(f, d) for f, d, _level in keys} == {(1200.0, 0.3)}
        assert len(keys) > 2 * len(listeners)

    def test_memo_never_exceeds_its_bound(self):
        from repro.audio.channel import TONE_CACHE_SAMPLES

        channel = AcousticChannel()
        # 400 distinct 0.4 s tones: 6400 samples each, 2.56M in all.
        for index in range(400):
            channel.play_tone(0.5 * index, ToneSpec(300.0 + index, 0.4, 66.0),
                              Position(1.0, 0.0, 0.0))
        for index in range(400):
            channel.render_at(LISTENER, 0.5 * index, 0.5 * index + 0.1)
            cached = sum(len(wave) for wave in channel._tone_cache.values())
            assert cached == channel._tone_cache_samples
            assert cached <= TONE_CACHE_SAMPLES
        assert channel._tone_cache_samples > TONE_CACHE_SAMPLES - 6400

    def test_fresh_channel_starts_empty(self):
        warm = busy_channel()
        warm.render_at(LISTENER, 0.0, 2.2)
        assert warm._tone_cache
        fresh = busy_channel()
        assert not fresh._tone_cache
        assert fresh._tone_cache_samples == 0


class TestSeams:
    def test_consecutive_windows_concatenate_bit_identically(self):
        """Polling [0, 2) as twenty 100 ms windows must equal the one
        long render bit-for-bit — the invariant that lets a controller
        poll instead of rendering whole experiments."""
        channel = busy_channel(echo_taps=((0.013, 9.0),))
        rng = np.random.default_rng(11)
        channel.add_noise(white_noise(0.7, 48.0, rng=rng),
                          Position(2.0, 1.0, 0.0), loop=True)
        channel.add_noise(white_noise(0.9, 52.0, rng=rng),
                          Position(1.0, -1.0, 0.0), loop=False)
        whole = channel.render_at(LISTENER, 0.0, 2.0)
        stitched = np.concatenate([
            channel.render_at(LISTENER, tick * 0.1, (tick + 1) * 0.1).samples
            for tick in range(20)
        ])
        np.testing.assert_array_equal(whole.samples, stitched)

    def test_seams_with_odd_window_lengths(self):
        channel = busy_channel()
        whole = channel.render_at(LISTENER, 0.0, 0.3)
        parts = np.concatenate([
            channel.render_at(LISTENER, 0.0, 0.13).samples,
            channel.render_at(LISTENER, 0.13, 0.3).samples,
        ])
        np.testing.assert_array_equal(whole.samples, parts)


class TestNoiseBedEquivalence:
    @pytest.mark.parametrize("loop", [True, False])
    def test_beds_match_reference(self, loop, rng):
        channel = AcousticChannel()
        channel.add_noise(white_noise(0.5, 55.0, rng=rng),
                          Position(3.0, 0.0, 0.0), loop=loop)
        for window in [(0.0, 0.1), (0.3, 0.6), (0.8, 1.0)]:
            _assert_paths_match(channel, Position(), *window)

    def test_non_loop_bed_respects_propagation_delay(self, rng):
        """A one-shot bed 34.3 m away must arrive ~100 ms late, like a
        tone from the same rack would."""
        channel = AcousticChannel()
        channel.add_noise(white_noise(0.2, 60.0, rng=rng),
                          Position(34.3, 0.0, 0.0), loop=False)
        prompt = _assert_paths_match(channel, Position(), 0.0, 0.09)
        delayed = _assert_paths_match(channel, Position(), 0.1, 0.2)
        assert prompt.rms() == 0.0
        assert delayed.rms() > 0.0

    def test_non_loop_bed_delay_disabled(self, rng):
        channel = AcousticChannel(enable_propagation_delay=False)
        channel.add_noise(white_noise(0.2, 60.0, rng=rng),
                          Position(34.3, 0.0, 0.0), loop=False)
        prompt = _assert_paths_match(channel, Position(), 0.0, 0.09)
        assert prompt.rms() > 0.0

    def test_loop_bed_keeps_phase_free_approximation(self, rng):
        """Looping ambience is diffuse: it ignores propagation delay
        (the documented asymmetry), so a distant looping bed is only
        attenuated, never shifted."""
        bed = white_noise(0.5, 60.0, rng=rng)
        near = AcousticChannel()
        near.add_noise(bed, Position(1.0, 0.0, 0.0), loop=True)
        far = AcousticChannel()
        far.add_noise(bed, Position(10.0, 0.0, 0.0), loop=True)
        near_window = near.render_at(Position(), 0.0, 0.2)
        far_window = far.render_at(Position(), 0.0, 0.2)
        gain = 10.0 ** (-20.0 / 20.0)  # 10 m vs 1 m: exactly -20 dB
        np.testing.assert_allclose(
            far_window.samples, near_window.samples * gain, atol=TOLERANCE
        )


class TestPruneEquivalence:
    def test_pruned_history_renders_identically(self):
        """Prune drops only tones that cannot reach any window at or
        after the cutoff, so fast and reference stay equal after it."""
        channel = busy_channel(echo_taps=((0.05, 6.0),))
        reference_before = channel.render_at_reference(LISTENER, 2.5, 2.7)
        channel.prune(before=2.5, margin=0.1)
        window = _assert_paths_match(channel, LISTENER, 2.5, 2.7)
        np.testing.assert_allclose(
            window.samples, reference_before.samples, atol=TOLERANCE
        )

    def test_prune_keeps_audible_echo_tail(self):
        """A tone whose *emission* ended before the cutoff but whose
        echo is still ringing must survive the prune (the old
        end-time-only rule dropped it and the echo vanished)."""
        channel = AcousticChannel(echo_taps=((0.08, 6.0),))
        channel.play_tone(0.0, ToneSpec(1000.0, 0.1, 70.0),
                          Position(0.5, 0.0, 0.0))
        echo_window = (0.15, 0.19)   # only the echo is sounding here
        before = channel.render_at(Position(), *echo_window)
        assert before.rms() > 0.0
        dropped = channel.prune(before=0.15, margin=0.0)
        assert dropped == 0
        after = _assert_paths_match(channel, Position(), *echo_window)
        np.testing.assert_array_equal(before.samples, after.samples)

    def test_prune_still_drops_truly_dead_tones(self):
        channel = AcousticChannel(echo_taps=((0.08, 6.0),))
        channel.play_tone(0.0, ToneSpec(1000.0, 0.1, 70.0))
        channel.play_tone(30.0, ToneSpec(1100.0, 0.1, 70.0))
        assert channel.prune(before=20.0, margin=1.0) == 1
        frequencies = [t.spec.frequency for t in channel.scheduled_tones]
        assert frequencies == [1100.0]


class TestWindowMemo:
    def test_repeated_render_hits_memo(self):
        channel = busy_channel()
        first = channel.render_at(LISTENER, 0.2, 0.3)
        again = channel.render_at(LISTENER, 0.2, 0.3)
        assert again.samples is first.samples
        assert channel.render_cache_hits >= 1

    def test_play_tone_invalidates_memo(self):
        channel = busy_channel()
        stale = channel.render_at(LISTENER, 0.2, 0.3)
        channel.play_tone(0.2, ToneSpec(2500.0, 0.1, 70.0),
                          Position(0.5, 0.0, 0.0))
        fresh = _assert_paths_match(channel, LISTENER, 0.2, 0.3)
        assert not np.array_equal(fresh.samples, stale.samples)

    def test_add_noise_invalidates_memo(self, rng):
        channel = busy_channel()
        stale = channel.render_at(LISTENER, 0.2, 0.3)
        channel.add_noise(white_noise(0.5, 55.0, rng=rng))
        fresh = _assert_paths_match(channel, LISTENER, 0.2, 0.3)
        assert not np.array_equal(fresh.samples, stale.samples)

    def test_clear_invalidates_memo(self):
        channel = busy_channel()
        channel.render_at(LISTENER, 0.2, 0.3)
        channel.clear()
        assert channel.render_at(LISTENER, 0.2, 0.3).rms() == 0.0

    def test_prune_invalidates_memo(self):
        channel = busy_channel()
        channel.render_at(LISTENER, 0.2, 0.3)
        hits = channel.render_cache_hits
        channel.prune(before=100.0, margin=0.0)
        _assert_paths_match(channel, LISTENER, 0.2, 0.3)
        assert channel.render_cache_hits == hits

    def test_memo_is_bounded(self):
        from repro.audio.channel import WINDOW_CACHE_SIZE

        channel = busy_channel()
        for tick in range(WINDOW_CACHE_SIZE + 40):
            channel.render_at(LISTENER, tick * 0.01, tick * 0.01 + 0.05)
        assert len(channel._window_cache) <= WINDOW_CACHE_SIZE

    def test_colocated_microphones_share_render(self):
        """Two capsules at one station: the air is mixed once; each
        capture differs only by per-seed self-noise."""
        channel = busy_channel()
        spot = Position(0.4, 0.0, 0.0)
        first = Microphone(spot, seed=1).record(channel, 0.2, 0.3)
        misses = channel.render_cache_misses
        second = Microphone(spot, seed=2).record(channel, 0.2, 0.3)
        assert channel.render_cache_misses == misses
        assert not np.array_equal(first.samples, second.samples)

    def test_repeated_record_is_deterministic(self):
        """The microphone self-noise memo must not change captures."""
        channel = busy_channel()
        microphone = Microphone(LISTENER, seed=5)
        first = microphone.record(channel, 0.2, 0.3)
        second = microphone.record(channel, 0.2, 0.3)
        np.testing.assert_array_equal(first.samples, second.samples)
