"""Unit tests for the MusicAgent (the Pi + speaker)."""

import pytest

from repro.audio import AcousticChannel, DeviceCapabilityError, Position, Speaker
from repro.core import MusicProtocolMessage
from repro.core.agent import MusicAgent
from repro.net import Simulator


@pytest.fixture
def agent():
    sim = Simulator()
    channel = AcousticChannel()
    speaker = Speaker(Position(0.5, 0, 0))
    return sim, channel, MusicAgent(sim, channel, speaker, "s1")


class TestPlayback:
    def test_tone_scheduled_at_now(self, agent):
        sim, channel, music_agent = agent
        sim.run(2.0)
        assert music_agent.play(1000, 0.05, 70)
        tone = channel.scheduled_tones[0]
        assert tone.start_time == 2.0
        assert tone.spec.frequency == 1000

    def test_handle_message(self, agent):
        _sim, channel, music_agent = agent
        message = MusicProtocolMessage(880, 0.06, 65)
        assert music_agent.handle_message(message)
        assert channel.scheduled_tones[0].spec.frequency == 880

    def test_handle_wire(self, agent):
        _sim, channel, music_agent = agent
        wire = MusicProtocolMessage(700, 0.05, 60).marshal()
        assert music_agent.handle_wire(wire)
        assert channel.scheduled_tones[0].spec.frequency == 700

    def test_speaker_envelope_enforced(self, agent):
        _sim, channel, music_agent = agent
        with pytest.raises(DeviceCapabilityError):
            music_agent.play(1000, 0.001, 70)  # below 30 ms minimum
        assert len(channel.scheduled_tones) == 0

    def test_unplayable_tone_raises_before_the_busy_check(self, agent):
        _sim, channel, music_agent = agent
        assert music_agent.play(1000, 0.2, 70)
        assert music_agent.is_busy
        with pytest.raises(DeviceCapabilityError):
            music_agent.play(1000, 0.001, 70)
        assert music_agent.dropped.total == 0
        assert len(channel.scheduled_tones) == 1

    def test_each_tone_is_validated_once(self, agent, monkeypatch):
        _sim, channel, music_agent = agent
        checked = []
        validate = music_agent.speaker.validate
        monkeypatch.setattr(music_agent.speaker, "validate",
                            lambda spec: checked.append(spec) or validate(spec))
        assert music_agent.play(1000, 0.05, 70)
        assert len(checked) == 1
        tone = channel.scheduled_tones[0]
        assert tone.spec == checked[0]
        assert tone.position == music_agent.speaker.position

    def test_counters(self, agent):
        _sim, _channel, music_agent = agent
        music_agent.play(1000, 0.05, 70)
        assert music_agent.played.total == 1


class TestBusyPolicy:
    def test_drop_policy_discards_overlap(self, agent):
        sim, channel, music_agent = agent
        assert music_agent.play(1000, 0.2, 70)
        assert not music_agent.play(2000, 0.2, 70)  # still busy
        assert music_agent.dropped.total == 1
        assert len(channel.scheduled_tones) == 1

    def test_speaker_free_after_tone(self, agent):
        sim, _channel, music_agent = agent
        music_agent.play(1000, 0.1, 70)
        assert music_agent.is_busy
        sim.run(0.15)
        assert not music_agent.is_busy
        assert music_agent.play(2000, 0.1, 70)

    def test_queue_policy_serializes(self):
        sim = Simulator()
        channel = AcousticChannel()
        music_agent = MusicAgent(sim, channel, Speaker(), busy_policy="queue")
        music_agent.play(1000, 0.2, 70)
        music_agent.play(2000, 0.2, 70)
        tones = channel.scheduled_tones
        assert len(tones) == 2
        assert tones[1].start_time == pytest.approx(0.2)

    def test_unknown_policy_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            MusicAgent(sim, AcousticChannel(), Speaker(), busy_policy="mix")
