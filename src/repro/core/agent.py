"""The MusicAgent: the Raspberry Pi bolted to a switch.

In the testbed (Figure 1) each Zodiac FX switch sends Music Protocol
messages to an attached Pi, which drives a speaker.  The agent here is
that Pi: it consumes :class:`~repro.core.protocol.MusicProtocolMessage`s
and schedules the corresponding tones on the acoustic channel at the
current simulation time.

Hardware constraints are enforced at this layer:

* tones shorter than the speaker's minimum (~30 ms on the paper's
  testbed) are rejected;
* the speaker is half-duplex — while a tone is sounding, further
  requests are either dropped or coalesced, governed by
  ``busy_policy`` (real single-driver speakers cannot mix arbitrary
  simultaneous tones; the paper's per-packet telemetry sounds are
  naturally rate-limited the same way).
"""

from __future__ import annotations

from ..audio.channel import AcousticChannel
from ..audio.devices import Speaker
from ..net.sim import Simulator
from ..net.stats import Counter
from .protocol import MusicProtocolMessage


class MusicAgent:
    """Plays MP messages on a speaker, at simulation time.

    Parameters
    ----------
    sim:
        The shared clock.
    channel:
        The air.
    speaker:
        The attached driver (position + capability envelope).
    name:
        Agent label (usually the switch or server name).
    busy_policy:
        ``"drop"`` — requests arriving while the speaker is busy are
        discarded (counted in ``dropped``); ``"queue"`` — they are
        played back-to-back after the current tone.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: AcousticChannel,
        speaker: Speaker,
        name: str = "agent",
        busy_policy: str = "drop",
    ) -> None:
        if busy_policy not in ("drop", "queue"):
            raise ValueError(f"unknown busy_policy {busy_policy!r}")
        self.sim = sim
        self.channel = channel
        self.speaker = speaker
        self.name = name
        self.busy_policy = busy_policy
        self.played = Counter(f"{name}.tones_played")
        self.dropped = Counter(f"{name}.tones_dropped")
        #: Simulation time until which the speaker is occupied.
        self._busy_until = 0.0

    @property
    def is_busy(self) -> bool:
        return self.sim.now < self._busy_until

    def handle_message(self, message: MusicProtocolMessage) -> bool:
        """Play (or queue/drop) the tone an MP message requests.

        Returns True if the tone was scheduled.
        """
        spec = message.to_tone_spec()
        self.speaker.validate(spec)
        start = self.sim.now
        if self.is_busy:
            if self.busy_policy == "drop":
                self.dropped.increment()
                return False
            start = self._busy_until
        # Validated above, before the busy check: schedule directly
        # rather than through Speaker.play, which would check again.
        self.channel.play_tone(start, spec, self.speaker.position)
        self._busy_until = start + spec.duration
        self.played.increment()
        return True

    def handle_wire(self, wire: bytes) -> bool:
        """Unmarshal a raw MP message and play it (the LwIP path)."""
        return self.handle_message(MusicProtocolMessage.unmarshal(wire))

    def play(
        self, frequency: float, duration: float = 0.05, intensity_db: float = 70.0
    ) -> bool:
        """Convenience: build and handle an MP message in one call."""
        return self.handle_message(
            MusicProtocolMessage(frequency, duration, intensity_db)
        )
