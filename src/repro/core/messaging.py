"""Acoustic message service: unsolicited frames, delivered as they land.

The bare :class:`~repro.audio.modem.FskReceiver` is an offline decoder —
you hand it a capture that you already know contains a frame.  A
management station doesn't know when a switch will speak.  This service
closes the gap: it polls the microphone, hunts for preambles, reads the
frame header to learn the payload length, waits out the frame's
airtime, decodes, and delivers the payload to a callback.  Frames can
arrive at any time, back to back, from any speaker using the agreed
modem configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..audio.channel import AcousticChannel
from ..audio.devices import Microphone
from ..audio.modem import FskReceiver, ModemConfig, ModemError
from ..net.sim import PeriodicTimer, Simulator

#: Delivery callback: (payload, frame_start_time).
MessageHandler = Callable[[bytes, float], None]


@dataclass
class ReceivedFrame:
    """One successfully decoded frame."""

    payload: bytes
    preamble_time: float
    decoded_at: float


class AcousticMessageService:
    """Always-on frame reception over one modem configuration.

    Parameters
    ----------
    sim, channel, microphone:
        The listening rig.
    config:
        The shared modem parameters.
    on_message:
        Called with ``(payload, preamble_time)`` per decoded frame.
    poll_interval:
        How often the scanner looks for new preambles.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: AcousticChannel,
        microphone: Microphone,
        config: ModemConfig,
        on_message: MessageHandler | None = None,
        poll_interval: float = 0.25,
    ) -> None:
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.sim = sim
        self.channel = channel
        self.microphone = microphone
        self.config = config
        self.on_message = on_message
        self.poll_interval = poll_interval
        self._receiver = FskReceiver(config)
        #: Scan frontier: audio before this is already consumed.
        self._scan_from = sim.now
        self._decoding = False
        self.frames: list[ReceivedFrame] = []
        self.decode_errors = 0
        self._timer: PeriodicTimer | None = None

    def start(self) -> None:
        if self._timer is not None:
            raise RuntimeError("service already started")
        self._timer = self.sim.every(self.poll_interval, self._poll)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    # ------------------------------------------------------------------

    def _poll(self) -> None:
        """Look for a fresh preamble past the scan frontier."""
        if self._decoding:
            return
        now = self.sim.now
        if now - self._scan_from < self.config.symbol_duration * 2:
            return
        capture = self.microphone.record(self.channel, self._scan_from, now)
        preamble = self._receiver.find_preamble(capture, self._scan_from)
        if preamble is None:
            # Keep a one-symbol overlap so a preamble straddling the
            # frontier is still found next poll.
            self._scan_from = max(self._scan_from,
                                  now - self.config.symbol_duration * 2)
            return
        self._decoding = True
        # The frame's length byte occupies the symbols right after the
        # preamble; once the longest possible header has elapsed we can
        # read it and schedule the final decode.
        per_byte = 8 // self.config.bits_per_symbol
        header_end = (preamble
                      + (1 + per_byte) * self.config.symbol_period
                      + self.config.symbol_duration)
        self.sim.schedule_at(max(header_end, now), self._read_header,
                             preamble)

    def _read_header(self, preamble: float) -> None:
        capture = self.microphone.record(
            self.channel, preamble, self.sim.now
        )
        try:
            length = self._receiver.read_byte(capture, preamble, preamble, 0)
        except ValueError:  # ModemError: an unreadable length byte
            self._abandon(preamble)
            return
        frame_end = preamble + self.config.frame_airtime(length) + \
            self.config.symbol_duration
        self.sim.schedule_at(max(frame_end, self.sim.now),
                             self._decode_frame, preamble, frame_end)

    def _decode_frame(self, preamble: float, frame_end: float) -> None:
        capture = self.microphone.record(
            self.channel, preamble - self.config.symbol_duration,
            frame_end,
        )
        try:
            payload = self._receiver.decode(
                capture, preamble - self.config.symbol_duration
            )
        except ModemError:
            self.decode_errors += 1
        else:
            frame = ReceivedFrame(payload, preamble, self.sim.now)
            self.frames.append(frame)
            if self.on_message is not None:
                self.on_message(payload, preamble)
        self._scan_from = frame_end
        self._decoding = False

    def _abandon(self, preamble: float) -> None:
        """Unreadable header: skip past the preamble and keep scanning."""
        self.decode_errors += 1
        self._scan_from = preamble + self.config.symbol_period
        self._decoding = False
