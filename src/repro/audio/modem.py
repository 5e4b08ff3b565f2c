"""Acoustic data transmission: an FSK modem over the tone channel.

Section 2 surveys "audio networking" for data transfer, noting its low
throughput ("it can take up to six seconds to send a 20 bytes packet
over a single hop") and that MDN focuses on the management plane
instead.  This module implements that data-plane capability anyway —
management operations occasionally need to move a few bytes (a config
digest, an alert payload), and the modem lets them ride the same
speakers.

Design: M-ary FSK.  Each symbol is one tone from a ``2**bits_per_symbol``
frequency alphabet drawn from a frequency plan block; a frame is::

    [preamble tone] [length byte] [payload bytes] [xor checksum byte]

symbols back to back, each ``symbol_duration`` long with a short gap.
Throughput at the defaults (4-FSK, 60 ms symbols, 15 ms gap) is
~26 bit/s — deliberately of the same order as the literature the paper
cites.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import AcousticChannel, Position
from .detector import FrequencyDetector
from .devices import Microphone, Speaker
from .signal import AudioSignal
from .synth import ToneSpec


class ModemError(ValueError):
    """Raised on framing/checksum violations during decode."""


@dataclass(frozen=True)
class ModemConfig:
    """Shared modulation parameters (both ends must agree).

    Attributes
    ----------
    frequencies:
        The symbol alphabet, lowest first.  Length must be a power of
        two; index = symbol value.  Allocate these from a
        :class:`~repro.core.frequency_plan.FrequencyPlan` block so the
        modem coexists with other MDN applications.
    preamble_frequency:
        A dedicated tone marking frame start (not in the alphabet).
    symbol_duration:
        Tone length per symbol, seconds.
    symbol_gap:
        Silence between symbols, seconds (lets the detector see
        distinct onsets for repeated symbols).
    level_db:
        Emission level.
    """

    frequencies: tuple[float, ...]
    preamble_frequency: float
    symbol_duration: float = 0.06
    symbol_gap: float = 0.015
    level_db: float = 70.0

    def __post_init__(self) -> None:
        size = len(self.frequencies)
        # Symbols must pack evenly into bytes: 1, 2 or 4 bits per
        # symbol (alphabets of 2, 4 or 16).  3-bit symbols (8-FSK)
        # would straddle byte boundaries and need a bit-stream framer.
        if size not in (2, 4, 16):
            raise ValueError(
                f"alphabet size must be 2, 4 or 16, got {size}"
            )
        if self.preamble_frequency in self.frequencies:
            raise ValueError("preamble frequency must not be in the alphabet")
        if self.symbol_duration <= 0 or self.symbol_gap < 0:
            raise ValueError("invalid symbol timing")

    @property
    def bits_per_symbol(self) -> int:
        return (len(self.frequencies) - 1).bit_length()

    @property
    def symbol_period(self) -> float:
        return self.symbol_duration + self.symbol_gap

    @property
    def bits_per_second(self) -> float:
        return self.bits_per_symbol / self.symbol_period

    def frame_airtime(self, payload_len: int) -> float:
        """Seconds of air one frame occupies (preamble + header +
        payload + checksum)."""
        symbols_per_byte = 8 // self.bits_per_symbol
        total_symbols = 1 + symbols_per_byte * (payload_len + 2)
        return total_symbols * self.symbol_period


def _bytes_to_symbols(data: bytes, bits: int) -> list[int]:
    symbols = []
    for byte in data:
        for shift in range(8 - bits, -1, -bits):
            symbols.append((byte >> shift) & ((1 << bits) - 1))
    return symbols


def _symbols_to_bytes(symbols: list[int], bits: int) -> bytes:
    per_byte = 8 // bits
    if len(symbols) % per_byte:
        raise ModemError(
            f"symbol count {len(symbols)} not a multiple of {per_byte}"
        )
    out = bytearray()
    for index in range(0, len(symbols), per_byte):
        value = 0
        for symbol in symbols[index : index + per_byte]:
            value = (value << bits) | symbol
        out.append(value)
    return bytes(out)


def _xor(data: bytes) -> int:
    value = 0
    for byte in data:
        value ^= byte
    return value


class FskTransmitter:
    """Speaker-side half: frames bytes into a tone schedule."""

    MAX_PAYLOAD = 255

    def __init__(self, config: ModemConfig, speaker: Speaker) -> None:
        self.config = config
        self.speaker = speaker

    def send(
        self, channel: AcousticChannel, start_time: float, payload: bytes
    ) -> float:
        """Schedule a frame; returns the time the frame ends on air."""
        if len(payload) > self.MAX_PAYLOAD:
            raise ValueError(f"payload too long ({len(payload)} bytes)")
        config = self.config
        frame = bytes([len(payload)]) + payload + bytes([
            _xor(bytes([len(payload)]) + payload)
        ])
        time = start_time
        self.speaker.play(
            channel, time,
            ToneSpec(config.preamble_frequency, config.symbol_duration,
                     config.level_db),
        )
        time += config.symbol_period
        for symbol in _bytes_to_symbols(frame, config.bits_per_symbol):
            self.speaker.play(
                channel, time,
                ToneSpec(config.frequencies[symbol], config.symbol_duration,
                         config.level_db),
            )
            time += config.symbol_period
        return time


class FskReceiver:
    """Microphone-side half: demodulates one frame from a capture.

    Offline decoder: capture the span covering the frame, then call
    :meth:`decode`.  (An online symbol-clock tracker would belong in a
    streaming receiver; the management-plane use cases here always know
    roughly when a frame was solicited.)
    """

    def __init__(self, config: ModemConfig) -> None:
        self.config = config
        watched = list(config.frequencies) + [config.preamble_frequency]
        self._detector = FrequencyDetector(watched)

    def decode(self, capture: AudioSignal, capture_start: float = 0.0) -> bytes:
        """Demodulate the first frame found in ``capture``.

        Raises :class:`ModemError` if no preamble is found, a symbol is
        unreadable, or the checksum fails.
        """
        preamble_time = self.find_preamble(capture, capture_start)
        if preamble_time is None:
            raise ModemError("no preamble found")
        length = self.read_byte(capture, capture_start, preamble_time, 0)
        frame = bytes([length]) + bytes(
            self.read_byte(capture, capture_start, preamble_time, index)
            for index in range(1, length + 2)  # payload + checksum
        )
        payload, checksum = frame[1:-1], frame[-1]
        if _xor(frame[:-1]) != checksum:
            raise ModemError("checksum mismatch")
        return payload

    def read_slot(
        self, capture: AudioSignal, capture_start: float,
        preamble_time: float, slot_index: int,
    ) -> int:
        """The symbol in slot ``slot_index`` after the preamble (slot 0),
        sampled at the slot's centre; raises :class:`ModemError` when no
        alphabet tone is heard there."""
        config = self.config
        centre = (preamble_time + slot_index * config.symbol_period
                  + config.symbol_duration / 2.0)
        lo = centre - config.symbol_duration / 2.2
        hi = centre + config.symbol_duration / 2.2
        window = capture.slice_time(lo - capture_start, hi - capture_start)
        events = [e for e in self._detector.detect(window)
                  if e.frequency != config.preamble_frequency]
        if not events:
            raise ModemError(f"unreadable symbol in slot {slot_index}")
        strongest = max(events, key=lambda e: e.level_db)
        return config.frequencies.index(strongest.frequency)

    def read_byte(
        self, capture: AudioSignal, capture_start: float,
        preamble_time: float, index: int,
    ) -> int:
        """Frame byte ``index`` after the preamble (0 is the length
        byte), packed from its symbol slots."""
        per_byte = 8 // self.config.bits_per_symbol
        first = 1 + index * per_byte
        symbols = [
            self.read_slot(capture, capture_start, preamble_time, slot)
            for slot in range(first, first + per_byte)
        ]
        return _symbols_to_bytes(symbols, self.config.bits_per_symbol)[0]

    def find_preamble(
        self, capture: AudioSignal, capture_start: float
    ) -> float | None:
        """Scan for the preamble tone; returns its absolute start time."""
        config = self.config
        step = config.symbol_duration / 4.0
        time = capture_start
        end = capture_start + capture.duration
        while time + config.symbol_duration <= end:
            window = capture.slice_time(
                time - capture_start,
                time - capture_start + config.symbol_duration,
            )
            events = self._detector.detect(window)
            if any(e.frequency == config.preamble_frequency for e in events):
                # Refine: back up to where the preamble begins.
                return self._refine_preamble_start(capture, capture_start,
                                                   time)
            time += step
        return None

    def _refine_preamble_start(
        self, capture: AudioSignal, capture_start: float, coarse: float
    ) -> float:
        """Align the symbol clock: slide a window around the coarse hit
        and take the offset where the preamble tone's energy peaks
        (matched-filter style) — that window is centred on the tone."""
        from .goertzel import goertzel_magnitude

        config = self.config
        fine = config.symbol_duration / 32.0
        best_time = coarse
        best_magnitude = -1.0
        time = max(capture_start, coarse - config.symbol_duration)
        stop = coarse + config.symbol_duration
        while time + config.symbol_duration <= capture_start + capture.duration \
                and time <= stop:
            window = capture.slice_time(
                time - capture_start,
                time - capture_start + config.symbol_duration,
            )
            magnitude = goertzel_magnitude(window, config.preamble_frequency)
            if magnitude > best_magnitude:
                best_magnitude = magnitude
                best_time = time
            time += fine
        return best_time


def default_modem_config(
    allocation,
    symbol_duration: float = 0.06,
    min_spacing_hz: float = 40.0,
) -> ModemConfig:
    """Build a 4-FSK config from a frequency-plan allocation.

    Symbols this short need at least ~40 Hz between alphabet tones
    (a 60 ms tone's mainlobe covers a 20 Hz grid slot on each side), so
    the allocation is subsampled to ``min_spacing_hz``: from a 20 Hz
    plan, pass a block of >= 9 slots; from a 40 Hz plan, >= 5.
    The first selected frequency is the preamble, the next four the
    alphabet.
    """
    frequencies = list(allocation.frequencies)
    selected = [frequencies[0]]
    for frequency in frequencies[1:]:
        if frequency - selected[-1] >= min_spacing_hz - 1e-9:
            selected.append(frequency)
        if len(selected) == 5:
            break
    if len(selected) < 5:
        raise ValueError(
            f"allocation spans too few frequencies for a modem at "
            f"{min_spacing_hz} Hz spacing: got {len(selected)}/5 usable "
            f"from {len(frequencies)} slots"
        )
    return ModemConfig(
        frequencies=tuple(selected[1:5]),
        preamble_frequency=selected[0],
        symbol_duration=symbol_duration,
    )
