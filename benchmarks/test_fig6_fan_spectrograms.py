"""FIG6 — fan spectrograms: {datacenter, office} × {fan on, fan off}.

Paper: "Sound waves of a single server are detectable despite the
datacenter noise" — the fan-on panels show the blade-pass harmonics as
bright horizontal lines; the fan-off panels show only ambience.  Shape
to hold: the blade-pass line stands well above the room's floor when
on, and collapses to (or below) the floor when off, in both rooms.
"""

from repro.experiments import fan_spectrogram_panel
from repro.experiments.report import Table, print_tables


def test_fig6a_datacenter_fan_on(run_once):
    panel = run_once(fan_spectrogram_panel, "datacenter", True)
    print_tables(*panel.tables())
    assert panel.line_prominence_db > 15.0


def test_fig6b_datacenter_fan_off(run_once):
    panel = run_once(fan_spectrogram_panel, "datacenter", False)
    print_tables(*panel.tables())
    assert panel.line_prominence_db < 5.0


def test_fig6c_office_fan_on(run_once):
    panel = run_once(fan_spectrogram_panel, "office", True)
    print_tables(*panel.tables())
    assert panel.line_prominence_db > 25.0


def test_fig6d_office_fan_off(run_once):
    panel = run_once(fan_spectrogram_panel, "office", False)
    print_tables(*panel.tables())
    assert panel.line_prominence_db < 5.0


def test_fig6_on_off_contrast_both_rooms(run_once):
    """The on/off line-level gap is large in both rooms (the paper's
    core §7 observation)."""
    def contrast(room):
        on = fan_spectrogram_panel(room, True)
        off = fan_spectrogram_panel(room, False)
        return on.blade_line_level_db - off.blade_line_level_db

    gaps = run_once(lambda: {room: contrast(room)
                             for room in ("datacenter", "office")})
    print_tables(Table("Fig 6: on/off blade-line contrast", [
        (room, f"{gap:.1f} dB") for room, gap in gaps.items()
    ]))
    assert gaps["datacenter"] > 20.0
    assert gaps["office"] > 40.0
