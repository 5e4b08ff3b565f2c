"""FIG4C/D — acoustic port-scan detection (Figure 4c clean, 4d with the
song interferer).

Shape to hold: the sequential scan shows as a monotonically rising
dominant-frequency track on the mel spectrogram (the paper's "clear
logarithmic line"), the distinct-port rule fires, and both hold under
the song.
"""

import numpy as np

from repro.experiments import port_scan_experiment
from repro.experiments.report import Table, print_tables


def test_fig4c_clean(run_once):
    result = run_once(port_scan_experiment, with_song=False)
    print_tables(*result.tables())
    assert result.scan_detected
    assert result.ports_heard == sorted(result.ports_heard)
    assert len(result.ports_heard) >= 18  # near-total port coverage


def test_fig4c_spectrogram_line_rises(run_once):
    """The sweep: dominant frequency across active scan frames rises
    monotonically (the mel axis is what makes it 'logarithmic')."""
    result = run_once(port_scan_experiment, with_song=False)
    times, centers, magnitudes = result.spectrogram
    frame_peak = magnitudes.max(axis=1)
    active = frame_peak > frame_peak.max() * 0.2
    track = result.dominant_track_hz[active]
    rises = np.sum(np.diff(track) > 0)
    falls = np.sum(np.diff(track) < 0)
    print_tables(Table("Fig 4c: track monotonicity", [
        ("active frames", int(active.sum())),
        ("rising steps", int(rises)),
        ("falling steps", int(falls)),
    ]))
    assert rises >= 10
    assert falls <= 2  # allow boundary jitter


def test_fig4d_with_song(run_once):
    result = run_once(port_scan_experiment, with_song=True)
    print_tables(*result.tables())
    assert result.scan_detected
    assert len(result.ports_heard) >= 15
