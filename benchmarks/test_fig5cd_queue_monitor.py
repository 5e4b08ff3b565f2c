"""FIG5C/D — queue-size monitoring (Figure 5c queue length, 5d
spectrogram of the 500/600/700 Hz band tones).

Paper: a virtual switch plays 500 Hz below 25 packets, 600 Hz between
25 and 75, 700 Hz above 75, sampled every 300 ms; after the traffic
drains "the queue size gets again lower than 25 packets and the
controller is notified with another sound at a lower frequency
(500 Hz)".  Shape to hold: the heard-band sequence walks up through all
three tones and back down, consistent with the actual queue trace.
"""

import numpy as np

from repro.experiments import queue_monitor_experiment
from repro.experiments.report import Table, print_tables


def test_fig5c_band_sequence(run_once):
    result = run_once(queue_monitor_experiment)
    print_tables(*result.tables())

    bands = result.bands_heard()
    assert bands == ["low", "medium", "high", "medium", "low"]
    assert result.final_band == "low"
    assert result.peak_queue > 75


def test_fig5c_heard_band_matches_true_queue(run_once):
    """Cross-check: at every band transition the controller heard, the
    true queue occupancy was in (or adjacent to) that band."""
    from repro.net import QueueBands

    result = run_once(queue_monitor_experiment)
    bands = QueueBands()
    order = {"low": 0, "medium": 1, "high": 2}
    for time, heard in result.band_history:
        true_length = result.queue_series.value_at(time)
        true_band = bands.classify(int(true_length))
        # The tone encodes the queue at the last 300 ms sample, so
        # allow one band of motion between sample and hearing.
        assert abs(order[heard] - order[true_band]) <= 1


def test_fig5d_spectrogram_contains_three_tones(run_once):
    """The 5d spectrogram contains energy at all three band
    frequencies (mel-normalized in the paper; we check in Hz)."""
    result = run_once(queue_monitor_experiment)
    times, centers, magnitudes = result.spectrogram
    rows = []
    for target in (500.0, 600.0, 700.0):
        band_index = int(np.argmin(np.abs(centers - target)))
        peak = magnitudes[:, band_index].max()
        rows.append((f"{target:.0f} Hz", f"{peak:.5f}"))
        assert peak > 0.001
    print_tables(Table("Fig 5d: per-band peak magnitudes", rows))
