"""FIG3 — port knocking (Figure 3a bytes sent/received, 3b spectrogram).

Paper: sender transmits to a closed port for ~34 s; after the third
correctly-ordered knock tone the controller installs the opening flow
entry and received bytes start tracking sent bytes.  Shape to hold:
received == 0 before the third knock; received grows at the send rate
afterwards; the wrong order never opens.
"""

import numpy as np

from repro.experiments import port_knocking_experiment
from repro.experiments.report import Table, print_tables


def test_fig3_bytes_sent_received(run_once):
    result = run_once(port_knocking_experiment)
    print_tables(*result.tables())

    assert result.opened
    # Nothing delivered before the port opened.
    assert result.received_bytes.value_at(result.opened_at - 0.6) == 0.0
    # Delivery tracks sending afterwards (same slope, lag < 1 sample).
    final_sent = result.sent_bytes.final()
    final_received = result.received_bytes.final()
    dropped_window = result.opened_at  # everything before open was dropped
    expected_delivered = final_sent * (1 - dropped_window / 34.0)
    assert final_received >= 0.85 * expected_delivered
    # Three knocks heard in the configured order.
    assert result.knock_ports_heard == [7001, 7002, 7003]


def test_fig3b_knock_spectrogram_shows_three_tones(run_once):
    result = run_once(port_knocking_experiment)
    times, centers, magnitudes = result.spectrogram
    # Count frames whose dominant band is strong: the three knocks
    # appear as three disjoint bursts.
    frame_peak = magnitudes.max(axis=1)
    threshold = frame_peak.max() * 0.25
    active = frame_peak > threshold
    bursts = int(np.sum(np.diff(active.astype(int)) == 1))
    bursts += int(active[0])
    print_tables(Table("Fig 3b: knock bursts on the spectrogram",
                       [("bursts", bursts)]))
    assert bursts == 3


def test_fig3_wrong_order_stays_closed(run_once):
    result = run_once(port_knocking_experiment, correct_order=False)
    print_tables(*result.tables())
    assert not result.opened
    assert result.received_bytes.final() == 0.0
