"""XBASE3 — in-band management vs the acoustic out-of-band channel
(§1 motivation: "data plane or hardware failures could cut off network
management traffic as well").

Shape to hold: when the data plane dies mid-run, in-band heartbeat
delivery collapses while the acoustic heartbeat keeps arriving.
"""

from repro.experiments import inband_vs_oob
from repro.experiments.report import print_tables


def test_xbase3_failure_survival(run_once):
    result = run_once(inband_vs_oob)
    print_tables(*result.tables())
    # In-band: everything after the cut is lost (~60% of the run).
    assert result.inband_delivery_rate < 0.6
    assert result.inband_max_gap > 10.0
    # Acoustic: unaffected.
    assert result.acoustic_survived


def test_xbase3_early_failure(run_once):
    """Failure right at the start: in-band delivers almost nothing."""
    result = run_once(inband_vs_oob, duration=15.0, failure_time=1.0)
    print_tables(*result.tables())
    assert result.inband_delivery_rate < 0.15
    assert result.acoustic_survived
