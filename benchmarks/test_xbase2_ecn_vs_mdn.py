"""XBASE2 — acoustic congestion notification vs ECN (§6 comparator).

Paper: sound-driven congestion control works "without using the less
efficient Explicit Congestion Notification (ECN) mechanism of TCP".
Shape to hold: for the same queue-threshold crossing, the MDN
controller hears the congestion tone no later than the traffic source
receives its first ECN echo — and the acoustic path does not ride the
congested queue.
"""

from repro.experiments import ecn_vs_mdn
from repro.experiments.report import Table, print_tables


def test_xbase2_notification_race(run_once):
    result = run_once(ecn_vs_mdn)
    print_tables(*result.tables())
    assert result.mdn_latency is not None
    assert result.ecn_latency is not None
    # The chirp period bounds the acoustic latency (300 ms + window).
    assert result.mdn_latency < 0.45
    # The tone wins the race on this congested path.
    assert result.mdn_latency <= result.ecn_latency


def test_xbase2_ecn_latency_grows_with_congestion(run_once):
    """ECN's weakness: its signal queues behind the very congestion it
    reports.  Higher offered load -> deeper queue -> slower echo, while
    the chirp latency stays bounded by the 300 ms period."""
    def sweep():
        return {rate: ecn_vs_mdn(source_rate_pps=rate)
                for rate in (350.0, 550.0)}

    results = run_once(sweep)
    rows = [("rate (pps)", "MDN (ms)", "ECN (ms)")]
    for rate, result in results.items():
        rows.append((
            int(rate),
            f"{result.mdn_latency * 1000:.0f}",
            f"{result.ecn_latency * 1000:.0f}",
        ))
    print_tables(Table("XBASE2: latency vs offered load", rows))
    for result in results.values():
        assert result.mdn_latency < 0.45
