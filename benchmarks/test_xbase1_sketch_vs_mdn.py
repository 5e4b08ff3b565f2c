"""XBASE1 — count-min sketch vs MDN tone counting (§5 comparator).

The paper positions Music-Defined Telemetry against "sampling or
sketching techniques".  Shape to hold: both detectors agree on the
heavy flow over the same workload, and neither flags mice.
"""

from repro.experiments import sketch_vs_mdn
from repro.experiments.report import Table, print_tables


def test_xbase1_agreement(run_once):
    result = run_once(sketch_vs_mdn)
    print_tables(*result.tables())
    assert result.agree_on_heavy
    assert result.mdn_false_positive_buckets == 0
    assert result.sketch_false_positive_flows == 0


def test_xbase1_agreement_across_seeds(run_once):
    """Same conclusion across several workload seeds."""
    def sweep():
        return [sketch_vs_mdn(seed=seed) for seed in (3, 11, 29)]

    results = run_once(sweep)
    rows = [("seed run", "MDN", "sketch")]
    for index, result in enumerate(results):
        rows.append((index, result.mdn_detected, result.sketch_detected))
    print_tables(Table("XBASE1: agreement across seeds", rows))
    assert all(result.agree_on_heavy for result in results)
