"""FIG2B — CDF of FFT processing time (Figure 2b).

Paper: ~50 ms audio samples; "approximately 90% of our samples were
processed in 0.35 ms or less."  Shape to hold: sub-millisecond p90 on
commodity hardware (our absolute numbers come from this machine and
are recorded in EXPERIMENTS.md).
"""

from repro.experiments import fft_latency_cdf
from repro.experiments.report import print_tables


def test_fig2b_processing_time_cdf(run_once):
    result = run_once(fft_latency_cdf, num_samples=1000)
    print_tables(*result.tables())
    # Paper's headline: 90% of samples <= 0.35 ms.  Allow headroom for
    # slow CI machines while still asserting sub-millisecond shape.
    assert result.percentile_ms(90) < 1.0
    assert result.percentile_ms(50) < 0.5


def test_fig2b_throughput_benchmark(benchmark):
    """Raw per-window analysis throughput (a true pytest-benchmark
    measurement: many rounds)."""
    from repro.audio import SpectrumAnalyzer, sine_tone

    analyzer = SpectrumAnalyzer()
    window = sine_tone(1000.0, 0.05, 65.0)
    spectrum = benchmark(analyzer.analyze, window)
    assert spectrum.level_at(1000.0) > 55.0
