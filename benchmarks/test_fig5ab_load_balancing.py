"""FIG5A/B — music-defined load balancing on the rhombus (Figure 5a
queue evolution, 5b chirp spectrogram).

Paper: ramping source over the single (top) path; switches chirp their
queue band every 300 ms; on the congestion tone the controller installs
a Flow-MOD splitting traffic over both routes (in the paper's run at
t = 3.7 s).  Shape to hold: queue builds past the 75-packet threshold,
the split lands within one chirp period + control latency, the queue
drains, and traffic flows on both paths afterwards.
"""

from repro.experiments import load_balancing_experiment
from repro.experiments.report import Table, print_tables


def test_fig5a_queue_builds_then_drains(run_once):
    result = run_once(load_balancing_experiment)
    print_tables(*result.tables())

    assert result.rebalanced
    assert result.peak_queue_before_split > 75
    assert result.final_queue < 25
    assert result.bottom_path_packets > 0


def test_fig5a_reaction_latency_bounded(run_once):
    """The split must land within one chirp period (300 ms) plus one
    listen window plus control latency of the queue first crossing the
    high threshold."""
    result = run_once(load_balancing_experiment)
    crossing = next(
        time for time, length in zip(result.queue_series.times,
                                     result.queue_series.values)
        if length > 75
    )
    latency = result.split_time - crossing
    print_tables(Table("Fig 5a: reaction latency", [
        ("threshold crossed", f"{crossing:.2f} s"),
        ("split installed", f"{result.split_time:.2f} s"),
        ("latency", f"{latency:.3f} s"),
    ]))
    assert latency < 0.5


def test_fig5b_congestion_tone_in_spectrogram(run_once):
    """The spectrogram around the split contains the high-band chirp
    (the vertical-line moment of Figure 5b)."""
    result = run_once(load_balancing_experiment)
    high_band_tones = [entry for entry in result.tone_log
                       if entry[2] == "high"]
    print_tables(Table("Fig 5b: band tones heard", [
        ("total tones", len(result.tone_log)),
        ("high-band tones", len(high_band_tones)),
        ("first high tone", f"{high_band_tones[0][0]:.2f} s"
         if high_band_tones else "none"),
    ]))
    assert high_band_tones
    assert high_band_tones[0][0] <= result.split_time
