"""FIG4A/B — acoustic heavy-hitter detection (Figure 4a clean, 4b with
Sia's *Cheap Thrills* as background noise — here the SongNoise
substitute, see DESIGN.md).

Shape to hold: the heavy flow's bucket rings above the per-interval
threshold in both conditions; mouse buckets never do.
"""

from repro.experiments import heavy_hitter_experiment
from repro.experiments.report import Table, print_tables


def test_fig4a_clean(run_once):
    result = run_once(heavy_hitter_experiment, with_song=False)
    print_tables(*result.tables())
    assert result.heavy_detected
    assert not result.false_positive_frequencies
    # Detection latency: flagged within the first two intervals.
    assert result.alerts[0].interval_start <= 2.0


def test_fig4b_with_song(run_once):
    result = run_once(heavy_hitter_experiment, with_song=True)
    print_tables(*result.tables())
    assert result.heavy_detected
    assert not result.false_positive_frequencies


def test_fig4ab_multiple_heavies(run_once):
    """Beyond the paper: two simultaneous heavy flows, both flagged."""
    from repro.experiments.fig4 import LINK_CAPACITY_PPS
    from repro.experiments.rigs import build_testbed
    from repro.core.apps import (
        FlowToneMapper, HeavyHitterDetectorApp, HeavyHitterEmitter,
    )
    from repro.net import FlowMixWorkload

    def run():
        testbed = build_testbed("single")
        mapper = FlowToneMapper(testbed.plan.allocate("s1", 16))
        HeavyHitterEmitter(testbed.topo.switches["s1"],
                           testbed.agents["s1"], mapper)
        app = HeavyHitterDetectorApp(testbed.controller, mapper)
        testbed.controller.start()
        mix = FlowMixWorkload(
            testbed.topo.hosts["h1"], testbed.topo.hosts["h2"].ip,
            link_capacity_pps=LINK_CAPACITY_PPS, num_flows=10, num_heavy=2,
            heavy_fraction=0.25, seed=5,
        )
        mix.launch()
        testbed.sim.run(8.0)
        return mix, mapper, app

    mix, mapper, app = run_once(run)
    flagged = app.heavy_frequencies()
    expected = {mapper.frequency_of(flow) for flow in mix.heavy_flows}
    print_tables(Table("Fig 4a/b extension: two heavy flows", [
        ("expected buckets", sorted(expected)),
        ("flagged buckets", sorted(flagged)),
    ]))
    assert expected <= flagged
