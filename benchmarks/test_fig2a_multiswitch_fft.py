"""FIG2A — FFT of audio from 5 switches (Figure 2a).

Paper: five switches with disjoint frequency sets play simultaneously;
the FFT shows one identifiable peak per switch.  Shape to hold: all
five switches attributed, at 20 Hz guard spacing, with and without
noise.
"""

from repro.experiments import multiswitch_fft
from repro.experiments.report import print_tables


def test_fig2a_five_switches_identified(run_once):
    result = run_once(multiswitch_fft, num_switches=5)
    print_tables(*result.tables())
    assert result.all_identified
    for name, played in result.played.items():
        assert abs(result.detected[name] - played) < 5.0


def test_fig2a_with_background_noise(run_once):
    """§3: 'We tested our applications with and without background
    noise.  In both cases, we could accurately distinguish the sounds
    from switches.'"""
    result = run_once(multiswitch_fft, num_switches=5, noise_level_db=55.0)
    print_tables(*result.tables())
    assert result.all_identified


def test_fig2a_seven_switch_testbed(run_once):
    """The paper's physical testbed had 7 Zodiac FX switches (§3)."""
    result = run_once(multiswitch_fft, num_switches=7)
    assert result.all_identified
