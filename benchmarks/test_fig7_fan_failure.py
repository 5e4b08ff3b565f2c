"""FIG7 — amplitude-difference fan failure detection.

Paper: "The difference in amplitude for certain frequencies is
considerably larger when comparing two audio signals of the fan on and
off (blue continuous line in Figure 7) than when comparing two samples
of a functioning fan (red dashed line)."  Shape to hold: the on↔off
score exceeds the on↔on score by a wide margin in both rooms, the
threshold separates them, and the alert fires shortly after the
failure (bounded by the spin-down transient).
"""

from repro.experiments import fan_failure_experiment
from repro.experiments.report import Table, print_tables


def test_fig7a_datacenter(run_once):
    result = run_once(fan_failure_experiment, room="datacenter")
    print_tables(*result.tables())
    assert result.detected
    assert result.separation_ratio > 2.0
    assert result.detection_time - result.failure_time < 3.0


def test_fig7b_office(run_once):
    result = run_once(fan_failure_experiment, room="office")
    print_tables(*result.tables())
    assert result.detected
    assert result.separation_ratio > 5.0
    assert result.detection_time - result.failure_time < 3.0


def test_fig7_score_timeline(run_once):
    """The full Figure 7 curve: scores flat before the failure, then a
    sustained jump (not a single spike)."""
    result = run_once(fan_failure_experiment, room="office", duration=16.0,
                      failure_time=8.0)
    print_tables(*result.tables())
    post_failure = result.scores.window(result.failure_time + 2.5, 16.0)
    assert all(score > result.threshold for score in post_failure.values)


def test_fig7_no_false_alarm_on_healthy_server(run_once):
    """A healthy run never alerts in either room."""
    from repro.core.apps import FanWatchdog
    from repro.fans import datacenter_scene, office_scene

    def run():
        alarms = {}
        for name, scene_fn in (("datacenter", datacenter_scene),
                               ("office", office_scene)):
            scene = scene_fn(duration=12.0)
            watchdog = FanWatchdog(scene.channel, scene.microphone)
            watchdog.run(0.0, 12.0)
            alarms[name] = len(watchdog.alerts)
        return alarms

    alarms = run_once(run)
    print_tables(Table("Fig 7 control: healthy server",
                       list(alarms.items())))
    assert alarms == {"datacenter": 0, "office": 0}
