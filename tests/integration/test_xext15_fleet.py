"""XEXT15 smoke: the fleet scaling experiment end to end.

Runs the same shrunken configuration CI runs (``--smoke``): the whole
parallel path — fork, pickle, merged registries, identity check —
plus the BENCH_fleet.json artifact schema.
"""

import json

import pytest

from repro.experiments import fleet_experiment


@pytest.fixture(scope="module")
def result():
    return fleet_experiment(smoke=True)


def test_every_point_is_identical_to_the_serial_reference(result):
    assert result.points  # serial + at least one process point
    backends = {point.backend for point in result.points}
    assert backends == {"serial", "process"}
    assert all(point.identical for point in result.points)
    assert all(point.failures == 0 for point in result.points)


def test_two_serial_runs_agree(result):
    assert result.determinism_ok


def test_the_fleet_actually_delivered(result):
    assert result.emissions > 0
    assert 0.9 <= result.delivery_ratio <= 1.0
    assert result.delivered <= result.emissions


def test_real_time_factor_is_positive_everywhere(result):
    assert all(point.real_time_factor > 0.0 for point in result.points)
    assert result.best_speedup > 0.0


def test_bench_artifact_schema(result, tmp_path):
    path = result.export(tmp_path / "BENCH_fleet.json")
    payload = json.loads(path.read_text())
    for key in ("num_rooms", "switches_per_room", "num_switches",
                "horizon", "nominal_emissions_per_second", "cpu_count",
                "emissions", "delivered", "delivery_ratio",
                "serial_wall_s", "determinism_ok", "points",
                "best_speedup"):
        assert key in payload, key
    assert payload["cpu_count"] >= 1  # the honesty anchor for speedup
    point = payload["points"][0]
    for key in ("num_shards", "backend", "workers", "wall_s", "speedup",
                "real_time_factor", "identical", "failures"):
        assert key in point, key


def test_the_serial_baseline_is_not_the_cold_first_run(monkeypatch):
    """Every speedup divides by the 1-shard serial wall time, so that
    run must come after the determinism witness, not first and cold."""
    from repro.experiments import xext15

    calls = []
    real_run_fleet = xext15.run_fleet

    def recording_run_fleet(spec, **kwargs):
        calls.append((kwargs["num_shards"], kwargs["backend"]))
        return real_run_fleet(spec, **kwargs)

    monkeypatch.setattr(xext15, "run_fleet", recording_run_fleet)
    # More shards than the smoke fleet's 6 rooms: no process points.
    xext15.fleet_experiment(smoke=True, shard_counts=(7,))
    assert calls == [(2, "serial"), (1, "serial")]
