"""XEXT11 — acoustic source localization: "which rack is beeping?"

§7's footnote ("we heard a misconfigured server beeping for weeks") and
§8's microphone arrays combine into a localization service: TDOA of a
beep across array stations pins the emitter to a rack.  This benchmark
measures localization error across source positions and under
interference.
"""

from repro.audio import AcousticChannel, Microphone, Position, Speaker, ToneSpec
from repro.core import TdoaLocalizer
from repro.experiments.report import Table, print_tables
from repro.fans import Server

STATIONS = {
    "nw": Position(0.0, 10.0, 0.0),
    "ne": Position(12.0, 10.0, 0.0),
    "s": Position(6.0, -2.0, 0.0),
    "w": Position(-2.0, 0.0, 0.0),
}


def build_array(seed=1):
    return {
        name: Microphone(position, seed=seed + index)
        for index, (name, position) in enumerate(sorted(STATIONS.items()))
    }


def test_xext11_position_sweep(run_once):
    def run():
        errors = []
        for x, y in ((6.0, 3.0), (1.0, 8.0), (10.0, 0.5), (4.0, 6.0),
                     (11.0, 9.0)):
            true_position = Position(x, y, 0.0)
            channel = AcousticChannel()
            Speaker(true_position).play(channel, 1.0,
                                        ToneSpec(2500, 0.5, 70.0))
            result = TdoaLocalizer(build_array()).locate(channel, 1.0, 1.6)
            errors.append(((x, y), result.position.distance_to(true_position)))
        return errors

    errors = run_once(run)
    rows = [("true position", "error (m)")]
    for position, error in errors:
        rows.append((position, f"{error:.2f}"))
    print_tables(Table("XEXT11: localization error across source positions "
                       "(12 x 12 m room, 4 stations)", rows))
    assert all(error < 0.5 for _position, error in errors)


def test_xext11_beeping_server_despite_roaring_neighbour(run_once):
    def run():
        channel = AcousticChannel()
        bystander = Server("healthy")
        bystander.position = Position(2.0, 8.0, 0.0)
        bystander.attach_to_channel(channel, 3.0)
        culprit = Position(9.0, 2.0, 0.0)
        Speaker(culprit).play(channel, 1.0, ToneSpec(4000, 0.4, 75.0))
        result = TdoaLocalizer(build_array()).locate(
            channel, 1.0, 1.5, band=(3700.0, 4300.0)
        )
        return culprit, result

    culprit, result = run_once(run)
    print_tables(Table("XEXT11: beeping server next to a roaring neighbour", [
        ("true rack", f"({culprit.x:.0f}, {culprit.y:.0f})"),
        ("estimated", f"({result.position.x:.1f}, {result.position.y:.1f})"),
        ("error", f"{result.position.distance_to(culprit):.2f} m"),
        ("stations gated out", result.excluded),
    ]))
    assert result.position.distance_to(culprit) < 1.5
    assert "nw" in result.excluded
