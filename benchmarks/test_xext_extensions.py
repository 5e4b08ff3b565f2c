"""XEXT — the paper's open problems, implemented and measured.

* XEXT1: multi-hop sound relay (§8 open question).
* XEXT2: DDoS / k-superspreader detection via chords (§5 open problem).
* XEXT3: ultrasound band extension (§8 research direction).
* XEXT4: acoustic data modem (§2's data-plane context).
"""

from repro.experiments import (
    modem_experiment,
    relay_experiment,
    superspreader_experiment,
    ultrasound_experiment,
)
from repro.experiments.report import Table, print_tables


class TestXext1Relay:
    def test_two_relay_chain(self, run_once):
        result = run_once(relay_experiment, num_relays=2)
        print_tables(*result.tables())
        assert not result.direct_heard  # single hop genuinely fails here
        assert result.relayed_heard
        # Each hop adds at most one listen window + tone duration.
        assert result.end_to_end_latency < 1.0

    def test_latency_scales_with_hops(self, run_once):
        results = run_once(lambda: [relay_experiment(num_relays=n)
                                    for n in (1, 2, 3)])
        rows = [("relays", "distance (m)", "latency (s)")]
        for result in results:
            rows.append((result.num_hops - 1, result.source_to_listener_m,
                         f"{result.end_to_end_latency:.2f}"))
        print_tables(Table("XEXT1: latency vs chain length", rows))
        latencies = [result.end_to_end_latency for result in results]
        assert all(result.relayed_heard for result in results)
        assert latencies == sorted(latencies)


class TestXext2Superspreader:
    def test_superspreader_detected(self, run_once):
        result = run_once(superspreader_experiment, mode="superspreader")
        print_tables(*result.tables())
        assert result.attack_detected
        assert result.attacker_flagged
        assert result.detection_interval <= 2.0

    def test_ddos_victim_detected(self, run_once):
        result = run_once(superspreader_experiment, mode="ddos")
        print_tables(*result.tables())
        assert result.attack_detected
        assert result.attacker_flagged


class TestXext3Ultrasound:
    def test_capacity_doubles(self, run_once):
        result = run_once(ultrasound_experiment)
        print_tables(*result.tables())
        assert result.extended_capacity == 2 * result.audible_capacity
        assert result.ultrasound_tone_detected


class TestXext4Modem:
    def test_management_alert_over_sound(self, run_once):
        result = run_once(modem_experiment)
        print_tables(*result.tables())
        assert result.decoded_ok
        assert result.decoded_ok_with_song
        # Same order of magnitude as the cited literature.
        assert 5.0 < result.effective_bits_per_second < 100.0
