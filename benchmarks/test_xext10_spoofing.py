"""XEXT10 — acoustic insecurity (§2), attacked and defended.

The paper's related-work section catalogs sound-injection attacks; MDN
itself is a target.  This benchmark measures (a) how completely a
rogue speaker controls the *plain* protocol, and (b) the rolling-code
defense's rejection rate against spoof, replay and wrong-key forgery,
while legitimate chirps keep flowing.
"""

from repro.audio import Position, Speaker, ToneSpec
from repro.core.apps import BandToneMap, QueueChirper, QueueMonitorApp
from repro.core.apps.secure_chirp import (
    RollingCode,
    SecureQueueChirper,
    SecureQueueMonitorApp,
)
from repro.experiments.report import Table, print_tables
from repro.experiments.rigs import build_testbed

KEY = b"shared-secret"


def build_secure(key=KEY):
    """A secured queue-monitoring rig (mirrors the integration tests)."""
    testbed = build_testbed("single")
    port = testbed.topo.port_towards("s1", "h2")
    tones = BandToneMap.from_frequencies(
        testbed.plan.allocate("s1/bands", 3).frequencies
    )
    code_block = testbed.plan.allocate("s1/code", 16)
    code_agent = testbed.extra_agent("s1-code", Position(0.0, -0.9, 0.0))
    chirper = SecureQueueChirper(
        testbed.sim, testbed.topo.switches["s1"], port,
        testbed.agents["s1"], code_agent, tones,
        RollingCode(key, code_block),
    )
    app = SecureQueueMonitorApp(
        testbed.controller, "s1", tones, RollingCode(key, code_block)
    )
    testbed.controller.start()
    return testbed, tones, code_block, chirper, app


def test_xext10_plain_protocol_fully_spoofable(run_once):
    def run():
        testbed = build_testbed("single")
        port = testbed.topo.port_towards("s1", "h2")
        tones = BandToneMap(500.0, 600.0, 700.0)
        QueueChirper(testbed.sim, testbed.topo.switches["s1"], port,
                     testbed.agents["s1"], tones)
        app = QueueMonitorApp(testbed.controller, "s1", tones)
        testbed.controller.start()
        attacker = Speaker(Position(1.5, 1.5, 0.0))
        injections = 5
        for index in range(injections):
            testbed.sim.schedule_at(
                1.05 + index * 1.0,
                lambda: attacker.play(testbed.channel, testbed.sim.now,
                                      ToneSpec(700.0, 0.2, 75.0)),
            )
        testbed.sim.run(8.0)
        fake_highs = sum(1 for _t, band in app.band_history
                         if band == "high")
        return injections, fake_highs

    injections, fake_highs = run_once(run)
    print_tables(Table("XEXT10: spoofing the plain chirp protocol", [
        ("injected fake congestion tones", injections),
        ("believed by the controller", fake_highs),
    ]))
    assert fake_highs >= injections - 1  # essentially every one lands


def test_xext10_rolling_code_rejects_attacks(run_once):
    def run():
        testbed, tones, code_block, chirper, app = build_secure()
        attacker = Speaker(Position(1.5, 1.5, 0.0))
        stale_code = RollingCode(KEY, code_block).current_frequency("high")
        wrong_key = RollingCode(b"guess", code_block)

        def bare_spoof() -> None:
            attacker.play(testbed.channel, testbed.sim.now,
                          ToneSpec(tones.high, 0.2, 75.0))

        def replay() -> None:
            now = testbed.sim.now
            attacker.play(testbed.channel, now,
                          ToneSpec(tones.high, 0.2, 75.0))
            attacker.play(testbed.channel, now,
                          ToneSpec(stale_code, 0.2, 75.0))

        def forge() -> None:
            now = testbed.sim.now
            attacker.play(testbed.channel, now,
                          ToneSpec(tones.high, 0.2, 75.0))
            attacker.play(testbed.channel, now,
                          ToneSpec(wrong_key.current_frequency("high"), 0.2, 75.0))
            wrong_key.advance()

        for index, attack in enumerate([bare_spoof, replay, forge] * 2):
            testbed.sim.schedule_at(2.05 + index * 0.7, attack)
        testbed.sim.run(8.0)
        believed_high = sum(1 for _t, band in app.band_history
                            if band == "high")
        return believed_high, app.rejected_spoofs

    believed_high, rejected = run_once(run)
    # Per-attempt forgery probability = lookahead / |code block| = 2/16.
    print_tables(Table("XEXT10: rolling-code defense vs 6 attacks "
                       "(bare spoof / replay / wrong key, x2; "
                       "per-attempt guess probability 2/16)", [
        ("fake congestion events believed", believed_high),
        ("spoofed tones rejected", rejected),
    ]))
    # Expected believed over 6 attempts: 6 * 2/16 = 0.75; this seeded
    # run must stay within the honest bound (and usually hits zero).
    assert believed_high <= 1
    assert rejected >= 5
