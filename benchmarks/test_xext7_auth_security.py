"""XEXT7 — brute-force resistance of melody authentication.

Section 4 offers sound sequences as an "(additional) out-of-band
authentication mechanism".  How strong is it?  This benchmark throws a
random-knock attacker at both the plain sequence FSM and the
rhythm-enforcing melody authenticator and counts accidental opens.
"""

import numpy as np
from repro.core import sequence_machine
from repro.core.apps.melody_auth import Melody, MelodyAuthenticator
from repro.experiments.report import Table, print_tables
from repro.experiments.rigs import build_testbed


def test_xext7_random_attacker_state_space(run_once):
    """Pure FSM math first: a uniform random attacker over K symbols
    needs ~K^N guesses against an N-knock secret.  Measured accidental
    acceptance over bounded attempts matches the expectation's order of
    magnitude."""
    def run():
        rng = np.random.default_rng(7)
        alphabet, secret = 4, [0, 2, 1]
        opens = 0
        trials = 400
        knocks_per_trial = 30
        for _ in range(trials):
            machine = sequence_machine(secret)
            for _ in range(knocks_per_trial):
                machine.feed(int(rng.integers(alphabet)))
                if machine.accepted:
                    opens += 1
                    break
        return opens, trials, knocks_per_trial, alphabet, len(secret)

    opens, trials, knocks, alphabet, depth = run_once(run)
    # Expected accidental opens: roughly knocks / alphabet^depth per
    # trial (a fresh chance at each position).
    expected_rate = knocks / alphabet ** depth
    print_tables(Table(
        "XEXT7: random knocker vs 3-note secret (4-symbol alphabet)", [
            ("trials x knocks", f"{trials} x {knocks}"),
            ("accidental opens", opens),
            ("open rate / trial", f"{opens / trials:.3f}"),
            ("expected order", f"~{expected_rate:.3f}"),
        ]))
    assert opens / trials < 4 * expected_rate + 0.05


def test_xext7_rhythm_requirement_blocks_slow_attacks(run_once):
    """End to end on the air: an attacker spraying one random note per
    3 s can never satisfy a 1.5 s max-gap melody, no matter how long it
    tries — each note times the machine out before the next lands."""
    def run():
        testbed = build_testbed("single")
        allocation = testbed.plan.allocate("s1", 4)
        melody = Melody(notes=(0, 2, 1), allocation=allocation, max_gap=1.5)
        auth = MelodyAuthenticator(testbed.controller, melody)
        testbed.controller.start()
        rng = np.random.default_rng(3)
        agent = testbed.agents["s1"]
        for step in range(30):  # 90 s of slow spraying
            note = int(rng.integers(0, 3))
            testbed.sim.schedule_at(
                1.0 + step * 3.0,
                lambda n=note: agent.play(melody.frequency_of(n), 0.12, 70.0),
            )
        testbed.sim.run(95.0)
        return auth

    auth = run_once(run)
    print_tables(Table("XEXT7: slow sprayer vs rhythm-enforced melody", [
        ("notes sprayed", len(auth.attempt_log)),
        ("timeouts forced", auth.timeouts),
        ("accepted", auth.accepted),
    ]))
    assert not auth.accepted
    assert auth.timeouts >= 25  # nearly every note reset the attempt
