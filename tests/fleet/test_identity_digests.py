"""Pinned fleet identity digests: the determinism contract in numbers.

Every room's counts, delivery and merged metrics snapshot are folded
into one sha256, so any change to the audio pipeline that moves a
single detection (or a single metric bit) anywhere in the fleet fails
here.  A performance rewrite of render, peak picking or detection must
leave these digests exactly as they are.
"""

import hashlib
import json

import pytest

from repro.fleet import FleetSpec, run_fleet


def identity_digest(spec: FleetSpec) -> str:
    report = run_fleet(spec, num_shards=1, backend="serial")
    payload = json.dumps(report.identity_signature(), sort_keys=True,
                         default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize(("spec", "digest"), [
    (FleetSpec(num_rooms=5, switches_per_room=20, seed=0, horizon=1.0),
     "b096a2926e20cd3e4f12a7c091a53ccc3cd2e0d2dc9bdc33ca249c8d8a202164"),
    (FleetSpec(num_rooms=5, switches_per_room=20, seed=1, horizon=1.0),
     "0e90f86f3a07c33fd046b18bd2f42639b49d1fa509854a2d45d5c2b7c661bca2"),
    (FleetSpec(num_rooms=3, switches_per_room=10, seed=1, horizon=1.0,
               backend="goertzel", guard_hz=40.0),
     "26b4455bba46f3a49ca0848175b46075928760edb5d64271e00df3c0815b9db0"),
], ids=["fft-5x20-seed0", "fft-5x20-seed1", "goertzel-3x10-guard40-seed1"])
def test_serial_identity_digest_is_pinned(spec, digest):
    assert identity_digest(spec) == digest
