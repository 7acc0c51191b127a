"""Quadrilateral nerve-cycle certificates: construction and replay."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import splitmerge
from splitmerge.characters import Character
from splitmerge.diagrams import parse_diagram
from splitmerge.nervecycle import (
    CycleCertificate,
    find_nerve_cycle,
    validate_certificate,
)
from splitmerge.steinfarley import L_value, R_value


class TestFind:
    def test_unit_weights(self):
        cert = find_nerve_cycle(Character(1, 1))
        rep = validate_certificate(cert)
        assert rep["ok"], rep["checks"]
        assert len(cert.witnesses) == 4
        assert len(cert.paths) == 4

    def test_labels_alternate_sides(self):
        cert = find_nerve_cycle(Character(1, 1))
        sides = [side for side, _ in cert.labels]
        assert sides == ["R", "L", "R", "L"]
        assert len(set(cert.labels)) == 4

    def test_witness_depths(self):
        cert = find_nerve_cycle(Character(1, 1))
        got = [
            (L_value(parse_diagram(w)), R_value(parse_diagram(w)))
            for w in cert.witnesses
        ]
        assert got == [(2, 2), (3, 2), (3, 3), (2, 3)]

    def test_asymmetric_weights(self):
        cert = find_nerve_cycle(Character(2, 1))
        assert validate_certificate(cert)["ok"]

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            find_nerve_cycle(Character(-1, 1))
        with pytest.raises(ValueError):
            find_nerve_cycle(Character(0, 1))

    def test_rejects_too_narrow_band(self):
        with pytest.raises(ValueError):
            find_nerve_cycle(Character(1, 1), band=(4, 6))

    def test_paths_stay_in_band(self):
        cert = find_nerve_cycle(Character(1, 1))
        for path in cert.paths:
            for s in path:
                d = parse_diagram(s)
                assert 4 <= d.feet <= 7


class TestCertificateValue:
    def test_json_roundtrip(self):
        cert = find_nerve_cycle(Character(1, 1))
        wire = json.dumps(cert.to_json())
        back = CycleCertificate.from_json(json.loads(wire))
        assert back == cert
        assert validate_certificate(back)["ok"]

    def test_json_shape(self):
        cert = find_nerve_cycle(Character(1, 1))
        j = cert.to_json()
        assert j["character"] == {"a": "1", "b": "1"}
        assert j["band"] == [4, 7]
        assert len(j["witnesses"]) == 4

    def test_validator_reports_checks(self):
        rep = validate_certificate(find_nerve_cycle(Character(1, 1)))
        names = {c["name"] for c in rep["checks"]}
        assert "nerve-cycle" in names
        assert all(c["ok"] for c in rep["checks"])

    def test_validator_catches_corruption(self):
        cert = find_nerve_cycle(Character(1, 1))
        # swap two witnesses so the paths no longer close a cycle
        broken = CycleCertificate(
            witnesses=(cert.witnesses[1], cert.witnesses[0]) + cert.witnesses[2:],
            paths=cert.paths,
            labels=cert.labels,
            character=cert.character,
            band=cert.band,
        )
        rep = validate_certificate(broken)
        assert not rep["ok"]

    def test_validator_catches_label_lie(self):
        cert = find_nerve_cycle(Character(1, 1))
        broken = CycleCertificate(
            witnesses=cert.witnesses,
            paths=cert.paths,
            labels=(cert.labels[2], cert.labels[1], cert.labels[0], cert.labels[3]),
            character=cert.character,
            band=cert.band,
        )
        rep = validate_certificate(broken)
        assert not rep["ok"]


FORCED_FAILURE = """
import splitmerge.nervecycle as nc
from splitmerge.characters import Character

nc.chi = lambda char, d: -1  # every walk step now breaks the floor
try:
    nc.find_nerve_cycle(Character(1, 1))
except RuntimeError as exc:
    print(exc)
"""


def test_walk_invariants_survive_optimize_flag():
    src = str(Path(splitmerge.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FORCED_FAILURE],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": src, "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    assert "walk invariant failed: character went negative" in proc.stdout
