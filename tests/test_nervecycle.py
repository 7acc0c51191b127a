"""Quadrilateral nerve-cycle certificates: construction and replay."""

import dataclasses
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import splitmerge
from splitmerge import nervecycle
from splitmerge.characters import Character
from splitmerge.diagrams import parse_diagram
from splitmerge.nervecycle import (
    CertificateError,
    CycleCertificate,
    find_nerve_cycle,
    validate_certificate,
)
from splitmerge.steinfarley import L_value, R_value
from splitmerge.trees import MAX_DEPTH, ParseError


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

    @pytest.mark.parametrize("char", [Character(Fraction(1, 84), 1),
                                      Character(84, 1)])
    def test_vine_past_max_depth_is_refused_before_walking(self, char):
        # entry vine 3 + 252 = 255 carets: trees would nest 257 deep
        with pytest.raises(RuntimeError, match=f"MAX_DEPTH = {MAX_DEPTH}"):
            find_nerve_cycle(char)

    def test_deepest_admitted_vine_parses(self, monkeypatch):
        # 3,251 has entry vine 3 + 251 = 254 carets: trees exactly MAX_DEPTH
        # deep, so the check lets it through to the (here stubbed) walk
        class Walked(Exception):
            pass

        def stop(x, char):
            raise Walked(x.canon)

        monkeypatch.setattr(nervecycle, "_raise_left", stop)
        with pytest.raises(Walked) as info:
            find_nerve_cycle(Character(3, 251))
        assert parse_diagram(str(info.value)).feet == 4

    @pytest.mark.parametrize("char", [
        Character(1, 1), Character(2, 1), Character(1, 5), Character(7, 3),
        Character(Fraction(1, 2), Fraction(1, 3)), Character(1, 40)])
    def test_leg_lengths_follow_entry_vines(self, char):
        # a leg from an entry vine of v carets has 4v + 3 vertices, so the
        # walk needs no step limit: MAX_DEPTH bounds v
        left = 3 + math.ceil(3 * char.b / char.a)
        right = 3 + math.ceil(3 * char.a / char.b)
        cert = find_nerve_cycle(char)
        assert [len(p) for p in cert.paths] == [
            4 * left + 3, 4 * right + 3, 4 * left + 3, 4 * right + 3]

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

    @pytest.mark.parametrize("shape", [
        "three-witnesses", "three-paths", "empty-path", "fifth-empty-path"])
    def test_validator_fails_malformed_shapes(self, shape):
        cert = find_nerve_cycle(Character(1, 1))
        change = {
            "three-witnesses": {"witnesses": cert.witnesses[:3]},
            "three-paths": {"paths": cert.paths[:3]},
            "empty-path": {"paths": ((),) + cert.paths[1:]},
            "fifth-empty-path": {"paths": cert.paths + ((),)},
        }[shape]
        rep = validate_certificate(dataclasses.replace(cert, **change))
        assert not rep["ok"]
        closure = [c for c in rep["checks"] if c["name"] == "paths-close-cycle"]
        assert closure == [{"name": "paths-close-cycle", "ok": False,
                            "detail": ""}]

    @pytest.mark.parametrize("change", [
        {"band": (1, 7)}, {"character": "0,0"}],
        ids=["band-start-1", "zero-character"])
    def test_validator_fails_outside_cover_regime(self, change):
        # the nerve's cover needs band start >= 2 and a, b > 0; a
        # certificate outside that regime fails its nerve-cycle check
        cert = dataclasses.replace(find_nerve_cycle(Character(1, 1)),
                                   **change)
        rep = validate_certificate(cert)
        assert not rep["ok"]
        nerve = [c for c in rep["checks"] if c["name"] == "nerve-cycle"]
        assert len(nerve) == 1 and not nerve[0]["ok"]
        assert "cover labels need" in nerve[0]["detail"]

    @pytest.mark.parametrize("field,text,reason", [
        ("witnesses[0]", "[(*,*]/[*]", "expected ')', found ']'"),
        ("paths[1][2]", "[*]/[", "found end of input")],
        ids=["witness", "path-vertex"])
    def test_validator_names_malformed_diagram_text(self, field, text,
                                                    reason):
        # from_json checks types only, so the text reaches the validator
        wire = _wire()
        if field == "witnesses[0]":
            wire["witnesses"][0] = text
        else:
            wire["paths"][1][2] = text
        cert = CycleCertificate.from_json(wire)
        with pytest.raises(CertificateError) as info:
            validate_certificate(cert)
        assert f"certificate field '{field}' is not a diagram" in str(
            info.value)
        assert reason in str(info.value)
        assert isinstance(info.value.__cause__, ParseError)



def _wire():
    return json.loads(json.dumps(find_nerve_cycle(Character(1, 1)).to_json()))


# (case id, edit of a valid certificate's JSON form, field the error names)
MALFORMED = [
    ("empty", lambda j: {}, "character"),
    ("not-an-object", lambda j: [j], "character"),
    ("null", lambda j: None, "character"),
    ("character-int", lambda j: {"character": 5}, "character"),
    ("character-text", lambda j: {"character": "1,1", "witnesses": 3},
     "character"),
    ("character-bad-fraction",
     lambda j: {**j, "character": {"a": "x", "b": "1"}}, "character"),
    ("character-zero-denominator",
     lambda j: {**j, "character": {"a": "1/0", "b": "1"}}, "character"),
    ("no-witnesses", lambda j: {k: v for k, v in j.items()
                                if k != "witnesses"}, "witnesses"),
    ("witnesses-int", lambda j: {**j, "witnesses": 3}, "witnesses"),
    ("witnesses-text", lambda j: {**j, "witnesses": "abcd"}, "witnesses"),
    ("witness-int", lambda j: {**j, "witnesses": [1, 2, 3, 4]}, "witnesses"),
    ("paths-flat", lambda j: {**j, "paths": j["witnesses"]}, "paths"),
    ("path-vertex-int", lambda j: {**j, "paths": [[1]]}, "paths"),
    ("labels-int", lambda j: {**j, "labels": [3]}, "labels"),
    ("label-no-value", lambda j: {**j, "labels": [{"side": "L"}]}, "labels"),
    ("label-float", lambda j: {**j, "labels": [{"side": "L", "value": 2.5}]},
     "labels"),
    ("label-side-int", lambda j: {**j, "labels": [{"side": 1, "value": 2}]},
     "labels"),
    ("no-band", lambda j: {k: v for k, v in j.items() if k != "band"},
     "band"),
    ("band-short", lambda j: {**j, "band": [4]}, "band"),
    ("band-long", lambda j: {**j, "band": [4, 7, 9]}, "band"),
    ("band-text", lambda j: {**j, "band": "4,7"}, "band"),
    ("band-bool", lambda j: {**j, "band": [True, 7]}, "band"),
]


class TestFromJson:
    def test_valid_round_trip(self):
        wire = _wire()
        cert = CycleCertificate.from_json(wire)
        assert cert == find_nerve_cycle(Character(1, 1))
        assert cert.to_json() == wire
        assert validate_certificate(cert)["ok"]

    @pytest.mark.parametrize("case,edit,field", MALFORMED,
                             ids=[case for case, _, _ in MALFORMED])
    def test_malformed_raises_certificate_error(self, case, edit, field):
        with pytest.raises(CertificateError,
                           match=f"certificate field '{field}'"):
            CycleCertificate.from_json(edit(_wire()))

    def test_certificate_error_is_a_value_error(self):
        assert issubclass(CertificateError, ValueError)


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
