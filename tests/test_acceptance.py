"""Acceptance gate: every verification claim at its shipped parameters.

Each test runs one registered claim end to end and prints a single
PASS/FAIL line (visible under pytest -s or in the failure report).
"""

import functools

import pytest

from splitmerge.verify import RUNNERS, run_claim

CLAIMS = list(RUNNERS)


@functools.lru_cache(maxsize=None)
def _report(claim):
    # each claim runs once per test run; the provenance checks reuse it
    return run_claim(claim)


def _run(claim):
    report = _report(claim)
    verdict = "PASS" if report["ok"] else "FAIL"
    failed = [c["name"] for c in report["checks"] if not c["ok"]]
    line = f"{verdict} {claim}  ({len(report['checks'])} checks"
    line += f"; failing: {', '.join(failed)})" if failed else ")"
    print(line)
    assert report["ok"], f"{claim}: failing checks {failed}"
    return report


def test_claim_registry_is_complete():
    assert len(CLAIMS) == 12


def test_01_diagram_calculus():
    r = _run("diagram-calculus")
    assert r["parameters"]["samples"] == 1000
    assert r["parameters"]["triples"] == 500


def test_02_characters():
    r = _run("characters")
    assert r["parameters"]["pairs"] == 500
    assert r["parameters"]["expansions"] == 500
    assert r["parameters"]["vertices"] == 200


def test_03_morse_property():
    r = _run("morse-property")
    assert r["parameters"]["max_vertices"] == 5000


def test_04_link_model():
    r = _run("link-model")
    assert r["parameters"]["per_feet"] == 20


def test_05_matching_connectivity():
    r = _run("matching-connectivity")
    assert r["parameters"]["n_max"] == 11


def test_06_long_interval_ascending():
    _run("long-interval-ascending")


def test_07_ascending_nonempty():
    r = _run("ascending-nonempty")
    assert r["parameters"]["per_combo"] == 50


def test_08_l_invariant_disconnection():
    r = _run("l-invariant-disconnection")
    assert r["parameters"]["max_vertices"] == 5000


def test_09_ascending_connected():
    _run("ascending-connected")


def test_10_nerve_cycle():
    _run("nerve-cycle")


def test_11_homology_oracle():
    r = _run("homology-oracle")
    assert r["parameters"]["n_random"] == 50


def test_12_morse_lemma_instance():
    _run("morse-lemma-instance")


@pytest.mark.parametrize("claim", CLAIMS)
def test_reports_carry_provenance(claim):
    report = _report(claim)
    assert report["claim"] == claim
    assert isinstance(report["parameters"], dict) and report["parameters"]
