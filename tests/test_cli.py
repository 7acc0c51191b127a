"""Command-line surface: outputs, JSON schema, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from splitmerge import verify as verify_mod
from splitmerge.cli import _VERIFY_FLAGS, build_parser, main
from splitmerge.complexes import SimplicialComplex
from splitmerge.trees import MAX_DEPTH


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestDiagramCommands:
    def test_reduce(self):
        code, out, _ = run("reduce", "[((*,*),*)]/[(*,*),*]")
        assert code == 0 and out.strip() == "[(*,*)]/[*,*]"

    def test_mul(self):
        code, out, _ = run("mul", "[(*,*)]/[*,*]", "[*,*]/[(*,*)]")
        assert code == 0 and out.strip() == "[*]/[*]"

    def test_inv(self):
        code, out, _ = run("inv", "[(*,*)]/[*,*]")
        assert code == 0 and out.strip() == "[*,*]/[(*,*)]"

    def test_chi(self):
        code, out, _ = run("chi", "--char", "1,0", "[(*,*)]/[*,*]")
        assert code == 0 and out.strip() == "-1"

    def test_chi_rational_flag(self):
        code, out, _ = run("chi", "--char", "1/2,-1/3", "[(*,*)]/[*,*]")
        assert code == 0 and out.strip() == "-1/6"

    def test_parse_error_exits_two(self):
        code, _, err = run("reduce", "[((*,*),*)]/[(*,*)]")
        assert code == 2 and "error" in err

    def test_too_deep_tree_is_parse_error(self):
        deep = "(" * 1200 + "*" + ",*)" * 1200
        code, out, err = run("reduce", f"[{deep}]/[*" + ",*" * 1200 + "]")
        assert code == 2 and not out
        assert "nested deeper than" in err

    def test_product_at_depth_cap(self):
        # left vine over right vine: the product grafts one onto the other,
        # doubling the depth of the intermediate forests
        k = MAX_DEPTH
        left = "(" * k + "*" + ",*)" * k
        right = "(*," * k + "*" + ")" * k
        d = f"[{left}]/[{right}]"
        code, out, _ = run("mul", d, d)
        assert code == 0 and out.startswith("[")

    def test_mul_dimension_mismatch(self):
        code, _, err = run("mul", "[(*,*)]/[*,*]", "[*]/[*]")
        assert code == 2 and err


class TestJsonMode:
    def test_reduce_json(self):
        code, out, _ = run("--json", "reduce", "[((*,*),*)]/[(*,*),*]")
        j = json.loads(out)
        assert code == 0
        assert j["schema"] == 1
        assert j["result"] == "[(*,*)]/[*,*]"
        assert j["input"] == "[((*,*),*)]/[(*,*),*]"

    def test_explore_json(self):
        code, out, _ = run(
            "--json",
            "explore",
            "--seed",
            "[(*,*)]/[*,*]",
            "--band",
            "2,4",
            "--limit",
            "1",
        )
        j = json.loads(out)
        assert code == 0 and j["schema"] == 1
        assert [v["diagram"] for v in j["vertices"]] == ["[(*,*)]/[*,*]"]
        assert j["edges"] == []
        assert j["provenance"]["truncated"]

    def test_cube_words_use_wire_glyph(self):
        code, out, _ = run(
            "--json",
            "explore",
            "--seed",
            "[(*,*)]/[*,*]",
            "--band",
            "2,4",
            "--limit",
            "30",
        )
        j = json.loads(out)
        assert code == 0
        words = {c["word"] for c in j["cubes"]}
        assert words and all(set(w) <= {"I", "Λ"} for w in words)


EXPLORE_GOLDEN = Path(__file__).parent / "data" / "explore_golden.json"


class TestExplore:
    @pytest.mark.parametrize("k", [0, 1])
    def test_json_equals_golden(self, k):
        # stdout of two truncated 200-vertex runs, byte for byte; the
        # second holds edges that only Fragment's completion loop finds
        golden = json.loads(EXPLORE_GOLDEN.read_text())[k]
        code, out, err = run(*golden["argv"])
        assert code == 0 and not err
        assert out == golden["stdout"]

    def test_multi_seed(self):
        code, out, _ = run(
            "--json",
            "explore",
            "--seed",
            "[(*,*)]/[*,*]",
            "--seed",
            "[((*,*),*)]/[*,*,*]",
            "--band",
            "2,4",
            "--limit",
            "2",
        )
        j = json.loads(out)
        assert code == 0 and len(j["vertices"]) == 2

    def test_floor_flag(self):
        code, out, _ = run(
            "--json",
            "explore",
            "--seed",
            "[(*,*)]/[*,*]",
            "--band",
            "2,4",
            "--char",
            "1,0",
            "--chi-min",
            "-2",
            "--limit",
            "50",
        )
        j = json.loads(out)
        assert code == 0
        assert j["provenance"]["chi_floor"]["min"] == "-2"

    def test_band_required(self):
        code, _, err = run("explore", "--seed", "[(*,*)]/[*,*]")
        assert code == 2

    def test_char_without_floor_is_usage_error(self):
        code, out, err = run("explore", "--seed", "[(*,*)]/[*,*]",
                             "--band", "2,4", "--char", "9,9")
        assert code == 2 and not out
        assert "--char" in err and "--chi-min" in err

    @pytest.mark.parametrize("flag, value, expected", [
        ("--limit", "0", "positive"),
        ("--limit", "-5", "positive"),
        ("--radius", "-3", "nonnegative"),
    ])
    def test_bad_budget_is_usage_error(self, flag, value, expected):
        code, out, err = run("explore", "--seed", "[(*,*)]/[*,*]",
                             "--band", "2,4", flag, value)
        assert code == 2 and not out
        assert f"argument {flag}: expected a {expected} integer" in err

    @pytest.mark.parametrize("value", ["a,b", "2", "2,3,4", "2.5,4", ""])
    def test_bad_band_is_usage_error(self, value):
        code, out, err = run("explore", "--seed", "[(*,*)]/[*,*]",
                             "--band", value)
        assert code == 2 and not out
        assert "error: argument --band: expected 'p,q'" in err
        assert "invalid literal" not in err

    @pytest.mark.parametrize("value", ["1/0", "abc", "1/2/3"])
    def test_bad_floor_is_usage_error(self, value):
        code, out, err = run("explore", "--seed", "[(*,*)]/[*,*]",
                             "--band", "2,4", "--chi-min", value)
        assert code == 2 and not out
        assert "error:" in err and "argument --chi-min" in err
        assert "Traceback" not in err


class TestVerify:
    def test_unknown_claim(self):
        code, _, err = run("verify", "no-such-claim")
        assert code == 2 and "unknown claim" in err

    def test_fast_claim_passes(self):
        code, out, _ = run("verify", "link-model", "--limit", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines)
        assert lines[-1] == "PASS link-model"

    def test_fast_claim_json(self):
        code, out, _ = run("--json", "verify", "link-model", "--limit", "3")
        j = json.loads(out)
        assert code == 0
        assert j["schema"] == 1
        assert j["claim"] == "link-model"
        assert j["verdict"] == "pass"
        assert all(c["ok"] for c in j["checks"])

    def test_matching_claim_with_n_max(self):
        code, out, _ = run("--json", "verify", "matching-connectivity", "--n-max", "6")
        j = json.loads(out)
        assert code == 0 and j["verdict"] == "pass"

    def test_exhausted_search_is_inconclusive(self):
        code, out, _ = run("--json", "verify", "nerve-cycle", "--limit", "1")
        j = json.loads(out)
        assert code == 3
        assert j["verdict"] == "inconclusive"
        assert "error" in j

    def test_exhausted_pi1_budget_is_inconclusive(self):
        code, out, _ = run("--json", "verify", "long-interval-ascending",
                           "--limit", "1")
        j = json.loads(out)
        assert code == 3 and j["verdict"] == "inconclusive"
        assert "-cone: pi1 budget 1 ran out" in j["error"]
        assert "-pole-join: pi1 budget 1 ran out" in j["error"]

    def test_failure_beside_exhausted_pi1_budget_still_fails(self,
                                                             monkeypatch):
        real = verify_mod.homology_report

        def cyclic_report(k, **kwargs):
            rep = real(k, **kwargs)
            rep["betti_reduced"] = [1] + rep["betti_reduced"][1:]
            return rep

        monkeypatch.setattr(verify_mod, "homology_report", cyclic_report)
        code, out, _ = run("verify", "long-interval-ascending", "--limit", "1")
        assert code == 1
        assert out.strip().splitlines()[-1] == "FAIL long-interval-ascending"

    def test_short_sample_is_inconclusive(self):
        code, out, _ = run("verify", "ascending-connected", "--limit", "1")
        assert code == 3
        assert out.startswith("INCONCLUSIVE ascending-connected: ")
        assert ("cross-check-1,3-feet-7: 30 explored vertices held 0 of "
                "the 1 sample vertices with 7 feet") in out

    def test_mismatch_beside_short_sample_still_fails(self, monkeypatch):
        monkeypatch.setattr(verify_mod, "ascending_link",
                            lambda x, spec: SimplicialComplex([]))
        code, out, _ = run("verify", "ascending-connected", "--limit", "1")
        assert code == 1
        assert "FAIL cross-check-1,1-feet-4  (1 vertices, 1 mismatches)" in out

    @pytest.mark.parametrize("flag", ["--band", "--chi-min", "--radius"])
    def test_unused_flags_rejected(self, flag):
        code, out, err = run("verify", "nerve-cycle", flag, "9,9")
        assert code == 2 and not out
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("flag", ["--limit", "--n-max"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_budget_is_usage_error(self, flag, value):
        code, out, err = run("verify", "matching-connectivity", flag, value)
        assert code == 2 and not out
        assert f"argument {flag}: expected a positive integer" in err

    def test_flags_the_claim_does_not_take_are_rejected(self):
        code, out, err = run("verify", "diagram-calculus", "--n-max", "3",
                             "--char", "9,9")
        assert code == 2 and not out
        assert "does not take --n-max, --char" in err
        assert "it accepts --limit" in err

    def test_claim_without_flags_rejects_limit(self):
        code, out, err = run("verify", "morse-lemma-instance", "--limit", "3")
        assert code == 2 and not out
        assert "it accepts no flags" in err

    @pytest.mark.parametrize("claim", list(verify_mod.RUNNERS))
    def test_smallest_budget_gives_a_verdict(self, claim):
        # a budget may stop a claim short (exit 3), never end in a traceback
        takes = _VERIFY_FLAGS[claim]
        argv = (["--limit", "1"] if "limit" in takes
                else ["--n-max", "1"] if "n_max" in takes else [])
        code, _, err = run("verify", claim, *argv)
        assert code in {0, 1, 3} and "Traceback" not in err
        if claim == "l-invariant-disconnection":
            assert code == 3

    def test_all_claims_registered(self):
        from splitmerge.verify import RUNNERS

        parser = build_parser()
        # registered ids are accepted by the parser and runnable by name
        assert len(RUNNERS) == 12
        del parser


def run_python(*argv):
    """Run the interpreter with the checkout's src directory on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def run_module(*argv):
    """Run ``python -m splitmerge`` from the checkout's src directory."""
    return run_python("-m", "splitmerge", *argv)


class TestReadme:
    def test_library_example_runs(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("```python\n", 1)[1]
        proc = run_python("-c", block.split("```", 1)[0])
        assert proc.returncode == 0, proc.stderr


class TestModuleEntryPoint:
    def test_reduce(self):
        proc = run_module("reduce", "[((*,*),*)]/[(*,*),*]")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[(*,*)]/[*,*]"

    def test_bad_band_exits_2(self):
        proc = run_module("explore", "--seed", "[(*,*)]/[*,*]",
                          "--band", "2")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


class TestParser:
    def test_prog_and_subcommands(self):
        parser = build_parser()
        assert parser.prog == "splitmerge"

    def test_no_args_usage_error(self):
        code, _, err = run()
        assert code == 2
