"""Command-line surface: outputs, JSON schema, exit codes."""

import contextlib
import io
import json

import pytest

from splitmerge.cli import build_parser, main


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


class TestExplore:
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

    def test_all_claims_registered(self):
        from splitmerge.verify import RUNNERS

        parser = build_parser()
        # registered ids are accepted by the parser and runnable by name
        assert len(RUNNERS) == 12
        del parser


class TestParser:
    def test_prog_and_subcommands(self):
        parser = build_parser()
        assert parser.prog == "splitmerge"

    def test_no_args_usage_error(self):
        code, _, err = run()
        assert code == 2
