"""Command-line interface: exit codes, record streams, and flag handling."""

from __future__ import annotations

import contextlib
import io
import json
import re

import pytest

from shiftdecomp import cli
from shiftdecomp.suites import IdentitySuiteResult


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def parse_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line]


def mask_timing(text: str) -> str:
    return re.sub(r'"elapsed_ms": [-+0-9.eE]+', '"elapsed_ms": _', text)


class TestExitCodes:
    def test_clean_verify_exits_zero(self):
        code, out, err = run_cli("verify", "sarkozy", "--pmax", "13")
        assert code == 0
        assert err == ""
        assert parse_lines(out)

    def test_empty_prime_range_exits_one(self):
        code, out, err = run_cli("verify", "sarkozy", "--pmax", "2")
        assert code == 1
        assert "no odd primes" in err

    def test_pmax_above_max_prime_exits_one(self):
        code, out, err = run_cli("verify", "levsonn", "--pmin", "1048577", "--pmax", "1048700")
        assert code == 1
        assert out == ""
        assert err == "error: --pmax must be at most 1048576\n"

    def test_huge_pmax_exits_one_without_scanning_primes(self):
        code, out, err = run_cli("verify", "levsonn", "--pmax", "100000000000")
        assert code == 1
        assert out == ""
        assert err == "error: --pmax must be at most 1048576\n"

    def test_violation_exits_two(self):
        code, out, err = run_cli("verify", "clique", "--pmin", "41", "--pmax", "41")
        assert code == 2
        assert "VIOLATION" in err
        # the offending record is echoed on stderr as a JSON payload
        assert '"p": 41' in err

    def test_violation_still_prints_every_record(self):
        code, out, err = run_cli("verify", "clique")
        assert code == 2
        primes = [p for p in range(17, 102)
                  if p % 4 == 1 and all(p % q for q in range(2, p))]
        assert len(primes) == 10
        assert [r["p"] for r in parse_lines(out)] == primes
        echoed = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        assert [(r["p"], r["params"]["clique"]) for r in echoed] == [(41, 5)]

    def test_audit_without_tasks_exits_one(self):
        # no odd prime up to 13 has a proper subgroup of order 7
        code, out, err = run_cli("verify", "sarkozy", "--pmax", "13", "--orders", "7")
        assert code == 1
        assert out == ""
        assert err.startswith("error: no audit tasks") and err.count("\n") == 1

    def test_clique_orders_select_the_paley_order(self):
        code, out, err = run_cli("verify", "clique", "--pmax", "20", "--orders", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error: no audit tasks")
        code, out, _ = run_cli("verify", "clique", "--pmax", "30", "--orders", "8")
        assert code == 0
        assert [(r["p"], r["subgroup_order"]) for r in parse_lines(out)] == [(17, 8)]

    def test_unknown_command_exits_one(self):
        code, _, err = run_cli("nonsense")
        assert code == 1
        assert "invalid choice" in err

    def test_missing_subcommand_exits_one(self):
        code, _, _ = run_cli("verify")
        assert code == 1

    def test_bad_orders_value_exits_one(self):
        code, _, err = run_cli("verify", "sarkozy", "--orders", "abc")
        assert code == 1
        assert "bad order list" in err

    def test_unity_bounds_validated(self):
        code, _, err = run_cli("unity", "audit", "--mmax-maps", "20")
        assert code == 1
        assert "maps" in err

    def test_mmax_claim_above_bound_exits_one_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the unity suite started")

        monkeypatch.setattr(cli, "run_unity_suite", no_work)
        code, out, err = run_cli("unity", "audit", "--mmax-claim", str(cli.MAX_CLAIM_ORDER + 1))
        assert code == 1
        assert out == ""
        assert err == f"error: --mmax-claim must be at most {cli.MAX_CLAIM_ORDER}\n"


class TestRecordStream:
    def test_json_lines_with_sorted_keys(self):
        code, out, _ = run_cli("verify", "sarkozy", "--pmax", "13")
        assert code == 0
        for line in out.splitlines():
            rec = json.loads(line)
            assert list(rec) == sorted(rec)
            assert rec["task"] == "sarkozy-product"

    def test_stream_is_deterministic_modulo_timing(self):
        def normalized(stdout: str) -> list[dict]:
            recs = parse_lines(stdout)
            for r in recs:
                r.pop("elapsed_ms")
            return recs

        _, first, _ = run_cli("verify", "sarkozy", "--pmax", "23")
        _, second, _ = run_cli("verify", "sarkozy", "--pmax", "23", "--workers", "2")
        assert normalized(first) == normalized(second)

    def test_orders_filter(self):
        code, out, _ = run_cli("verify", "sarkozy", "--pmax", "31", "--orders", "2,5")
        assert code == 0
        assert {r["subgroup_order"] for r in parse_lines(out)} == {2, 5}

    def test_out_flag_writes_file(self, tmp_path):
        path = tmp_path / "records.jsonl"
        code, out, _ = run_cli(
            "verify", "sarkozy", "--pmax", "13", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert parse_lines(path.read_text())

    @pytest.mark.parametrize("argv", [("verify", "sarkozy", "--pmax", "13"),
                                      ("identities", "fuzz")])
    def test_out_file_has_the_stdout_bytes(self, tmp_path, argv):
        path = tmp_path / "records.jsonl"
        _, stdout, _ = run_cli(*argv)
        code, out, _ = run_cli(*argv, "--out", str(path))
        assert code == 0
        assert out == ""
        assert mask_timing(path.read_bytes().decode("utf-8")) == mask_timing(stdout)

    @pytest.mark.parametrize("argv", [("verify", "sarkozy", "--pmax", "7"),
                                      ("reproduce", "counterexamples"),
                                      ("identities", "fuzz")])
    def test_unwritable_out_fails_before_any_work(self, tmp_path, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was opened")

        for name in ("audit_theorems", "reproduce_counterexamples", "run_identity_suite"):
            monkeypatch.setattr(cli, name, no_work)
        path = tmp_path / "missing" / "records.jsonl"
        code, out, err = run_cli(*argv, "--out", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err


class TestReproduce:
    def test_two_records(self):
        code, out, err = run_cli("reproduce", "counterexamples")
        assert code == 0
        recs = parse_lines(out)
        assert [r["p"] for r in recs] == [11, 19]
        assert recs[0]["witnesses"] == [{"A": [1, 2, 3], "B": [1, 7]}]
        assert recs[1]["witnesses"] == [{"A": [5, 9], "B": [1, 2, 7]}]


class TestCensus:
    def test_census_allows_witnesses(self):
        code, out, _ = run_cli("census", "lambda-not-in-g", "--pmax", "11")
        assert code == 0
        recs = parse_lines(out)
        found = [r for r in recs if r["witnesses"]]
        assert len(found) == 1
        assert found[0]["p"] == 11


class TestSuiteCommands:
    # flagship_tight is part of passed, so the stepanov record leaves it out
    STEPANOV_KEYS = {"task", "instances", "lam_in_g_instances", "general_equalities",
                     "shifted_equalities", "anomalies", "additive_checked",
                     "additive_failures", "flagship_degree", "passed"}
    IDENTITY_KEYS = {"task", "gf_checked", "newton_checked", "derivative_checked",
                     "harmonic_checked", "failures", "passed"}
    UNITY_KEYS = {"task", "claim_orders_checked", "decomposition_orders_checked",
                  "classified_orders", "claim_failures", "decomposition_witnesses",
                  "max_quadruple_class", "passed"}

    def test_stepanov_audit_summary_line(self):
        code, out, _ = run_cli("stepanov", "audit", "--instances", "40", "--seed", "3")
        assert code == 0
        (summary,) = parse_lines(out)
        assert summary["passed"] is True
        assert summary["instances"] == 40
        assert summary["flagship_degree"] == 6
        assert set(summary) == self.STEPANOV_KEYS
        assert summary["task"] == "stepanov-suite"
        assert summary["anomalies"] == summary["additive_failures"] == 0

    def test_identities_fuzz_summary_line(self):
        code, out, _ = run_cli("identities", "fuzz", "--seed", "2")
        assert code == 0
        (summary,) = parse_lines(out)
        assert summary["passed"] is True
        assert summary["failures"] == 0
        assert set(summary) == self.IDENTITY_KEYS
        assert summary["task"] == "identity-suite"

    def test_unity_audit_summary_line(self):
        code, out, _ = run_cli(
            "unity",
            "audit",
            "--mmax-claim", "20",
            "--mmax-pairs", "10",
            "--mmax-maps", "4",
        )
        assert code == 0
        (summary,) = parse_lines(out)
        assert summary["passed"] is True
        assert set(summary) == self.UNITY_KEYS
        assert summary["task"] == "unity-suite"
        assert summary["classified_orders"] == [3, 4]
        assert summary["claim_failures"] == []
        assert summary["decomposition_witnesses"] == 0

    def test_failing_suite_prints_its_record_and_exits_two(self, monkeypatch):
        failing = IdentitySuiteResult(1, 0, 0, 0, failures=(("gf", 11, (1, 2)),))
        monkeypatch.setattr(cli, "run_identity_suite", lambda seed: failing)
        code, out, err = run_cli("identities", "fuzz")
        assert code == 2
        (summary,) = parse_lines(out)
        assert summary["passed"] is False
        assert summary["failures"] == 1
        assert err == f"VIOLATION: identity suite failed: {failing}\n"
