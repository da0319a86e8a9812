"""Command-line interface: exit codes, record streams, and flag handling."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import re

import pytest

from shiftdecomp import cli
from shiftdecomp.suites import IdentitySuiteResult, StepanovSuiteResult, UnitySuiteResult
from shiftdecomp.unity import DecompositionWitness


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

    @pytest.mark.parametrize("runner,argv,flag,bound", [
        ("run_stepanov_suite", ("stepanov", "audit"), "--instances", "MAX_INSTANCES"),
        ("run_unity_suite", ("unity", "audit"), "--mmax-pairs", "MAX_PAIRS_ORDER"),
    ])
    def test_suite_size_above_bound_exits_one_before_any_work(self, monkeypatch, runner,
                                                              argv, flag, bound):
        def no_work(*args, **kwargs):
            raise AssertionError("the suite started")

        monkeypatch.setattr(cli, runner, no_work)
        limit = getattr(cli, bound)
        code, out, err = run_cli(*argv, flag, str(limit + 1))
        assert code == 1
        assert out == ""
        assert err == f"error: {flag} must be at most {limit}\n"


_EMPTY = hashlib.sha256(b"").hexdigest()
# argv -> (exit code, sha256 of stdout, sha256 of stderr) with elapsed_ms and
# nodes masked; the oracle only raises, so switching it off leaves the stream as is
PINNED_STREAMS = {
    ("verify", "sarkozy", "--pmax", "23", "--oracle", "off"):
        (0, "296dfe5406ee5f6840b4af6c94b9f580488772da9cd9f0fbb0fb93fcf9ccf35f", _EMPTY),
    ("verify", "kalmynin-sum", "--pmax", "23", "--oracle", "off"):
        (0, "b74f9c53b174a8d9010d01ae761f9b808335d53c0eed3b2d182d51475aa8be00", _EMPTY),
    ("verify", "levsonn", "--pmax", "23"):
        (0, "a12925de717078ee380b94e052581e6f198015a34c8148d7a42acae4910c28db", _EMPTY),
    ("verify", "ratio", "--pmax", "13"):
        (0, "a3b57ca16f9d815fa7d9aca4de880bcb90cc0ba92c385ee7cd923cd134b7a317", _EMPTY),
    ("verify", "clique"):
        (2, "6629abe7818a9ed8d8ad909ec90f6cb92e3b872876c2784f857d892865043a91",
         "069d008226a02a4a42fb4b1ab2db026ed86432bae9ec1d8b0cc5d11210ebb6f6"),
    ("census", "lambda-not-in-g"):
        (0, "754b7f6ae61b26bba71e2ee001e10d3c95fe6294a51753c40d052fbd04f4a5e7", _EMPTY),
    ("reproduce", "counterexamples"):
        (0, "5dbebc8cfb262c98d5f669da73796ecb644ac03130e960f2a900d3a90ffd6b20", _EMPTY),
    ("stepanov", "audit"):
        (0, "616921721c24cecf6959ce2cbdfcbc5ddacaa964bec5ed324ed74847854f07d2", _EMPTY),
    ("stepanov", "audit", "--instances", "200", "--seed", "3"):
        (0, "401af7fb91c7cef471cca85aa4f9393950768bc9f6cedb185f59c25c1fe6417d", _EMPTY),
    # the identity record holds only counts, so another seed prints the same bytes
    ("identities", "fuzz"):
        (0, "acdf402b4c878cb5ec7babe0dcb5a397c5987ef269b028c6664bc146a46fe1e1", _EMPTY),
    ("identities", "fuzz", "--seed", "2"):
        (0, "acdf402b4c878cb5ec7babe0dcb5a397c5987ef269b028c6664bc146a46fe1e1", _EMPTY),
    ("unity", "audit"):
        (0, "dc4c4f92adfde93ee0e54cca231401575b561594f4a7eaa0dd80c6421ec099a6", _EMPTY),
    ("unity", "audit", "--mmax-claim", "20", "--mmax-pairs", "10", "--mmax-maps", "4"):
        (0, "ac66c4bddbbc3f22b72cd97214a9720a0bf28ec256f1200f82a21c01d148c767", _EMPTY),
}


@pytest.mark.parametrize("argv", list(PINNED_STREAMS), ids=" ".join)
def test_record_stream_matches_pinned_digest(argv):
    def digest(text: str) -> str:
        masked = re.sub(r'"(elapsed_ms|nodes)": [-+0-9.eE]+', r'"\1": _', text)
        return hashlib.sha256(masked.encode()).hexdigest()

    code, out, err = run_cli(*argv)
    assert (code, digest(out), digest(err)) == PINNED_STREAMS[argv]


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
        failing = IdentitySuiteResult(failures=(("gf", 11, (1, 2)),))
        monkeypatch.setattr(cli, "run_identity_suite", lambda seed: failing)
        code, out, err = run_cli("identities", "fuzz")
        assert code == 2
        (summary,) = parse_lines(out)
        assert summary["passed"] is False
        assert summary["failures"] == 1
        assert err == f"VIOLATION: identity suite failed: {failing}\n"

    _STEPANOV_PASSING = StepanovSuiteResult(
        lam_in_g_instances=1, general_equalities=1, shifted_equalities=1, anomalies=(),
        additive_failures=(), flagship_degree=6, flagship_tight=True)
    _UNITY_PASSING = UnitySuiteResult(claim_failures=(), decomposition_witnesses=(),
                                      max_quadruple_class=4)

    # (runner, argv, result field, its failing value, the record fields it sets)
    @pytest.mark.parametrize("runner,argv,field,value,written", [
        ("run_stepanov_suite", ("stepanov", "audit"), "anomalies",
         ((11, (1, 7), (1, 2, 3), 2, 5),), {"anomalies": 1, "additive_failures": 0}),
        ("run_stepanov_suite", ("stepanov", "audit"), "additive_failures",
         ((13, (0, 2), (0,), 6),), {"anomalies": 0, "additive_failures": 1}),
        ("run_unity_suite", ("unity", "audit"), "claim_failures",
         (7, 9), {"claim_failures": [7, 9], "decomposition_witnesses": 0}),
        ("run_unity_suite", ("unity", "audit"), "decomposition_witnesses",
         (DecompositionWitness(a=(1, 2j), b=(-1j, 3)),),
         {"claim_failures": [], "decomposition_witnesses": 1}),
    ], ids=["stepanov-anomaly", "stepanov-additive", "unity-claim", "unity-decomposition"])
    def test_failing_result_is_counted_and_exits_two(self, monkeypatch, runner, argv,
                                                     field, value, written):
        passing = self._STEPANOV_PASSING if argv[0] == "stepanov" else self._UNITY_PASSING
        failing = dataclasses.replace(passing, **{field: value})
        monkeypatch.setattr(cli, runner, lambda **kwargs: failing)
        code, out, err = run_cli(*argv)
        assert code == 2
        (summary,) = parse_lines(out)
        assert summary["passed"] is False
        assert {key: summary[key] for key in written} == written
        (line,) = err.splitlines()
        assert line.startswith(f"VIOLATION: {argv[0]} suite failed: ")
        assert f"{field}={value!r}" in line
