import json

from check import Checker, check_invocation, expected_stream


def _record(p, lam, witnesses, **extra):
    record = {"task": "sarkozy-product", "p": p, "subgroup_order": 5,
              "params": {"lambda": lam}, "witnesses": witnesses, "exhaustive": True,
              "nodes": 7, "elapsed_ms": 0}
    record.update(extra)
    return record


WITNESS = {"A": [1, 2, 3], "B": [1, 7]}
OTHER = {"A": [1, 5], "B": [1, 9]}
REFERENCE_RECORDS = [_record(11, 2, [WITNESS, OTHER]), _record(11, 3, [])]
EXPECTED = {"exit": 0, "stdout": expected_stream(REFERENCE_RECORDS),
            "stderr": expected_stream([])}


def _lines(records):
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def _failed(records, exit_code=0, stderr=""):
    outcome, _ = check_invocation(exit_code, _lines(records), stderr, EXPECTED, "t")
    return outcome.failed


def test_reference_output_passes_and_counts_every_check():
    outcome, nodes = check_invocation(0, _lines(REFERENCE_RECORDS), "", EXPECTED, "t")
    assert (outcome.attempted, outcome.failed) == (3, 0)
    assert nodes == 14


def test_dropped_witness_fails():
    assert _failed([_record(11, 2, [WITNESS]), _record(11, 3, [])]) == 1


def test_extra_witness_fails():
    assert _failed([_record(11, 2, [WITNESS, OTHER]), _record(11, 3, [OTHER])]) == 1


def test_missing_record_fails():
    assert _failed([_record(11, 2, [WITNESS, OTHER])]) == 1


def test_duplicated_record_fails():
    assert _failed(REFERENCE_RECORDS + [_record(11, 3, [])]) == 1


def test_unexpected_record_of_a_known_task_fails():
    assert _failed(REFERENCE_RECORDS + [_record(13, 2, [])]) == 1


def test_wrong_exit_code_fails():
    assert _failed(REFERENCE_RECORDS, exit_code=2) == 1


def test_extra_fields_float_timing_and_summary_record_pass():
    records = [
        _record(11, 2, [WITNESS, OTHER], elapsed_ms=1.25, timing={"engine_ms": 0.5}),
        _record(11, 3, [], elapsed_ms=0.003, nodes=1),
        {"task": "summary", "records": 2, "elapsed_ms": 3.5},
    ]
    assert _failed(records) == 0


def test_violation_on_stderr_is_expected_and_streamed_records_are_accepted():
    violation = {"task": "paley-clique", "p": 41, "subgroup_order": 20,
                 "params": {"clique": 5}, "witnesses": [], "exhaustive": True,
                 "nodes": 0, "elapsed_ms": 0}
    passing = dict(violation, p=17, subgroup_order=8, params={"clique": 3})
    expected = {"exit": 2, "stdout": expected_stream([], [passing, violation]),
                "stderr": expected_stream([violation], [passing, violation])}
    stderr = "VIOLATION: clique bound fails at p=41: size 5\n" + _lines([violation])

    outcome, _ = check_invocation(2, "", stderr, expected, "t")
    assert outcome.failed == 0
    outcome, _ = check_invocation(2, _lines([passing, violation]), stderr, expected, "t")
    assert outcome.failed == 0
    outcome, _ = check_invocation(2, "", "", expected, "t")
    assert outcome.failed == 1
    wrong = dict(violation, params={"clique": 4})
    outcome, _ = check_invocation(2, "", _lines([wrong]), expected, "t")
    assert outcome.failed == 2  # the p = 41 record is missing and this one is unknown


def test_checker_reuses_the_outcome_of_an_output_that_differs_only_in_timing():
    checker = Checker({"invocations": [EXPECTED]})
    first = checker.check(0, 0, _lines(REFERENCE_RECORDS), "", "t")
    retimed = [dict(r, elapsed_ms=99) for r in REFERENCE_RECORDS]
    assert checker.check(0, 0, _lines(retimed), "", "t") is first
    changed = checker.check(0, 0, _lines(REFERENCE_RECORDS[:1]), "", "t")
    assert changed is not first and changed[0].failed == 1
