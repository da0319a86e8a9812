"""Compare CLI output with the reference content recorded at the seed commit.

A record is identified by its key ``(task, p, subgroup_order, params)`` and
compared on its content fields only: ``witnesses`` and ``exhaustive`` for audit
records, and the seed-independent fields of the suite summaries.  Timing
fields, ``nodes``, unknown fields and records of an unknown task are ignored,
so adding timing, a closing summary record or streamed records does not read
as a failure.  A missing, duplicated or different record is one failure, and
so is a wrong exit code.
"""

from __future__ import annotations

import hashlib
import json
import re

AUDIT_TASKS = frozenset({
    "sarkozy-product",
    "lambda-census",
    "shifted-ratio",
    "lev-sonn-difference",
    "kalmynin-sum",
    "paley-clique",
})
AUDIT_FIELDS = ("witnesses", "exhaustive")
SUITE_FIELDS = {
    "stepanov-suite": ("passed", "instances", "additive_checked", "flagship_degree",
                       "anomalies", "additive_failures"),
    "identity-suite": ("passed", "gf_checked", "newton_checked", "derivative_checked",
                       "harmonic_checked", "failures"),
    "unity-suite": ("passed", "claim_orders_checked", "decomposition_orders_checked",
                    "classified_orders", "claim_failures", "decomposition_witnesses",
                    "max_quadruple_class"),
}
_MISSING = "<missing>"


def parse_records(text: str) -> list[dict]:
    """JSON objects from the lines of a stream; other lines (messages) are skipped."""
    lines = [line for line in text.splitlines() if line.startswith("{")]
    try:
        records = json.loads("[" + ",".join(lines) + "]")  # one call: much faster
    except ValueError:
        records = []
        for line in lines:
            try:
                records.append(json.loads(line))
            except ValueError:
                continue
    return [record for record in records if isinstance(record, dict)]


def _known(record: dict) -> bool:
    task = record.get("task")
    return task in AUDIT_TASKS or task in SUITE_FIELDS


def record_key(record: dict) -> str:
    key = [record.get("task"), record.get("p"), record.get("subgroup_order"),
           record.get("params")]
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


def record_content(record: dict) -> dict:
    fields = AUDIT_FIELDS if record["task"] in AUDIT_TASKS else SUITE_FIELDS[record["task"]]
    return {field: record.get(field, _MISSING) for field in fields}


def expected_stream(required: list[dict], optional: list[dict] = ()) -> dict:
    """Reference for one stream: records that must appear, and records that may."""
    return {
        "required": {record_key(r): record_content(r) for r in required if _known(r)},
        "optional": {record_key(r): record_content(r) for r in optional if _known(r)},
    }


class Outcome:
    """Checks attempted and failed, with the first few failures described."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[:10 - len(self.problems)])


def _keyed(records: list[dict]) -> list[tuple[str, dict]]:
    return [(record_key(record), record) for record in records if _known(record)]


def check_stream(keyed: list[tuple[str, dict]], expected: dict, label: str) -> Outcome:
    outcome = Outcome()
    seen: dict[str, list[dict]] = {}
    for key, record in keyed:
        seen.setdefault(key, []).append(record_content(record))
    required, optional = expected["required"], expected["optional"]
    for key, want in required.items():
        got = seen.get(key, [])
        if not got:
            outcome.add(False, f"{label}: missing record {key}")
        elif len(got) > 1:
            outcome.add(False, f"{label}: duplicated record {key}")
        else:
            outcome.add(got[0] == want, f"{label}: {key} is {got[0]}, expected {want}")
    for key, got in seen.items():
        if key in required:
            continue
        want = optional.get(key)
        if want is None:
            outcome.add(False, f"{label}: unexpected record {key}")
        else:
            outcome.add(len(got) == 1 and got[0] == want,
                        f"{label}: {key} is {got}, expected once as {want}")
    return outcome


def check_invocation(exit_code: int, stdout: str, stderr: str, expected: dict,
                     label: str) -> tuple[Outcome, int]:
    """Check one invocation; also returns the node total of its known records."""
    outcome = Outcome()
    outcome.add(exit_code == expected["exit"],
                f"{label}: exit code {exit_code}, expected {expected['exit']}")
    out_keyed = _keyed(parse_records(stdout))
    err_keyed = _keyed(parse_records(stderr))
    outcome.merge(check_stream(out_keyed, expected["stdout"], f"{label} stdout"))
    outcome.merge(check_stream(err_keyed, expected["stderr"], f"{label} stderr"))
    # a record echoed on both streams (a violation) counts its nodes once
    nodes: dict[str, int] = {}
    for key, record in out_keyed + err_keyed:
        nodes.setdefault(key, record.get("nodes") or 0)
    return outcome, sum(nodes.values())


# Values that differ between two runs of the same code; masked before the
# whole output is compared with an output already checked.
_TIMING = re.compile(r'"elapsed_ms": [-+0-9.eE]+')


class Checker:
    """Checks invocations against one workload's reference.

    An output equal to one already checked, once timings are masked, gets the
    same outcome without being parsed again, so repeating a large workload
    costs one full check.
    """

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self._seen: dict[bytes, tuple[Outcome, int]] = {}

    def check(self, index: int, exit_code: int, stdout: str, stderr: str,
              label: str) -> tuple[Outcome, int]:
        digest = hashlib.sha256()
        for part in (str(index), str(exit_code), _TIMING.sub("", stdout),
                     _TIMING.sub("", stderr)):
            digest.update(part.encode("utf-8") + b"\0")
        key = digest.digest()
        if key not in self._seen:
            self._seen[key] = check_invocation(exit_code, stdout, stderr,
                                               self.reference["invocations"][index], label)
        return self._seen[key]
