"""Record the reference content that run.py checks every invocation against.

Usage, from the root of a checkout of the commit whose output is the
reference:

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once and stores, per invocation, its exit code and the
content of every record it printed (see check.py for what counts as content).
The suite summaries keep only their seed-independent fields, so one recording
serves every seed.  ``verify clique`` stops at the first violation (p = 41), so
the clique record of every other prime in its range is recorded from a
single-prime run and accepted if a later version prints it.
"""

from __future__ import annotations

import gzip
import json
import sys
import tempfile
from pathlib import Path

from check import expected_stream, parse_records
from run import HERE, REFERENCE_DIR, WORKLOADS, Runner, invocations, reference_path

CLIQUE_RANGE = (17, 101)  # the CLI default range of ``verify clique``


def _clique_records(runner: Runner) -> list[dict]:
    records = []
    for p in range(CLIQUE_RANGE[0], CLIQUE_RANGE[1] + 1):
        if p % 4 != 1 or any(p % q == 0 for q in range(3, p, 2)):
            continue  # the audit covers primes p = 1 (mod 4) only
        inv = runner.invoke("run", ["verify", "clique", "--pmin", str(p), "--pmax", str(p)])
        records += parse_records(inv.stdout) + parse_records(inv.stderr)
    return records


def record(workload: str, runner: Runner) -> dict:
    entries = []
    for argv in invocations(workload, seed=1):
        inv = runner.invoke("run", argv)
        out, err = parse_records(inv.stdout), parse_records(inv.stderr)
        optional = _clique_records(runner) if argv[:2] == ["verify", "clique"] else []
        entries.append({
            "exit": inv.exit,
            "stdout": expected_stream(out, optional),
            "stderr": expected_stream(err, optional),
        })
    return {"argv": [list(argv) for argv in WORKLOADS[workload]], "invocations": entries}


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(WORKLOADS)
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as work:
        runner = Runner(Path(work))
        for name in names:
            reference = record(name, runner)
            with gzip.GzipFile(reference_path(name), "wb", mtime=0) as handle:
                handle.write(json.dumps(reference, sort_keys=True).encode("utf-8"))
            print(f"{name}: {reference_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
