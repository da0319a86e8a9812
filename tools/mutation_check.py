"""Apply a fixed list of mutants to a copy of the checkout and require each to fail a test.

Usage: python3 tools/mutation_check.py

Each mutant replaces one source fragment, which must occur exactly once, and
then runs the fast tests that guard it.  The working tree is never edited:
src/, tests/ and pyproject.toml are copied to a temporary directory first.
The script exits 1 when a fragment is not found, when the unmutated copy
fails its tests, or when a mutant survives (all of its tests pass).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ("tests/test_stepanov.py", "tests/test_suites.py")

# (name, source file, fragment, replacement): each turns off one check
MUTANTS = (
    ("multiplicity", "src/shiftdecomp/stepanov.py",
     "if mult < need:", "if False:"),
    ("window-high", "src/shiftdecomp/stepanov.py",
     "if not low <= degree <= cap:", "if not low <= degree:"),
    ("window-low", "src/shiftdecomp/stepanov.py",
     "if not low <= degree <= cap:", "if not degree <= cap:"),
    ("zero-multiplicity", "src/shiftdecomp/stepanov.py",
     "if zero_multiplicity < n:", "if False:"),
    ("shifted-degree", "src/shiftdecomp/stepanov.py",
     "if (m + 1) * n - r > degree:", "if False:"),
    ("tight-factorization", "src/shiftdecomp/stepanov.py",
     'if expected != f:\n                raise BoundViolationError(f"tight factorization',
     'if False:\n                raise BoundViolationError(f"tight factorization'),
    ("shifted-factorization", "src/shiftdecomp/stepanov.py",
     'if expected != f:\n                raise BoundViolationError(f"tight shifted',
     'if False:\n                raise BoundViolationError(f"tight shifted'),
)


def run_tests(copy: Path) -> tuple[int, str]:
    """Exit code of pytest on TESTS in the copy, and its summary line."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *TESTS],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else proc.stderr.strip()


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutation-check-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")

        code, summary = run_tests(copy)
        print(f"unmutated: exit {code}: {summary}")
        if code != 0:
            return 1

        for name, rel, fragment, replacement in MUTANTS:
            path = copy / rel
            original = path.read_text()
            if original.count(fragment) != 1:
                print(f"{name}: fragment found {original.count(fragment)} times in {rel}")
                failures += 1
                continue
            path.write_text(original.replace(fragment, replacement))
            start = time.monotonic()
            try:
                code, summary = run_tests(copy)
            finally:
                path.write_text(original)
            # exit 1 is "some tests failed"; any other code is a broken run
            killed = code == 1 and re.search(r"\d+ failed", summary) is not None
            verdict = "killed" if killed else "SURVIVED"
            print(f"{name}: {verdict} in {time.monotonic() - start:.1f}s: {summary}")
            failures += not killed
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
