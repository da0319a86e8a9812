"""Benchmark of the shiftdecomp CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Each workload is a fixed list of CLI invocations, run closed-loop: one caller,
one process at a time, ``--workers 1``.  Every invocation is a fresh
interpreter running the checkout's ``src/`` (not an installed copy), and its
output is checked against the reference recorded at the seed commit.

``--trace 0`` first measures set-up alone a few times, then repeats the whole
workload until the measured time of its repetitions reaches S seconds, and
reports the medians of the end-to-end metrics.  ``--trace 1`` runs the
workload once untraced and once with the layer wrappers of ``tracer.py``
installed, and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import Checker, Outcome
from tracer import ENGINE_SPANS, SEARCH_ENTRY_POINTS, SPAN_NAMES, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCHER = HERE / "launch.py"
REFERENCE_DIR = HERE / "reference"

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "product-audit": (
        ("verify", "sarkozy", "--pmin", "3", "--pmax", "53", "--oracle", "on",
         "--workers", "1"),
    ),
    "sum-audit": (
        ("verify", "kalmynin-sum", "--pmin", "3", "--pmax", "53", "--oracle", "on",
         "--workers", "1"),
    ),
    "rep-audits": (
        ("verify", "ratio", "--pmin", "3", "--pmax", "61", "--workers", "1"),
        ("verify", "levsonn", "--pmin", "3", "--pmax", "61", "--workers", "1"),
        ("verify", "clique", "--workers", "1"),
    ),
    # the audits are exhaustive ranges, so the seed only varies this workload
    "suites": (
        ("stepanov", "audit", "--instances", "10000", "--seed", "{seed}"),
        ("identities", "fuzz", "--seed", "{seed}"),
        ("unity", "audit"),
    ),
}

SETUP_PROBES = 4
INVOCATION_TIMEOUT_S = 150
# The host's speed drifts by 10-35% within minutes, moving cpu_s and wall_s
# together.  The time metrics are given in seconds at the speed at which a
# calibration chunk (launch.py) takes this long; it took about that long on
# the 2-vCPU host the baseline in README.md was measured on.
CALIBRATION_CHUNK_S = 0.00125
# The host's cores are shared with other machines' work.  Before each measured
# repetition, a short busy loop must get at least QUIET_SHARE of a core, or the
# run waits and tries again, for at most QUIET_WAIT_S in the whole run.
QUIET_SHARE = 0.9
QUIET_WAIT_S = 8

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{f"{name}.{suffix}": unit for name in SPAN_NAMES
       for suffix, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))},
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.witnesses": "count",
    "search.task_ms.p50": "ms",
    "search.task_ms.p99": "ms",
    "field.subgroup_of_order.distinct_ratio": "fraction",
    "audits.tasks": "count",
    "cli.bytes_out": "bytes",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def invocations(workload: str, seed: int) -> list[list[str]]:
    return [[arg.replace("{seed}", str(seed)) for arg in argv] for argv in WORKLOADS[workload]]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


@dataclass
class Invocation:
    exit: int
    wall_s: float
    cpu_s: float
    setup_s: float
    rss_mb: float
    bytes_out: int
    stdout: str = ""
    stderr: str = ""
    result: dict = field(default_factory=dict)
    # calibration chunks the child ran (see launch.py), and their CPU time in
    # all and before the CLI was ready; their time is inside the times above
    chunks: int = 0
    chunk_s: float = 0.0
    ready_chunk_s: float = 0.0


class Runner:
    """Spawns launcher processes one at a time inside a private work directory."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.count = 0
        self.waited_s = 0.0
        self.loop_rates: list[float] = []
        # Children run with the interpreter's defaults (bytecode cache written,
        # stdout buffered), whatever PYTHON* settings the caller has.  One caller,
        # one worker, one thread: a BLAS thread pool started by the numpy import
        # would only compete with the caller for the two cores.
        self.env = {name: value for name, value in os.environ.items()
                    if not name.startswith("PYTHON") or name == "PYTHONHOME"}
        self.env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def wait_for_quiet_host(self) -> None:
        """Wait while a 0.1 s busy loop gets less than QUIET_SHARE of a core.

        The loop's speed is kept too: it shows how fast the host ran the run.
        """
        while self.waited_s < QUIET_WAIT_S:
            wall, cpu = time.perf_counter(), time.thread_time()
            loops = 0
            while time.perf_counter() - wall < 0.1:
                loops += 1
            spun = time.perf_counter() - wall
            self.loop_rates.append(loops / spun)
            if time.thread_time() - cpu >= QUIET_SHARE * spun:
                return
            time.sleep(1.0)
            self.waited_s += time.perf_counter() - wall

    def invoke(self, mode: str, argv: list[str]) -> Invocation:
        self.count += 1
        base = self.work / str(self.count)
        result_path = base.with_suffix(".json")
        out_path, err_path = base.with_suffix(".out"), base.with_suffix(".err")
        command = [sys.executable, str(LAUNCHER), str(result_path), mode, *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic_ns()
            proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=ROOT, env=self.env)
            timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            result = {}
        ready = result.get("ready_ns", end)
        inv = Invocation(
            exit=proc.returncode,
            wall_s=(end - start) / 1e9,
            cpu_s=usage.ru_utime + usage.ru_stime,
            setup_s=(ready - start) / 1e9,
            rss_mb=result.get("peak_rss_kb", usage.ru_maxrss) / 1024,
            bytes_out=out_path.stat().st_size,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
            result=result,
            chunks=result.get("chunks", 0),
            chunk_s=result.get("chunk_s", 0.0),
            ready_chunk_s=result.get("ready_chunk_s", 0.0),
        )
        for path in (result_path, out_path, err_path):
            path.unlink(missing_ok=True)
        return inv


@dataclass
class Rep:
    """One pass over every invocation of a workload."""

    invocations: list[Invocation]
    record_nodes: int

    @property
    def wall_s(self) -> float:
        return sum(inv.wall_s for inv in self.invocations)

    @property
    def cpu_s(self) -> float:
        return sum(inv.cpu_s for inv in self.invocations)

    @property
    def setup_s(self) -> float:
        return sum(inv.setup_s for inv in self.invocations)

    @property
    def bytes_out(self) -> int:
        return sum(inv.bytes_out for inv in self.invocations)


def run_rep(runner: Runner, argvs, checker: Checker, mode: str, outcome: Outcome) -> Rep:
    runner.wait_for_quiet_host()
    invs = []
    nodes = 0
    for index, argv in enumerate(argvs):
        inv = runner.invoke(mode, argv)
        checked, inv_nodes = checker.check(index, inv.exit, inv.stdout, inv.stderr,
                                           " ".join(argv[:2]))
        outcome.merge(checked)
        nodes += inv_nodes
        inv.stdout = inv.stderr = ""  # checked; the metrics need only the numbers
        invs.append(inv)
    return Rep(invs, nodes)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def mean_chunk_s(invs: list[Invocation]) -> float:
    """Mean CPU time of the calibration chunks these invocations ran."""
    chunks = sum(inv.chunks for inv in invs)
    if not chunks:
        raise RuntimeError("no calibration chunk ran; launch.py did not sample")
    return sum(inv.chunk_s for inv in invs) / chunks


def end_to_end(runner: Runner, argvs, checker: Checker, seconds: int,
               outcome: Outcome) -> tuple[dict, dict, int]:
    runner.invoke("probe", [])  # warm-up: writes bytecode caches, fills the page cache
    runner.wait_for_quiet_host()
    probes = [[runner.invoke("probe", []) for _ in argvs] for _ in range(SETUP_PROBES)]
    reps: list[Rep] = []
    # Repeat until the measured time reaches the budget, so that even the
    # longest workloads are measured more than once.  The budget counts
    # measured time only, so checking output does not change how many
    # repetitions a run makes.
    while sum(rep.wall_s for rep in reps) < seconds:
        reps.append(run_rep(runner, argvs, checker, "run", outcome))
    # Times are scaled to the reference speed, at which a calibration chunk
    # takes CALIBRATION_CHUNK_S, after taking the chunks' own time out.  A
    # repetition is scaled by the chunks it ran; set-up, too short to run
    # many, by all the chunks of the run.
    passes = probes + [rep.invocations for rep in reps]
    setup_scale = CALIBRATION_CHUNK_S / mean_chunk_s([inv for p in passes for inv in p])
    wall, cpu = [], []
    for rep in reps:
        scale = CALIBRATION_CHUNK_S / mean_chunk_s(rep.invocations)
        wall.append(scale * sum(inv.wall_s - inv.chunk_s for inv in rep.invocations))
        cpu.append(scale * sum(inv.cpu_s - inv.chunk_s for inv in rep.invocations))
    metrics = {
        "wall_s": statistics.median(wall),
        "cpu_s": statistics.median(cpu),
        "setup_s": setup_scale * statistics.median(
            sum(inv.setup_s - inv.ready_chunk_s for inv in p) for p in passes),
        "peak_rss_mb": max(inv.rss_mb for rep in reps for inv in rep.invocations),
    }
    unscaled = {
        "wall_s": statistics.median(rep.wall_s for rep in reps),
        "cpu_s": statistics.median(rep.cpu_s for rep in reps),
        "setup_s": statistics.median(sum(inv.setup_s for inv in p) for p in passes),
        "chunk_ms": 1e3 * CALIBRATION_CHUNK_S / setup_scale,
    }
    return metrics, unscaled, len(reps)


def per_layer(runner: Runner, argvs, checker: Checker, outcome: Outcome) -> dict:
    plain = run_rep(runner, argvs, checker, "run", outcome)
    traced = run_rep(runner, argvs, checker, "trace", outcome)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    total = dict.fromkeys(SPAN_NAMES, 0)
    own = dict.fromkeys(SPAN_NAMES, 0)
    task_ms = []
    counters: dict[str, int] = {}
    for inv in traced.invocations:
        spans = [tuple(span) for span in inv.result.get("spans", ())]
        for (name, start, end, _), self_ns in zip(spans, self_times(spans)):
            calls[name] += 1
            total[name] += end - start
            own[name] += self_ns
            if name in SEARCH_ENTRY_POINTS:
                task_ms.append((end - start) / 1e6)
        for key, value in inv.result.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        for site in inv.result.get("missing", ()):
            print(f"warning: traced call site {site} not found", file=sys.stderr)

    nodes = counters.get("search.nodes", 0)
    outcome.add(nodes == traced.record_nodes,
                f"traced search.nodes {nodes} != record nodes {traced.record_nodes}")
    engine_s = sum(own[name] for name in ENGINE_SPANS) / 1e9
    subgroup_calls = calls["field.subgroup_of_order"]
    metrics: dict = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.s"] = total[name] / 1e9
        metrics[f"{name}.self_s"] = own[name] / 1e9
    metrics.update({
        "search.nodes": nodes,
        "search.nodes_per_s": nodes / engine_s if engine_s else 0.0,
        "search.witnesses": counters.get("search.witnesses", 0),
        "search.task_ms.p50": percentile(task_ms, 0.50),
        "search.task_ms.p99": percentile(task_ms, 0.99),
        "field.subgroup_of_order.distinct_ratio":
            counters.get("field.subgroup_of_order.distinct", 0) / subgroup_calls
            if subgroup_calls else 0.0,
        "audits.tasks": counters.get("audits.tasks", 0),
        "cli.bytes_out": traced.bytes_out,
        "trace.unattributed_s": own["cli.main"] / 1e9,
        "trace.overhead_s": traced.wall_s - plain.wall_s + sum(
            inv.chunk_s for inv in plain.invocations),
    })
    return metrics


def git_commit() -> str | None:
    """Commit of the checkout when it is a git work tree, read without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "shiftdecomp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def load_reference(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as handle:
        reference = json.load(handle)
    if reference["argv"] != [list(argv) for argv in WORKLOADS[workload]]:
        raise ValueError(f"reference for {workload} was recorded for other invocations")
    return reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shiftdecomp" / "cli.py").is_file():
        print(f"error: no shiftdecomp sources under {SRC}", file=sys.stderr)
        return 1
    if args.seconds < 1:
        print("error: --seconds must be positive", file=sys.stderr)
        return 1

    checker = Checker(load_reference(args.workload))
    argvs = invocations(args.workload, args.seed)
    outcome = Outcome()
    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as work:
        runner = Runner(Path(work))
        if args.trace:
            values = per_layer(runner, argvs, checker, outcome)
            units, unscaled, reps = PER_LAYER_UNITS, {}, 1
        else:
            values, unscaled, reps = end_to_end(runner, argvs, checker, args.seconds, outcome)
            units = END_TO_END_UNITS

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          f"invocations {len(argvs)} reps {reps} waited-for-quiet-host {runner.waited_s:.1f}s")
    print(f"# python {platform.python_version()} nproc {os.cpu_count()} "
          f"git {git_commit() or 'none'} src-sha256 {src_digest()} "
          f"host-loop-rate {statistics.median(runner.loop_rates) / 1e6:.2f}M/s")
    for name, value in values.items():
        print(f"{name} {value if isinstance(value, int) else f'{value:.6g}'} {units[name]}")
    if unscaled:
        print("# as measured, before scaling: " + ", ".join(
            f"{name} {value:.6g}" for name, value in unscaled.items()))
    error_rate = outcome.failed / outcome.attempted
    print(f"error_rate {error_rate:.6g} fraction ({outcome.failed} failed of "
          f"{outcome.attempted} checks)")
    for problem in outcome.problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
