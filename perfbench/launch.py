"""Child side of one benchmark invocation of the shiftdecomp CLI.

Usage: python launch.py RESULT_PATH {probe,run,trace} [CLI ARGS...]

Does what the installed ``shiftdecomp`` console script does (import
``shiftdecomp.cli`` and exit with ``main(argv)``), and also writes RESULT_PATH
as JSON: the monotonic time at which the CLI was imported and ready to call
``main`` and, in trace mode, the layer spans and counters.  ``probe`` stops
once the CLI is ready, so it measures set-up alone.

In ``probe`` and ``run`` mode the process also times a fixed calibration
chunk every SAMPLE_EVERY_S of its user CPU time, from a signal handler, and
writes how many chunks it ran and their total CPU time.  The chunks run on the
same core, interleaved with the CLI, so they see the speed the host gave the
CLI; the runner scales the CLI's times by it and subtracts the chunks' own
time.
"""

import json
import signal
import sys
import time

SAMPLE_EVERY_S = 0.1
_CHUNK_MODULUS = 29
_CHUNK_FULL = (1 << _CHUNK_MODULUS) - 1


def calibration_chunk() -> int:
    """About a millisecond of fixed CPU-bound work shaped like the search
    engine: recursion over rotated int bitmasks.  It uses nothing from
    shiftdecomp, so a change to the program never changes its cost."""
    nodes = 0

    def recurse(mask: int, start: int, depth: int) -> None:
        nonlocal nodes
        nodes += 1
        if depth == 3:
            return
        for shift in range(start, _CHUNK_MODULUS):
            rotated = ((mask << shift) | (mask >> (_CHUNK_MODULUS - shift))) & _CHUNK_FULL
            trimmed = mask & rotated
            if trimmed.bit_count() >= 12:
                recurse(trimmed, shift + 1, depth + 1)

    recurse(_CHUNK_FULL ^ 0b1000100101, 1, 0)
    return nodes


class Sampler:
    """Times one calibration chunk per SAMPLE_EVERY_S of the process's user CPU time."""

    def __init__(self) -> None:
        self.chunks = 0
        self.chunk_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.thread_time()
        calibration_chunk()
        self.chunk_s += time.thread_time() - start
        self.chunks += 1

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)


def _peak_rss_kb() -> int | None:
    """High-water resident set size of this process image, in KiB.

    The parent reads ``ru_maxrss`` too, but on Linux that also counts the
    pages the process had before ``exec``: the benchmark's own memory.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main() -> int:
    result_path, mode, *argv = sys.argv[1:]
    # spans of a traced run would include the chunks, so it is not sampled
    sampler = None if mode == "trace" else Sampler()
    if sampler is not None:
        sampler.start()
    import shiftdecomp.cli as cli

    result: dict = {"ready_ns": time.monotonic_ns()}
    if sampler is not None:
        result["ready_chunk_s"] = sampler.chunk_s
    tracer = None
    code = 0
    try:
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            code = cli.main(argv)
        elif mode == "run":
            code = cli.main(argv)
    finally:
        if sampler is not None:
            sampler.stop()
            result.update(chunks=sampler.chunks, chunk_s=sampler.chunk_s)
        peak = _peak_rss_kb()
        if peak is not None:
            result["peak_rss_kb"] = peak
        if tracer is not None:
            tracer.uninstall()
            result.update(tracer.result())
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump(result, handle, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
