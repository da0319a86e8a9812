import time

import pytest

from launch import SAMPLE_EVERY_S, Sampler
from run import Invocation, mean_chunk_s


def _spin(cpu_s):
    end = time.process_time() + cpu_s
    while time.process_time() < end:
        pass


def test_sampler_times_chunks_only_while_started():
    sampler = Sampler()
    sampler.start()
    try:
        _spin(4 * SAMPLE_EVERY_S)
    finally:
        sampler.stop()
    assert sampler.chunks >= 2
    assert 0 < sampler.chunk_s < 4 * SAMPLE_EVERY_S
    chunks = sampler.chunks
    _spin(2 * SAMPLE_EVERY_S)
    assert sampler.chunks == chunks


def _inv(chunks, chunk_s):
    return Invocation(exit=0, wall_s=1.0, cpu_s=1.0, setup_s=0.1, rss_mb=1.0,
                      bytes_out=0, chunks=chunks, chunk_s=chunk_s)


def test_mean_chunk_time_pools_the_invocations():
    assert mean_chunk_s([_inv(2, 0.004), _inv(6, 0.008)]) == pytest.approx(0.0015)


def test_mean_chunk_time_needs_a_chunk():
    with pytest.raises(RuntimeError):
        mean_chunk_s([_inv(0, 0.0)])
