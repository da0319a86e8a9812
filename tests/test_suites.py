"""Randomized verification suites: sampling, determinism, and result contracts."""

from __future__ import annotations

import dataclasses

from shiftdecomp import run_identity_suite, run_stepanov_suite, run_unity_suite


class TestStepanovSuite:
    def test_small_run_passes(self):
        r = run_stepanov_suite(instances=60, seed=1)
        assert r.anomalies == ()
        assert r.additive_failures == ()
        assert r.flagship_degree == 6
        assert r.flagship_tight
        assert r.passed

    def test_both_populations_sampled(self):
        r = run_stepanov_suite(instances=60, seed=1)
        assert 0 < r.lam_in_g_instances < 60
        assert r.general_equalities > 0
        assert r.shifted_equalities > 0

    def test_same_seed_is_deterministic(self):
        a = run_stepanov_suite(instances=40, seed=9)
        b = run_stepanov_suite(instances=40, seed=9)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_different_seeds_vary_sampling(self):
        a = run_stepanov_suite(instances=40, seed=1)
        b = run_stepanov_suite(instances=40, seed=2)
        assert a.passed and b.passed
        assert (a.lam_in_g_instances, a.general_equalities) != (
            b.lam_in_g_instances,
            b.general_equalities,
        )


class TestIdentitySuite:
    def test_small_run_passes(self):
        r = run_identity_suite(seed=5)
        assert r.failures == ()
        assert r.passed

    def test_same_seed_is_deterministic(self):
        a = run_identity_suite(seed=3)
        b = run_identity_suite(seed=3)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


class TestUnitySuite:
    def test_small_run_passes(self):
        r = run_unity_suite(claim_max=12, decomposition_max=8, classify_max=4)
        assert r.claim_failures == ()
        assert r.decomposition_witnesses == ()
        assert r.max_quadruple_class <= 4
        assert r.passed
