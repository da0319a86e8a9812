"""Randomized verification suites: sampling, determinism, and result contracts."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from shiftdecomp import (
    build_target,
    enumerate_proper_subgroups,
    is_prime,
    make_field,
    run_identity_suite,
    run_stepanov_suite,
    run_unity_suite,
    suites,
)

# sha256 over every audit of run_stepanov_suite(instances=500, seed=3), one
# repr line per audit_instance call; see test_every_audit_matches_pinned_digest
AUDIT_DIGEST_500_SEED_3 = "081b9dbc3fd0fe54b2abf12ba61c6e0c1bbd904ec41596bddc68a15925807666"


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

    def test_every_audit_matches_pinned_digest(self, monkeypatch):
        # the CLI record holds only totals; this pins f, every multiplicity
        # and both equality flags of every sampled and flagship instance
        digest = hashlib.sha256()
        audit_instance = suites.audit_instance

        def recording(a_set, b_set, lam, subgroup):
            audit = audit_instance(a_set, b_set, lam, subgroup)
            row = (a_set.p, a_set.elements(), b_set.elements(), lam, subgroup.order,
                   audit.f.coeffs, audit.multiplicities, audit.zero_multiplicity,
                   audit.r_elements, audit.general_equality, audit.shifted_equality)
            digest.update(repr(row).encode() + b"\n")
            return audit

        monkeypatch.setattr(suites, "audit_instance", recording)
        assert run_stepanov_suite(instances=500, seed=3).passed
        assert digest.hexdigest() == AUDIT_DIGEST_500_SEED_3

    @pytest.mark.parametrize("p", [q for q in range(3, 32) if is_prime(q)])
    def test_hypothesis_pool_matches_residue_scan(self, p):
        for subgroup in enumerate_proper_subgroups(make_field(p)):
            # G union {0} from residues: the roots of x^(|G| + 1) = x
            target = {x for x in range(p) if pow(x, subgroup.order + 1, p) == x}
            for lam in range(1, p):
                expected = [t for t in range(1, p) if (t + lam) % p in target]
                pool = build_target(subgroup, 1, -lam, with_zero=True).elements()
                assert list(pool) == expected


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
