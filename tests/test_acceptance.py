"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned in the assertions.
"""

import itertools

import numpy as np
import pytest

import fanweave as fw
from fanweave.basis import pair_label

from helpers import random_density, transformed_basis
from test_basis import WEYL4_MASSES, fan_sets, labelset, weyl6_expected_masses


def _report(criterion: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion}: PASS{suffix}")


def test_c01_weyl4_fan_exact(weyl):
    fan = fw.fan_representation(weyl(4), "0,0")
    assert fan_sets(fan) == {labelset(s) for s in WEYL4_MASSES}
    degree = {}
    for mass in fan.masses:
        for x in mass:
            degree[x] = degree.get(x, 0) + 1
    for x in ("2,0", "0,2", "2,2"):
        assert degree[x] == 3
    assert all(degree[x] == 1 for x in degree if x not in ("2,0", "0,2", "2,2"))
    _report("1", "weyl4: 7 MASSes, overlaps (2,0),(0,2),(2,2) thrice")


def test_c02_weyl6_fan_exact(weyl):
    fan = fw.fan_representation(weyl(6), "0,0")
    assert fan_sets(fan) == set(weyl6_expected_masses())
    assert len(fan.masses) == 12
    _report("2", "weyl6: the 12 listed MASSes")


def test_c03_s3_fan_exact(s3_basis):
    fan = fw.fan_representation(s3_basis, "0,0")
    singletons = {labelset({(m, n)}) for m in range(6) for n in (1, 3, 5)}
    full = {
        labelset({(m, 0) for m in range(1, 6)}),
        labelset({(0, 2), (3, 2), (0, 4), (3, 4), (3, 0)}),
        labelset({(1, 2), (4, 2), (2, 4), (5, 4), (3, 0)}),
        labelset({(2, 2), (5, 2), (1, 4), (4, 4), (3, 0)}),
    }
    assert fan_sets(fan) == singletons | full
    assert all("3,0" in m for m in fan.masses if len(m) == 5)
    assert sum(1 for m in fan.masses if len(m) == 5) == 4
    _report("3", "S3: 18 singletons + 4 full-size through (3,0)")


def test_c04_z3_right_subtraction(z3f_basis):
    untagged = fw.fan_representation(z3f_basis, None)
    assert sorted(len(m) for m in untagged.masses) == [1] * 9
    for m0, n0 in itertools.product(range(3), repeat=2):
        fan = fw.fan_representation(z3f_basis, pair_label(m0, n0))
        expected = {
            labelset({(m0, k) for k in range(3) if k != n0}),
            labelset({(j, n0) for j in range(3) if j != m0}),
            labelset({((m0 + 1) % 3, (n0 + 1) % 3), ((m0 + 2) % 3, (n0 + 2) % 3)}),
            labelset({((m0 + 1) % 3, (n0 + 2) % 3), ((m0 + 2) % 3, (n0 + 1) % 3)}),
        }
        assert fan_sets(fan) == expected
        assert sum(len(m) for m in fan.masses) == 8  # mutually disjoint
    _report("4", "z3 right-subtraction: singleton U-MASSes, 4 disjoint W-MASSes per tag")


def test_c05_pauli2_and_inequivalences(pauli2, weyl, s3_basis):
    fan = fw.fan_representation(pauli2, "I,I")
    assert sorted(len(m) for m in fan.masses) == [3] * 15
    degree = {}
    for mass in fan.masses:
        for x in mass:
            degree[x] = degree.get(x, 0) + 1
    assert all(c == 3 for c in degree.values())
    assert fw.compare_ub(pauli2, weyl(4)) == fw.INEQUIVALENT
    assert fw.compare_ub(s3_basis, weyl(6)) == fw.INEQUIVALENT
    _report("5", "pauli2 structure; pauli2 vs weyl4 and s3 vs weyl6 inequivalent")


@pytest.mark.parametrize("d", [3, 5, 7])
def test_c06_prime_mubs(weyl, d):
    basis = weyl(d)
    tag = fw.tag_at(basis, "0,0")
    fan = fw.fan_representation(basis, "0,0")
    assert len(fan.masses) == d + 1
    assert all(len(m) == d - 1 for m in fan.masses)
    assert sum(len(m) for m in fan.masses) == d * d - 1  # disjoint cover
    system = fw.mub_from_partition(tag, fan.masses)
    assert len(system.bases) == d + 1
    deviation = fw.tomography.mub_unbiasedness_deviation(system.bases, d)
    assert deviation <= 1e-9
    _report("6", f"weyl{d}: {d + 1} MUBs, unbiasedness deviation {deviation:.2e}")


def test_c07_bounds(weyl):
    assert fw.s_bound(3) == 4
    assert fw.s_bound(4) == 6
    assert fw.s_bound(6) == 12
    for d in (4, 6):
        fan = fw.fan_representation(weyl(d), "0,0")
        assert len(fw.minimal_cover(fan).selected) == fw.s_bound(d)
    assert fw.refined_bound(6, 12) == 52
    _report("7", "s_3=4, s_4=6, s_6=12; cover sizes match; refined bound 52")


def _check_povm(povm, d, n_reconstruct=100, seed=0):
    total = sum(povm.elements)
    assert np.linalg.norm(total - np.eye(d)) <= 1e-9
    for e in povm.elements:
        assert np.linalg.eigvalsh((e + e.conj().T) / 2).min() >= -1e-10
    complete, rank = fw.is_info_complete(povm)
    assert complete and rank == d * d
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_reconstruct):
        rho = random_density(d, rng)
        _, err = fw.reconstruct(rho, povm)
        worst = max(worst, err)
    assert worst <= 1e-8
    return worst


def test_c08_povms(weyl):
    tag3 = fw.tag_at(weyl(3), "0,0")
    fan3 = fw.fan_representation(weyl(3), "0,0")
    crude3 = fw.crude_povm(tag3, fw.minimal_cover(fan3))
    assert len(crude3) == 9
    for e, pure in zip(crude3.elements, crude3.pure_flags):
        if pure:
            assert abs(np.trace(e).real - 0.25) <= 1e-12  # c = 1/(d+1) = 1/4 exactly
    _check_povm(crude3, 3)

    tag4 = fw.tag_at(weyl(4), "0,0")
    fan4 = fw.fan_representation(weyl(4), "0,0")
    refined4 = fw.refined_povm(tag4, fw.minimal_cover(fan4), "2,2")
    assert len(refined4) == 16 and refined4.n_pure == 15
    _check_povm(refined4, 4)

    tag6 = fw.tag_at(weyl(6), "0,0")
    fan6 = fw.fan_representation(weyl(6), "0,0")
    refined6a = fw.refined_povm(tag6, fw.minimal_cover(fan6), "2,2")
    assert len(refined6a) == 45 and refined6a.n_pure == 44
    _check_povm(refined6a, 6)
    refined6b = fw.refined_povm(tag6, fw.minimal_cover(fan6), "3,3")
    assert len(refined6b) == 52 and refined6b.n_pure == 51
    _check_povm(refined6b, 6)
    for hub in ("3,0", "0,3"):
        assert len(fw.refined_povm(tag6, fw.minimal_cover(fan6), hub)) == 52

    crude6 = fw.crude_povm(tag6, fw.minimal_cover(fan6))
    assert len(crude6) == 61
    _check_povm(crude6, 6)
    _report("8", "crude 9 (c=1/4) and 61; refined 16/45/52; all complete, round trips <= 1e-8")


def test_c09_ppt():
    for n in (2, 3):
        for seed in range(20):
            cert = fw.build_ppt(n, rng_seed=seed)
            assert cert.lambda_min >= -1e-10
            assert cert.lambda_min_pt >= -1e-10
    for n in (2, 3):
        for seed in range(20):
            shm = fw.random_shm(n, rng_seed=seed)
            assert fw.shm_conjugation_residual(shm.matrix) <= 1e-12
    rng = np.random.default_rng(5)
    for d in (3, 4, 5):
        for _ in range(5):
            xi = rng.normal(size=d) + 1j * rng.normal(size=d)
            assert fw.verify_circulant_cuet(fw.circulant(xi), tol=1e-14)
    _report("9", "PPT certificates, SHM identity <= 1e-12, circulant identity <= 1e-14")


def test_c10a_fan_invariance_under_equivalence(weyl, pauli2):
    fixtures = {"weyl3": weyl(3), "weyl4": weyl(4), "pauli2": pauli2}
    rng = np.random.default_rng(99)
    for name, basis in fixtures.items():
        baseline = fw.invariant_profile(basis)
        baseline_pcue = fw.invariant_profile(basis, variant="pcue")
        for _ in range(50):
            other = transformed_basis(basis, rng)
            assert fw.invariant_profile(other) == baseline, name
        # phase variant additionally survives per-element phases
        phases = np.exp(2j * np.pi * rng.uniform(size=len(basis.labels)))
        ops = {
            x: phases[i] * basis.operators[x] for i, x in enumerate(basis.labels)
        }
        rephased = fw.unitary_basis(list(basis.labels), ops, fw.Provenance(kind="rephased"))
        assert fw.invariant_profile(rephased, variant="pcue") == baseline_pcue, name
    _report("10a", "invariant profiles stable over 50 random equivalences per fixture")


def test_c10b_tau_and_omega(weyl):
    rng = np.random.default_rng(7)
    for d in (2, 3, 5):
        for _ in range(10):
            psi = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
            psi /= np.linalg.norm(psi)
            assert np.linalg.norm(fw.op_to_vec(fw.vec_to_op(psi)) - psi) <= 1e-12
        assert abs(fw.entanglement_entropy(fw.omega(d)) - np.log(d)) <= 1e-10
    _report("10b", "tau round trip <= 1e-12; omega entropy = ln d within 1e-10")


def test_c10c_exact_vs_numeric_graphs(weyl, z3f_basis, s3_basis):
    fixtures = {
        "weyl2": weyl(2), "weyl3": weyl(3), "weyl4": weyl(4),
        "weyl5": weyl(5), "weyl6": weyl(6), "z3f": z3f_basis, "s3": s3_basis,
    }
    for name, basis in fixtures.items():
        numeric = fw.basis_commutation_graph(basis, mode="numeric")
        exact = fw.basis_commutation_graph(basis, mode="exact-crisscross")
        assert np.array_equal(numeric.adjacency, exact.adjacency), name
        for x0 in basis.labels:
            tag = fw.tag_at(basis, x0)
            num_tag = fw.commutation_graph(tag, mode="numeric")
            exact_tag = fw.commutation_graph(tag, mode="exact-twill")
            assert np.array_equal(num_tag.adjacency, exact_tag.adjacency), (name, x0)
    _report("10c", "exact and numeric commutation graphs agree on all fixtures, all tags")


def test_c10d_simul_diag_residuals(weyl, z3f_basis, s3_basis, pauli2):
    fixtures = {
        "weyl2": (weyl(2), "0,0"), "weyl3": (weyl(3), "0,0"), "weyl4": (weyl(4), "0,0"),
        "weyl5": (weyl(5), "0,0"), "weyl6": (weyl(6), "0,0"),
        "z3f": (z3f_basis, "1,2"), "s3": (s3_basis, "0,0"), "pauli2": (pauli2, "I,I"),
    }
    for name, (basis, x0) in fixtures.items():
        tag = fw.tag_at(basis, x0)
        fan = fw.fan_representation(basis, x0)
        for mass in fan.masses:
            ops = [tag.operators[y] for y in mass]
            u, diags = fw.simul_diag(ops, rng_seed=1)
            for op, lam in zip(ops, diags):
                resid = np.linalg.norm(u.conj().T @ op @ u - np.diag(lam))
                assert resid <= 1e-8, (name, mass)
    _report("10d", "joint diagonalization residual <= 1e-8 on every MASS of every fixture")
