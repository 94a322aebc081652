import itertools

import numpy as np
import pytest

import fanweave as fw
from fanweave.errors import InvariantError

from helpers import random_density


class TestUnitSpectrumAngles:
    def test_stack_matches_per_matrix_calls(self, weyl):
        rng = np.random.default_rng(3)
        near_one = np.diag(np.exp(1j * np.array([-1e-10, np.pi / 2, np.pi])))  # first angle folds from 2 pi
        stack = np.stack(
            [near_one, weyl(3).operators["1,1"], weyl(3).operators["0,1"], fw.random_unitary(3, rng)]
        )
        per_matrix = [fw.linalg.unit_spectrum_angles(m[None])[0] for m in stack]
        assert per_matrix[0][0] == 0.0
        assert fw.linalg.unit_spectrum_angles(stack) == per_matrix
        for m, angles in zip(stack, per_matrix):  # reference: round_unit_angle of each eigenvalue
            assert angles == tuple(sorted(fw.linalg.round_unit_angle(z) for z in np.linalg.eigvals(m)))

    @pytest.mark.parametrize("offset", [1e-14, -1e-14])
    def test_angle_near_rounding_boundary_refused(self, offset):
        boundary = 0.123456785  # halfway between two 8-decimal values
        theta = boundary + offset
        dense = np.diag(np.exp(1j * np.array([theta, -theta])))
        form = fw.linalg.MonomialForm(np.array([[0, 1]]), np.exp(1j * np.array([[theta, -theta]])))
        for members in (dense[None], form):
            with pytest.raises(InvariantError, match=r"member w: eigenvalue angle 0\.12345678\d* lies 1\.\de-14 rad"):
                fw.linalg.unit_spectrum_angles(members, ["w"])
        # outside the margin both paths round alike
        safe = np.exp(1j * np.array([boundary + 100 * offset, 1.0]))
        form = fw.linalg.MonomialForm(np.array([[0, 1]]), safe[None])
        assert fw.linalg.unit_spectrum_angles(form) == fw.linalg.unit_spectrum_angles(np.diag(safe)[None])

    def test_cycle_spectrum_of_a_long_cycle(self):
        # a 4-cycle with phase product -1 (arg on the branch cut): eigenvalues are the 4th roots of -1
        perm = np.array([[2, 0, 3, 1]])
        phase = np.array([[1j, 1j, 1.0, 1.0]])
        dense = np.zeros((1, 4, 4), dtype=complex)
        dense[0, perm[0], np.arange(4)] = phase[0]
        form = fw.linalg.MonomialForm(perm, phase)
        expected = [tuple(round(np.pi * (2 * j + 1) / 4, 8) for j in range(4))]
        assert fw.linalg.unit_spectrum_angles(form) == fw.linalg.unit_spectrum_angles(dense) == expected

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError, match="shape"):
            fw.linalg.unit_spectrum_angles(np.ones((2, 2, 3)))


class TestUnitAngleDifferences:
    def test_matches_scalar_rounding_on_every_member_spectrum(self, weyl, pauli2, s3_basis):
        tags = [fw.tag_at(b, x0) for b in (weyl(4), weyl(6), pauli2, s3_basis) for x0 in b.labels]
        tags.append(fw.tag_at(weyl(12), "0,0"))
        spectra = {a for t in tags for a in fw.linalg.unit_spectrum_angles(fw.basis.tag_members(t, t.labels))}
        for angles in spectra:
            scalar = sorted(fw.linalg.round_unit_angle(np.exp(1j * (a - b)))
                            for a, b in itertools.permutations(angles, 2))
            assert fw.linalg.unit_angle_differences(angles) == tuple(scalar), angles
        assert len(spectra) >= 20


class TestIsUnitary:
    def test_identity(self):
        assert fw.is_unitary(np.eye(3), tol=1e-10)

    def test_unimodular_diagonal(self):
        assert fw.is_unitary(np.diag([1, 1j, -1]), tol=1e-10)

    def test_non_unimodular_entry(self):
        assert not fw.is_unitary(np.diag([1.0, 0.5]), tol=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            fw.is_unitary(np.ones((2, 3)))


class TestHsOrthogonality:
    def test_pauli_family(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]])
        z = np.diag([1.0, -1.0]).astype(complex)
        ops = {"I": np.eye(2), "X": x, "Y": y, "Z": z}
        assert fw.unitary_basis(list(ops), ops, fw.Provenance(kind="test")).gram_max_deviation <= 1e-9

    def test_repeated_element_fails(self):
        ops = {"a": np.eye(2), "b": np.eye(2), "c": np.array([[0, 1], [1, 0]]), "d": np.diag([1.0, -1.0])}
        with pytest.raises(InvariantError, match=r"orthogonality fails for pair \(a, b\)"):
            fw.unitary_basis(list(ops), ops, fw.Provenance(kind="test"))

    def test_weyl3_all_pairs_against_direct_traces(self, weyl):
        basis = weyl(3)
        ops = [basis.operators[x] for x in basis.labels]
        # independent oracle: explicit double loop over all 81 pairs
        worst = max(
            abs(np.trace(a.conj().T @ b) - (3.0 if i == j else 0.0))
            for i, a in enumerate(ops) for j, b in enumerate(ops)
        )
        assert worst <= 1e-9
        # the loop sums each trace in another order, so the two agree to a few ulps of d
        assert basis.gram_max_deviation == pytest.approx(worst, abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        ops = {"a": np.eye(2), "b": np.eye(3), "c": np.eye(2), "d": np.eye(2)}
        with pytest.raises(InvariantError, match="dimension 3, expected 2"):
            fw.unitary_basis(list(ops), ops, fw.Provenance(kind="test"))


class TestEigNormal:
    def test_diagonal(self):
        dec = fw.eig_normal(np.diag([1.0, -1.0]))
        assert np.allclose(dec.eigenvalues, [1.0, -1.0])

    def test_flip_eigenvalues(self):
        dec = fw.eig_normal(fw.flip(2))
        assert np.allclose(sorted(dec.eigenvalues.real), [-1, 1, 1, 1])
        # sorted by angle: the three +1 eigenvalues come first
        assert np.allclose(dec.eigenvalues, [1, 1, 1, -1])

    def test_weyl_shift_cube_roots(self, weyl):
        shift = weyl(3).operators["0,1"]
        dec = fw.eig_normal(shift)
        omega3 = np.exp(2j * np.pi / 3)
        assert np.allclose(dec.eigenvalues, [1, omega3, omega3**2])

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        u = fw.random_unitary(4, rng)
        a = u @ np.diag(np.exp(2j * np.pi * rng.uniform(size=4))) @ u.conj().T
        dec = fw.eig_normal(a)
        recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.linalg.norm(a - recon) <= 1e-9 * np.linalg.norm(a)

    def test_rejects_non_normal(self):
        with pytest.raises(InvariantError, match="not normal"):
            fw.eig_normal(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestCommutatorNorms:
    @staticmethod
    def per_pair(mats):
        n = len(mats)
        return np.array([[np.linalg.norm(mats[a] @ mats[b] - mats[b] @ mats[a]) if a < b else 0.0
                          for b in range(n)] for a in range(n)])

    def test_family_of_one(self):
        assert np.array_equal(fw.linalg.commutator_norms(np.eye(3, dtype=complex)[None]), np.zeros((1, 1)))

    def test_stack_split_into_blocks(self, monkeypatch):
        rng = np.random.default_rng(17)
        mats = np.stack([fw.random_unitary(3, rng) for _ in range(7)] + [np.eye(3, dtype=complex)])
        expected = self.per_pair(mats)
        whole = fw.linalg.commutator_norms(mats)
        monkeypatch.setattr(fw.linalg, "_CACHE_BYTES", 2 * 16 * 3 * 3)  # blocks of two pairs
        blocked = fw.linalg.commutator_norms(mats)
        for resid in (whole, blocked):
            assert np.abs(resid - expected).max() <= 1e-12
            assert not np.tril(resid).any()
        assert expected[0, 1] > 1.0 and np.allclose(expected[:, 7], 0.0, atol=1e-12)

    def test_probe_screen_exact_at_or_below_floor_and_a_lower_bound_above(self, monkeypatch):
        rng = np.random.default_rng(23)
        u = fw.random_unitary(4, rng)
        mats = np.stack([fw.random_unitary(4, rng) for _ in range(8)] + [u, u @ u, np.eye(4, dtype=complex)])
        expected = self.per_pair(mats)
        floor = 1.0
        whole = fw.linalg.commutator_norms(mats, floor)
        monkeypatch.setattr(fw.linalg, "_CACHE_BYTES", 2 * 16 * 11 * 4)  # probe blocks of two rows
        assert fw.linalg._CACHE_BYTES // (16 * 4 * 4) < 55  # the verified pairs split into blocks too
        blocked = fw.linalg.commutator_norms(mats, floor)
        upper = np.triu(np.ones(expected.shape, dtype=bool), 1)
        below, above = upper & (expected <= floor), upper & (expected > floor)
        for resid in (whole, blocked):
            assert not np.tril(resid).any()
            assert np.abs(resid - expected)[below].max() <= 1e-12
            assert (resid[above] > floor).all() and (resid[above] <= expected[above] + 1e-12).all()
            cleared = resid[above] < expected[above] - 0.1
            assert cleared.any() and not cleared.all()  # the probe clears some pairs above the floor, not all
        assert below.sum() > 3 and above.sum() > 3  # both sides of the floor, commuting pairs included

    def test_pair_that_fixes_the_probe_is_verified(self):
        d, rng = 4, np.random.default_rng(29)
        v = fw.linalg._probe(d)
        q, _ = np.linalg.qr(np.column_stack([v, rng.normal(size=(d, d - 1)) + 1j * rng.normal(size=(d, d - 1))]))
        fixing = []
        for _ in range(2):
            block = np.eye(d, dtype=complex)
            block[1:, 1:] = fw.random_unitary(d - 1, rng)
            fixing.append(q @ block @ q.conj().T)
        mats = np.stack(fixing)
        assert np.abs(mats @ v - v).max() <= 1e-14  # A v = B v = v: the probe sees no commutator
        limit = fw.DEFAULT_TOLS.commutation
        resid = fw.linalg.commutator_norms(mats, limit + 2 * fw.basis._COMMUTATION_MARGIN)
        expected = self.per_pair(mats)[0, 1]
        assert expected > 0.1 and abs(resid[0, 1] - expected) <= 1e-12
        adj, max_edge, min_non_edge = fw.basis._numeric_adjacency(("a", "b"), mats, limit)
        assert not adj[0, 1] and (max_edge, min_non_edge) == (0.0, resid[0, 1])

    def test_simul_diag_names_first_failing_pair(self):
        z, x, i2 = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)
        # (0, 3) and (1, 2) fail; (0, 3) comes first in (i, j) order
        family = [np.kron(z, i2), np.kron(i2, x), np.kron(i2, z), np.kron(x, i2)]
        with pytest.raises(InvariantError, match="family members 0 and 3 do not commute"):
            fw.simul_diag(family)


class TestSimulDiag:
    def test_identity_and_diagonal(self):
        u, diags = fw.simul_diag([np.eye(2), np.diag([1.0, -1.0])])
        assert np.allclose(np.abs(u), np.eye(2))
        assert np.allclose(diags[0], [1, 1])
        assert np.allclose(diags[1], [1, -1])

    def test_weyl3_shift_powers_fourier_eigenbasis(self, weyl):
        basis = weyl(3)
        u, diags = fw.simul_diag([basis.operators["0,1"], basis.operators["0,2"]])
        fourier = fw.hadamard_fourier(3) / np.sqrt(3)
        # every output column matches a Fourier column up to phase
        overlap = np.abs(fourier.conj().T @ u)
        assert np.allclose(np.sort(overlap, axis=0)[-1], 1.0, atol=1e-10)

    def test_pauli_tensor_family_hadamard_eigenbasis(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        fam = [np.kron(x, np.eye(2)), np.kron(np.eye(2), x), np.kron(x, x)]
        u, diags = fw.simul_diag(fam)
        # brute-force oracle: columns are joint eigenvectors of each member
        for f, lam in zip(fam, diags):
            assert np.linalg.norm(f @ u - u * lam) <= 1e-10
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        hh = np.kron(h, h)
        overlap = np.abs(hh.conj().T @ u)
        assert np.allclose(np.sort(overlap, axis=0)[-1], 1.0, atol=1e-10)

    def test_joint_eigenspace_projectors_invariant_under_family_permutation(self):
        rng = np.random.default_rng(11)
        u = fw.random_unitary(6, rng)
        d1 = np.diag([1, 1, 2, 2, 3, 3]).astype(complex)
        d2 = np.diag([1, 2, 1, 2, 1, 2]).astype(complex)
        fam = [u @ d1 @ u.conj().T, u @ d2 @ u.conj().T]

        def projector_map(family):
            v, diags = fw.simul_diag(family, rng_seed=3)
            cols = {}
            for j in range(6):
                key = tuple(round(float(diags[k][j].real), 8) for k in range(len(family)))
                p = cols.setdefault(key, np.zeros((6, 6), dtype=complex))
                cols[key] = p + np.outer(v[:, j], v[:, j].conj())
            return cols

        first = projector_map(fam)
        second = projector_map(fam[::-1])
        assert set(first) == {(k[1], k[0]) for k in second}
        for key, proj in first.items():
            assert np.linalg.norm(proj - second[(key[1], key[0])]) <= 1e-8

    def test_degenerate_recursion(self):
        rng = np.random.default_rng(2)
        u = fw.random_unitary(8, rng)
        spec1 = np.diag([0, 0, 0, 1, 1, 1, 2, 2]).astype(complex)
        spec2 = np.diag([0, 1, 2, 0, 1, 2, 0, 1]).astype(complex)
        fam = [u @ spec1 @ u.conj().T, u @ spec2 @ u.conj().T]
        v, diags = fw.simul_diag(fam)
        for f, lam in zip(fam, diags):
            assert np.linalg.norm(v.conj().T @ f @ v - np.diag(lam)) <= 1e-8 * np.sqrt(8)

    def test_determinism(self, weyl):
        ops = [weyl(4).operators[x] for x in ("1,0", "2,0", "3,0")]
        u1, d1 = fw.simul_diag(ops, rng_seed=9)
        u2, d2 = fw.simul_diag(ops, rng_seed=9)
        assert np.array_equal(u1, u2)
        assert all(np.array_equal(a, b) for a, b in zip(d1, d2))

    def test_noncommuting_rejected_with_pair(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(InvariantError, match="0 and 1 do not commute"):
            fw.simul_diag([x, z])


class TestIsPsd:
    def test_identity(self):
        assert fw.is_psd(np.eye(4))

    def test_small_negative(self):
        assert not fw.is_psd(np.diag([1.0, -0.001]), tol=1e-10)

    def test_projector(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        assert fw.is_psd(np.outer(v, v.conj()))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            fw.is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPartialTranspose:
    def test_product_state(self):
        rng = np.random.default_rng(1)
        rho = random_density(2, rng)
        sigma = random_density(3, rng)
        got = fw.partial_transpose(np.kron(rho, sigma), 2, 3, subsystem=2)
        assert np.allclose(got, np.kron(rho, sigma.T))
        got1 = fw.partial_transpose(np.kron(rho, sigma), 2, 3, subsystem=1)
        assert np.allclose(got1, np.kron(rho.T, sigma))

    def test_maximally_entangled_projector_gives_half_flip(self):
        # direct 4x4 oracle: |Omega><Omega| partial transpose equals flip/2
        proj = np.outer(fw.omega(2), fw.omega(2).conj())
        pt = fw.partial_transpose(proj, 2, 2)
        assert np.allclose(pt, fw.flip(2) / 2)
        assert np.allclose(np.sort(np.linalg.eigvalsh(pt)), [-0.5, 0.5, 0.5, 0.5])

    def test_involution_exact(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        twice = fw.partial_transpose(fw.partial_transpose(m, 2, 3), 2, 3)
        assert np.array_equal(twice, m)

    def test_preserves_trace_and_hermiticity_exactly(self):
        rng = np.random.default_rng(4)
        raw = random_density(6, rng)
        rho = (raw + raw.conj().T) / 2  # exactly Hermitian entrywise
        pt = fw.partial_transpose(rho, 3, 2)
        assert np.trace(pt) == np.trace(rho)
        assert np.array_equal(pt, pt.conj().T)

    def test_bad_factorization(self):
        with pytest.raises(ValueError, match="factor"):
            fw.partial_transpose(np.eye(5), 2, 2)


class TestTauCorrespondence:
    def test_omega_maps_to_identity(self):
        assert np.allclose(fw.vec_to_op(fw.omega(5)), np.eye(5))

    def test_explicit_entrywise_example(self):
        psi = np.array([1, 0, 0, -1]) / np.sqrt(2)
        assert np.allclose(fw.vec_to_op(psi), np.diag([1.0, -1.0]))

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        back = fw.op_to_vec(fw.vec_to_op(psi))
        assert np.linalg.norm(back - psi) <= 1e-12

    def test_psi_equals_a_tensor_identity_omega(self):
        rng = np.random.default_rng(9)
        psi = rng.normal(size=9) + 1j * rng.normal(size=9)
        psi /= np.linalg.norm(psi)
        a = fw.vec_to_op(psi)
        assert np.linalg.norm(np.kron(a, np.eye(3)) @ fw.omega(3) - psi) <= 1e-12

    def test_flip_induces_transpose(self):
        rng = np.random.default_rng(10)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        lhs = fw.vec_to_op(fw.flip(4) @ psi)
        assert np.linalg.norm(lhs - fw.vec_to_op(psi).T) <= 1e-12


class TestSchmidt:
    def test_product_vector(self):
        e11 = np.zeros(9)
        e11[0] = 1.0
        assert fw.schmidt_rank(e11) == 1
        assert abs(fw.entanglement_entropy(e11)) <= 1e-12

    def test_omega_maximal(self):
        assert fw.schmidt_rank(fw.omega(3)) == 3
        assert abs(fw.entanglement_entropy(fw.omega(3)) - np.log(3)) <= 1e-10

    def test_rank_two_example(self):
        a = np.diag([1.0, 1.0, 0.0]) * np.sqrt(3 / 2)
        psi = np.kron(a, np.eye(3)) @ fw.omega(3)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
        assert fw.schmidt_rank(psi) == 2
        assert abs(fw.entanglement_entropy(psi) - np.log(2)) <= 1e-10

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match=r"^vector is not normalized: \|\|psi\|\| = 2\.0$"):
            fw.schmidt_rank(np.ones(4))

    def test_entropy_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            psi = rng.normal(size=16) + 1j * rng.normal(size=16)
            psi /= np.linalg.norm(psi)
            u = np.kron(fw.random_unitary(4, rng), fw.random_unitary(4, rng))
            before = fw.entanglement_entropy(psi)
            after = fw.entanglement_entropy(u @ psi)
            assert abs(before - after) <= 1e-10


class TestFlipOmega:
    def test_flip_swaps_product_vectors(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        assert np.allclose(fw.flip(2) @ np.kron(e1, e2), np.kron(e2, e1))

    def test_flip_squares_to_identity_exactly(self):
        f = fw.flip(3)
        assert np.array_equal(f @ f, np.eye(9).astype(complex))

    def test_flip_conjugates_tensor_factors(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        f = fw.flip(3)
        assert np.allclose(f @ np.kron(a, b) @ f, np.kron(b, a))


class TestHsCauchySchwarz:
    def test_bound_and_equality_case(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            a = fw.random_unitary(5, rng)
            b = fw.random_unitary(5, rng)
            assert abs(np.trace(a.conj().T @ b)) <= 5 + 1e-9
        c = np.exp(1j * 0.7)
        a = fw.random_unitary(5, rng)
        assert abs(abs(np.trace(a.conj().T @ (c * a))) - 5) <= 1e-9
