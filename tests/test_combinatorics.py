import itertools
import re

import numpy as np
import pytest

import fanweave as fw

from helpers import hadamard_crisscross, latin_crisscross


def z3f():
    return fw.latin_from_group(fw.group_cyclic(3), "f")


class TestGroups:
    def test_cyclic_addition(self):
        g = fw.group_cyclic(3)
        assert g.cayley[1][2] == 0
        assert g.identity == 0
        assert list(g.inverse) == [0, 2, 1]

    def test_s3_fixed_labeling(self):
        g = fw.group_s3()
        # (ab)(ac) = (acb), labeled 4; (ab)(bc) = (abc), labeled 2
        assert g.cayley[1][3] == 4
        assert g.cayley[1][5] == 2
        assert g.inverse[2] == 4

    def test_s3_is_nonabelian(self):
        g = fw.group_s3()
        assert g.cayley[1][2] != g.cayley[2][1]

    def test_product_group(self):
        g = fw.group_product(fw.group_cyclic(2), fw.group_cyclic(2))
        assert g.order == 4
        # exponent 2: every element is its own inverse
        assert list(g.inverse) == [0, 1, 2, 3]

    def test_rejects_non_permutation_row(self):
        with pytest.raises(ValueError, match="row 0"):
            fw.group_from_cayley([[0, 0], [1, 0]])

    def test_rejects_non_associative(self):
        # rows/columns are permutations but (a*b)*c != a*(b*c) somewhere
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(ValueError, match="associativity|identity"):
            fw.group_from_cayley(table)

    def test_rejects_non_associative_above_order_64(self):
        # Z_66 with one intercalate swapped: a latin square with identity 0 and inverses, but not a group
        a = np.arange(66)
        table = (a[:, None] + a) % 66
        table[np.ix_([1, 34], [2, 35])] = table[np.ix_([1, 34], [35, 2])]
        first = tuple(int(i) for i in np.argwhere(table[table] != table[:, table])[0])  # (a*b)*c != a*(b*c)
        with pytest.raises(ValueError, match=re.escape(f"associativity fails at triple {first}")):
            fw.group_from_cayley(table)


class TestLatinSquares:
    def test_right_subtraction_table(self):
        lam = z3f()
        assert lam.table[1][2] == 2  # 1 - 2 mod 3

    def test_addition_left_identity_row(self):
        lam = fw.latin_from_group(fw.group_cyclic(5), "e")
        assert list(lam.table[0]) == list(range(5))

    def test_right_divisor_has_right_identity(self):
        for group in (fw.group_cyclic(4), fw.group_s3()):
            lam = fw.latin_from_group(group, "f")
            assert all(lam.table[a][group.identity] == a for a in range(group.order))

    def test_all_variants_are_latin(self):
        group = fw.group_s3()
        for variant in fw.combinatorics.LATIN_VARIANTS:
            lam = fw.latin_from_group(group, variant)
            assert lam.size == 6  # latin_square validates injectivity

    def test_rejects_repeats(self):
        with pytest.raises(ValueError, match="row 0"):
            fw.latin_square([[0, 0], [1, 1]])


class TestLatinInverse:
    def test_z3_right_subtraction_is_self_inverse(self):
        lam = z3f()
        assert np.array_equal(fw.latin_inverse(lam).table, lam.table)

    def test_addition_inverts_to_left_subtraction(self):
        g = fw.group_cyclic(5)
        mu = fw.latin_inverse(fw.latin_from_group(g, "e"))
        assert np.array_equal(mu.table, fw.latin_from_group(g, "g").table)

    def test_involution_on_shuffled_squares(self):
        rng = np.random.default_rng(7)
        base = fw.latin_from_group(fw.group_cyclic(8), "e")
        for _ in range(5):
            rows = rng.permutation(8)
            cols = rng.permutation(8)
            syms = rng.permutation(8)
            lam = fw.latin_square(syms[base.table[np.ix_(rows, cols)]])
            twice = fw.latin_inverse(fw.latin_inverse(lam))
            assert np.array_equal(twice.table, lam.table)

    def test_variant_inverse_pairs(self):
        # (e, g), (f, m) and (l, n) are inverse-paired for any group
        for group in (fw.group_cyclic(6), fw.group_s3()):
            for a, b in (("e", "g"), ("f", "m"), ("l", "n")):
                lam = fw.latin_from_group(group, a)
                mu = fw.latin_from_group(group, b)
                assert np.array_equal(fw.latin_inverse(lam).table, mu.table), (a, b)
                assert np.array_equal(fw.latin_inverse(mu).table, lam.table), (a, b)


class TestLatinIdentities:
    def test_addition(self):
        lam = fw.latin_from_group(fw.group_cyclic(4), "e")
        assert fw.latin_identities(lam) == (0, 0)

    def test_z3_right_subtraction(self):
        assert fw.latin_identities(z3f()) == (None, 0)

    def test_z2_right_subtraction_both(self):
        lam = fw.latin_from_group(fw.group_cyclic(2), "f")
        assert fw.latin_identities(lam) == (0, 0)


class TestLatinCrisscross:
    def test_equal_indices_always(self):
        lam = fw.latin_from_group(fw.group_s3(), "f")
        assert all(latin_crisscross(lam, n, n) for n in range(6))

    def test_z3_right_subtraction_fails_off_diagonal(self):
        assert not latin_crisscross(z3f(), 0, 1)

    def test_left_division_abelian_always_true(self):
        lam = fw.latin_from_group(fw.group_cyclic(6), "g")
        assert all(
            latin_crisscross(lam, n, n2) for n in range(6) for n2 in range(6)
        )

    def test_symmetry_exhaustive(self):
        for variant in ("e", "f", "g"):
            lam = fw.latin_from_group(fw.group_s3(), variant)
            for n, n2 in itertools.product(range(6), repeat=2):
                assert latin_crisscross(lam, n, n2) == latin_crisscross(lam, n2, n)

    def test_odd_order_right_divisor_reduces_to_equality(self):
        for d in (3, 5):
            lam = fw.latin_from_group(fw.group_cyclic(d), "f")
            for n, n2 in itertools.product(range(d), repeat=2):
                assert latin_crisscross(lam, n, n2) == (n == n2)

    def test_right_divisor_doubling_rule_abelian(self):
        # for abelian G: criss-cross of the right-subtraction square iff n+n = n2+n2
        groups = {
            "z4": fw.group_cyclic(4),
            "z6": fw.group_cyclic(6),
            "z2xz2": fw.group_product(fw.group_cyclic(2), fw.group_cyclic(2)),
        }
        for name, g in groups.items():
            lam = fw.latin_from_group(g, "f")
            for n, n2 in itertools.product(range(g.order), repeat=2):
                expected = g.cayley[n][n] == g.cayley[n2][n2]
                assert latin_crisscross(lam, n, n2) == expected, (name, n, n2)

    def test_right_divisor_closed_form_nonabelian(self):
        # cross-check against (n2 n^-1)^2 = e, n2 n = n n2, n2 n^-1 central
        g = fw.group_s3()
        lam = fw.latin_from_group(g, "f")
        center = [
            a for a in range(6)
            if all(g.cayley[a][b] == g.cayley[b][a] for b in range(6))
        ]
        for n, n2 in itertools.product(range(6), repeat=2):
            ratio = g.cayley[n2][g.inverse[n]]
            closed = (
                g.cayley[ratio][ratio] == g.identity
                and g.cayley[n2][n] == g.cayley[n][n2]
                and ratio in center
            )
            assert latin_crisscross(lam, n, n2) == closed


class TestHadamardCrisscross:
    def test_fourier_weyl_congruence_rule_d4(self):
        lam = fw.latin_from_group(fw.group_cyclic(4), "e")
        fam = fw.fourier_family(4)
        for m, n, m2, n2 in itertools.product(range(4), repeat=4):
            expected = (m * n2 - m2 * n) % 4 == 0
            assert hadamard_crisscross(fam, lam, (m, n), (m2, n2)) == expected
        assert hadamard_crisscross(fam, lam, (1, 2), (2, 0))

    def test_reflexive(self):
        lam = z3f()
        fam = fw.fourier_family(3)
        for m, n in itertools.product(range(3), repeat=2):
            assert hadamard_crisscross(fam, lam, (m, n), (m, n))

    def test_z3_right_subtraction_same_column_distinct_rows(self):
        lam = z3f()
        fam = fw.fourier_family(3)
        for m, m2 in itertools.product(range(3), repeat=2):
            got = hadamard_crisscross(fam, lam, (m, 1), (m2, 1))
            assert got == (m == m2)

    def test_symmetry_exhaustive_d_le_6(self):
        for d in (2, 3, 4, 6):
            lam = fw.latin_from_group(fw.group_cyclic(d), "e")
            fam = fw.fourier_family(d)
            pairs = list(itertools.product(range(d), repeat=2))
            for a, b in itertools.combinations(pairs, 2):
                assert hadamard_crisscross(fam, lam, a, b) == hadamard_crisscross(
                    fam, lam, b, a
                )

    def test_exact_and_float_modes_agree(self):
        for d in (2, 3, 4, 5, 6):
            lam = fw.latin_from_group(fw.group_cyclic(d), "f")
            exact = fw.fourier_family(d)
            floaty = fw.hadamard_family(exact.matrices)
            assert not floaty.exact
            pairs = list(itertools.product(range(d), repeat=2))
            for a, b in itertools.combinations(pairs, 2):
                assert hadamard_crisscross(exact, lam, a, b) == hadamard_crisscross(
                    floaty, lam, a, b
                )


class TestTwills:
    def test_tag_member_trivially_commutes(self):
        lam = z3f()
        mu = fw.latin_inverse(lam)
        fam = fw.fourier_family(3)
        for m0, n0 in itertools.product(range(3), repeat=2):
            for m, n in itertools.product(range(3), repeat=2):
                assert fw.latin_twill(lam, mu, n, n0, n0)
                assert fw.hadamard_twill(fam, lam, mu, (m, n), (m0, n0), (m0, n0))

    def test_z3_fourier_twill_congruence(self):
        lam = z3f()
        mu = fw.latin_inverse(lam)
        fam = fw.fourier_family(3)
        for m0, n0 in itertools.product(range(3), repeat=2):
            for m, n, m2, n2 in itertools.product(range(3), repeat=4):
                expected = ((m - m0) * (n2 - n0) - (m2 - m0) * (n - n0)) % 3 == 0
                got = fw.latin_twill(lam, mu, n, n0, n2) and fw.hadamard_twill(
                    fam, lam, mu, (m, n), (m0, n0), (m2, n2)
                )
                assert got == expected

    def test_latin_twill_abelian_always(self):
        for variant in ("e", "f", "g", "l"):
            lam = fw.latin_from_group(fw.group_cyclic(6), variant)
            mu = fw.latin_inverse(lam)
            for n0, n, n2 in itertools.product(range(6), repeat=3):
                assert fw.latin_twill(lam, mu, n, n0, n2)

    def test_group_twill_matches_conjugation_condition(self):
        # for the multiplication square: twill iff n n0^-1 n2 = n2 n0^-1 n
        g = fw.group_s3()
        lam = fw.latin_from_group(g, "e")
        mu = fw.latin_inverse(lam)
        for n0, n, n2 in itertools.product(range(6), repeat=3):
            lhs = g.cayley[g.cayley[n][g.inverse[n0]]][n2]
            rhs = g.cayley[g.cayley[n2][g.inverse[n0]]][n]
            assert fw.latin_twill(lam, mu, n, n0, n2) == (lhs == rhs)

    def test_mismatched_inverse_rejected(self):
        lam = fw.latin_from_group(fw.group_cyclic(4), "e")
        with pytest.raises(ValueError, match="inverse"):
            fw.latin_twill(lam, lam, 0, 1, 2)

    def test_exact_and_float_twill_agree(self):
        lam = z3f()
        mu = fw.latin_inverse(lam)
        exact = fw.fourier_family(3)
        floaty = fw.hadamard_family(exact.matrices)
        for m0, n0, m, n, m2, n2 in itertools.product(range(3), repeat=6):
            assert fw.hadamard_twill(exact, lam, mu, (m, n), (m0, n0), (m2, n2)) == \
                fw.hadamard_twill(floaty, lam, mu, (m, n), (m0, n0), (m2, n2))


class TestHadamardMatrices:
    def test_fourier3_entries(self):
        w = np.exp(2j * np.pi / 3)
        expected = np.array([[1, 1, 1], [1, w, w**2], [1, w**2, w]])
        assert np.allclose(fw.hadamard_fourier(3), expected)

    def test_fourier6_row_orthogonality(self):
        h = fw.hadamard_fourier(6)
        assert np.abs(h @ h.conj().T - 6 * np.eye(6)).max() <= 1e-12

    def test_partial_hadamard_two_rows(self):
        h = np.array([[1, 1, 1, 1], [1, 1j, -1, -1j]])
        assert fw.is_partial_hadamard(h)

    def test_partial_hadamard_rejects_nonunimodular(self):
        assert not fw.is_partial_hadamard(np.array([[1.0, 0.5]]))

    def test_family_validation(self):
        with pytest.raises(ValueError, match="unimodular"):
            fw.hadamard_family(np.zeros((2, 2, 2)))
        bad = np.ones((2, 2, 2), dtype=complex)  # rows not orthogonal
        with pytest.raises(ValueError, match="H H"):
            fw.hadamard_family(bad)

    def test_exponent_consistency_checked(self):
        fam = fw.fourier_family(3)
        with pytest.raises(ValueError, match="inconsistent"):
            fw.hadamard_family(fam.matrices, root_order=3, exponents=np.zeros((3, 3, 3), dtype=int))
