import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import fanweave as fw
from fanweave import serialize as ser
from fanweave.basis import label_sort_key, pair_label
from fanweave.combinatorics import LATIN_VARIANTS
from fanweave.errors import InvariantError
from fanweave.linalg import _BLOCK_BYTES

from helpers import brute_force_cliques, predicate_adjacency, transformed_basis


def labelset(pairs):
    return frozenset(pair_label(m, n) for m, n in pairs)


def fan_sets(fan):
    return {frozenset(mass) for mass in fan.masses}


# the seven maximal commuting sets of the d=4 tag system at (0,0)
WEYL4_MASSES = [
    {(1, 0), (2, 0), (3, 0)},
    {(0, 1), (0, 2), (0, 3)},
    {(1, 1), (2, 2), (3, 3)},
    {(2, 1), (2, 3), (0, 2)},
    {(1, 2), (3, 2), (2, 0)},
    {(3, 1), (1, 3), (2, 2)},
    {(2, 0), (0, 2), (2, 2)},
]


def weyl6_expected_masses():
    ys = [{(j, (ell * j) % 6) for j in range(1, 6)} for ell in range(6)]
    yts = [{((ell * j) % 6, j) for j in range(1, 6)} for ell in (0, 2, 3, 4)]
    z23 = {((2 * k) % 6, (3 * l) % 6) for k in range(3) for l in range(2) if (k, l) != (0, 0)}
    z32 = {((3 * k) % 6, (2 * l) % 6) for k in range(2) for l in range(3) if (k, l) != (0, 0)}
    return [labelset(s) for s in ys + yts + [z23, z32]]


def pauli2_expected_masses():
    sets = []
    for a in "XYZ":
        sets.append({f"{a},I", f"I,{a}", f"{a},{a}"})
    for a, b in itertools.permutations("XYZ", 2):
        sets.append({f"{a},I", f"I,{b}", f"{a},{b}"})
    sets.append({"X,X", "Y,Z", "Z,Y"})
    sets.append({"Y,Y", "Z,X", "X,Z"})
    sets.append({"Z,Z", "X,Y", "Y,X"})
    sets.append({"X,X", "Y,Y", "Z,Z"})
    sets.append({"X,Y", "Y,Z", "Z,X"})
    sets.append({"Y,X", "Z,Y", "X,Z"})
    return [frozenset(s) for s in sets]


class TestConstructions:
    def test_weyl_contains_identity(self, weyl):
        assert np.allclose(weyl(5).operators["0,0"], np.eye(5))

    def test_weyl_d2_is_pauli_like(self, weyl):
        basis = weyl(2)
        assert np.allclose(basis.operators["0,1"], [[0, 1], [1, 0]])
        assert np.allclose(basis.operators["1,0"], np.diag([1.0, -1.0]))

    def test_weyl3_shift_has_order_three(self, weyl):
        u = weyl(3).operators["0,1"]
        assert np.allclose(np.linalg.matrix_power(u, 3), np.eye(3))

    def test_weyl2_matches_single_qubit_paulis_up_to_phase(self, weyl):
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                  np.diag([1.0, -1.0])]
        for op in weyl(2).operators.values():
            assert any(abs(abs(np.trace(p.conj().T @ op)) - 2) <= 1e-9 for p in paulis)

    def test_pauli2_shape(self, pauli2):
        assert len(pauli2.labels) == 16
        assert np.allclose(pauli2.operators["I,I"], np.eye(4))
        ops = [pauli2.operators[x] for x in pauli2.labels]
        assert fw.hs_orthogonality_check(ops)

    def test_s3_basis_full_gram(self, s3_basis):
        ops = [s3_basis.operators[x] for x in s3_basis.labels]
        assert len(ops) == 36
        for i, a in enumerate(ops):  # direct 36x36 Gram oracle
            for j, b in enumerate(ops):
                expected = 6.0 if i == j else 0.0
                assert abs(np.trace(a.conj().T @ b) - expected) <= 1e-9

    def test_shift_multiply_size_mismatch(self):
        lam = fw.latin_from_group(fw.group_cyclic(3), "e")
        with pytest.raises(ValueError, match="size"):
            fw.build_shift_multiply(lam, fw.fourier_family(4))

    def test_invalid_basis_rejected(self):
        ops = {"a": np.eye(2), "b": np.eye(2), "c": np.eye(2), "d": np.eye(2)}
        with pytest.raises(InvariantError, match="orthogonality"):
            fw.unitary_basis(list(ops), ops, fw.Provenance(kind="test"))


class TestTags:
    def test_weyl_tag_at_identity_label(self, weyl):
        basis = weyl(4)
        tag = fw.tag_at(basis, "0,0")
        assert set(tag.labels) == set(basis.labels) - {"0,0"}
        for x in tag.labels:
            assert np.allclose(tag.operators[x], basis.operators[x])

    def test_tag_members_traceless(self, weyl, z3f_basis):
        for basis in (weyl(3), z3f_basis):
            for x0 in basis.labels[:3]:
                tag = fw.tag_at(basis, x0)
                assert all(abs(np.trace(tag.operators[x])) <= 1e-9 for x in tag.labels)

    def test_weyl3_offcenter_tag_gram(self, weyl):
        tag = fw.tag_at(weyl(3), "1,1")
        ops = [tag.operators[x] for x in tag.labels]
        assert fw.hs_orthogonality_check(ops)

    def test_bad_label_rejected(self, weyl):
        with pytest.raises(ValueError, match="not in the basis"):
            fw.tag_at(weyl(3), "7,7")


class TestTwill:
    def test_trivial_at_tag(self, weyl):
        basis = weyl(3)
        assert fw.twill_check(basis, "1,1", "1,1", "2,0")
        assert fw.twill_check(basis, "2,0", "1,1", "1,1")

    def test_weyl3_congruence_rule(self, weyl):
        basis = weyl(3)
        m0, n0 = 1, 1
        for m, n, m2, n2 in itertools.product(range(3), repeat=4):
            expected = ((m - m0) * (n2 - n0) - (m2 - m0) * (n - n0)) % 3 == 0
            got = fw.twill_check(basis, pair_label(m, n), pair_label(m0, n0), pair_label(m2, n2))
            assert got == expected

    def test_agrees_with_commutator(self, weyl):
        basis = weyl(4)
        rng = np.random.default_rng(0)
        labels = list(basis.labels)
        for _ in range(25):
            x, x0, y = (labels[i] for i in rng.integers(0, 16, 3))
            tag_ops = {
                z: basis.operators[x0].conj().T @ basis.operators[z] for z in (x, y)
            }
            direct = np.linalg.norm(
                tag_ops[x] @ tag_ops[y] - tag_ops[y] @ tag_ops[x]
            ) <= 1e-9 or x == x0 or y == x0
            assert fw.twill_check(basis, x, x0, y) == direct


@pytest.fixture(scope="module")
def monomial_bases(weyl, z3f_basis):
    """Shift-and-multiply fixtures with exact provenance, keyed by name."""
    bases = {f"weyl{d}": weyl(d) for d in range(2, 9)}
    bases["z3f"] = z3f_basis
    for variant in LATIN_VARIANTS:
        lam = fw.latin_from_group(fw.group_s3(), variant)
        bases[f"s3-{variant}"] = fw.build_shift_multiply(lam, fw.fourier_family(6))
    z2xz2 = fw.group_product(fw.group_cyclic(2), fw.group_cyclic(2))
    bases["z2xz2"] = fw.build_shift_multiply(fw.latin_from_group(z2xz2, "e"), fw.fourier_family(4))
    return bases


class TestCommutationGraph:
    def test_weyl_rule(self, weyl):
        basis = weyl(5)
        graph = fw.basis_commutation_graph(basis)
        idx = {x: i for i, x in enumerate(graph.vertices)}
        for a, b in itertools.combinations(basis.labels, 2):
            (m, n), (m2, n2) = (tuple(map(int, x.split(","))) for x in (a, b))
            expected = (m * n2 - m2 * n) % 5 == 0
            assert graph.adjacency[idx[a], idx[b]] == expected

    def test_pauli2_examples(self, pauli2):
        graph = fw.basis_commutation_graph(pauli2)
        idx = {x: i for i, x in enumerate(graph.vertices)}
        assert graph.adjacency[idx["X,I"], idx["I,X"]]
        assert not graph.adjacency[idx["X,I"], idx["Z,I"]]

    def test_weyl6_two_zero_neighbors(self, weyl):
        tag = fw.tag_at(weyl(6), "0,0")
        graph = fw.commutation_graph(tag)
        idx = {x: i for i, x in enumerate(graph.vertices)}
        for m2, n2 in itertools.product(range(6), repeat=2):
            if (m2, n2) == (0, 0) or (m2, n2) == (2, 0):
                continue
            expected = n2 in (0, 3)
            assert graph.adjacency[idx["2,0"], idx[pair_label(m2, n2)]] == expected

    def test_exact_modes_require_provenance(self, pauli2):
        with pytest.raises(ValueError, match="provenance"):
            fw.basis_commutation_graph(pauli2, mode="exact-crisscross")
        with pytest.raises(ValueError, match="provenance"):
            fw.commutation_graph(fw.tag_at(pauli2, "I,I"), mode="exact-twill")

    def test_exact_and_numeric_agree_all_fixtures(self, weyl, z3f_basis, s3_basis):
        fixtures = [weyl(2), weyl(3), weyl(4), weyl(5), weyl(6), z3f_basis, s3_basis]
        for basis in fixtures:
            numeric = fw.basis_commutation_graph(basis, mode="numeric")
            exact = fw.basis_commutation_graph(basis, mode="exact-crisscross")
            assert np.array_equal(numeric.adjacency, exact.adjacency), basis.provenance.kind

    def test_exact_and_numeric_twill_agree_all_tags_small(self, monomial_bases):
        for name, basis in monomial_bases.items():
            for x0 in basis.labels:
                tag = fw.tag_at(basis, x0)
                numeric = fw.commutation_graph(tag, mode="numeric")
                exact = fw.commutation_graph(tag, mode="exact-twill")
                assert np.array_equal(numeric.adjacency, exact.adjacency), (name, x0)

    def test_exact_graphs_match_predicate_oracle(self, monomial_bases):
        for name, basis in monomial_bases.items():
            if basis.d > 6:
                continue
            exact = fw.basis_commutation_graph(basis, mode="exact-crisscross")
            assert np.array_equal(exact.adjacency, predicate_adjacency(basis)), name
            tags = basis.labels if basis.d < 6 else basis.labels[::12]
            for x0 in tags:
                exact = fw.commutation_graph(fw.tag_at(basis, x0), mode="exact-twill")
                assert np.array_equal(exact.adjacency, predicate_adjacency(basis, x0)), (name, x0)

    def test_multi_block_numeric_graph_matches_exact(self, weyl):
        basis = weyl(12)
        n, d = len(basis.labels) - 1, basis.d
        assert _BLOCK_BYTES // (32 * n * d * d) < n  # the dense kernel splits the rows into blocks
        rng = np.random.default_rng(12)
        v1, v2 = fw.random_unitary(d, rng), fw.random_unitary(d, rng)
        perm = rng.permutation(len(basis.labels))
        renamed = {basis.labels[p]: f"t{i}" for i, p in enumerate(perm)}
        ops = {renamed[basis.labels[p]]: v1 @ basis.operators[basis.labels[p]] @ v2 for p in perm}
        conj = fw.unitary_basis(list(ops), ops, fw.Provenance(kind="transformed"))
        for x0 in ("0,0", "1,0", "3,4", "6,6"):
            exact = fw.commutation_graph(fw.tag_at(basis, x0), mode="exact-twill")
            numeric = fw.commutation_graph(fw.tag_at(conj, renamed[x0]))
            order = [numeric.vertices.index(renamed[x]) for x in exact.vertices]
            assert np.array_equal(numeric.adjacency[np.ix_(order, order)], exact.adjacency), x0

    def test_dense_graph_memory_bounded(self):
        code = (
            "import resource, fanweave as fw\n"
            "fan = fw.fan_representation(fw.build_weyl(16), '0,0')\n"
            "assert len(fan.masses) == 31\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        src = os.path.dirname(os.path.dirname(fw.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        peak_mib = int(run.stdout) / 1024  # ru_maxrss is in KiB on Linux
        assert peak_mib < 250, peak_mib

    def test_forged_provenance_refused(self, weyl):
        doc = ser.basis_to_json(weyl(4))
        ops = doc["operators"]
        ops["0,1"], ops["1,0"] = ops["1,0"], ops["0,1"]
        forged = ser.basis_from_json(doc)
        with pytest.raises(ValueError, match="exact-crisscross.*does not match operator"):
            fw.basis_commutation_graph(forged, mode="exact-crisscross")
        for x0 in ("0,0", "0,1", "2,3"):
            with pytest.raises(ValueError, match="exact-twill.*does not match operator"):
                fw.commutation_graph(fw.tag_at(forged, x0), mode="exact-twill")
        w3 = weyl(3)
        for labels, prov in ((w3.labels, weyl(4).provenance), (w3.labels[:-1] + ("3,3",), w3.provenance)):
            misfit = fw.unitary_basis(labels, dict(zip(labels, w3.operators.values())), prov)
            with pytest.raises(ValueError, match="exact-crisscross.*does not index the labels"):
                fw.basis_commutation_graph(misfit, mode="exact-crisscross")


class TestEnumerateMass:
    def test_matches_brute_force_oracle(self, weyl, z3f_basis):
        for basis, x0 in ((weyl(3), "0,0"), (weyl(4), "0,0"), (z3f_basis, "1,2")):
            tag = fw.tag_at(basis, x0)
            graph = fw.commutation_graph(tag)
            fan = fw.enumerate_mass(graph)
            expected = brute_force_cliques(graph.vertices, graph.adjacency)
            assert fan_sets(fan) == expected

    def test_weyl4_exact_sets(self, weyl):
        fan = fw.fan_representation(weyl(4), "0,0")
        assert fan_sets(fan) == {labelset(s) for s in WEYL4_MASSES}

    def test_weyl6_exact_sets(self, weyl):
        fan = fw.fan_representation(weyl(6), "0,0")
        assert fan_sets(fan) == set(weyl6_expected_masses())

    def test_pauli2_exact_sets(self, pauli2):
        fan = fw.fan_representation(pauli2, "I,I")
        assert fan_sets(fan) == set(pauli2_expected_masses())
        degree = {}
        for mass in fan.masses:
            for x in mass:
                degree[x] = degree.get(x, 0) + 1
        assert all(c == 3 for c in degree.values())

    def test_vertex_order_independence(self, weyl):
        basis = weyl(4)
        tag = fw.tag_at(basis, "0,0")
        graph = fw.commutation_graph(tag)
        rng = np.random.default_rng(21)
        for _ in range(10):
            perm = rng.permutation(len(graph.vertices))
            shuffled = fw.CommutationGraph(
                vertices=tuple(graph.vertices[i] for i in perm),
                adjacency=graph.adjacency[np.ix_(perm, perm)],
                mode=graph.mode,
            )
            assert fw.enumerate_mass(shuffled).masses == fw.enumerate_mass(graph).masses

    def test_equal_numeric_labels_order_independent(self):
        # "3" and "03" are the same integer: the label itself breaks the tie
        orders = [("3", "03"), ("03", "3")]
        fans = [fw.enumerate_mass(fw.CommutationGraph(v, np.eye(2, dtype=bool), "numeric")) for v in orders]
        assert fans[0].masses == fans[1].masses == (("03",), ("3",))


class TestLabelSortKey:
    def test_non_integer_digit_parts_sort_as_text(self):
        # "1²" and "+-3" pass str.isdigit after stripping signs but are not integers
        labels = ["a", "1²,0", "+-3", "2,0", "-1,0", "1,0"]
        assert sorted(labels, key=label_sort_key) == ["-1,0", "1,0", "2,0", "+-3", "1²,0", "a"]

    def test_enumerate_mass_accepts_any_label(self):
        graph = fw.CommutationGraph(("1²", "+-3", "1"), np.ones((3, 3), dtype=bool), "numeric")
        assert fw.enumerate_mass(graph).masses == (("1", "+-3", "1²"),)


class TestFanRepresentation:
    def test_z3f_untagged_all_singletons(self, z3f_basis):
        fan = fw.fan_representation(z3f_basis, None)
        assert sorted(len(m) for m in fan.masses) == [1] * 9
        fan_exact = fw.fan_representation(z3f_basis, None, mode="exact-crisscross")
        assert fan_exact.masses == fan.masses

    @pytest.mark.parametrize("m0,n0", list(itertools.product(range(3), repeat=2)))
    def test_z3f_tag_structure(self, z3f_basis, m0, n0):
        x0 = pair_label(m0, n0)
        fan = fw.fan_representation(z3f_basis, x0)
        expected = {
            labelset({(m0, k) for k in range(3) if k != n0}),
            labelset({(j, n0) for j in range(3) if j != m0}),
            labelset({((m0 + 1) % 3, (n0 + 1) % 3), ((m0 + 2) % 3, (n0 + 2) % 3)}),
            labelset({((m0 + 1) % 3, (n0 + 2) % 3), ((m0 + 2) % 3, (n0 + 1) % 3)}),
        }
        assert fan_sets(fan) == expected
        # full-size and mutually disjoint
        assert all(len(m) == 2 for m in fan.masses)
        assert sum(len(m) for m in fan.masses) == 8

    def test_s3_fan(self, s3_basis):
        fan = fw.fan_representation(s3_basis, "0,0")
        singletons = {labelset({(m, n)}) for m in range(6) for n in (1, 3, 5)}
        f0 = labelset({(m, 0) for m in range(1, 6)})
        f19 = labelset({(0, 2), (3, 2), (0, 4), (3, 4), (3, 0)})
        f20 = labelset({(1, 2), (4, 2), (2, 4), (5, 4), (3, 0)})
        f21 = labelset({(2, 2), (5, 2), (1, 4), (4, 4), (3, 0)})
        assert fan_sets(fan) == singletons | {f0, f19, f20, f21}
        full = [m for m in fan.masses if len(m) == 5]
        assert len(full) == 4
        assert all("3,0" in m for m in full)


class TestFanSystem:
    def test_weyl3_fans_translate(self, weyl):
        basis = weyl(3)
        system = fw.fan_system(basis)
        base = fan_sets(system["0,0"])
        for m0, n0 in itertools.product(range(3), repeat=2):
            shifted = {
                frozenset(
                    pair_label((int(x.split(",")[0]) + m0) % 3, (int(x.split(",")[1]) + n0) % 3)
                    for x in mass
                )
                for mass in base
            }
            assert fan_sets(system[pair_label(m0, n0)]) == shifted

    def test_pauli2_fans_relabel_by_group_multiplication(self, pauli2):
        mult = {"I": {"I": "I", "X": "X", "Y": "Y", "Z": "Z"},
                "X": {"I": "X", "X": "I", "Y": "Z", "Z": "Y"},
                "Y": {"I": "Y", "X": "Z", "Y": "I", "Z": "X"},
                "Z": {"I": "Z", "X": "Y", "Y": "X", "Z": "I"}}
        system = fw.fan_system(pauli2)
        base = fan_sets(system["I,I"])
        for x0 in pauli2.labels:
            a0, b0 = x0.split(",")
            relabeled = {
                frozenset(
                    f"{mult[a0][x.split(',')[0]]},{mult[b0][x.split(',')[1]]}" for x in mass
                )
                for mass in fan_sets(system[x0])
            }
            assert relabeled == base

    def test_every_fan_covers_the_tag_system(self, weyl):
        basis = weyl(4)
        for x0, fan in fw.fan_system(basis).items():
            covered = set(itertools.chain.from_iterable(fan.masses))
            assert covered == set(basis.labels) - {x0}


class TestHadamardFan:
    def test_weyl3_diagonal_mass_gives_fourier(self, weyl):
        basis = weyl(3)
        tag = fw.tag_at(basis, "0,0")
        fan = fw.fan_representation(basis, "0,0")
        hfan = fw.hadamard_fan(tag, fan, rng_seed=0)
        by_mass = {entry.mass: entry for entry in hfan.entries}
        y0 = tuple(sorted(["1,0", "2,0"], key=label_sort_key))
        aug = by_mass[y0].augmented
        sig = fw.canonical_hadamard_signature(aug)
        fourier_sig = fw.canonical_hadamard_signature(fw.hadamard_fourier(3))
        assert sig == fourier_sig

    def test_pauli2_cx_mass_real_hadamard(self, pauli2):
        tag = fw.tag_at(pauli2, "I,I")
        fan = fw.fan_representation(pauli2, "I,I")
        hfan = fw.hadamard_fan(tag, fan, rng_seed=0)
        cx = tuple(sorted(["X,I", "I,X", "X,X"], key=label_sort_key))
        entry = next(e for e in hfan.entries if e.mass == cx)
        assert np.allclose(np.abs(entry.augmented.imag).max(), 0.0, atol=1e-10)
        assert fw.is_partial_hadamard(entry.augmented)
        assert entry.augmented.shape == (4, 4)

    def test_rows_are_diagonals_and_sum_to_zero(self, weyl):
        basis = weyl(4)
        tag = fw.tag_at(basis, "0,0")
        fan = fw.fan_representation(basis, "0,0")
        hfan = fw.hadamard_fan(tag, fan, rng_seed=3)
        for entry in hfan.entries:
            u = entry.diagonalizer
            for i, y in enumerate(entry.mass):
                diag = np.diag(u.conj().T @ tag.operators[y] @ u)
                assert np.linalg.norm(diag - entry.rows[i]) <= 1e-8
            assert np.abs(entry.rows.sum(axis=1)).max() <= 1e-8

    def test_canonical_signature_column_permutation_invariant(self):
        rng = np.random.default_rng(53)
        tag = fw.tag_at(fw.build_weyl(6), "0,0")
        rows = np.stack([np.ones(6, dtype=complex)] + [
            np.diag(tag.operators[f"{m},0"]) for m in (2, 3)
        ])
        baseline = fw.canonical_hadamard_signature(rows)
        for _ in range(10):
            cols = rng.permutation(6)
            assert fw.canonical_hadamard_signature(rows[:, cols]) == baseline

    def test_weyl6_diagonal_mass_augments_to_fourier(self, weyl):
        basis = weyl(6)
        tag = fw.tag_at(basis, "0,0")
        fan = fw.fan_representation(basis, "0,0")
        hfan = fw.hadamard_fan(tag, fan, rng_seed=0)
        y0 = tuple(sorted((pair_label(m, 0) for m in range(1, 6)), key=label_sort_key))
        entry = next(e for e in hfan.entries if e.mass == y0)
        assert entry.augmented.shape == (6, 6)
        assert fw.canonical_hadamard_signature(entry.augmented) == fw.canonical_hadamard_signature(
            fw.hadamard_fourier(6)
        )

    def test_cue_related_tags_same_canonical_forms(self, weyl):
        basis = weyl(3)
        tag = fw.tag_at(basis, "0,0")
        fan = fw.fan_representation(basis, "0,0")
        baseline = {
            entry.mass: fw.canonical_hadamard_signature(entry.augmented)
            for entry in fw.hadamard_fan(tag, fan, rng_seed=0).entries
        }
        rng = np.random.default_rng(17)
        for trial in range(5):
            v = fw.random_unitary(3, rng)
            labels = list(basis.labels)
            ops = {x: v.conj().T @ basis.operators[x] @ v for x in labels}
            conj_basis = fw.unitary_basis(labels, ops, fw.Provenance(kind="conjugated"))
            conj_tag = fw.tag_at(conj_basis, "0,0")
            conj_fan = fw.fan_representation(conj_basis, "0,0")
            assert conj_fan.masses == fan.masses
            got = {
                entry.mass: fw.canonical_hadamard_signature(entry.augmented)
                for entry in fw.hadamard_fan(conj_tag, conj_fan, rng_seed=trial).entries
            }
            assert got == baseline


class TestFanInvariant:
    def test_weyl4_combinatorics(self, weyl):
        basis = weyl(4)
        tag = fw.tag_at(basis, "0,0")
        fan = fw.fan_representation(basis, "0,0")
        inv = fw.fan_invariant(tag, fan)
        assert inv.mass_size_multiset == (3,) * 7
        assert inv.membership_degree_sequence == (1,) * 12 + (3,) * 3

    def test_pauli2_combinatorics(self, pauli2):
        tag = fw.tag_at(pauli2, "I,I")
        fan = fw.fan_representation(pauli2, "I,I")
        inv = fw.fan_invariant(tag, fan)
        assert inv.mass_size_multiset == (3,) * 15
        assert inv.membership_degree_sequence == (3,) * 15

    def test_invariant_under_relabeling(self, weyl):
        basis = weyl(3)
        rng = np.random.default_rng(23)
        baseline = fw.invariant_profile(basis)
        for _ in range(5):
            perm = rng.permutation(9)
            labels = [f"r{i}" for i in range(9)]
            ops = {labels[i]: basis.operators[basis.labels[perm[i]]] for i in range(9)}
            relabeled = fw.unitary_basis(labels, ops, fw.Provenance(kind="relabeled"))
            assert fw.invariant_profile(relabeled) == baseline

    def test_pcue_variant_is_phase_free(self, weyl):
        basis = weyl(3)
        rng = np.random.default_rng(29)
        baseline = fw.invariant_profile(basis, variant="pcue")
        labels = list(basis.labels)
        phases = np.exp(2j * np.pi * rng.uniform(size=9))
        ops = {x: phases[i] * basis.operators[x] for i, x in enumerate(labels)}
        rephased = fw.unitary_basis(labels, ops, fw.Provenance(kind="rephased"))
        assert fw.invariant_profile(rephased, variant="pcue") == baseline


class TestCompare:
    def test_weyl4_vs_pauli2(self, weyl, pauli2):
        assert fw.compare_ub(weyl(4), pauli2) == fw.INEQUIVALENT
        assert fw.compare_ub(weyl(4), pauli2, variant="pcue") == fw.INEQUIVALENT

    def test_s3_vs_weyl6(self, weyl, s3_basis):
        assert fw.compare_ub(s3_basis, weyl(6)) == fw.INEQUIVALENT

    def test_transformed_basis_not_distinguished(self, weyl):
        rng = np.random.default_rng(31)
        basis = weyl(3)
        assert fw.compare_ub(basis, transformed_basis(basis, rng)) == fw.NOT_DISTINGUISHED

    def test_dimension_mismatch(self, weyl):
        with pytest.raises(ValueError, match="dimension"):
            fw.compare_ub(weyl(3), weyl(4))


class TestMesBases:
    def test_weyl3_bell_vectors_recover_basis(self, weyl):
        basis = weyl(3)
        vectors = [
            np.kron(basis.operators[x], np.eye(3)) @ fw.omega(3) for x in basis.labels
        ]
        recovered = fw.mes_basis_to_ub(vectors)
        for i, x in enumerate(basis.labels):
            assert np.linalg.norm(recovered.operators[str(i)] - basis.operators[x]) <= 1e-9

    def test_qubit_bell_basis_is_pauli_up_to_phase(self):
        s = 1 / np.sqrt(2)
        bells = [
            np.array([s, 0, 0, s]),
            np.array([s, 0, 0, -s]),
            np.array([0, s, s, 0]),
            np.array([0, s, -s, 0]),
        ]
        recovered = fw.mes_basis_to_ub(bells)
        paulis = [np.eye(2), np.diag([1.0, -1.0]), np.array([[0, 1], [1, 0]]),
                  np.array([[0, -1j], [1j, 0]])]
        for op in recovered.operators.values():
            assert any(abs(abs(np.trace(p.conj().T @ op)) - 2) <= 1e-9 for p in paulis)

    def test_product_vector_rejected(self):
        vecs = [np.zeros(4) for _ in range(4)]
        for i in range(4):
            vecs[i][i] = 1.0  # computational basis: product vectors
        with pytest.raises(ValueError, match="vector 0 is not maximally entangled"):
            fw.mes_basis_to_ub(vecs)

    def test_compare_with_bell_basis(self, weyl):
        basis = weyl(2)
        rng = np.random.default_rng(37)
        v1, v2 = fw.random_unitary(2, rng), fw.random_unitary(2, rng)
        phases = np.exp(2j * np.pi * rng.uniform(size=4))
        vectors = [
            phases[i] * np.kron(v1 @ basis.operators[x] @ v2, np.eye(2)) @ fw.omega(2)
            for i, x in enumerate(basis.labels)
        ]
        recovered = fw.mes_basis_to_ub(vectors)
        assert fw.compare_ub(recovered, basis, variant="pcue") == fw.NOT_DISTINGUISHED


class TestStructuralProperties:
    @pytest.mark.parametrize("d", [2, 3])
    def test_simple_spectra_imply_disjoint_masses(self, weyl, d):
        basis = weyl(d)
        tag = fw.tag_at(basis, "0,0")
        for x in tag.labels:
            angles = fw.linalg.unit_spectrum_angles(tag.operators[x])
            assert len(set(angles)) == d  # simple eigenvalues
        fan = fw.fan_representation(basis, "0,0")
        assert sum(len(m) for m in fan.masses) == len(set().union(*map(set, fan.masses)))

    def test_weyl2_three_singleton_masses(self, weyl):
        fan = fw.fan_representation(weyl(2), "0,0")
        assert sorted(len(m) for m in fan.masses) == [1, 1, 1]

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_prime_fan_disjoint_cover(self, weyl, d):
        fan = fw.fan_representation(weyl(d), "0,0")
        assert len(fan.masses) == d + 1
        assert all(len(m) == d - 1 for m in fan.masses)
        assert sum(len(m) for m in fan.masses) == d * d - 1

    @pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
    def test_move_together(self, weyl, d):
        fan = fw.fan_representation(weyl(d), "0,0")
        for mass in fan.masses:
            pairs = {tuple(map(int, x.split(","))) for x in mass}
            for m, n in pairs:
                assert ((d - m) % d, (d - n) % d) in pairs
