import itertools
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import fanweave as fw
from fanweave import serialize as ser
from fanweave.basis import label_sort_key, pair_label, parse_pair
from fanweave.combinatorics import LATIN_VARIANTS
from fanweave.config import ANGLE_DECIMALS
from fanweave.errors import InvariantError
from fanweave.linalg import _ANGLE_MARGIN, _CACHE_BYTES, _spectrum_angles, gram_deviation

from helpers import (
    brute_force_cliques,
    conjugated_basis,
    frozenset_masses,
    per_tag_fans,
    per_tag_profile,
    predicate_adjacency,
    transformed_basis,
)


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
        assert pauli2.gram_max_deviation <= 1e-9

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

    def test_dimension_below_two_refused(self):
        # one 1x1 member is a trace-orthogonal family of d^2 unitaries, but its tag has no members
        with pytest.raises(InvariantError, match=r"^a unitary basis needs dimension d >= 2, got d = 1$"):
            fw.unitary_basis(["a"], {"a": np.eye(1)}, fw.Provenance(kind="test"))
        doc = {"d": 1, "labels": ["a"], "operators": {"a": ser.matrix_to_json(np.eye(1))}, "provenance": {"kind": "x"}}
        with pytest.raises(InvariantError, match="d >= 2, got d = 1"):
            ser.basis_from_json(doc)


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
        stack = np.stack([tag.operators[x] for x in tag.labels])
        assert gram_deviation(stack.reshape(8, 9), 3).max() <= 1e-9

    def test_bad_label_rejected(self, weyl):
        with pytest.raises(ValueError, match="not in the basis"):
            fw.tag_at(weyl(3), "7,7")

    def test_tag_gram_read_from_the_basis_check(self, weyl, monkeypatch):
        bases = (weyl(8), conjugated_basis(weyl(8), np.random.default_rng(8)))

        def no_tag_gram(labels, stack, d, what):
            raise AssertionError(f"{what}: the basis check already bounds this Gram")

        monkeypatch.setattr(fw.basis, "_check_hs_family", no_tag_gram)
        for basis in bases:
            for x0 in basis.labels:
                fw.tag_at(basis, x0)

    def test_tag_gram_near_tolerance_still_checked(self, weyl):
        # U_{0,0} = I + E with E = s (V + V*) / 2 for V = U_{1,1}: the basis Gram reads |tr(E V)| = 8 s and the
        # unitarity residual ||2E + E^2||_F is about 4 sqrt(2) s, both just under 1e-9; the tag at 0,0 has Gram
        # entries tr(U_a* (2E + E^2) U_b), up to 16 s = 1.8e-9, while its traces stay at 8 s
        basis, s = weyl(16), 0.9e-9 / 8
        v = basis.operators["1,1"]
        ops = dict(basis.operators, **{"0,0": np.eye(16) + s * (v + v.conj().T) / 2})
        near = fw.unitary_basis(basis.labels, ops, fw.Provenance(kind="perturbed"))
        assert 5e-10 < near.unitarity_max_residual < 1e-9 and 5e-10 < near.gram_max_deviation < 1e-9
        refusal = r"^tag at 0,0: trace orthogonality fails for pair \(\S+, \S+\): "
        with pytest.raises(InvariantError, match=refusal + r"\|tr\(U\*U\) - d delta\| = 1\.8\d\de-09$"):
            fw.tag_at(near, "0,0")
        fw.tag_at(near, "1,0")  # U_{1,0} is unitary, so this tag's Gram is the basis Gram without 0,0

    def test_monomial_tag_operators_formed_on_first_use(self, weyl, pauli2, s3xz2_basis):
        for basis in (weyl(5), pauli2, s3xz2_basis):
            for x0 in basis.labels[:: max(1, len(basis.labels) // 7)]:
                tag = fw.tag_at(basis, x0)
                assert tag.form is not None and "operators" not in vars(tag), x0
                eager = np.matmul(basis.operators[x0].conj().T, np.stack([basis.operators[x] for x in tag.labels]))
                lazy = np.stack([tag.operators[x] for x in tag.labels])
                assert lazy.tobytes() == eager.tobytes(), x0
                assert tag.operators is tag.operators  # formed once

    def test_trace_check_runs_when_the_basis_gram_does_not_clear_it(self, weyl):
        # U_{0,0} = I + s (V + V*) / 2 for V = U_{1,1}: the off-diagonal entries of size s leave the basis monomial,
        # with U_{0,0} = I in its form, while the dense members 1,1 and 3,3 of the tag at 0,0 have |tr| = 2 s = 1e-10
        basis, s = weyl(4), 5e-11
        v = basis.operators["1,1"]
        ops = dict(basis.operators, **{"0,0": np.eye(4) + s * (v + v.conj().T) / 2})
        near = fw.unitary_basis(basis.labels, ops, fw.Provenance(kind="perturbed"))
        assert near.form is not None and 5e-11 < near.gram_max_deviation < 2e-10
        assert "operators" not in vars(fw.tag_at(near, "0,0"))  # the basis Gram clears trace = 1e-9
        with fw.tolerances(trace=1e-11):
            with pytest.raises(InvariantError) as refusal:
                fw.tag_at(near, "0,0")
        assert str(refusal.value) == "tag at 0,0: member 1,1 is not traceless, |tr| = 1.000e-10"


class TestTwill:
    def test_weyl3_congruence_rule(self, weyl):
        tag = fw.tag_at(weyl(3), "1,1")
        m0, n0 = 1, 1
        for mode in ("numeric", "exact-twill"):
            graph = fw.commutation_graph(tag, mode=mode)
            for (i, x), (j, y) in itertools.product(enumerate(graph.vertices), repeat=2):
                (m, n), (m2, n2) = parse_pair(x), parse_pair(y)
                expected = ((m - m0) * (n2 - n0) - (m2 - m0) * (n - n0)) % 3 == 0
                assert graph.adjacency[i, j] == expected, (mode, x, y)


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

    def test_exact_and_numeric_agree_all_fixtures(self, weyl, z3f_basis, s3_basis, s3xz2_basis):
        assert 2**14 // (144 * 12) < 144  # the monomial pass splits the untagged weyl12 and s3 x z2 into row blocks
        fixtures = [weyl(2), weyl(3), weyl(4), weyl(5), weyl(6), weyl(8), weyl(12), z3f_basis, s3_basis, s3xz2_basis]
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

    def test_exact_and_numeric_twill_agree_strided_tags_d9_to_12(self, weyl, s3xz2_basis):
        bases = {f"weyl{d}": weyl(d) for d in range(9, 13)}
        bases["s3xz2"] = s3xz2_basis
        for name, basis in bases.items():
            assert basis.labels[0] == "0,0"
            for x0 in basis.labels[::3]:
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
        assert _CACHE_BYTES // (16 * n * d) < n  # the dense kernel's probe splits the rows into blocks
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
            "import resource, numpy as np, fanweave as fw\n"
            "basis, rng = fw.build_weyl(16), np.random.default_rng(16)\n"
            "v, w = fw.random_unitary(16, rng), fw.random_unitary(16, rng)\n"
            "ops = {x: v @ u @ w for x, u in basis.operators.items()}\n"
            "dense = fw.unitary_basis(basis.labels, ops, fw.Provenance(kind='transformed'))\n"
            "assert dense.form is None\n"
            "fan = fw.fan_representation(dense, '0,0')\n"
            "assert len(fan.masses) == 31\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        src = os.path.dirname(os.path.dirname(fw.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        peak_mib = int(run.stdout) / 1024  # ru_maxrss is in KiB on Linux
        assert peak_mib < 250, peak_mib

    def test_dense_graphs_match_exact_on_many_tags(self, monomial_bases, weyl, s3xz2_basis, pauli2):
        # a Haar-conjugated copy under the same labels takes the probe-and-verify kernel on every tag
        strided = {f"weyl{d}": weyl(d) for d in range(9, 13)} | {"s3xz2": s3xz2_basis}
        rng = np.random.default_rng(41)
        for name, basis in {**monomial_bases, **strided}.items():
            dense = conjugated_basis(basis, rng)
            assert dense.form is None, name
            for x0 in basis.labels[:: 3 if name in strided else 1]:
                exact = fw.commutation_graph(fw.tag_at(basis, x0), mode="exact-twill")
                numeric = fw.commutation_graph(fw.tag_at(dense, x0))
                assert numeric.vertices == exact.vertices, (name, x0)
                assert np.array_equal(numeric.adjacency, exact.adjacency), (name, x0)
        dense = conjugated_basis(pauli2, rng)
        for x0 in pauli2.labels:
            form = fw.commutation_graph(fw.tag_at(pauli2, x0))
            assert np.array_equal(fw.commutation_graph(fw.tag_at(dense, x0)).adjacency, form.adjacency), x0

    def test_residual_within_margin_of_tolerance_refused(self, weyl):
        tag = fw.tag_at(weyl(3), "0,0")
        resid = fw.linalg.commutator_norms(tag.form)
        a, b = np.argwhere(resid > 1)[0]  # the first non-commuting pair: |1 - w| sqrt(3) = 3
        r, margin = resid[a, b], fw.basis._COMMUTATION_MARGIN
        for offset in (-0.5 * margin, 0.5 * margin):
            with fw.tolerances(commutation=r + offset):
                number = re.escape(repr(float(r)))  # a plain number, not a numpy scalar's repr
                named = rf"pair \({tag.labels[a]}, {tag.labels[b]}\): commutation residual {number} lies within 1e-12"
                with pytest.raises(InvariantError, match=named):
                    fw.commutation_graph(tag)
        for offset in (-2 * margin, 2 * margin):
            with fw.tolerances(commutation=r + offset):
                assert fw.commutation_graph(tag).adjacency[a, b] == (offset > 0)

    def test_graphs_record_their_commutation_gap(self, weyl):
        tag = fw.tag_at(weyl(4), "0,0")
        numeric = fw.commutation_graph(tag)
        assert numeric.max_edge_residual <= 1e-14
        assert numeric.min_non_edge_residual == pytest.approx(8**0.5, abs=1e-12)  # |1 - i| * 2
        exact = fw.commutation_graph(tag, mode="exact-twill")
        assert (exact.max_edge_residual, exact.min_non_edge_residual) == (0.0, 8**0.5)  # 2 per column
        with fw.tolerances(commutation=10):
            assert fw.commutation_graph(tag).min_non_edge_residual == np.inf
        assert np.isnan(fw.CommutationGraph(("a",), np.ones((1, 1), dtype=bool), "numeric").max_edge_residual)

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

    def test_forged_provenance_refused_under_loose_tolerance(self, weyl):
        # the swapped operators lie 8**0.5 from their provenance monomials; the match ignores overrides
        doc = ser.basis_to_json(weyl(4))
        ops = doc["operators"]
        ops["0,1"], ops["1,0"] = ops["1,0"], ops["0,1"]
        forged = ser.basis_from_json(doc)
        with fw.tolerances(commutation=3):
            with pytest.raises(ValueError, match="exact-crisscross.*does not match operator"):
                fw.basis_commutation_graph(forged, mode="exact-crisscross")
            for x0 in ("0,0", "0,1", "2,3"):
                with pytest.raises(ValueError, match="exact-twill.*does not match operator"):
                    fw.commutation_graph(fw.tag_at(forged, x0), mode="exact-twill")


@pytest.fixture(scope="module")
def form_fixtures(monomial_bases, pauli2):
    """Weyl 3..8, the six S3 variants, z2 x z2 and pauli2: the bases the monomial path is checked on."""
    names = [f"weyl{d}" for d in range(3, 9)] + [f"s3-{v}" for v in LATIN_VARIANTS] + ["z2xz2"]
    return {**{name: monomial_bases[name] for name in names}, "pauli2": pauli2}


class TestMonomialForm:
    def test_detected_exactly_on_monomial_bases(self, form_fixtures):
        rng = np.random.default_rng(4)
        for name, basis in form_fixtures.items():
            form = basis.form
            stack = np.stack([basis.operators[x] for x in basis.labels])
            rebuilt = np.zeros_like(stack)
            rebuilt[np.arange(len(stack))[:, None], form.perm, np.arange(basis.d)] = form.phase
            assert np.array_equal(rebuilt, stack), name
            assert transformed_basis(basis, rng).form is None, name

    def test_detection_ignores_tolerance_overrides(self, weyl):
        # V U V* for V = exp(i 1e-3 H) keeps every column's largest entry where U has it
        rng = np.random.default_rng(8)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        w, q = np.linalg.eigh(g + g.conj().T)
        v = (q * np.exp(1e-3j * w)) @ q.conj().T
        basis = weyl(4)
        ops = {x: v @ basis.operators[x] @ v.conj().T for x in basis.labels}
        with fw.tolerances(commutation=10):
            near = fw.unitary_basis(basis.labels, ops, fw.Provenance(kind="conjugated"))
            assert near.form is None
            # the cycles of the perturbed largest entries would give other spectra
            assert fw.compare_ub(basis, near) == fw.NOT_DISTINGUISHED

    def test_tag_form_is_the_tag(self, form_fixtures):
        for name, basis in form_fixtures.items():
            for x0 in basis.labels[:: max(1, basis.d - 1)]:
                tag = fw.tag_at(basis, x0)
                stack = np.stack([tag.operators[y] for y in tag.labels])
                rebuilt = np.zeros_like(stack)
                rebuilt[np.arange(len(stack))[:, None], tag.form.perm, np.arange(basis.d)] = tag.form.phase
                assert np.abs(rebuilt - stack).max() <= 1e-15, (name, x0)

    def test_cycle_spectra_equal_eigvals_spectra_on_every_tag(self, form_fixtures):
        # with one phase product per cycle; products started at each element disagree on weyl8
        for name, basis in form_fixtures.items():
            for x0 in basis.labels:
                tag = fw.tag_at(basis, x0)
                dense = np.stack([tag.operators[y] for y in tag.labels])
                assert fw.linalg.unit_spectrum_angles(tag.form) == fw.linalg.unit_spectrum_angles(dense), (name, x0)

    def test_monomial_residuals_match_dense_kernel(self, form_fixtures):
        assert 2**14 // (63 * 8) < 63  # the monomial kernel splits a weyl8 tag into row blocks
        for name, basis in form_fixtures.items():
            for x0 in basis.labels[:: basis.d]:
                tag = fw.tag_at(basis, x0)
                dense = fw.linalg.commutator_norms(np.stack([tag.operators[y] for y in tag.labels]))
                assert np.abs(fw.linalg.commutator_norms(tag.form) - dense).max() <= 1e-12, (name, x0)

    def test_numeric_mode_uses_the_form_only(self, form_fixtures, monkeypatch):
        kernel = fw.basis.commutator_norms

        def monomial_only(members, *floor):
            assert isinstance(members, fw.linalg.MonomialForm)
            return kernel(members, *floor)

        def no_eigvals(*args, **kwargs):
            raise AssertionError("eigvals called on a monomial basis")

        monkeypatch.setattr(fw.basis, "commutator_norms", monomial_only)
        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        for name in ("weyl4", "s3-e", "pauli2"):
            basis = form_fixtures[name]
            fw.basis_commutation_graph(basis)
            fw.invariant_profile(basis)
            fw.invariant_profile(basis, variant="pcue")


def mixed_labels(n: int, rng) -> tuple[str, ...]:
    """n distinct labels: integer pairs, one integer spelled several ways ("3", "03", "+3", " 2, 3"), and text."""
    pool = [f"{m},{k}" for m in range(-2, 10) for k in range(10)]
    pool += [f"{prefix}{k}" for prefix in ("", "0", "+", "t") for k in range(12)]
    pool += ["1²", "+-3", "x,1", "1,x", " 2, 3"]
    return tuple(rng.choice(pool, size=n, replace=False).tolist())


def random_graph(n: int, density: float, rng) -> np.ndarray:
    upper = np.triu(rng.random((n, n)) < density, 1)
    adj = upper | upper.T
    np.fill_diagonal(adj, True)
    return adj


class TestEnumerateMass:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 130])
    def test_matches_frozenset_oracle_on_random_graphs(self, n):
        # sizes straddle the byte and 64-bit word boundaries of the neighbour masks;
        # densities stay where the oracle's clique count is small
        rng = np.random.default_rng(4100 + n)
        densities = (0.1, 0.5, 0.9) if n < 10 else (0.1, 0.3) if n > 100 else (0.1, 0.3, 0.5)
        for density in densities:
            adj = random_graph(n, density, rng)
            labels = mixed_labels(n, rng)
            expected = frozenset_masses(labels, adj)
            assert fw.enumerate_mass(fw.CommutationGraph(labels, adj, "numeric")).masses == expected, density
            perm = rng.permutation(n)
            shuffled = fw.CommutationGraph(tuple(labels[i] for i in perm), adj[np.ix_(perm, perm)], "numeric")
            assert fw.enumerate_mass(shuffled).masses == expected, density

    def test_matches_frozenset_oracle_on_overlapping_cliques(self):
        # fan-like graphs: a few large cliques that share members
        rng = np.random.default_rng(4200)
        for n in (9, 64, 130):
            adj = np.eye(n, dtype=bool)
            for _ in range(n // 4 + 2):
                members = rng.choice(n, size=rng.integers(2, min(n, 16) + 1), replace=False)
                adj[np.ix_(members, members)] = True
            labels = mixed_labels(n, rng)
            fan = fw.enumerate_mass(fw.CommutationGraph(labels, adj, "numeric"))
            assert fan.masses == frozenset_masses(labels, adj), n

    @pytest.mark.parametrize("vertices, adjacency, reason", [
        (("a", "a"), np.ones((2, 2), dtype=bool), "distinct; repeated: \\['a'\\]"),
        (("a",), np.ones((2, 2), dtype=bool), "shape \\(2, 2\\), expected \\(1, 1\\)"),
        (("a", "b", "c"), np.ones((2, 2), dtype=bool), "shape \\(2, 2\\), expected \\(3, 3\\)"),
        (("a", "b"), np.array([[True, True], [False, True]]), "symmetric"),
        (("a", "b"), np.array([[True, False], [False, False]]), "True diagonal"),
    ], ids=["repeated-label", "one-vertex-2x2", "three-vertices-2x2", "asymmetric", "false-diagonal"])
    def test_malformed_graph_refused(self, vertices, adjacency, reason):
        with pytest.raises(InvariantError, match=reason):
            fw.enumerate_mass(fw.CommutationGraph(vertices, adjacency, "numeric"))

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


@pytest.fixture(scope="module")
def orbit_bases(monomial_bases, weyl, s3xz2_basis, pauli2):
    """Weyl 2..12, z3f, the six S3 variants, z2 x z2, z2^3, s3 x z2 and pauli2: where the orbit path is checked."""
    z2 = fw.group_cyclic(2)
    z2cubed = fw.group_product(fw.group_product(z2, z2), z2)
    return {
        **monomial_bases,
        **{f"weyl{d}": weyl(d) for d in range(9, 13)},
        "z2xz2xz2": fw.build_shift_multiply(fw.latin_from_group(z2cubed, "e"), fw.fourier_family(8)),
        "s3xz2": s3xz2_basis,
        "pauli2": pauli2,
    }


@pytest.fixture(scope="module")
def oracle_fans(orbit_bases):
    return {name: per_tag_fans(basis) for name, basis in orbit_bases.items()}


@pytest.fixture(scope="module")
def oracle_profiles(oracle_fans):
    return {name: {variant: per_tag_profile(oracle_fans[name], variant) for variant in fw.basis.INVARIANT_VARIANTS}
            for name in PROFILED}


@pytest.fixture()
def graph_builds(monkeypatch):
    """Tags whose graph the library builds; the oracle's ``fw.commutation_graph`` is not counted."""
    built = []
    build = fw.basis.commutation_graph

    def counted(tag, mode="numeric"):
        built.append(tag.x0)
        return build(tag, mode)

    monkeypatch.setattr(fw.basis, "commutation_graph", counted)
    return built


@pytest.fixture()
def eigvals_calls(monkeypatch):
    """Stack sizes of the batched ``eigvals`` calls, the dense spectra kernel, made anywhere."""
    calls = []
    eigvals = np.linalg.eigvals

    def counted(stack):
        calls.append(len(stack))
        return eigvals(stack)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


@pytest.fixture()
def direct_spectra(monkeypatch):
    """Tags whose spectra the library computes from their own members (by ``_spectrum_angles``), by tag label:
    representatives, and matched tags whose rotated angles were refused.  The oracle's spectra are not counted."""
    tags, current = [], []
    tag_at, spectra = fw.basis.tag_at, fw.basis._spectrum_angles

    def tracked(basis, x0):
        current[:] = [x0]
        return tag_at(basis, x0)

    def counted(members):
        tags.extend(current)
        return spectra(members)

    monkeypatch.setattr(fw.basis, "tag_at", tracked)
    monkeypatch.setattr(fw.basis, "_spectrum_angles", counted)
    return tags


def rephased_near_boundary(basis, distance):
    """``basis`` with a member x rephased so that, at a tag x0, an eigenvalue angle of x lies ``distance`` past a
    rounding boundary, while x has no such angle at the first tag, the representative.  Returns the basis, x0, x."""
    first = basis.labels[0]

    def points(y, x):
        return np.linalg.eigvals(basis.operators[y].conj().T @ basis.operators[x])

    x0, x = next((x0, x) for x0, x in itertools.permutations(basis.labels[1:], 2)
                 if np.abs(points(first, x)[:, None] - points(x0, x)).min() > 1e-6)
    theta = np.angle(points(x0, x)[0]) % (2 * np.pi)
    scale = 10.0**ANGLE_DECIMALS
    phi = (np.floor(theta * scale) + 0.5) / scale + distance - theta
    ops = {**basis.operators, x: np.exp(1j * phi) * basis.operators[x]}
    return fw.unitary_basis(basis.labels, ops, fw.Provenance(kind="rephased")), x0, x


def perturbed_operators(basis) -> dict:
    """Every member moved by a random unitary 1e-7 from the identity (seeded)."""
    rng = np.random.default_rng(1)
    ops = {}
    for x in basis.labels:
        g = rng.normal(size=(basis.d, basis.d)) + 1j * rng.normal(size=(basis.d, basis.d))
        w, q = np.linalg.eigh((g + g.conj().T) * 1e-7)
        ops[x] = (q * np.exp(1j * w)) @ q.conj().T @ basis.operators[x]
    return ops


def boundary_margin(theta) -> float:
    """Smallest distance from an angle to a rounding boundary, the midpoints of the ``ANGLE_DECIMALS`` grid."""
    scaled = np.asarray(theta) * 10.0**ANGLE_DECIMALS
    return float(np.abs(scaled - np.floor(scaled) - 0.5).min() / 10.0**ANGLE_DECIMALS)


def artifact(fans) -> str:
    """The text of a ``fans --all-tags`` artifact."""
    return ser.dumps({"fans": {x0: ser.fan_to_json(fan) for x0, fan in fans.items()}})


def matched(tag, rep):
    """``(sigma, eps, arg c)`` of a dense tag matched against ``rep``."""
    return fw.basis._match(fw.basis.tag_members(tag, tag.labels), None, rep)


# graphs built by fan_system, one per orbit of tags
ORBITS = {
    **{f"weyl{d}": 1 for d in range(2, 13)},
    "pauli2": 1, "z2xz2": 1, "s3-e": 1, "s3-g": 1, "z2xz2xz2": 2, "s3-f": 3, "s3xz2": 3,
}
PROFILED = [f"weyl{d}" for d in range(2, 13)] + [
    "z3f", *(f"s3-{v}" for v in LATIN_VARIANTS), "z2xz2", "z2xz2xz2", "s3xz2", "pauli2",
]


class TestTagOrbits:
    @pytest.mark.parametrize("mode", ["numeric", "exact-twill"])
    def test_fan_system_matches_per_tag_oracle(self, orbit_bases, oracle_fans, graph_builds, mode):
        orbits = {}
        for name, basis in orbit_bases.items():
            if mode != "numeric" and basis.provenance.latin is None:
                continue
            # Above d=8 the exact fans meet the numeric oracle: the two graphs agree on these tags (see
            # TestCommutationGraph), and an exact oracle there would double the time of this test.
            oracle = per_tag_fans(basis, mode) if mode != "numeric" and basis.d <= 8 else oracle_fans[name]
            graph_builds.clear()
            system = fw.fan_system(basis, mode)
            orbits[name] = len(graph_builds)
            assert list(system) == list(basis.labels), name
            assert artifact(system) == artifact({x0: fan for x0, (_, fan) in oracle.items()}), name
        expected = {name: count for name, count in ORBITS.items() if name in orbits}
        assert {name: orbits[name] for name in expected} == expected

    def test_profiles_match_per_tag_oracle(self, orbit_bases, oracle_profiles):
        for name in PROFILED:
            for variant, profile in oracle_profiles[name].items():
                assert fw.invariant_profile(orbit_bases[name], variant) == profile, (name, variant)

    def test_transformed_copies_match_per_tag_oracle(self, orbit_bases, oracle_profiles):
        # A transformed copy is equivalent to its original, so it has the original's profile; the copies up to
        # d=6 also meet a dense per-tag oracle of their own fans.  Weyl 9..12 take a second seed.
        for name in PROFILED:
            basis = orbit_bases[name]
            if basis.d > 8 and not name.startswith("weyl"):
                continue
            for seed in [13, 14] if basis.d > 8 else [13]:
                copy = transformed_basis(basis, np.random.default_rng([seed, basis.d]))
                if copy.d <= 6:
                    oracle = {x0: fan for x0, (_, fan) in per_tag_fans(copy).items()}
                    assert artifact(fw.fan_system(copy)) == artifact(oracle), name
                for variant, profile in oracle_profiles[name].items():
                    assert fw.invariant_profile(copy, variant) == profile, (name, seed, variant)
        # s3 x z2 has three orbits, so at d=12 new representatives are dense too
        copy = transformed_basis(orbit_bases["s3xz2"], np.random.default_rng(13))
        for variant, profile in oracle_profiles["s3xz2"].items():
            assert fw.invariant_profile(copy, variant) == profile, variant

    def test_differently_transformed_copies_not_distinguished(self, orbit_bases):
        # Dense against dense: both sides take the cross-Gram matcher and the rotated spectra, the worst case for a
        # false "inequivalent".
        for name, basis in orbit_bases.items():
            if basis.d > 8:
                continue
            one, two = (transformed_basis(basis, np.random.default_rng([seed, basis.d])) for seed in (31, 32))
            assert one.form is None and two.form is None, name
            for variant in fw.basis.INVARIANT_VARIANTS:
                assert fw.compare_ub(one, two, variant) == fw.NOT_DISTINGUISHED, (name, variant)

    def test_dense_copy_matches_its_own_per_tag_profile(self, weyl, eigvals_calls):
        # one orbit: one batched eigvals for the representative, where the per-tag oracle makes one per tag
        copy = transformed_basis(weyl(8), np.random.default_rng([13, 8]))
        oracle = per_tag_fans(copy)
        for variant in fw.basis.INVARIANT_VARIANTS:
            eigvals_calls.clear()
            profile = fw.invariant_profile(copy, variant)
            assert eigvals_calls == [63]
            eigvals_calls.clear()
            assert profile == per_tag_profile(oracle, variant), variant
            assert eigvals_calls == [63] * 64

    def test_rotated_angles_match_direct_eigvals(self, weyl, pauli2, s3xz2_basis, monkeypatch):
        # Compared as points on the circle: sorted angle arrays split angles near 0 from angles near 2 pi.  Random
        # member phases make arg c generic; the members' own spectra are symmetric enough to hide a sign error.
        rotations = []
        rotate = fw.basis._rotated_angles

        def recorded(*args):
            rotations.append(rotate(*args))
            return rotations[-1]

        monkeypatch.setattr(fw.basis, "_rotated_angles", recorded)
        rng = np.random.default_rng(2)
        for basis in (weyl(6), pauli2, s3xz2_basis):
            copy = transformed_basis(basis, rng)
            phases = np.exp(2j * np.pi * rng.random(len(copy.labels)))
            ops = {x: c * copy.operators[x] for x, c in zip(copy.labels, phases)}
            copy = fw.unitary_basis(copy.labels, ops, copy.provenance)
            compared = 0
            for tag, _, sigma, angles in fw.basis._tag_fans(copy, "numeric", True):
                # generic phases put some rotated angle near a boundary at some d=12 tags: those are computed directly
                if sigma is None or angles is not rotations[-1]:
                    continue
                rotated = np.exp(1j * angles)[:, :, None]
                direct = np.exp(1j * _spectrum_angles(fw.basis.tag_members(tag, tag.labels)))[:, None, :]
                gap = np.abs(rotated - direct)
                assert max(gap.min(axis=2).max(), gap.min(axis=1).max()) < 1e-13, tag.x0
                compared += 1
            assert compared > 0.8 * len(copy.labels)

    def test_rotated_angle_near_boundary_computed_directly(self, weyl, direct_spectra):
        # 1.6e-13 past a boundary: outside each tag's own guard (1e-13), inside the rotation's (above 2e-13).
        # Weyl spectra are roots of unity, so the rephased member's angle recurs at several tags.
        copy = transformed_basis(weyl(4), np.random.default_rng(3))
        near, x0, x = rephased_near_boundary(copy, 1.6 * _ANGLE_MARGIN)
        oracle = per_tag_fans(near)
        margins = {y: boundary_margin(_spectrum_angles(fw.basis.tag_members(tag, tag.labels)))
                   for y, (tag, _) in oracle.items()}
        near_tags = [y for y in near.labels if margins[y] < 1e-11]
        assert x0 in near_tags and near.labels[0] not in near_tags and len(near_tags) < len(near.labels) - 1
        assert all(_ANGLE_MARGIN < margins[y] < 2 * _ANGLE_MARGIN for y in near_tags)
        for variant in fw.basis.INVARIANT_VARIANTS:
            direct_spectra.clear()
            profile = fw.invariant_profile(near, variant)
            assert direct_spectra == [near.labels[0], *near_tags]  # the representative, then the tags near a boundary
            assert profile == per_tag_profile(oracle, variant), variant

    def test_rotated_angle_within_margin_refused_as_per_tag(self, weyl):
        # the first tag to refuse is x0, a matched tag whose rotated spectra fall back to the direct computation
        copy = transformed_basis(weyl(4), np.random.default_rng(3))
        near, x0, x = rephased_near_boundary(copy, 0.5 * _ANGLE_MARGIN)
        with pytest.raises(InvariantError) as per_tag:
            per_tag_profile(per_tag_fans(near), "cue")
        assert f"spectrum of member {x}: eigenvalue angle" in str(per_tag.value)
        assert "from a rounding boundary at 8 decimals" in str(per_tag.value)
        for variant in fw.basis.INVARIANT_VARIANTS:
            with pytest.raises(InvariantError) as profile:
                fw.invariant_profile(near, variant)
            assert str(profile.value) == str(per_tag.value), variant

    def test_pauli2_has_one_orbit_and_two_cue_invariants(self, pauli2, graph_builds):
        # the spectra of c R rotate by arg c, so one orbit holds different cue data
        profile = fw.invariant_profile(pauli2)
        assert len(graph_builds) == 1
        assert len(set(profile)) == 2
        assert len(set(fw.invariant_profile(pauli2, "pcue"))) == 1

    def test_near_miss_dense_tag_computed_directly(self, orbit_bases, graph_builds):
        copy = transformed_basis(orbit_bases["s3-f"], np.random.default_rng(0))
        tags = [fw.tag_at(copy, x0) for x0 in copy.labels]
        first = fw.basis.tag_members(tags[0], tags[0].labels)
        rep = fw.basis._Representative(first, None, fw.commutation_graph(tags[0]), None)
        misses = 0
        for tag in tags[1:]:
            sigma, eps, _ = matched(tag, rep)  # every tag finds a bijection among the candidates
            members = fw.basis.tag_members(tag, tag.labels)
            overlap = np.abs(np.einsum("ijk,ijk->i", first[sigma].conj(), members)) / copy.d
            if eps > 1e-12:
                # |tr(R* W)| / d = sqrt(3) / 2 and ||W - c R||_F = 1.27: not scalar copies, so no transfer
                assert overlap.min() == pytest.approx(3**0.5 / 2) and eps == pytest.approx(1.268, abs=1e-3)
                assert not fw.basis._transfer_is_exact(rep.graph, eps, copy.unitarity_max_residual)
                misses += 1
        assert misses >= len(tags) // 2
        system = fw.fan_system(copy)
        assert len(graph_builds) == 3
        assert artifact(system) == artifact({x0: fan for x0, (_, fan) in per_tag_fans(copy).items()})

    def test_residual_inside_transfer_bound_computed_directly(self, weyl, graph_builds):
        # Every member of weyl4 moved by a unitary 1e-7 from the identity: the tags match within eps ~ 2e-6
        basis, ops = weyl(4), perturbed_operators(weyl(4))
        loose = {"orthogonality": 1e-3, "trace": 1e-3}
        with fw.tolerances(commutation=1e-3, **loose):
            near = fw.unitary_basis(basis.labels, ops, fw.Provenance(kind="perturbed"))
            tags = [fw.tag_at(near, x0) for x0 in near.labels]
            graph = fw.commutation_graph(tags[0])
            rep = fw.basis._Representative(fw.basis.tag_members(tags[0], tags[0].labels), None, graph, None)
            eps = max(matched(tag, rep)[1] for tag in tags[1:])
            assert 1e-7 < eps < 1e-5
            fw.fan_system(near)
            assert len(graph_builds) == 1  # edges lie 1e-3 from the tolerance: one orbit
        bound = 4 * eps * (1 + near.unitarity_max_residual) + 2 * eps**2
        with fw.tolerances(commutation=graph.max_edge_residual + bound / 2, **loose):
            graph_builds.clear()
            system = fw.fan_system(near)
            assert len(graph_builds) == len(near.labels)
            assert artifact(system) == artifact({x0: fan for x0, (_, fan) in per_tag_fans(near).items()})

    def test_rotation_inside_perturbation_bound_computed_directly(self, weyl, graph_builds, direct_spectra):
        # The fans transfer (one orbit), but eps ~ 2e-6 turns angles by far more than the rounding step, so every
        # matched tag's spectra are computed directly.
        basis = weyl(4)
        with fw.tolerances(commutation=1e-3, orthogonality=1e-3, trace=1e-3):
            near = fw.unitary_basis(basis.labels, perturbed_operators(basis), fw.Provenance(kind="perturbed"))
            oracle = per_tag_fans(near)
            for variant in fw.basis.INVARIANT_VARIANTS:
                graph_builds.clear()
                direct_spectra.clear()
                profile = fw.invariant_profile(near, variant)
                assert len(graph_builds) == 1
                assert direct_spectra == list(near.labels)  # the representative, then every matched tag
                assert profile == per_tag_profile(oracle, variant), variant

    def test_refusals_of_the_per_tag_path_are_kept(self, weyl, pauli2):
        with pytest.raises(ValueError, match="unsupported mode 'exact-crisscross' for a tag graph"):
            fw.fan_system(weyl(3), "exact-crisscross")
        with pytest.raises(ValueError, match="exact-twill.*provenance"):
            fw.fan_system(pauli2, "exact-twill")
        doc = ser.basis_to_json(weyl(4))
        doc["operators"]["0,1"], doc["operators"]["1,0"] = doc["operators"]["1,0"], doc["operators"]["0,1"]
        with pytest.raises(ValueError, match="exact-twill.*does not match operator"):
            fw.fan_system(ser.basis_from_json(doc), "exact-twill")
        with pytest.raises(ValueError, match="variant must be one of"):
            fw.invariant_profile(weyl(3), "plain")


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


class TestFanMasks:
    def test_bit_k_is_universe_k(self):
        fan = fw.Fan(universe=("b", "a", "c"), masses=(("a", "b"), ("c", "a"), ("a", "a")))
        assert fan.masks == (0b011, 0b110, 0b010)

    @pytest.mark.parametrize("malformed", ["repeated-label", "label-outside"])
    def test_malformed_fan_refused(self, weyl, malformed):
        tag = fw.tag_at(weyl(3), "0,0")
        fan = fw.fan_representation(weyl(3), "0,0")
        if malformed == "repeated-label":
            fan, message = fw.Fan(fan.universe + fan.universe[:1], fan.masses), r"repeats labels: \['0,1'\]"
        else:
            fan, message = fw.Fan(fan.universe, ((*fan.masses[0], "9,9"), *fan.masses[1:])), "'9,9' is not in"
        for use in (lambda: fan.masks, lambda: fw.fan_invariant(tag, fan), lambda: fw.minimal_cover(fan)):
            with pytest.raises(ValueError, match=message):
                use()


class TestFanInvariant:
    def test_weyl4_combinatorics(self, weyl):
        basis = weyl(4)
        tag = fw.tag_at(basis, "0,0")
        fan = fw.fan_representation(basis, "0,0")
        inv = fw.fan_invariant(tag, fan)
        assert inv.mass_size_multiset == (3,) * 7
        assert inv.membership_degree_sequence == (1,) * 12 + (3,) * 3
        assert inv.pairwise_intersection_multiset == (0,) * 12 + (1,) * 9

    def test_pauli2_combinatorics(self, pauli2):
        tag = fw.tag_at(pauli2, "I,I")
        fan = fw.fan_representation(pauli2, "I,I")
        inv = fw.fan_invariant(tag, fan)
        assert inv.mass_size_multiset == (3,) * 15
        assert inv.membership_degree_sequence == (3,) * 15
        # two MASSes share at most one member, and each member lies in three
        assert inv.pairwise_intersection_multiset == (0,) * 60 + (1,) * 45

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

    def test_transformed_basis_not_distinguished(self, weyl, form_fixtures):
        rng = np.random.default_rng(31)
        basis = weyl(3)
        assert fw.compare_ub(basis, transformed_basis(basis, rng)) == fw.NOT_DISTINGUISHED
        # The original takes its monomial form, the dense copy eigvals and the dense kernel.  The
        # copy's profiles are compare_ub's, built from one fan per tag for both variants.
        for name, basis in form_fixtures.items():
            profiles = {variant: fw.invariant_profile(basis, variant) for variant in fw.basis.INVARIANT_VARIANTS}
            for seed in (0, 1):
                other = transformed_basis(basis, np.random.default_rng([seed, basis.d]))
                tags = [fw.tag_at(other, x0) for x0 in other.labels]
                fans = [fw.enumerate_mass(fw.commutation_graph(tag)) for tag in tags]
                for variant, profile in profiles.items():
                    dense = tuple(sorted(fw.fan_invariant(t, f, variant) for t, f in zip(tags, fans)))
                    assert dense == profile, (name, seed, variant)
        assert fw.compare_ub(basis, other, "pcue") == fw.NOT_DISTINGUISHED

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

    def test_repeated_bell_vector_refused_naming_the_pair(self):
        s = 1 / np.sqrt(2)
        bells = [np.array([s, 0, 0, s])] * 2 + [np.array([0, s, s, 0]), np.array([0, s, -s, 0])]
        with pytest.raises(ValueError, match=r"trace orthogonality fails for pair \(0, 1\)"):
            fw.mes_basis_to_ub(bells)

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
            angles = fw.linalg.unit_spectrum_angles(tag.operators[x][None])[0]
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
