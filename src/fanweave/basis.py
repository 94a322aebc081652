"""Unitary bases, tags, commutation graphs, maximal abelian subsystems, fan
representations, Hadamard fans, and canonical fan invariants.

A unitary basis is a family of d^2 unitaries on C^d, pairwise orthogonal in
the Hilbert-Schmidt inner product with ``tr(U_x* U_y) = d delta_xy``.  Fixing
a tag label x0 turns the rest into a traceless orthogonal unitary system
``W_x = U_x0* U_x``; its maximal pairwise-commuting subsets (MASSes) form the
fan, whose combinatorial and spectral shape is invariant under relabeling and
two-sided unitary multiplication of the basis.  Comparing the multiset of
these invariants over all tags certifies inequivalence of two bases.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .combinatorics import (
    HadamardFamily,
    LatinSquare,
    fourier_family,
    group_cyclic,
    is_partial_hadamard,
    latin_from_group,
)
from .config import tols
from .errors import InvariantError
from .linalg import (
    as_square_matrix,
    bipartite_dim,
    commutator_norms,
    eigen_sort_key,
    gram_deviation,
    multiplicity_partition,
    round_unit_angle,
    simul_diag,
    unit_spectrum_angles,
    vec_to_op,
)

INEQUIVALENT = "inequivalent"
NOT_DISTINGUISHED = "not-distinguished"

GRAPH_MODES = ("numeric", "exact-crisscross", "exact-twill")
INVARIANT_VARIANTS = ("cue", "pcue")


# ---------------------------------------------------------------------------
# labels

def pair_label(m: int, n: int) -> str:
    return f"{m},{n}"


def parse_pair(label: str) -> tuple[int, int]:
    try:
        m, n = label.split(",")
        return int(m), int(n)
    except ValueError:
        raise ValueError(f"label {label!r} is not an integer pair 'm,n'") from None


def label_sort_key(label: str):
    """Comma parts compared as integers where they match ``[+-]?\\d+``, then the label itself to break ties."""
    key = []
    for part in label.split(","):
        p = part.strip()
        digits = p[1:] if p[:1] in ("+", "-") else p
        key.append((0, int(p), "") if digits.isdecimal() else (1, 0, p))
    return tuple(key), label


# ---------------------------------------------------------------------------
# unitary bases


@dataclass(frozen=True, eq=False)
class Provenance:
    """Construction record; carries the combinatorial data needed for exact modes."""

    kind: str
    params: dict = field(default_factory=dict)
    latin: LatinSquare | None = None
    hadamard: HadamardFamily | None = None


@dataclass(frozen=True, eq=False)
class UnitaryBasis:
    d: int
    labels: tuple[str, ...]
    operators: dict[str, np.ndarray]
    provenance: Provenance


def _check_hs_family(labels, operators, d, what):
    v = np.stack([operators[x] for x in labels]).reshape(len(labels), d * d)
    dev = gram_deviation(v, float(d))
    worst = np.unravel_index(np.argmax(dev), dev.shape)
    if dev[worst] > tols().orthogonality:
        a, b = labels[worst[0]], labels[worst[1]]
        raise InvariantError(
            f"{what}: trace orthogonality fails for pair ({a}, {b}): "
            f"|tr(U*U) - d delta| = {dev[worst]:.3e}"
        )


def unitary_basis(labels, operators: dict[str, np.ndarray], provenance: Provenance) -> UnitaryBasis:
    """Assemble and verify a unitary basis (unitarity and HS orthogonality)."""
    labels = tuple(labels)
    if not labels:
        raise ValueError("a unitary basis needs at least one label")
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate labels")
    ops = {x: as_square_matrix(operators[x], f"operator {x}") for x in labels}
    d = ops[labels[0]].shape[0]
    if len(labels) != d * d:
        raise InvariantError(f"a unitary basis on C^{d} needs {d * d} members, got {len(labels)}")
    eye = np.eye(d)
    for x in labels:
        if ops[x].shape[0] != d:
            raise InvariantError(f"operator {x} has dimension {ops[x].shape[0]}, expected {d}")
        resid = np.linalg.norm(ops[x].conj().T @ ops[x] - eye)
        if resid > tols().unitarity:
            raise InvariantError(f"operator {x} is not unitary: ||U*U - I||_F = {resid:.3e}")
    _check_hs_family(labels, ops, d, "unitary basis")
    return UnitaryBasis(d=d, labels=labels, operators=ops, provenance=provenance)


def build_shift_multiply(
    lam: LatinSquare, family: HadamardFamily, kind: str = "shift-multiply", params: dict | None = None
) -> UnitaryBasis:
    """Shift-and-multiply basis: ``U_{m,n} |k> = H^n_{m,k} |lam(n, k)>``.

    Labels are the strings "m,n" for (m, n) in Y_d x Y_d.
    """
    if family.d != lam.size:
        raise ValueError(f"latin square size {lam.size} != Hadamard family dimension {family.d}")
    d = lam.size
    ops = {}
    labels = []
    for m in range(d):
        for n in range(d):
            u = np.zeros((d, d), dtype=complex)
            u[lam.table[n], np.arange(d)] = family.matrices[n][m]
            label = pair_label(m, n)
            labels.append(label)
            ops[label] = u
    prov = Provenance(kind=kind, params=dict(params or {}), latin=lam, hadamard=family)
    return unitary_basis(labels, ops, prov)


def build_weyl(d: int) -> UnitaryBasis:
    """Weyl basis for Z_d: addition latin square with the Fourier matrix throughout."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    lam = latin_from_group(group_cyclic(d), "e")
    return build_shift_multiply(lam, fourier_family(d), kind="weyl", params={"d": d})


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def build_pauli2() -> UnitaryBasis:
    """Two-qubit Pauli basis: the 16 operators sigma_a (x) sigma_b on C^4."""
    labels = []
    ops = {}
    for a, b in itertools.product("IXYZ", repeat=2):
        label = f"{a},{b}"
        labels.append(label)
        ops[label] = np.kron(_PAULI[a], _PAULI[b])
    return unitary_basis(labels, ops, Provenance(kind="pauli2"))


# ---------------------------------------------------------------------------
# tags


@dataclass(frozen=True, eq=False)
class Tag:
    """Residual unitary system of a basis at a label: ``W_x = U_x0* U_x``."""

    x0: str
    labels: tuple[str, ...]
    operators: dict[str, np.ndarray]
    d: int
    basis: UnitaryBasis


def tag_at(basis: UnitaryBasis, x0: str) -> Tag:
    """Tag of a basis at x0; verifies the residual system is traceless and orthogonal."""
    if x0 not in basis.operators:
        raise ValueError(f"tag label {x0!r} is not in the basis")
    u0 = basis.operators[x0]
    rest = tuple(x for x in basis.labels if x != x0)
    w = {x: u0.conj().T @ basis.operators[x] for x in rest}
    for x in rest:
        t = abs(np.trace(w[x]))
        if t > tols().trace:
            raise InvariantError(f"tag at {x0}: member {x} is not traceless, |tr| = {t:.3e}")
    _check_hs_family(rest, w, basis.d, f"tag at {x0}")
    return Tag(x0=x0, labels=rest, operators=w, d=basis.d, basis=basis)


def twill_check(basis: UnitaryBasis, x: str, x0: str, y: str) -> bool:
    """True iff ``U_x U_x0* U_y = U_y U_x0* U_x``, i.e. the tag members at x and y commute."""
    if x == x0 or y == x0:
        return True
    ux, u0, uy = (basis.operators[z] for z in (x, x0, y))
    mid = u0.conj().T
    return bool(np.linalg.norm(ux @ mid @ uy - uy @ mid @ ux) <= tols().commutation)


# ---------------------------------------------------------------------------
# commutation graphs


@dataclass(frozen=True, eq=False)
class CommutationGraph:
    vertices: tuple[str, ...]
    adjacency: np.ndarray  # bool, symmetric, True on the diagonal
    mode: str


def _numeric_adjacency(labels, operators) -> np.ndarray:
    """Adjacency from ``||A_a A_b - A_b A_a||_F``: the upper triangle of :func:`commutator_norms`, mirrored."""
    adj = np.triu(commutator_norms(np.stack([operators[x] for x in labels])) <= tols().commutation, 1)
    adj |= adj.T
    np.fill_diagonal(adj, True)
    return adj


def _monomial_adjacency(basis: UnitaryBasis, labels, operators, mode: str, x0: str | None) -> np.ndarray:
    """Exact adjacency of shift-and-multiply members read as monomials ``|k> -> w^e[k] |p[k]>``.

    ``U_{m,n}`` has ``p = lam(n, .)``, ``e`` row m of the exponents of ``H^n`` and ``w = exp(2 pi i / N)``;
    a tag composes in ``U_x0^-1``.  ``(s, a)`` and ``(t, b)`` commute iff ``s t = t s`` and
    ``b + a[t] = a + b[s] (mod N)``.  Provenance whose monomials are not ``operators`` is refused.
    """
    lam, fam = basis.provenance.latin, basis.provenance.hadamard
    if lam is None or fam is None:
        raise ValueError(
            f"mode {mode!r} requires shift-and-multiply provenance with a latin square and Hadamard family"
        )
    if not fam.exact:
        raise ValueError(f"mode {mode!r} requires exact root-of-unity Hadamard exponents")
    d, order = basis.d, fam.root_order
    pairs = {x: parse_pair(x) for x in basis.labels}
    if lam.size != d or fam.d != d or not all(0 <= i < d for pair in pairs.values() for i in pair):
        raise ValueError(f"mode {mode!r}: provenance of size {lam.size} does not index the labels of C^{d}")
    m, n = np.array([pairs[x] for x in labels]).T
    perms = lam.table[n]
    exps = fam.exponents[n, m]
    if x0 is not None:
        m0, n0 = pairs[x0]
        perms = np.argsort(lam.table[n0])[perms]
        exps = exps - fam.exponents[n0, m0][perms]
    exps %= order
    dense = np.zeros((len(labels), d, d), dtype=complex)
    dense[np.arange(len(labels))[:, None], perms, np.arange(d)] = np.exp(2j * np.pi * exps / order)
    resid = np.linalg.norm(dense - np.stack([operators[x] for x in labels]), axis=(1, 2))
    worst = int(np.argmax(resid))
    if resid[worst] > tols().commutation:
        raise ValueError(
            f"mode {mode!r}: provenance does not match operator {labels[worst]} "
            f"(Frobenius distance {resid[worst]:.3e})"
        )
    composed = perms[:, perms]  # composed[i, j] = perms[i] o perms[j]
    phases = exps[None, :, :] + exps[:, perms]  # phases[i, j] = exps[j] + exps[i] o perms[j]
    same_perm = (composed == composed.transpose(1, 0, 2)).all(axis=2)
    same_phase = ((phases - phases.transpose(1, 0, 2)) % order == 0).all(axis=2)
    return same_perm & same_phase


def _commutation_graph(basis, labels, operators, mode: str, exact_mode: str, x0=None) -> CommutationGraph:
    if mode == "numeric":
        adj = _numeric_adjacency(labels, operators)
    elif mode == exact_mode:
        adj = _monomial_adjacency(basis, labels, operators, mode, x0)
    else:
        scope = "an untagged basis" if x0 is None else "a tag"
        raise ValueError(f"unsupported mode {mode!r} for {scope} graph")
    return CommutationGraph(vertices=labels, adjacency=adj, mode=mode)


def basis_commutation_graph(basis: UnitaryBasis, mode: str = "numeric") -> CommutationGraph:
    """Commutation graph on all basis labels (no tag)."""
    return _commutation_graph(basis, basis.labels, basis.operators, mode, "exact-crisscross")


def commutation_graph(tag: Tag, mode: str = "numeric") -> CommutationGraph:
    """Commutation graph of the residual system of a tag."""
    return _commutation_graph(tag.basis, tag.labels, tag.operators, mode, "exact-twill", tag.x0)


# ---------------------------------------------------------------------------
# fans (families of maximal abelian subsystems)


@dataclass(frozen=True, eq=False)
class Fan:
    """All maximal cliques of a commutation graph, in canonical order."""

    universe: tuple[str, ...]
    masses: tuple[tuple[str, ...], ...]


def enumerate_mass(graph: CommutationGraph) -> Fan:
    """Enumerate every maximal clique of the commutation graph.

    Recursive extension with candidate and excluded sets; the pivot is the
    vertex with the most candidates among its neighbours, and only
    non-neighbours of the pivot are branched on.  Output is canonically
    sorted, so it is independent of vertex order.
    """
    n = len(graph.vertices)
    adj = graph.adjacency
    if not np.array_equal(adj, adj.T) or not adj.diagonal().all():
        raise InvariantError("adjacency must be symmetric with a True diagonal")
    nbrs = [frozenset(np.nonzero(adj[i])[0].tolist()) - {i} for i in range(n)]
    cliques: list[frozenset[int]] = []

    def extend(r: frozenset, p: frozenset, x: frozenset) -> None:
        if not p and not x:
            cliques.append(r)
            return
        pivot = max(p | x, key=lambda u: len(p & nbrs[u]))
        for v in sorted(p - nbrs[pivot]):
            extend(r | {v}, p & nbrs[v], x & nbrs[v])
            p = p - {v}
            x = x | {v}

    extend(frozenset(), frozenset(range(n)), frozenset())
    masses = sorted(
        (tuple(sorted((graph.vertices[i] for i in c), key=label_sort_key)) for c in cliques),
        key=lambda mass: tuple(label_sort_key(x) for x in mass),
    )
    fan = Fan(universe=graph.vertices, masses=tuple(masses))
    covered = set(itertools.chain.from_iterable(fan.masses))
    if covered != set(fan.universe):
        raise InvariantError("maximal cliques do not cover the vertex set")
    return fan


def fan_representation(basis: UnitaryBasis, x0: str | None = None, mode: str = "numeric") -> Fan:
    """Fan of the tag at x0, or of the untagged basis when x0 is None."""
    if x0 is None:
        return enumerate_mass(basis_commutation_graph(basis, mode=mode))
    return enumerate_mass(commutation_graph(tag_at(basis, x0), mode=mode))


def fan_system(basis: UnitaryBasis, mode: str = "numeric") -> dict[str, Fan]:
    """Fan of every tag of the basis, keyed by tag label."""
    return {x0: fan_representation(basis, x0, mode=mode) for x0 in basis.labels}


def membership_degrees(fan: Fan) -> dict[str, int]:
    """Number of MASSes containing each label of the fan's universe."""
    counts = Counter(itertools.chain.from_iterable(fan.masses))
    return {x: counts[x] for x in fan.universe}


# ---------------------------------------------------------------------------
# Hadamard fans


@dataclass(frozen=True, eq=False)
class MassHadamardData:
    """Joint diagonalization data of one MASS.

    ``rows[i]`` is the diagonal of ``diagonalizer* W_y diagonalizer`` for the
    i-th member of the MASS; ``augmented`` prepends the all-ones row.
    """

    mass: tuple[str, ...]
    diagonalizer: np.ndarray
    rows: np.ndarray
    augmented: np.ndarray


@dataclass(frozen=True, eq=False)
class HadamardFan:
    d: int
    entries: tuple[MassHadamardData, ...]


def _column_order(matrix: np.ndarray) -> list[int]:
    return sorted(range(matrix.shape[1]), key=lambda c: eigen_sort_key(matrix[:, c]))


def hadamard_fan(tag: Tag, fan: Fan, rng_seed: int = 0) -> HadamardFan:
    """Per-MASS partial Hadamard matrices from a joint eigenbasis.

    Each MASS of commuting unitaries is simultaneously diagonalized; the
    diagonals, stacked in MASS order, form a partial complex Hadamard matrix
    whose rows sum to zero, and the all-ones augmentation is again partial
    Hadamard.  Columns keep :func:`simul_diag`'s canonical order (joint spectra
    are basis independent, so this makes the result comparable across conjugations).
    """
    if set(fan.universe) != set(tag.labels):
        raise ValueError("fan does not belong to this tag")
    d = tag.d
    entries = []
    for mass in fan.masses:
        ops = [tag.operators[y] for y in mass]
        u, diags = simul_diag(ops, rng_seed=rng_seed)
        rows = np.stack(diags)
        aug = np.vstack([np.ones(d, dtype=complex), rows])
        worst_sum = np.abs(rows.sum(axis=1)).max()
        if worst_sum > tols().row_sum:
            raise InvariantError(f"MASS {mass}: a diagonal row sums to {worst_sum:.3e}, not 0")
        if not is_partial_hadamard(aug):
            raise InvariantError(f"MASS {mass}: augmented diagonals are not partial Hadamard")
        entries.append(MassHadamardData(mass=mass, diagonalizer=u, rows=rows, augmented=aug))
    return HadamardFan(d=d, entries=tuple(entries))


def canonical_hadamard_signature(h) -> tuple:
    """Comparison key for a partial Hadamard matrix, as rounded-angle tuples.

    Exactly invariant under column permutations (the only freedom the
    diagonalization leaves once rows are pinned to the MASS member order):
    columns are sorted, rows are dephased by their leading entry, columns
    re-sorted, then rows sorted.  The row normalization makes the key
    deterministic but is not a full row-equivalence canonical form; Hadamard
    equivalence classification is out of scope.
    """
    m = np.asarray(h, dtype=complex)
    m = m[:, _column_order(m)]
    lead = m[:, :1]
    m = m * (lead.conjugate() / np.abs(lead))
    m = m[:, _column_order(m)]
    row_keys = [tuple(round_unit_angle(z) for z in m[i]) for i in range(m.shape[0])]
    return tuple(sorted(row_keys))


# ---------------------------------------------------------------------------
# fan invariants and basis comparison


@dataclass(frozen=True, order=True)
class FanInvariant:
    """Canonical, label-free signature of a fan.

    ``spectra`` records, per MASS, the sorted per-member eigenvalue data:
    rounded angle multisets for the plain variant, or phase-free data
    (multiplicity partition plus pairwise angle differences) for the
    phase-equivalence variant.
    """

    variant: str
    mass_size_multiset: tuple[int, ...]
    membership_degree_sequence: tuple[int, ...]
    pairwise_intersection_multiset: tuple[int, ...]
    spectra: tuple


def _member_spectrum(angles: tuple[float, ...], variant: str):
    if variant == "cue":
        return angles
    partition = multiplicity_partition(angles)
    diffs = sorted(
        round_unit_angle(np.exp(1j * (a - b)))
        for a, b in itertools.permutations(angles, 2)
    )
    return (partition, tuple(diffs))


def fan_invariant(tag: Tag, fan: Fan, variant: str = "cue") -> FanInvariant:
    if variant not in INVARIANT_VARIANTS:
        raise ValueError(f"variant must be one of {INVARIANT_VARIANTS}")
    if set(fan.universe) != set(tag.labels):
        raise ValueError("fan does not belong to this tag")
    sizes = tuple(sorted(len(m) for m in fan.masses))
    degrees = tuple(sorted(membership_degrees(fan).values()))
    sets = [set(m) for m in fan.masses]
    inters = tuple(
        sorted(len(a & b) for a, b in itertools.combinations(sets, 2))
    )
    angles = unit_spectrum_angles(np.stack([tag.operators[y] for y in fan.universe]))
    spectrum = {y: _member_spectrum(a, variant) for y, a in zip(fan.universe, angles)}
    spectra = tuple(sorted(tuple(sorted(spectrum[y] for y in mass)) for mass in fan.masses))
    return FanInvariant(
        variant=variant,
        mass_size_multiset=sizes,
        membership_degree_sequence=degrees,
        pairwise_intersection_multiset=inters,
        spectra=spectra,
    )


def invariant_profile(basis: UnitaryBasis, variant: str = "cue") -> tuple[FanInvariant, ...]:
    """Sorted multiset of fan invariants over every tag of the basis."""
    profile = []
    for x0 in basis.labels:
        tag = tag_at(basis, x0)
        fan = enumerate_mass(commutation_graph(tag, mode="numeric"))
        profile.append(fan_invariant(tag, fan, variant))
    return tuple(sorted(profile))


def compare_ub(a: UnitaryBasis, b: UnitaryBasis, variant: str = "cue") -> str:
    """Certified-negative comparison of two unitary bases.

    Returns ``"inequivalent"`` when the tag-invariant multisets differ (a
    certificate that no relabeling and two-sided unitary multiplication maps
    one basis to the other), and ``"not-distinguished"`` otherwise.  The
    invariants are necessary but not known to be complete, so equivalence is
    never claimed.
    """
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} != {b.d}")
    if variant not in INVARIANT_VARIANTS:
        raise ValueError(f"variant must be one of {INVARIANT_VARIANTS}")
    if invariant_profile(a, variant) != invariant_profile(b, variant):
        return INEQUIVALENT
    return NOT_DISTINGUISHED


# ---------------------------------------------------------------------------
# maximally entangled bases


def mes_basis_to_ub(vectors) -> UnitaryBasis:
    """Unitary basis associated to an orthonormal basis of maximally entangled vectors.

    Each vector psi corresponds to the operator with entries
    ``sqrt(d) <e_j (x) e_k, psi>``; orthonormality of the vectors gives trace
    orthogonality of the operators, and maximal entanglement makes them
    unitary.  Rejects non-MES input, naming the offending vector.
    """
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not vecs:
        raise ValueError("empty vector list")
    d = bipartite_dim(vecs[0])
    if len(vecs) != d * d:
        raise ValueError(f"need {d * d} vectors for a basis of C^{d} (x) C^{d}, got {len(vecs)}")
    dev = gram_deviation(np.stack(vecs), 1.0).max()
    if dev > tols().orthogonality:
        raise ValueError(f"vectors are not orthonormal: worst Gram deviation {dev:.3e}")
    ops = {}
    labels = []
    for i, psi in enumerate(vecs):
        a = vec_to_op(psi)
        sv = np.linalg.svd(a, compute_uv=False)
        spectrum = sv**2 / d
        if np.abs(sv - 1.0).max() > tols().schmidt:
            raise ValueError(
                f"vector {i} is not maximally entangled: Schmidt spectrum {spectrum.round(6).tolist()}"
            )
        label = str(i)
        labels.append(label)
        ops[label] = a
    return unitary_basis(labels, ops, Provenance(kind="mes-basis", params={"count": len(vecs)}))
