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

import functools
import itertools
import math
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
from .config import DEFAULT_TOLS, tols
from .errors import InvariantError
from .linalg import (
    _ANGLE_MARGIN,
    MonomialForm,
    _radians_to_rounding_boundary,
    _rounded_spectra,
    _spectrum_angles,
    as_square_matrix,
    bipartite_dim,
    commutator_norms,
    eigen_sort_key,
    gram_deviation,
    monomial_form,
    multiplicity_partition,
    round_unit_angle,
    simul_diag,
    unit_angle_differences,
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


@functools.lru_cache(maxsize=4096)  # every tag of a basis sorts the same labels again
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
    gram_max_deviation: float  # worst |tr(U_x* U_y) - d delta_xy| over all pairs, as the basis check measured it
    unitarity_max_residual: float  # worst ||U*U - I||_F over the members, as the basis check measured it
    form: MonomialForm | None = None  # rows in label order; None when some operator is not monomial


def _check_hs_family(labels, stack, d, what) -> float:
    """Worst ``|tr(U_a* U_b) - d delta_ab|`` over the stack; InvariantError naming the pair above ``orthogonality``."""
    dev = gram_deviation(stack.reshape(len(labels), d * d), float(d))
    worst = np.unravel_index(np.argmax(dev), dev.shape)
    if dev[worst] > tols().orthogonality:
        a, b = labels[worst[0]], labels[worst[1]]
        raise InvariantError(
            f"{what}: trace orthogonality fails for pair ({a}, {b}): "
            f"|tr(U*U) - d delta| = {dev[worst]:.3e}"
        )
    return float(dev[worst])


def unitary_basis(labels, operators: dict[str, np.ndarray], provenance: Provenance) -> UnitaryBasis:
    """Assemble and verify a unitary basis (unitarity and HS orthogonality)."""
    labels = tuple(labels)
    if not labels:
        raise ValueError("a unitary basis needs at least one label")
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate labels")
    ops = {x: as_square_matrix(operators[x], f"operator {x}") for x in labels}
    d = ops[labels[0]].shape[0]
    if d < 2:
        raise InvariantError(f"a unitary basis needs dimension d >= 2, got d = {d}")
    if len(labels) != d * d:
        raise InvariantError(f"a unitary basis on C^{d} needs {d * d} members, got {len(labels)}")
    eye = np.eye(d)
    unitarity = 0.0
    for x in labels:
        if ops[x].shape[0] != d:
            raise InvariantError(f"operator {x} has dimension {ops[x].shape[0]}, expected {d}")
        resid = np.linalg.norm(ops[x].conj().T @ ops[x] - eye)
        if resid > tols().unitarity:
            raise InvariantError(f"operator {x} is not unitary: ||U*U - I||_F = {resid:.3e}")
        unitarity = max(unitarity, float(resid))
    stack = np.stack([ops[x] for x in labels])
    gram = _check_hs_family(labels, stack, d, "unitary basis")
    return UnitaryBasis(d=d, labels=labels, operators=ops, provenance=provenance, gram_max_deviation=gram,
                        unitarity_max_residual=unitarity, form=monomial_form(stack))


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
    d: int
    basis: UnitaryBasis
    form: MonomialForm | None = None  # rows in label order, composed from the basis's form

    @functools.cached_property
    def operators(self) -> dict[str, np.ndarray]:
        """``W_x`` by label, formed on first use: a monomial tag's checks, graph and spectra read its form."""
        ops = self.basis.operators
        return dict(zip(self.labels, np.matmul(ops[self.x0].conj().T, np.stack([ops[x] for x in self.labels]))))


def tag_members(tag: Tag, labels) -> MonomialForm | np.ndarray:
    """The tag members at ``labels``: rows of the tag's monomial form, or else a dense stack."""
    if tag.form is None:
        return np.stack([tag.operators[y] for y in labels])
    index = {y: i for i, y in enumerate(tag.labels)}
    rows = [index[y] for y in labels]
    return MonomialForm(tag.form.perm[rows], tag.form.phase[rows])


# Room for the rounding of the basis Gram and of a tag's traces or Gram when the one bounds the other in tag_at.
_GRAM_ROUNDING = 1e-10


def tag_at(basis: UnitaryBasis, x0: str) -> Tag:
    """Tag of a basis at x0; verifies the residual system is traceless and orthogonal.

    Both checks are read from the basis check when that suffices; no member is formed then.  A trace
    ``tr(U_x0* U_x)`` is an entry of the basis Gram.  With ``U0 = U_x0`` and ``M = U0 U0* - I``,
    ``tr(W_a* W_b) - tr(U_a* U_b) = tr(U_a* M U_b)``, and ``|tr(A* M B)| <= ||A||_F ||M||_F ||B||_op``.  For
    members with ``||U*U - I||_F <= delta``, ``||U||_F^2 <= d + sqrt(d) delta`` and ``||U||_op^2 <= 1 + delta``,
    and ``||M||_F = ||U0* U0 - I||_F <= delta`` (U0 is square), so every tag Gram entry lies within
    ``(1 + delta) sqrt(d) delta`` of the basis Gram's.  A check is skipped when the basis's recorded worst Gram
    deviation, plus that bound for the Gram check and ``_GRAM_ROUNDING``, stays below its tolerance: then the
    computed check would pass too.  The slack covers the rounding of both computed sums, each of d^2 products of
    entries that are sums of d products: about ``3 d^3 2^-53`` at worst, which it takes where that exceeds the
    constant (d > 66); measured deviations are at most 1.1e-14.  Otherwise the check runs, with its messages.
    """
    if x0 not in basis.operators:
        raise ValueError(f"tag label {x0!r} is not in the basis")
    i0 = basis.labels.index(x0)
    rest = basis.labels[:i0] + basis.labels[i0 + 1 :]
    d, delta = basis.d, basis.unitarity_max_residual
    tag = Tag(x0=x0, labels=rest, d=d, basis=basis, form=None if basis.form is None else basis.form.tag(i0))
    read = basis.gram_max_deviation + max(_GRAM_ROUNDING, 3 * d**3 * 2.0**-53)
    if not read < tols().trace:
        traces = np.abs(np.trace(np.stack([tag.operators[x] for x in rest]), axis1=1, axis2=2))
        failing = np.flatnonzero(traces > tols().trace)
        if len(failing):
            i = failing[0]
            raise InvariantError(f"tag at {x0}: member {rest[i]} is not traceless, |tr| = {traces[i]:.3e}")
    if not read + (1 + delta) * math.sqrt(d) * delta < tols().orthogonality:
        _check_hs_family(rest, np.stack([tag.operators[x] for x in rest]), d, f"tag at {x0}")
    return tag


# ---------------------------------------------------------------------------
# commutation graphs


@dataclass(frozen=True, eq=False)
class CommutationGraph:
    vertices: tuple[str, ...]
    adjacency: np.ndarray  # bool, symmetric, True on the diagonal
    mode: str
    # The commutation gap, as the graph's residuals measured it (nan for a graph not built from residuals).
    # Every edge is verified, so the first is exact; on a dense graph the second is a lower bound, exact when no
    # pair was cleared by the probe of linalg.commutator_norms.
    max_edge_residual: float = math.nan  # largest residual of an edge, 0 when no two vertices are adjacent
    min_non_edge_residual: float = math.nan  # smallest residual of a non-edge, inf when every pair is adjacent


# A numeric residual this close to the commutation tolerance is refused: rounding could put it on either side.
# Computed residuals of commuting unitaries are at most about 1e-14 for d <= 20, and non-commuting pairs of the
# constructed bases have residuals of at least 1.4, so no decision at the default tolerance comes near it.
_COMMUTATION_MARGIN = 1e-12


def _numeric_adjacency(labels, members, limit: float) -> tuple[np.ndarray, float, float]:
    """Adjacency where ``||A_a A_b - A_b A_a||_F <= limit`` (0 in the exact modes), from :func:`commutator_norms`,
    with the largest edge residual and the smallest non-edge residual, or on a dense stack a lower bound of it.

    A positive limit is a tolerance: a residual within ``_COMMUTATION_MARGIN`` of it raises InvariantError
    naming the pair.  The exact modes decide at 0 on residuals that are 0 or at least ``sqrt(2)`` exactly.

    A dense stack is probed with the floor ``limit + 2 m``, ``m = _COMMUTATION_MARGIN``, and every decision is
    the one that computing ``r`` for every pair would give.  A computed probe value ``s`` and residual ``r`` lie
    within their rounding ``rho`` of their true values ``s* <= r*``; for unit members rho is about 1e-14 at most
    (commuting pairs measure at most 6.5e-15 for d <= 20), far below m.  A pair cleared by the probe has
    ``s > limit + 2 m``, so ``r >= s - 2 rho > limit + m``: a non-edge, not refused, as its ``r`` would say.  An
    edge, or a pair the guard refuses, has ``r < limit + m``, so ``s <= r + 2 rho`` stays at or below the floor
    and the pair gets its ``r``.  So every edge residual is exact, and a cleared non-edge keeps ``s``: a lower
    bound of its residual, itself above ``limit + m``.
    """
    floor = limit + 2 * _COMMUTATION_MARGIN if limit > 0 else math.inf
    resid = commutator_norms(members, floor)
    upper = np.triu(np.ones(resid.shape, dtype=bool), 1)
    if limit > 0:
        near = np.argwhere(upper & (np.abs(resid - limit) < _COMMUTATION_MARGIN))
        if len(near):
            a, b = near[0]
            raise InvariantError(
                f"pair ({labels[a]}, {labels[b]}): commutation residual {float(resid[a, b])!r} lies within "
                f"{_COMMUTATION_MARGIN:.0e} of the commutation tolerance {limit!r}"
            )
    adj = upper & (resid <= limit)
    gap = float(resid[adj].max(initial=0.0)), float(resid[upper & ~adj].min(initial=math.inf))
    adj |= adj.T
    np.fill_diagonal(adj, True)
    return adj, *gap


def _provenance_form(basis: UnitaryBasis, mode: str) -> MonomialForm:
    """The untagged basis as exact monomials ``|k> -> w^e[k] |p[k]>``, read from its shift-and-multiply provenance.

    ``U_{m,n}`` has ``p = lam(n, .)``, ``e`` row m of the exponents of ``H^n`` and ``w = exp(2 pi i / N)``;
    a tag composes in ``U_x0^-1`` (:meth:`MonomialForm.tag`).  ``(s, a)`` and ``(t, b)`` commute iff
    ``s t = t s`` and ``b + a[t] = a + b[s] (mod N)``, that is iff their :func:`commutator_norms` residual on the
    exponents is 0.  Provenance that is not the basis's monomial form within the *default* ``commutation``
    tolerance (Frobenius distance per operator) is refused, whatever the overrides.
    """
    lam, fam = basis.provenance.latin, basis.provenance.hadamard
    if lam is None or fam is None:
        raise ValueError(
            f"mode {mode!r} requires shift-and-multiply provenance with a latin square and Hadamard family"
        )
    if not fam.exact:
        raise ValueError(f"mode {mode!r} requires exact root-of-unity Hadamard exponents")
    d, order = basis.d, fam.root_order
    m, n = pairs = np.array([parse_pair(x) for x in basis.labels]).T
    if lam.size != d or fam.d != d or pairs.min() < 0 or pairs.max() >= d:
        raise ValueError(f"mode {mode!r}: provenance of size {lam.size} does not index the labels of C^{d}")
    if basis.form is None:
        raise ValueError(f"mode {mode!r}: provenance does not match operators that are not all monomial")
    exps = fam.exponents[n, m] % order
    form = MonomialForm(lam.table[n], np.exp(2j * np.pi * exps / order), exps, order)
    diff = np.abs(form.phase - basis.form.phase) ** 2
    resid = np.sqrt(np.where(form.perm == basis.form.perm, diff, 2.0).sum(axis=1))
    worst = int(np.argmax(resid))
    if resid[worst] > DEFAULT_TOLS.commutation:
        raise ValueError(
            f"mode {mode!r}: provenance does not match operator {basis.labels[worst]} "
            f"(Frobenius distance {resid[worst]:.3e})"
        )
    return form


def _commutation_graph(basis, labels, members, mode: str, exact_mode: str, x0=None) -> CommutationGraph:
    if mode == "numeric":
        limit = tols().commutation
    elif mode == exact_mode:
        form = _provenance_form(basis, mode)
        members, limit = (form if x0 is None else form.tag(basis.labels.index(x0))), 0.0
    else:
        scope = "an untagged basis" if x0 is None else "a tag"
        raise ValueError(f"unsupported mode {mode!r} for {scope} graph")
    adj, max_edge, min_non_edge = _numeric_adjacency(labels, members, limit)
    return CommutationGraph(labels, adj, mode, max_edge, min_non_edge)


def basis_commutation_graph(basis: UnitaryBasis, mode: str = "numeric") -> CommutationGraph:
    """Commutation graph on all basis labels (no tag)."""
    members = basis.form if basis.form is not None else np.stack([basis.operators[x] for x in basis.labels])
    return _commutation_graph(basis, basis.labels, members, mode, "exact-crisscross")


def commutation_graph(tag: Tag, mode: str = "numeric") -> CommutationGraph:
    """Commutation graph of the residual system of a tag."""
    return _commutation_graph(tag.basis, tag.labels, tag_members(tag, tag.labels), mode, "exact-twill", tag.x0)


# ---------------------------------------------------------------------------
# fans (families of maximal abelian subsystems)


@dataclass(frozen=True, eq=False)
class Fan:
    """All maximal cliques of a commutation graph, in canonical order."""

    universe: tuple[str, ...]
    masses: tuple[tuple[str, ...], ...]

    @functools.cached_property
    def masks(self) -> tuple[int, ...]:
        """One int per MASS, with bit k set when the MASS holds ``universe[k]``.

        A universe that repeats a label, or a MASS label outside the universe, raises ValueError.
        """
        bit = {y: 1 << k for k, y in enumerate(self.universe)}
        if len(bit) != len(self.universe):
            repeated = [x for x, count in Counter(self.universe).items() if count > 1]
            raise ValueError(f"fan universe repeats labels: {repeated}")
        try:
            return tuple(sum(bit[y] for y in set(m)) for m in self.masses)
        except KeyError as exc:
            raise ValueError(f"MASS label {exc.args[0]!r} is not in the fan universe") from None

    @functools.cached_property
    def _shape(self) -> tuple:
        """What :func:`fan_invariant` reads of the fan besides spectra: MASS sizes, membership degrees and pairwise
        intersections, each sorted, which relabelling leaves unchanged, and the MASSes as rows of the universe."""
        inters = ((a & b).bit_count() for a, b in itertools.combinations(self.masks, 2))
        row = {y: i for i, y in enumerate(self.universe)}
        return (tuple(sorted(map(len, self.masses))), tuple(sorted(membership_degrees(self).values())),
                tuple(sorted(inters)), tuple(tuple(row[y] for y in mass) for mass in self.masses))


def enumerate_mass(graph: CommutationGraph) -> Fan:
    """Enumerate every maximal clique of the commutation graph.

    Depth-first extension with candidate and excluded sets as int bitmasks, bit
    k for the k-th vertex in label order; the pivot is the vertex with the most
    candidates among its neighbours, and only non-neighbours of the pivot are
    branched on.  Output is canonically sorted, independent of vertex order.
    """
    labels, adj = graph.vertices, graph.adjacency
    n = len(labels)
    if adj.shape != (n, n):
        raise InvariantError(f"adjacency has shape {adj.shape}, expected ({n}, {n}) for {n} vertices")
    if not np.array_equal(adj, adj.T) or not adj.diagonal().all():
        raise InvariantError("adjacency must be symmetric with a True diagonal")
    if len(set(labels)) != n:
        repeated = [x for x, count in Counter(labels).items() if count > 1]
        raise InvariantError(f"vertex labels must be distinct; repeated: {repeated}")
    order = sorted(range(n), key=lambda i: label_sort_key(labels[i]))
    ranked = adj.take(order, 0).take(order, 1).astype(bool) & ~np.eye(n, dtype=bool)
    nbrs = [int.from_bytes(row.tobytes(), "little") for row in np.packbits(ranked, axis=1, bitorder="little")]
    cliques: list[tuple[int, ...]] = []
    stack = [((), (1 << n) - 1, 0)]  # (clique so far, candidates, excluded)
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                cliques.append(tuple(sorted(r)))
            continue
        best, pivot_nbrs, rest = -1, 0, p | x
        while rest:
            low = rest & -rest
            rest ^= low
            nb = nbrs[low.bit_length() - 1]
            count = (p & nb).bit_count()
            if count > best:
                best, pivot_nbrs = count, nb
        branch = p & ~pivot_nbrs
        while branch:
            low = branch & -branch
            branch ^= low
            v = low.bit_length() - 1
            stack.append((r + (v,), p & nbrs[v], x & nbrs[v]))
            p ^= low
            x |= low
    if set(itertools.chain.from_iterable(cliques)) != set(range(n)):
        raise InvariantError("maximal cliques do not cover the vertex set")
    # position k is the k-th label in label order, so sorting position tuples is the canonical sort
    return Fan(universe=labels, masses=tuple(tuple(labels[order[k]] for k in c) for c in sorted(cliques)))


def tag_and_fan(basis: UnitaryBasis, x0: str, mode: str = "numeric") -> tuple[Tag, Fan]:
    """The tag of the basis at x0 and its fan."""
    tag = tag_at(basis, x0)
    return tag, enumerate_mass(commutation_graph(tag, mode=mode))


def fan_representation(basis: UnitaryBasis, x0: str | None = None, mode: str = "numeric") -> Fan:
    """Fan of the tag at x0, or of the untagged basis when x0 is None."""
    if x0 is None:
        return enumerate_mass(basis_commutation_graph(basis, mode=mode))
    return tag_and_fan(basis, x0, mode)[1]


# ---------------------------------------------------------------------------
# tag orbits

# Row keys quantise phase ratios on this grid.  A key only picks a candidate row; the match check decides.
_KEY_SCALE = 2.0**20
# A monomial member matches its candidate when the ratio of their phases is constant within this, entry by entry.
_PHASE_RATIO_MATCH = 1e-12
# Representatives are kept while their members, counted as dense stacks, take fewer bytes than this: a basis whose
# tags share no orbit then keeps neither d^2 stacks nor d^2 candidates per tag.
_REPRESENTATIVE_BYTES = 32 * 2**20


@dataclass(frozen=True, eq=False)
class _Representative:
    """A tag computed directly: its members as matched, its graph, its fan and, for profiles, its members' angles."""

    members: MonomialForm | np.ndarray  # the exact-exponent form, the tag's form or its dense stack
    rows: dict[bytes, int] | None  # row key -> row, for a form
    graph: CommutationGraph
    fan: Fan
    angles: np.ndarray | None = None  # unrounded eigenvalue angles (n, d) of the members


def _row_keys(form: MonomialForm) -> list[bytes]:
    """Per member: its permutation, then its phases divided by the first, exactly as exponents or else quantised.

    No ``np.angle``: its wrap at +-pi would put two copies of one member under different keys.
    """
    if form.exponent is not None:
        rel = (form.exponent - form.exponent[:, :1]) % form.order
    else:
        ratio = form.phase / form.phase[:, :1]
        rel = np.round(np.concatenate([ratio.real, ratio.imag], axis=1) * _KEY_SCALE)
    return [row.tobytes() for row in np.concatenate([form.perm, rel], axis=1).astype(np.int64)]


def _match(members, keys, rep: _Representative) -> tuple[np.ndarray, float, np.ndarray | None] | None:
    """``(sigma, eps, arg c)`` when each tag member ``W_i`` is a unit multiple ``c_i R_sigma(i)`` of a distinct
    member of the representative, up to ``eps = max_i ||W_i - c_i R_sigma(i)||_F``; else None.

    Forms take candidates from their row keys, which hold the permutation exactly.  Exact exponents match when
    the keys do, with ``eps = 0`` and no ``arg c`` (profiles are numeric): the exponent difference is then constant
    per row mod ``order``.  Other forms also need the phase ratio, whose first entry gives ``c_i``, constant per
    row within ``_PHASE_RATIO_MATCH``.  A dense stack takes candidates from the cross-Gram ``|tr(R_j* W_i)|``,
    first for ``W_0`` alone: a unit multiple within ``eps`` has ``|tr(R* W)| = d - eps^2 / 2``, and below ``d / 2``
    (``eps > sqrt(d)``) no tolerance that tells commuting unitaries from others lets it transfer.  Then ``eps`` is
    computed from the differences, never as ``sqrt(2 (d - |tr|))``, which cancels to about 1e-7.  A wrong
    candidate costs time, never a wrong fan.
    """
    if keys is not None:
        if keys[0] not in rep.rows:
            return None
        sigma = np.array([rep.rows.get(key, -1) for key in keys])
        if (sigma < 0).any() or len(np.unique(sigma)) != len(sigma):
            return None
        if members.exponent is not None:
            return sigma, 0.0, None
        ratio = members.phase / rep.members.phase[sigma]
        if np.abs(ratio - ratio[:, :1]).max() > _PHASE_RATIO_MATCH:
            return None
        diff = members.phase - ratio[:, :1] / np.abs(ratio[:, :1]) * rep.members.phase[sigma]
        arg = np.angle(ratio[:, 0])
    else:
        n, d = len(members), members.shape[1]
        flat = rep.members.reshape(n, d * d).conj()
        if np.abs(flat @ members[0].reshape(-1)).max() < d / 2:
            return None
        gram = flat @ members.reshape(n, d * d).T  # gram[j, i] = tr(R_j* W_i)
        sigma = np.abs(gram).argmax(axis=0)
        if len(np.unique(sigma)) != n:
            return None
        arg = np.angle(gram[sigma, np.arange(n)])
        diff = members - np.exp(1j * arg)[:, None, None] * rep.members[sigma]
    sq = (diff.real**2 + diff.imag**2).reshape(len(sigma), -1).sum(axis=1)
    return sigma, float(np.sqrt(sq.max())), arg


def _transfer_is_exact(graph: CommutationGraph, eps: float, delta: float) -> bool:
    """Whether a tag matched to ``graph``'s tag within ``eps`` has ``graph``'s adjacency, after relabelling.

    Write ``W_i = c_i R_a + E_i`` and ``W_j = c_j R_b + E_j`` with ``|c| = 1`` and ``||E||_F <= eps``.  Then

        [W_i, W_j] - c_i c_j [R_a, R_b] = c_i [R_a, E_j] + c_j [E_i, R_b] + [E_i, E_j],

    and ``||[A, E]||_F <= 2 ||A||_op ||E||_F``, so the two residuals differ by at most
    ``4 eps (1 + delta) + 2 eps^2``, where ``||R||_op <= 1 + delta``.  For ``R = U_x0* U_x``, and for a monomial
    form, whose phases are entries of such products, ``delta`` = the basis's worst ``||U*U - I||_F`` will do:
    ``||U||_op^2 <= 1 + ||U*U - I||_F``.  The transfer is exact when every residual of ``graph`` lies farther
    than that bound plus ``2 _COMMUTATION_MARGIN`` from the tolerance: one margin for the tag's own threshold
    guard, one for the rounding of both computed residuals, far below it.  On a dense graph
    ``min_non_edge_residual`` is a lower bound (:func:`_numeric_adjacency`); every non-edge residual lies at or
    above it, so the test stays sound, and a bound too low to clear it only sends the tag to a direct graph.
    The exact modes match integer exponents, so their transfer needs no bound.
    """
    if graph.mode != "numeric":
        return True
    limit = tols().commutation
    room = 4 * eps * (1 + delta) + 2 * eps**2 + 2 * _COMMUTATION_MARGIN
    return graph.max_edge_residual < limit - room and graph.min_non_edge_residual > limit + room


def _rotated_angles(rep: _Representative, sigma, eps: float, arg, basis: UnitaryBasis) -> np.ndarray | None:
    """``theta_rep[sigma(i)] + arg c_i``: the angles of ``c R``, where ``W = W_i``, ``R = R_sigma(i)`` and
    ``||W - c R||_F <= eps``.  None unless each lies far enough from a rounding boundary to round as W's own.

    W and R are products ``U_a* U_b``, with singular values in ``[1 - delta, 1 + delta]``, so ``A = c Q`` for the
    unitary polar factor Q of R has ``||c R - A|| <= delta`` and ``||W - A|| <= eps + delta = r``.  A is normal:
    by Bauer-Fike and continuity along ``A + t (W - A)``, each component of the union of radius-r discs about
    A's eigenvalues holds as many eigenvalues of W as of ``c R``, and lies within ``2 d r`` of one of ``c R``'s,
    of modulus at least ``1 - delta``.  So W and ``c R`` round alike if every angle of ``c R`` lies farther than
    ``pi d r / (1 - delta) <= 2 pi d r`` (if ``delta > 1/2``, farther than 5e-9: none) from a boundary, plus two
    ``_ANGLE_MARGIN``s: one for W's own guard, one for rounding.  Monomial forms share cycles: their angles move less.
    """
    theta = (rep.angles[sigma] + arg[:, None]) % (2 * np.pi)
    room = 2 * _ANGLE_MARGIN + 2 * np.pi * basis.d * (eps + basis.unitarity_max_residual)
    return theta if _radians_to_rounding_boundary(theta).min() > room else None


def _relabelled_fan(rep: _Representative, sigma: np.ndarray, tag: Tag) -> Fan:
    """The representative's fan with its member ``sigma(i)`` renamed to the tag's i-th label, in canonical order."""
    order = sorted(tag.labels, key=label_sort_key)
    rank = {y: k for k, y in enumerate(order)}
    at = {rep.graph.vertices[j]: rank[y] for j, y in zip(sigma.tolist(), tag.labels)}
    masses = sorted(tuple(sorted(at[x] for x in mass)) for mass in rep.fan.masses)
    return Fan(universe=tag.labels, masses=tuple(tuple(order[k] for k in mass) for mass in masses))


def _tag_fans(basis: UnitaryBasis, mode: str, spectra: bool = False):
    """``(tag, rep, sigma, angles)`` for every tag in label order, with one graph and one MASS enumeration per orbit
    of tags: the tag's member i is a unit multiple of ``rep``'s member ``sigma(i)``; sigma is None when it is ``rep``.

    In a nice error basis ``U_x0* U_x = c U_sigma(x)`` for a unit scalar c (Knill, arXiv:quant-ph/9608048;
    Klappenecker and Roetteler, IEEE Trans. Inf. Theory 48 (2002) 2392), so every tag is a relabelled, rephased
    copy of one tag.  ``||[c A, c' B]||_F = ||[A, B]||_F`` for unit scalars, so the graph and the fan carry over
    through sigma.  Each tag still runs :func:`tag_at`.  It is matched against the tags computed so far in this
    call (:func:`_match`; in ``exact-twill`` on the exponent form read once from the provenance), and takes the
    first representative's fan whose transfer is exact (:func:`_transfer_is_exact`).  Any other tag is
    computed directly and becomes a representative, up to ``_REPRESENTATIVE_BYTES``.  Representatives live for one
    call.  With ``spectra``, angles are the tag's unrounded eigenvalue angles: rotated ones or its own.
    """
    reps: list[_Representative] = []
    exact = None
    for i0, x0 in enumerate(basis.labels):
        tag = tag_at(basis, x0)
        if mode == "exact-twill":
            if exact is None:
                exact = _provenance_form(basis, mode)  # refuses what the first graph would refuse
            members = exact.tag(i0)
        else:
            members = tag_members(tag, tag.labels)
        keys = _row_keys(members) if isinstance(members, MonomialForm) else None
        for rep in reps:
            match = _match(members, keys, rep)
            if match is not None and _transfer_is_exact(rep.graph, match[1], basis.unitarity_max_residual):
                sigma, angles = match[0], _rotated_angles(rep, *match, basis) if spectra else None
                break
        else:
            sigma, graph = None, commutation_graph(tag, mode)
            fan = enumerate_mass(graph)
            angles = _spectrum_angles(members) if spectra else None
            n, d = len(tag.labels), basis.d
            rep = _Representative(members, None if keys is None else dict(zip(keys, range(n))), graph, fan, angles)
            if len(reps) * 16 * n * d * d < _REPRESENTATIVE_BYTES:
                reps.append(rep)
        if spectra and angles is None:  # a rotated angle lies too near a rounding boundary
            angles = _spectrum_angles(members)
        yield tag, rep, sigma, angles


def fan_system(basis: UnitaryBasis, mode: str = "numeric") -> dict[str, Fan]:
    """Fan of every tag of the basis, keyed by tag label: one graph and one MASS enumeration per orbit of tags.

    The fans, and the bytes of their artifacts, are those of :func:`fan_representation` at each tag; see
    :func:`_tag_fans` for why a fan carries over within an orbit.
    """
    return {tag.x0: rep.fan if sigma is None else _relabelled_fan(rep, sigma, tag)
            for tag, rep, sigma, _ in _tag_fans(basis, mode)}


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


def _invariant(variant: str, fan: Fan, spectra) -> FanInvariant:
    """The invariant of a fan whose members have the rounded ``spectra``, in the order of its universe."""
    *shape, rows = fan._shape
    distinct = {a: a if variant == "cue" else (multiplicity_partition(a), unit_angle_differences(a))
                for a in set(spectra)}  # many members share a spectrum
    return FanInvariant(variant, *shape, tuple(sorted(tuple(sorted(distinct[spectra[i]] for i in m)) for m in rows)))


def fan_invariant(tag: Tag, fan: Fan, variant: str = "cue") -> FanInvariant:
    if variant not in INVARIANT_VARIANTS:
        raise ValueError(f"variant must be one of {INVARIANT_VARIANTS}")
    if set(fan.universe) != set(tag.labels):
        raise ValueError("fan does not belong to this tag")
    fan._shape  # a fan with a repeated or stray label is refused before any spectrum
    return _invariant(variant, fan, unit_spectrum_angles(tag_members(tag, fan.universe), fan.universe))


def invariant_profile(basis: UnitaryBasis, variant: str = "cue") -> tuple[FanInvariant, ...]:
    """Sorted multiset of fan invariants over every tag of the basis.

    The fans come from :func:`_tag_fans`, one graph, one MASS enumeration, one fan shape and one spectrum
    computation per orbit of tags: a tag member ``c R`` has the spectrum of R rotated by ``arg c``
    (:func:`_rotated_angles`, or computed directly where a rotated angle lies too near a rounding boundary), so
    pauli2 has one orbit and two ``cue`` invariants.  Each tag's angles are rounded in its label order.
    """
    if variant not in INVARIANT_VARIANTS:
        raise ValueError(f"variant must be one of {INVARIANT_VARIANTS}")
    invariants = []
    for tag, rep, sigma, angles in _tag_fans(basis, "numeric", True):
        spectra = _rounded_spectra(angles, tag.labels)
        if sigma is not None:  # the representative's row j is the tag's row sigma^-1(j)
            spectra = [spectra[i] for i in np.argsort(sigma).tolist()]
        invariants.append(_invariant(variant, rep.fan, spectra))
    return tuple(sorted(invariants))


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
    unitary.  Rejects non-MES input, naming the offending vector; non-orthonormal
    vectors fail the operator Gram check of :func:`unitary_basis`, naming the pair.
    """
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not vecs:
        raise ValueError("empty vector list")
    d = bipartite_dim(vecs[0])
    if len(vecs) != d * d:
        raise ValueError(f"need {d * d} vectors for a basis of C^{d} (x) C^{d}, got {len(vecs)}")
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
