"""Finite groups, latin squares, complex Hadamard families, and the per-triple
twill predicates of a tag of a shift-and-multiply basis.  The exact graph modes
decide the same commutation for every pair at once, in the row-blocked monomial
pass of ``linalg.commutator_norms`` on the exponents that ``basis._provenance_form``
reads.

The predicates run in exact arithmetic whenever the Hadamard family carries
root-of-unity exponents (integers modulo a common order), and otherwise fall
back to an entrywise comparison within the ``commutation`` tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import tols
from .linalg import gram_deviation


# ---------------------------------------------------------------------------
# finite groups


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its Cayley table over labels 0..order-1."""

    order: int
    cayley: np.ndarray   # cayley[a, b] = label of a*b
    identity: int
    inverse: np.ndarray  # inverse[a] = label of a^-1


def group_from_cayley(table) -> FiniteGroup:
    """Validate a Cayley table and wrap it as a :class:`FiniteGroup`.

    Raises ``ValueError`` naming the first failing group axiom.
    """
    t = np.asarray(table, dtype=int)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError(f"Cayley table must be square, got shape {t.shape}")
    n = t.shape[0]
    if n == 0 or t.min() < 0 or t.max() >= n:
        raise ValueError("Cayley table entries must be labels in 0..order-1")
    full = np.arange(n)
    for a in range(n):
        if not np.array_equal(np.sort(t[a]), full):
            raise ValueError(f"closure/cancellation fails: row {a} is not a permutation")
        if not np.array_equal(np.sort(t[:, a]), full):
            raise ValueError(f"closure/cancellation fails: column {a} is not a permutation")
    identity = None
    for e in range(n):
        if np.array_equal(t[e], full) and np.array_equal(t[:, e], full):
            identity = e
            break
    if identity is None:
        raise ValueError("no two-sided identity element")
    for a in range(n):  # one row at a time: t[t[a]][b, c] = (a*b)*c and t[a][t][b, c] = a*(b*c)
        failing = np.argwhere(t[t[a]] != t[a][t])
        if len(failing):
            b, c = failing[0]
            raise ValueError(f"associativity fails at triple ({a}, {b}, {c})")
    inverse = np.empty(n, dtype=int)
    for a in range(n):
        hits = np.nonzero(t[a] == identity)[0]
        inverse[a] = hits[0]
        if t[inverse[a], a] != identity:
            raise ValueError(f"element {a} has no two-sided inverse")
    return FiniteGroup(order=n, cayley=t, identity=identity, inverse=inverse)


def group_cyclic(d: int) -> FiniteGroup:
    """Z_d as {0..d-1} under addition mod d."""
    if d < 1:
        raise ValueError("group order must be positive")
    a = np.arange(d)
    return group_from_cayley((a[:, None] + a[None, :]) % d)


# Fixed labeling of S3: 0=e, 1=(ab), 2=(abc), 3=(ac), 4=(acb), 5=(bc).
# Permutations act on {a, b, c} = {0, 1, 2}, composed right to left, so that
# the products (ab)(bc) = (abc) and (ab)(ac) = (acb) hold.
_S3_PERMS = {
    0: (0, 1, 2),
    1: (1, 0, 2),
    2: (1, 2, 0),
    3: (2, 1, 0),
    4: (2, 0, 1),
    5: (0, 2, 1),
}


def group_s3() -> FiniteGroup:
    """S3 with the fixed labeling 0=e, 1=(ab), 2=(abc), 3=(ac), 4=(acb), 5=(bc)."""
    label_of = {perm: lbl for lbl, perm in _S3_PERMS.items()}
    table = [
        [
            label_of[tuple(_S3_PERMS[a][_S3_PERMS[b][x]] for x in range(3))]
            for b in range(6)
        ]
        for a in range(6)
    ]
    return group_from_cayley(table)


def group_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product, with (a1, a2) labeled as a1 * |G2| + a2."""
    n1, n2 = g1.order, g2.order
    table = np.empty((n1 * n2, n1 * n2), dtype=int)
    for a1 in range(n1):
        for a2 in range(n2):
            row = g1.cayley[a1][:, None] * n2 + g2.cayley[a2][None, :]
            table[a1 * n2 + a2] = row.reshape(-1)
    return group_from_cayley(table)


# ---------------------------------------------------------------------------
# latin squares


@dataclass(frozen=True, eq=False)
class LatinSquare:
    """A d x d table over {0..d-1} with injective rows and columns."""

    size: int
    table: np.ndarray


def latin_square(table) -> LatinSquare:
    t = np.asarray(table, dtype=int)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError(f"latin square must be square, got shape {t.shape}")
    d = t.shape[0]
    if d == 0 or t.min() < 0 or t.max() >= d:
        raise ValueError("latin square entries must lie in 0..d-1")
    full = np.arange(d)
    for ell in range(d):
        if not np.array_equal(np.sort(t[ell]), full):
            raise ValueError(f"row {ell} is not injective")
        if not np.array_equal(np.sort(t[:, ell]), full):
            raise ValueError(f"column {ell} is not injective")
    return LatinSquare(size=d, table=t)


#: The six group-derived squares: row label acts on column label.
LATIN_VARIANTS = ("e", "f", "g", "l", "m", "n")


def latin_from_group(group: FiniteGroup, variant: str) -> LatinSquare:
    """Group latin square for one of the six variants.

    e: a.b = ab      f: a.b = ab^-1    g: a.b = a^-1 b
    l: a.b = ba      m: a.b = b^-1 a   n: a.b = ba^-1
    """
    cay, inv = group.cayley, group.inverse
    tables = {"e": cay, "f": cay[:, inv], "g": cay[inv, :],
              "l": cay.T, "m": cay[inv, :].T, "n": cay[:, inv].T}
    if variant not in tables:
        raise ValueError(f"unknown latin square variant {variant!r}; expected one of {LATIN_VARIANTS}")
    return latin_square(tables[variant])


def latin_inverse(lam: LatinSquare) -> LatinSquare:
    """The square mu with mu(a, lam(a, b)) = b; applying it twice returns lam."""
    mu = np.argsort(lam.table, axis=1)
    return latin_square(mu)


def latin_identities(lam: LatinSquare):
    """(left, right) identity labels, each ``None`` when absent."""
    d = lam.size
    full = np.arange(d)
    left = next((a for a in range(d) if np.array_equal(lam.table[a], full)), None)
    right = next((b for b in range(d) if np.array_equal(lam.table[:, b], full)), None)
    return left, right


def _require_inverse_pair(lam: LatinSquare, mu: LatinSquare) -> None:
    if mu.size != lam.size or not np.array_equal(mu.table, np.argsort(lam.table, axis=1)):
        raise ValueError("mu is not the inverse square of lam")


def latin_twill(lam: LatinSquare, mu: LatinSquare, n: int, n0: int, n2: int) -> bool:
    """Exact test of lam(n, mu(n0, lam(n2, k))) = lam(n2, mu(n0, lam(n, k))) for all k."""
    _require_inverse_pair(lam, mu)
    t, s = lam.table, mu.table
    return bool(np.array_equal(t[n, s[n0, t[n2]]], t[n2, s[n0, t[n]]]))


# ---------------------------------------------------------------------------
# complex Hadamard families


@dataclass(frozen=True, eq=False)
class HadamardFamily:
    """A family of d complex Hadamard matrices H^(0), ..., H^(d-1).

    When ``exponents`` is present, entry (j, k) of H^(n) equals
    ``exp(2 pi i exponents[n, j, k] / root_order)`` and the commutation
    predicates evaluate exactly over the integers.
    """

    d: int
    matrices: np.ndarray               # (d, d, d) complex
    root_order: int | None = None
    exponents: np.ndarray | None = None  # (d, d, d) int

    @property
    def exact(self) -> bool:
        return self.exponents is not None


def hadamard_family(matrices, root_order: int | None = None, exponents=None) -> HadamardFamily:
    """Validate unimodularity and row orthogonality, then wrap as a family."""
    mats = np.asarray(matrices, dtype=complex)
    if mats.ndim != 3 or mats.shape[0] != mats.shape[1] or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"expected d matrices of shape d x d, got {mats.shape}")
    d = mats.shape[0]
    if np.abs(np.abs(mats) - 1.0).max() > tols().unimodular:
        raise ValueError("Hadamard family entries must be unimodular")
    for n in range(d):
        dev = gram_deviation(mats[n], d).max()
        if dev > tols().orthogonality:
            raise ValueError(f"member {n} fails H H* = d I: deviation {dev:.3e}")
    exp_arr = None
    if exponents is not None:
        if root_order is None or root_order < 1:
            raise ValueError("exponents require a positive root_order")
        exp_arr = np.asarray(exponents, dtype=int) % root_order
        if exp_arr.shape != mats.shape:
            raise ValueError("exponents shape must match matrices shape")
        recon = np.exp(2j * np.pi * exp_arr / root_order)
        if np.abs(recon - mats).max() > 1e-12:
            raise ValueError("exponents are inconsistent with the matrix entries")
    return HadamardFamily(d=d, matrices=mats, root_order=root_order, exponents=exp_arr)


def hadamard_fourier(d: int) -> np.ndarray:
    """The d x d Fourier matrix F[j, k] = exp(2 pi i j k / d)."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return np.exp(2j * np.pi * fourier_exponents(d) / d)


def fourier_exponents(d: int) -> np.ndarray:
    """Integer exponent table j*k mod d of the Fourier matrix."""
    j = np.arange(d)
    return (j[:, None] * j[None, :]) % d


def fourier_family(d: int) -> HadamardFamily:
    """All d members equal to the Fourier matrix, with exact exponents."""
    exp = fourier_exponents(d)
    mats = np.broadcast_to(np.exp(2j * np.pi * exp / d), (d, d, d)).copy()
    exps = np.broadcast_to(exp, (d, d, d)).copy()
    return hadamard_family(mats, root_order=d, exponents=exps)


def is_partial_hadamard(h) -> bool:
    """True iff entries are unimodular and the s rows satisfy ``H H* = d I_s``."""
    m = np.asarray(h, dtype=complex)
    if m.ndim != 2:
        raise ValueError("expected a 2-D array")
    s, d = m.shape
    if s > d:
        return False
    if np.abs(np.abs(m) - 1.0).max() > tols().unimodular:
        return False
    return bool(gram_deviation(m, d).max() <= tols().orthogonality)


def hadamard_twill(
    family: HadamardFamily, lam: LatinSquare, mu: LatinSquare, mn, m0n0, m2n2
) -> bool:
    """Commutation predicate for the residual system of the tag at (m0, n0).

    Tests, for all k,
      H^n_{m, p2(k)}  H^n0_{m0, p(k)}  H^n2_{m2, k}
        = H^n2_{m2, p(k)}  H^n0_{m0, p2(k)}  H^n_{m, k},
    where p(k) = mu(n0, lam(n, k)) and p2(k) = mu(n0, lam(n2, k)).
    """
    _require_inverse_pair(lam, mu)
    m, n = mn
    m0, n0 = m0n0
    m2, n2 = m2n2
    t, s = lam.table, mu.table
    p = s[n0, t[n]]
    p2 = s[n0, t[n2]]
    if family.exact:
        e, order = family.exponents, family.root_order
        lhs = e[n][m, p2] + e[n0][m0, p] + e[n2][m2]
        rhs = e[n2][m2, p] + e[n0][m0, p2] + e[n][m]
        return bool(np.all((lhs - rhs) % order == 0))
    h = family.matrices
    lhs = h[n][m, p2] * h[n0][m0, p] * h[n2][m2]
    rhs = h[n2][m2, p] * h[n0][m0, p2] * h[n][m]
    return bool(np.abs(lhs - rhs).max() <= tols().commutation)
