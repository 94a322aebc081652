"""Dense complex linear algebra underlying unitary-basis analysis.

Everything here works on plain ``numpy`` arrays: square complex matrices for
operators, length-``d**2`` vectors for bipartite states (coefficients of
``e_j (x) e_k`` with ``j`` major).  All functions are pure; randomized steps
take an explicit seed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import ANGLE_DECIMALS, DEFAULT_TOLS, tols
from .errors import InvariantError

_TWO_PI = 2.0 * np.pi
_TWO_PI_ROUNDED = round(_TWO_PI, ANGLE_DECIMALS)
# A spectral angle this close (in radians) to an ANGLE_DECIMALS rounding boundary is refused: eigvals noise
# is about 1e-15, and every root of unity of order <= 576 lies at least 1.8e-13 from a boundary.
_ANGLE_MARGIN = 1e-13


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex ndarray, rejecting non-square or non-finite input."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _round_angle(theta: float) -> float:
    r = round(theta, ANGLE_DECIMALS)
    return 0.0 if r >= _TWO_PI_ROUNDED else r


def round_unit_angle(z: complex) -> float:
    """Principal angle of ``z`` in [0, 2*pi), rounded at the invariant resolution."""
    return _round_angle(float(np.angle(z)) % _TWO_PI)


@dataclass(frozen=True, eq=False)
class MonomialForm:
    """A stack of monomial matrices ``A_i |k> = phase[i, k] |perm[i, k]>`` (a permutation times phases)."""

    perm: np.ndarray  # int (n, d); each row a permutation of range(d)
    phase: np.ndarray  # complex (n, d)
    exponent: np.ndarray | None = None  # int (n, d), when phase = exp(2 pi i exponent / order) exactly
    order: int | None = None

    def tag(self, i0: int) -> MonomialForm:
        """``A_i0^-1 A_i`` for every ``i != i0``, in O(d) per member."""
        keep = np.arange(len(self.perm)) != i0
        perm = np.argsort(self.perm[i0])[self.perm[keep]]
        exponent = None
        if self.exponent is not None:
            exponent = (self.exponent[keep] - self.exponent[i0][perm]) % self.order
        return MonomialForm(perm, self.phase[keep] * self.phase[i0][perm].conj(), exponent, self.order)


def monomial_form(mats: np.ndarray) -> MonomialForm | None:
    """The monomial form of a stack ``(n, d, d)`` from each column's largest entry, or None.

    It must be made of permutations and rebuild every member within the *default* ``commutation``
    tolerance, so no override sends a dense stack down the monomial path.  O(n d^2), no products.
    """
    n, d, _ = mats.shape
    perm = np.abs(mats).argmax(axis=1)
    member, col = np.arange(n)[:, None], np.arange(d)
    rest = mats.copy()
    rest[member, perm, col] = 0.0
    if (np.sort(perm, axis=1) != col).any() or np.linalg.norm(rest, axis=(1, 2)).max() > DEFAULT_TOLS.commutation:
        return None
    return MonomialForm(perm, mats[member, perm, col])


def _cycle_angles(form: MonomialForm) -> np.ndarray:
    """Principal eigenvalue angles ``(n, d)`` of a form's members, from their permutation cycles.

    A cycle of length L with phase product P has the angles ``(arg P + 2 pi j) / L``, j < L.  P is
    the product started at the cycle's smallest element: products started elsewhere agree only up
    to rounding, and near P = -1 they land on different branches of arg.
    """
    perm, phase = form.perm, form.phase
    n, d = perm.shape
    row = np.arange(n)[:, None]
    walk = [np.broadcast_to(np.arange(d), (n, d))]
    for _ in range(d):
        walk.append(perm[row, walk[-1]])
    walk = np.stack(walk)  # walk[t, i, k] = perm_i^t(k)
    length = (walk[1:] == walk[0]).argmax(axis=0) + 1
    low = walk.min(axis=0)
    position = (walk == low).argmax(axis=0)  # steps from k to low: a bijection of each cycle onto range(L)
    on_cycle = np.arange(d + 1)[:, None, None] < length
    product = np.prod(phase[row, walk[:, row, low]], axis=0, where=on_cycle)
    return ((np.angle(product) + _TWO_PI * position) / length) % _TWO_PI


def _spectrum_angles(members) -> np.ndarray:
    """Unrounded eigenvalue angles ``(k, d)`` of a stack ``(k, d, d)`` (one batched ``eigvals``) or of a form."""
    if isinstance(members, MonomialForm):
        return _cycle_angles(members)
    m = np.asarray(members, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"matrix stack must have shape (k, d, d), got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix stack contains non-finite entries")
    return np.angle(np.linalg.eigvals(m)) % _TWO_PI


def _radians_to_rounding_boundary(theta: np.ndarray) -> np.ndarray:
    return np.abs(theta * 10.0**ANGLE_DECIMALS % 1.0 - 0.5) / 10.0**ANGLE_DECIMALS


def _rounded_spectra(theta: np.ndarray, labels=None) -> list[tuple[float, ...]]:
    """Rows of ``theta`` rounded and sorted; an angle within ``_ANGLE_MARGIN`` of a boundary raises, naming its row."""
    margin = _radians_to_rounding_boundary(theta)
    i, k = np.unravel_index(np.argmin(margin), margin.shape)
    if margin[i, k] < _ANGLE_MARGIN:
        raise InvariantError(
            f"spectrum of member {i if labels is None else labels[i]}: eigenvalue angle {theta[i, k]!r} "
            f"lies {margin[i, k]:.1e} rad from a rounding boundary at {ANGLE_DECIMALS} decimals"
        )
    return [tuple(row) for row in np.sort(_round_angles(theta), axis=1).tolist()]


def unit_spectrum_angles(members, labels=None) -> list[tuple[float, ...]]:
    """Sorted rounded eigenvalue angles of each member of a stack ``(k, d, d)`` of unitaries (a single matrix as
    ``m[None]``) or of a :class:`MonomialForm`, one tuple per member: :func:`_rounded_spectra` of the angles."""
    return _rounded_spectra(_spectrum_angles(members), labels)


def _round_angles(theta: np.ndarray) -> np.ndarray:
    # _round_angle of every angle: away from a boundary numpy's rounding gives the same doubles as round()
    rounded = np.round(theta, ANGLE_DECIMALS)
    rounded[rounded >= _TWO_PI_ROUNDED] = 0.0
    return rounded


def unit_angle_differences(angles) -> tuple[float, ...]:
    """Sorted :func:`round_unit_angle` of ``exp(i (a - b))`` over ordered pairs of distinct entries of ``angles``.

    For rounded ``angles`` every difference lies near a multiple of the rounding step, or of it plus 2*pi, so far
    from a rounding boundary that one array rounding gives the scalar doubles.
    """
    a = np.asarray(angles, dtype=float)
    diff = (a[:, None] - a)[~np.eye(len(a), dtype=bool)]
    return tuple(np.sort(_round_angles(np.angle(np.exp(1j * diff)) % _TWO_PI)).tolist())


def multiplicity_partition(angles) -> tuple[int, ...]:
    """Multiplicities of the distinct values of a rounded spectrum, largest first."""
    return tuple(sorted(Counter(angles).values(), reverse=True))


def is_unitary(a, tol: float | None = None) -> bool:
    """True iff ``||A*A - I||_F <= tol``."""
    m = as_square_matrix(a)
    tol = tols().unitarity if tol is None else tol
    return bool(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])) <= tol)


def gram_deviation(rows, target: float) -> np.ndarray:
    """Entrywise ``|G - target I|`` for the Gram matrix ``G = conj(rows) rows^T``."""
    v = np.asarray(rows)
    return np.abs(v.conj() @ v.T - target * np.eye(len(v)))


def _square_family(family) -> tuple[list[np.ndarray], int]:
    mats = [as_square_matrix(f, f"family[{i}]") for i, f in enumerate(family)]
    if not mats:
        raise ValueError("family must be non-empty")
    d = mats[0].shape[0]
    if any(m.shape[0] != d for m in mats):
        raise ValueError("family members have mismatched dimensions")
    return mats, d


_BLOCK_BYTES = 32 * 2**20
# One temporary of the dense commutator kernel: blocks this small stay in cache, 1.5-3x faster at d = 16..24
# than blocks that fill _BLOCK_BYTES.
_CACHE_BYTES = 2**20
_PROBE_SEED = 0x5EED


def _probe(d: int) -> np.ndarray:
    """The fixed unit probe vector of C^d: a complex Gaussian direction from a private seed, never ``--seed``."""
    z = np.random.default_rng([_PROBE_SEED, d]).normal(size=(2, d))
    return (z[0] + 1j * z[1]) / np.linalg.norm(z)


def commutator_norms(members, floor: float = math.inf) -> np.ndarray:
    """``||A_a A_b - A_b A_a||_F`` for ``a < b``, or a lower bound above ``floor``; zero on and below the diagonal.

    A :class:`MonomialForm` is decided in O(d) per pair, always exactly; with exact exponents its residual is
    0 exactly for a commuting pair and at least ``sqrt(2)`` otherwise.

    A stack ``(n, d, d)`` is probed, then verified.  *Probe:* for the fixed unit vector ``v`` of :func:`_probe`,
    ``s_ab = ||A_a (A_b v) - A_b (A_a v)||`` for every pair, in O(n^2 d^2) (Freivalds, IFIP Congress 1977).
    ``||[A, B] v|| <= ||[A, B]||_op <= ||[A, B]||_F``, so ``s_ab`` is a lower bound of the residual.  It is the
    norm of the difference of the two products, never ``||x||^2 + ||y||^2 - 2 Re <x, y>``, which cancels to
    about 1e-16, far above the 1e-18 of a squared tolerance, and drops true edges.  ``rows`` stacks the members
    vertically ((n d) x d), so ``rows[a] @ (A_b v)`` is ``A_a A_b v``; one block of rows ``a`` is probed at a
    time, against ``b`` at or after the block's first row, with O(block n d) temporaries.  *Verify:* a pair with
    ``s_ab > floor`` keeps ``s_ab``; every other pair gets its Frobenius residual from batched products of the
    pairs' members, a block of pairs at a time.  Each temporary holds about ``_CACHE_BYTES``, far under
    ``_BLOCK_BYTES``.  With the default floor every pair is verified and nothing is probed.
    """
    if isinstance(members, MonomialForm):
        return _monomial_commutator_norms(members)
    mats = members
    n, d, _ = mats.shape
    resid = np.zeros((n, n))
    a, b = np.triu_indices(n, 1)
    if floor < math.inf:
        av = mats @ _probe(d)  # av[b] = A_b v
        rows = mats.reshape(n * d, d)
        block = max(1, _CACHE_BYTES // (16 * n * d))
        for start in range(0, n, block):
            stop = min(start + block, n)
            ab = (rows[start * d : stop * d] @ av[start:].T).reshape(stop - start, d, n - start)
            ba = (rows[start * d :] @ av[start:stop].T).reshape(n - start, d, stop - start)
            ab -= ba.transpose(2, 1, 0)
            resid[start:stop, start:] = np.sqrt((ab.real**2 + ab.imag**2).sum(axis=1))
        verify = resid[a, b] <= floor
        a, b = a[verify], b[verify]
    chunk = max(1, _CACHE_BYTES // (16 * d * d))
    for start in range(0, len(a), chunk):
        pa, pb = a[start : start + chunk], b[start : start + chunk]
        ma, mb = mats[pa], mats[pb]
        diff = ma @ mb
        diff -= mb @ ma
        # Summed along each row, then across the rows in order, not as one pairwise sum of d^2 squares: the
        # order numpy gives a row-blocked product of all pairs, so residuals, which messages print whole, keep
        # their digits wherever BLAS forms the products alike (d = 2, 4, 8, 12, 16, 20 and 24 with OpenBLAS).
        resid[pa, pb] = np.sqrt((diff.real**2 + diff.imag**2).sum(axis=2).cumsum(axis=1)[:, -1])
    return np.triu(resid, 1)


def _monomial_commutator_norms(form: MonomialForm) -> np.ndarray:
    """O(d) per pair: column k of ``A_a A_b - A_b A_a`` is ``w1 e_{p_a p_b k} - w2 e_{p_b p_a k}``.

    It contributes ``|w1 - w2|^2`` when the two rows agree and 2 otherwise: the dense residual up to rounding.
    Exact exponents are compared mod ``order`` instead, a mismatch counting 2, so a commuting pair gives 0.
    """
    perm, phase, exponent = form.perm, form.phase, form.exponent
    n, d = perm.shape
    # Blocks of about 2^14 (a, b, k) entries keep the temporaries (about 2 MiB, far under _BLOCK_BYTES)
    # in cache: 3x faster than one block on a weyl12 tag.
    block = max(1, 2**14 // (n * d))
    resid = np.zeros((n, n))
    for start in range(0, n, block):
        stop = min(start + block, n)
        a, b = np.arange(start, stop)[:, None, None], np.arange(start, n)[None, :, None]
        pa, pb = perm[start:stop, None], perm[start:][None]
        if exponent is None:
            diff = phase[a, pb] * phase[start:][None] - phase[b, pa] * phase[start:stop, None]
            same_row = diff.real**2 + diff.imag**2
        else:
            diff = exponent[a, pb] + exponent[start:][None] - exponent[b, pa] - exponent[start:stop, None]
            same_row = 2.0 * (diff % form.order != 0)
        sq = np.where(perm[a, pb] == perm[b, pa], same_row, 2.0)
        resid[start:stop, start:] = np.sqrt(sq.sum(axis=2))
    return np.triu(resid, 1)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Unitary eigendecomposition ``A = V diag(eigenvalues) V*``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _phase_fixed(vec: np.ndarray) -> np.ndarray:
    mags = np.abs(vec)
    idx = int(np.nonzero(mags >= mags.max() - 1e-12)[0][0])
    piv = vec[idx]
    if abs(piv) == 0.0:
        return vec
    return vec * (piv.conjugate() / abs(piv))


def _vector_key(vec: np.ndarray) -> tuple:
    w = _phase_fixed(vec)
    return tuple((round(float(z.real), 10), round(float(z.imag), 10)) for z in w)


def eigen_sort_key(values) -> tuple:
    """Sort key of a sequence of eigenvalues: (rounded angle, rounded modulus) per entry."""
    return tuple((round_unit_angle(z), round(float(abs(z)), ANGLE_DECIMALS)) for z in values)


def _joint_eigenvectors(mats: list[np.ndarray], rng: np.random.Generator, depth: int = 0) -> np.ndarray:
    """Orthonormal joint eigenbasis of a commuting normal family.

    Mixes the family into a random Hermitian matrix, diagonalizes it, and
    recurses on the restriction to each degenerate eigenspace with fresh
    coefficients.  Clusters are taken generously: over-merging is repaired by
    the recursion, while splitting a true joint eigenspace is harmless.
    """
    if depth > 40:
        raise InvariantError("joint diagonalization did not converge; family may not commute")
    d = mats[0].shape[0]
    h = np.zeros((d, d), dtype=complex)
    for f in mats:
        c_re, c_im = rng.uniform(1.0, 2.0, size=2)
        h += c_re * (f + f.conj().T) / 2.0 + c_im * (f - f.conj().T) / 2.0j
    w, v = np.linalg.eigh(h)
    scale = max(1.0, float(np.max(np.abs(w))))
    columns = []
    i = 0
    while i < d:
        j = i
        while j + 1 < d and abs(w[j + 1] - w[j]) < 1e-6 * scale:
            j += 1
        block = v[:, i : j + 1]
        if j > i:
            restricted = [block.conj().T @ f @ block for f in mats]
            size = j - i + 1
            scalar = all(
                np.linalg.norm(g - g[0, 0] * np.eye(size)) <= 1e-10 * size for g in restricted
            )
            if not scalar:
                block = block @ _joint_eigenvectors(restricted, rng, depth + 1)
        columns.append(block)
        i = j + 1
    return np.hstack(columns)


def simul_diag(family, rng_seed: int = 0):
    """Simultaneously diagonalize a commuting family of normal matrices.

    Parameters
    ----------
    family : iterable of square complex matrices, each normal and pairwise
        commuting within the ``commutation`` tolerance on ``||AB - BA||_F``.
    rng_seed : seed for the random Hermitian mixing; the output is a
        deterministic function of (family, tolerances, rng_seed).

    Returns
    -------
    (u, diagonals) : ``u`` unitary with canonically ordered columns;
        ``diagonals[k]`` is the diagonal of ``u* family[k] u``.
    """
    mats, d = _square_family(family)
    tol = tols()
    for i, m in enumerate(mats):
        scale = max(np.linalg.norm(m) ** 2, 1e-300)
        resid = np.linalg.norm(m.conj().T @ m - m @ m.conj().T)
        if resid > tol.normality * scale:
            raise InvariantError(f"family[{i}] is not normal: ||A*A - AA*||_F = {resid:.3e}")
    resid = commutator_norms(np.stack(mats))
    failing = np.argwhere(resid > tol.commutation)  # row-major, so the first pair in (i, j) order
    if len(failing):
        i, j = failing[0]
        raise InvariantError(
            f"family members {i} and {j} do not commute: ||AB - BA||_F = {resid[i, j]:.3e}"
        )
    rng = np.random.default_rng(rng_seed)
    u = _joint_eigenvectors(mats, rng)
    diags = np.stack([np.einsum("ij,ij->j", u.conj(), m @ u) for m in mats])
    order = sorted(
        range(d), key=lambda c: (eigen_sort_key(diags[:, c]), _vector_key(u[:, c]))
    )
    u = u[:, order]
    diags = diags[:, order]
    limit = tol.diag_residual * np.sqrt(d)
    for k, m in enumerate(mats):
        resid = np.linalg.norm(u.conj().T @ m @ u - np.diag(diags[k]))
        if resid > limit:
            raise InvariantError(
                f"joint diagonalization residual {resid:.3e} exceeds {limit:.3e} for family[{k}]"
            )
    return u, [diags[k].copy() for k in range(len(mats))]


def eig_normal(a) -> SpectralDecomposition:
    """Unitary eigendecomposition of a normal matrix with deterministic ordering.

    Eigenvalues are sorted by principal angle in [0, 2*pi) then modulus, with
    ties broken by the phase-fixed eigenvector entries.  A matrix that is not
    normal is rejected by :func:`simul_diag`.
    """
    m = as_square_matrix(a)
    u, diags = simul_diag([m], rng_seed=0)
    lam = diags[0]
    if not is_unitary(u, tol=1e-10):
        raise InvariantError("eigenvector columns are not orthonormal")
    recon = np.linalg.norm(m - u @ np.diag(lam) @ u.conj().T)
    if recon > 1e-9 * max(np.linalg.norm(m), 1e-300):
        raise InvariantError(f"eigendecomposition reconstruction residual {recon:.3e}")
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=u)


def is_psd(a, tol: float | None = None) -> bool:
    """True iff the Hermitian matrix ``a`` has ``lambda_min >= -tol``."""
    m = as_square_matrix(a)
    tol = tols().psd if tol is None else tol
    herm_resid = np.linalg.norm(m - m.conj().T)
    if herm_resid > tols().hermitian * max(1.0, np.linalg.norm(m)):
        raise ValueError(f"matrix is not Hermitian: ||A - A*||_F = {herm_resid:.3e}")
    w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return bool(w.min() >= -tol)


def partial_transpose(m, d1: int, d2: int, subsystem: int = 2) -> np.ndarray:
    """Blockwise transpose on one tensor factor of a (d1*d2)-dimensional matrix.

    ``subsystem=2`` maps the block matrix ``[A_jk]`` to ``[A_jk^t]``;
    ``subsystem=1`` maps it to ``[A_kj]``.  The operation is an involution and
    permutes entries exactly (no arithmetic).
    """
    mat = as_square_matrix(m)
    if mat.shape[0] != d1 * d2:
        raise ValueError(f"dimension {mat.shape[0]} does not factor as {d1} * {d2}")
    if subsystem not in (1, 2):
        raise ValueError("subsystem must be 1 or 2")
    t = mat.reshape(d1, d2, d1, d2)
    t = t.transpose(2, 1, 0, 3) if subsystem == 1 else t.transpose(0, 3, 2, 1)
    return np.ascontiguousarray(t.reshape(d1 * d2, d1 * d2))


def bipartite_dim(v) -> int:
    """The local dimension ``d`` of a length-``d**2`` bipartite vector."""
    d = round(len(v) ** 0.5)
    if d * d != len(v):
        raise ValueError(f"bipartite vector length {len(v)} is not a perfect square")
    return d


def vec_to_op(psi) -> np.ndarray:
    """Operator corresponding to a bipartite vector: ``A[j, k] = sqrt(d) psi[j*d + k]``.

    This is the inverse of :func:`op_to_vec`; the canonical maximally
    entangled vector maps to the identity.
    """
    v = np.asarray(psi, dtype=complex).reshape(-1)
    d = bipartite_dim(v)
    return np.sqrt(d) * v.reshape(d, d)


def op_to_vec(a) -> np.ndarray:
    """Bipartite vector ``(A (x) I) Omega`` of an operator, as a length-d^2 array."""
    m = as_square_matrix(a)
    return m.reshape(-1) / np.sqrt(m.shape[0])


def _schmidt_probabilities(psi) -> np.ndarray:
    v = np.asarray(psi, dtype=complex).reshape(-1)
    d = bipartite_dim(v)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > tols().vector_norm:
        raise ValueError(f"vector is not normalized: ||psi|| = {nrm!r}")
    sv = np.linalg.svd(v.reshape(d, d), compute_uv=False)
    return sv**2


def schmidt_rank(psi) -> int:
    """Number of singular values of the associated operator above the ``schmidt`` tolerance."""
    probs = _schmidt_probabilities(psi)
    d = len(probs)
    sv_op = np.sqrt(probs * d)  # singular values of vec_to_op(psi)
    return int(np.count_nonzero(sv_op > tols().schmidt))


def entanglement_entropy(psi) -> float:
    """Shannon entropy (natural log) of the Schmidt probability spectrum."""
    probs = _schmidt_probabilities(psi)
    probs = probs[probs > 1e-15]
    return float(-np.sum(probs * np.log(probs)))


def flip(d: int) -> np.ndarray:
    """Swap operator on C^d (x) C^d: ``F (phi (x) psi) = psi (x) phi``."""
    if d < 2:
        raise ValueError("flip requires d >= 2")
    f = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            f[k * d + j, j * d + k] = 1.0
    return f


def omega(d: int) -> np.ndarray:
    """Canonical maximally entangled vector ``(1/sqrt(d)) sum_j e_j (x) e_j``."""
    if d < 2:
        raise ValueError("omega requires d >= 2")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


def random_unitary(d: int, rng) -> np.ndarray:
    """Haar-distributed unitary, for property tests and random conjugations."""
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * ph.conjugate()
