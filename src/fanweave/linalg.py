"""Dense complex linear algebra underlying unitary-basis analysis.

Everything here works on plain ``numpy`` arrays: square complex matrices for
operators, length-``d**2`` vectors for bipartite states (coefficients of
``e_j (x) e_k`` with ``j`` major).  All functions are pure; randomized steps
take an explicit seed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import ANGLE_DECIMALS, tols
from .errors import InvariantError

_TWO_PI = 2.0 * np.pi
_TWO_PI_ROUNDED = round(_TWO_PI, ANGLE_DECIMALS)


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


def unit_spectrum_angles(a):
    """Sorted rounded angles of the eigenvalues of a (unitary) matrix.

    A stack of shape ``(k, d, d)`` gives the list of its k members' angle
    tuples, from one batched ``eigvals`` call.
    """
    m = np.asarray(a, dtype=complex)
    stacked = m.ndim == 3
    if not stacked:
        m = as_square_matrix(m)
    elif m.shape[1] != m.shape[2]:
        raise ValueError(f"matrix stack must have shape (k, d, d), got {m.shape}")
    elif not np.isfinite(m).all():
        raise ValueError("matrix stack contains non-finite entries")
    # round_unit_angle of every eigenvalue, with the principal angles taken as one array
    theta = (np.angle(np.linalg.eigvals(m)) % _TWO_PI).tolist()
    angles = [tuple(sorted(map(_round_angle, row))) for row in (theta if stacked else [theta])]
    return angles if stacked else angles[0]


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


def hs_orthogonality_check(family) -> bool:
    """Check ``tr(U_x* U_y) = d delta_xy`` for every pair of the family."""
    mats, d = _square_family(family)
    v = np.stack(mats).reshape(len(mats), d * d)
    return bool(gram_deviation(v, d).max() <= tols().orthogonality)


_BLOCK_BYTES = 32 * 2**20


def commutator_norms(mats: np.ndarray) -> np.ndarray:
    """``||A_a A_b - A_b A_a||_F`` for ``a < b`` over a stack ``(n, d, d)``; zero on and below the diagonal.

    ``rows`` stacks the members vertically ((n d) x d) and ``cols`` side by side
    (d x (n d)), so the BLAS products ``rows[a] @ cols[b]`` and ``rows[b] @ cols[a]``
    hold ``A_a A_b`` and ``A_b A_a``.  One block of rows ``a`` is computed at a
    time, against the pairs with ``b`` at or after the block's first row.
    """
    n, d, _ = mats.shape
    rows = mats.reshape(n * d, d)
    cols = np.ascontiguousarray(mats.transpose(1, 0, 2)).reshape(d, n * d)
    # The byte budget bounds memory at O(block n d^2) instead of O(n^2 d^2): two complex products per row.
    block = max(1, _BLOCK_BYTES // (32 * n * d * d))
    resid = np.zeros((n, n))
    for start in range(0, n, block):
        stop = min(start + block, n)
        ab = (rows[start * d : stop * d] @ cols[:, start * d :]).reshape(stop - start, d, n - start, d)
        ba = (rows[start * d :] @ cols[:, start * d : stop * d]).reshape(n - start, d, stop - start, d)
        ab -= ba.transpose(2, 1, 0, 3)
        resid[start:stop, start:] = np.sqrt((ab.real**2 + ab.imag**2).sum(axis=(1, 3)))
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
