"""Skew-Hamiltonian and circulant families that are collectively unitarily
equivalent to their transposes, and the two-step construction of matrices
with positive partial transpose.

A skew-Hamiltonian matrix ``T = [[A, B], [D, A^t]]`` with ``B^t = -B`` and
``D^t = -D`` satisfies ``T = J T^t J*`` for the symplectic ``J``, and the
same single ``J`` works for any collection of them.  A Hermitian block
matrix whose blocks form such a collection therefore has its blockwise
transpose unitarily conjugate to itself, so shifting it into the PSD cone
produces a PPT matrix by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import tols
from .errors import InvariantError
from .linalg import as_square_matrix, partial_transpose

CIRCULANT_IDENTITY_TOL = 1e-14


def symplectic_j(n: int) -> np.ndarray:
    """The 2n x 2n symplectic form [[0, I], [-I, 0]]; J^2 = -I exactly."""
    if n < 1:
        raise ValueError("half-dimension must be positive")
    j = np.zeros((2 * n, 2 * n), dtype=complex)
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


@dataclass(frozen=True, eq=False)
class SkewHamiltonian:
    """Block matrix [[A, B], [D, A^t]] with antisymmetric B and D."""

    n: int
    matrix: np.ndarray


def skew_hamiltonian(a, b, d_block) -> SkewHamiltonian:
    """Assemble an SHM from blocks, verifying antisymmetry entrywise exactly."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    d_block = np.asarray(d_block, dtype=complex)
    n = a.shape[0]
    for name, blk in (("A", a), ("B", b), ("D", d_block)):
        if blk.shape != (n, n):
            raise ValueError(f"block {name} must be {n} x {n}, got {blk.shape}")
    if not np.array_equal(b.T, -b):
        raise ValueError("block B is not antisymmetric")
    if not np.array_equal(d_block.T, -d_block):
        raise ValueError("block D is not antisymmetric")
    top = np.hstack([a, b])
    bottom = np.hstack([d_block, a.T])
    return SkewHamiltonian(n=n, matrix=np.vstack([top, bottom]))


def random_shm(n: int, rng_seed: int = 0, psd: bool = False) -> SkewHamiltonian:
    """Random SHM with entries in [-1, 1] + i[-1, 1].

    With ``psd=True`` this returns the zero matrix, the one PSD choice the
    construction sanctions for the diagonal blocks.
    """
    if n < 1:
        raise ValueError("half-dimension must be positive")
    if psd:
        z = np.zeros((n, n), dtype=complex)
        return skew_hamiltonian(z, z, z)
    rng = np.random.default_rng(rng_seed)

    def block():
        return rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))

    a = block()
    r1, r2 = block(), block()
    return skew_hamiltonian(a, r1 - r1.T, r2 - r2.T)


def shm_conjugation_residual(t) -> float:
    """``||T - J T^t J*||_F``; zero characterizes the skew-Hamiltonian form."""
    m = as_square_matrix(t)
    if m.shape[0] % 2 != 0:
        raise ValueError("skew-Hamiltonian matrices have even dimension")
    j = symplectic_j(m.shape[0] // 2)
    return float(np.linalg.norm(m - j @ m.T @ j.conj().T))


def circulant(xi) -> np.ndarray:
    """Circulant matrix C[j, k] = xi[(j - k) mod d]."""
    v = np.asarray(xi, dtype=complex).reshape(-1)
    d = len(v)
    if d < 1:
        raise ValueError("need at least one entry")
    j = np.arange(d)
    return v[(j[:, None] - j[None, :]) % d]


def reversal_permutation(d: int) -> np.ndarray:
    """Permutation with columns e_1, e_d, e_(d-1), ..., e_2 (1-based)."""
    p = np.zeros((d, d), dtype=complex)
    p[0, 0] = 1.0
    for col in range(1, d):
        p[d - col, col] = 1.0
    return p


def verify_circulant_cuet(c, tol: float = CIRCULANT_IDENTITY_TOL) -> bool:
    """Check the transpose identity ``C^t = P^t C P`` for the reversal P."""
    m = as_square_matrix(c)
    p = reversal_permutation(m.shape[0])
    return bool(np.abs(m.T - p.T @ m @ p).max() <= tol)


@dataclass(frozen=True, eq=False)
class PptCertificate:
    """A PSD matrix whose blockwise transpose is verified PSD as well."""

    n: int
    block_half_dim: int
    shift_a: float
    lambda_min: float
    lambda_min_pt: float
    matrix: np.ndarray


def build_ppt(
    n: int,
    rng_seed: int = 0,
    half_dim: int | None = None,
    shift: float | None = None,
    zero_tuple: bool = False,
) -> PptCertificate:
    """Two-step PPT construction from a CUET tuple of skew-Hamiltonian blocks.

    Step 1 builds the m = n(n+1)/2 tuple: zero (PSD) SHMs on the n diagonal
    blocks, random SHMs above the diagonal, adjoints below, giving a
    Hermitian block matrix B whose blocks are all CUET via the same J.
    Step 2 shifts by ``a >= a0 = max(0, -lambda_min(B))`` so A = B + a I is
    PSD; the blockwise transpose of A is then PSD automatically, which the
    certificate verifies spectrally.

    Parameters
    ----------
    n : outer block count (n x n blocks), n >= 2.
    half_dim : SHM half-dimension n0; blocks are 2*n0 x 2*n0 (default n).
    shift : override for a (must be >= a0); default a0.
    zero_tuple : use zero matrices for the off-diagonal SHMs as well.
    """
    if n < 2:
        raise ValueError("outer block count must be at least 2")
    n0 = n if half_dim is None else half_dim
    if n0 < 1:
        raise ValueError("block half-dimension must be positive")
    dblk = 2 * n0
    rng = np.random.default_rng(rng_seed)
    blocks = [[None] * n for _ in range(n)]
    for j in range(n):
        blocks[j][j] = random_shm(n0, psd=True).matrix
    for p in range(n):
        for q in range(p + 1, n):
            if zero_tuple:
                y = random_shm(n0, psd=True).matrix
            else:
                sub_seed = int(rng.integers(0, 2**63 - 1))
                y = random_shm(n0, rng_seed=sub_seed).matrix
            blocks[p][q] = y
            blocks[q][p] = y.conj().T
    b = np.block(blocks)
    w = np.linalg.eigvalsh((b + b.conj().T) / 2.0)
    a0 = max(0.0, -float(w.min()))
    a = a0 if shift is None else float(shift)
    if a < a0 - 1e-12:
        raise ValueError(f"shift {a} is below the minimal PSD shift {a0}")
    mat = b + a * np.eye(n * dblk)
    lam_min = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0).min())
    pt = partial_transpose(mat, n, dblk, subsystem=2)
    lam_min_pt = float(np.linalg.eigvalsh((pt + pt.conj().T) / 2.0).min())
    if lam_min < -tols().psd or lam_min_pt < -tols().psd:
        raise InvariantError(
            f"PPT certificate failed: lambda_min = {lam_min:.3e}, "
            f"lambda_min(partial transpose) = {lam_min_pt:.3e}"
        )
    return PptCertificate(
        n=n,
        block_half_dim=n0,
        shift_a=a,
        lambda_min=lam_min,
        lambda_min_pt=lam_min_pt,
        matrix=mat,
    )


def blockwise_transpose_conjugation_residual(cert: PptCertificate) -> float:
    """``||[A_jk^t] - (I (x) J)* A (I (x) J)||_F``: the structural PPT identity.

    Small residual certifies that the partial transpose is a unitary
    conjugate of the matrix itself, not merely spectrally positive.
    """
    j = symplectic_j(cert.block_half_dim)
    u = np.kron(np.eye(cert.n), j)
    pt = partial_transpose(cert.matrix, cert.n, 2 * cert.block_half_dim, subsystem=2)
    return float(np.linalg.norm(pt - u.conj().T @ cert.matrix @ u))


def arveson_pair(lam: complex, mu: complex | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The classical 3x3 pair that is not collectively equivalent to its transposes.

    Requires a non-real ``lam``; ``mu`` defaults to the positive root of
    ``|mu|^2 = 1 + |lam|^2``.  Shipped as a fixture only; no decision
    procedure certifies the non-equivalence.
    """
    lam = complex(lam)
    if abs(lam.imag) < 1e-12:
        raise ValueError("lambda must be non-real")
    if mu is None:
        mu = np.sqrt(1.0 + abs(lam) ** 2)
    mu = complex(mu)
    if abs(abs(mu) ** 2 - (1.0 + abs(lam) ** 2)) > 1e-12:
        raise ValueError("|mu|^2 must equal 1 + |lambda|^2")
    first = np.array([[0, lam, 1], [0, 0, 0], [0, 0, 0]], dtype=complex)
    second = np.array([[0, 0, mu], [0, 1, 0], [0, -lam, 0]], dtype=complex)
    return first, second
