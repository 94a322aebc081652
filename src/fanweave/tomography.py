"""From fans to measurements: common eigenbases, mutually unbiased bases,
minimal MASS covers, crude and refined pure POVMs, and noiseless state
reconstruction.

The crude construction takes a minimal cover of the fan, keeps d-1 of the d
rank-one eigenprojectors of each covering MASS, scales them by 1/|cover| and
completes with one remainder element; the result is always a valid pure POVM
and is informationally complete.  The refined construction exploits shared
eigenspace blocks between MASSes that contain a common degenerate "hub"
element to drop one projector per block from every MASS after the first in a
hub group, shrinking the POVM without losing completeness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .basis import Fan, Tag, label_sort_key, tag_members
from .config import tols
from .errors import InvariantError, UnsupportedConfigurationError
from .linalg import (
    as_square_matrix,
    is_unitary,
    multiplicity_partition,
    round_unit_angle,
    simul_diag,
    unit_spectrum_angles,
)


# ---------------------------------------------------------------------------
# eigenbases and MUB systems


def mass_eigenbasis(tag: Tag, mass, rng_seed: int = 0) -> np.ndarray:
    """Common orthonormal eigenbasis of a commuting subset of a tag system.

    Columns are in the canonical joint-spectrum order of :func:`simul_diag`.
    """
    members = list(mass)
    missing = [y for y in members if y not in tag.operators]
    if missing:
        raise ValueError(f"labels {missing} are not members of the tag system")
    ops = [tag.operators[y] for y in members]
    try:
        u, _ = simul_diag(ops, rng_seed=rng_seed)
    except InvariantError as exc:
        raise InvariantError(f"subset {tuple(members)} is not commuting: {exc}") from exc
    return u


@dataclass(frozen=True, eq=False)
class MubSystem:
    """Mutually unbiased bases (columns of each matrix) with their source MASSes."""

    d: int
    bases: tuple[np.ndarray, ...]
    source: tuple[tuple[str, ...], ...]
    unbiasedness_deviation: float  # max |d |<b, b'>|^2 - 1|, as the construction measured it


def mub_unbiasedness_deviation(bases, d: int) -> float:
    """max over cross-basis vector pairs of ``| d |<b, b'>|^2 - 1 |``."""
    worst = 0.0
    for s, t in itertools.combinations(range(len(bases)), 2):
        cross = np.abs(bases[s].conj().T @ bases[t]) ** 2
        worst = max(worst, float(np.abs(d * cross - 1.0).max()))
    return worst


def mub_from_partition(tag: Tag, partition, rng_seed: int = 0) -> MubSystem:
    """MUB system from a partition of the tag system into d+1 MASSes of size d-1.

    One orthonormal basis per part (the common eigenbasis); verifies
    orthonormality within 1e-10 and unbiasedness within the configured
    tolerance.
    """
    d = tag.d
    parts = [tuple(p) for p in partition]
    flat = [y for p in parts for y in p]
    if len(flat) != len(set(flat)):
        raise ValueError("parts are not pairwise disjoint")
    if set(flat) != set(tag.labels):
        raise ValueError("parts do not partition the tag system")
    bad = [p for p in parts if len(p) != d - 1]
    if bad:
        raise ValueError(f"every part must have size d-1 = {d - 1}; offending part {bad[0]}")
    if len(parts) != d + 1:
        raise ValueError(f"expected d+1 = {d + 1} parts, got {len(parts)}")
    bases = []
    for p in parts:
        u = mass_eigenbasis(tag, p, rng_seed=rng_seed)
        if not is_unitary(u, tol=1e-10):
            raise InvariantError(f"eigenbasis of part {p} is not orthonormal")
        bases.append(u)
    dev = mub_unbiasedness_deviation(bases, d)
    if dev > tols().unbiasedness:
        raise InvariantError(
            f"unbiasedness failure: max |d|<b,b'>|^2 - 1| = {dev:.3e} "
            "(a part may be mis-specified or non-commuting)"
        )
    return MubSystem(d=d, bases=tuple(bases), source=tuple(parts), unbiasedness_deviation=dev)


# ---------------------------------------------------------------------------
# minimal covers


@dataclass(frozen=True, eq=False)
class CoverSelection:
    """A minimum-cardinality subfamily of the fan covering its universe."""

    fan: Fan
    selected: tuple[int, ...]
    certificate: dict

    @property
    def masses(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.fan.masses[i] for i in self.selected)


# Remainder-search nodes after which minimal_cover refuses instead of searching on: a few seconds
# of search, where no fan in the tests or the benchmark needs more than 20 after the reductions.
_COVER_NODE_BUDGET = 1_000_000


def minimal_cover(fan: Fan) -> CoverSelection:
    """Exact minimum set cover of the fan universe by its MASSes.

    Two exact reductions run first, repeated until neither changes anything:

    - *forced*: an element that only one remaining MASS covers puts that MASS
      into the cover;
    - *dominated*: a MASS is dropped when its part of the still-uncovered set
      is empty, or lies inside the part of a remaining MASS of smaller index
      (so of two equal parts the smaller index stays).

    Iterative deepening over the cover size with lexicographic depth-first
    search then covers what remains, so the reported cover is the
    lexicographically smallest among the minimum-cardinality ones.  The
    reductions do not change it: for sorted index tuples of equal size, S
    comes before S' exactly when min(S Δ S') lies in S.  Every cover contains
    a forced MASS, so forcing keeps that order among the covers left; and
    swapping a dropped i for its dominating j < i gives a cover no larger and
    earlier, so no minimum cover that comes first contains i.  The
    certificate records that all smaller sizes were exhausted, the counts of
    forced and dominated MASSes, and the nodes the remainder search explored;
    a search past ``_COVER_NODE_BUDGET`` nodes raises
    :class:`UnsupportedConfigurationError`.
    """
    masks = fan.masks
    forced: list[int] = []
    alive = list(range(len(masks)))
    uncovered = (1 << len(fan.universe)) - 1
    dominated = 0
    while True:  # the forced and dominated reductions, until neither changes anything
        parts = {i: masks[i] & uncovered for i in alive}
        kept = [i for k, i in enumerate(alive)
                if parts[i] and not any(parts[i] & ~parts[j] == 0 for j in alive[:k])]
        dominated += len(alive) - len(kept)
        once = twice = 0  # the elements that one, and that two or more, kept MASSes cover
        for i in kept:
            twice |= once & parts[i]
            once |= parts[i]
        newly = [i for i in kept if parts[i] & ~twice]
        if not newly and len(kept) == len(alive):
            break
        forced.extend(newly)
        alive = [i for i in kept if not parts[i] & ~twice]
        for i in newly:
            uncovered &= ~masks[i]
    rest = [masks[i] & uncovered for i in alive]
    n = len(rest)
    max_size = max((r.bit_count() for r in rest), default=0)
    reach = [0] * (n + 1)  # reach[start]: the union of rest[start:]
    for i in reversed(range(n)):
        reach[i] = reach[i + 1] | rest[i]
    if uncovered & ~reach[0]:
        raise ValueError("fan does not cover its universe")
    nodes = 0

    def dfs(start: int, uncovered: int, slots: int) -> list[int] | None:
        nonlocal nodes
        nodes += 1
        if nodes > _COVER_NODE_BUDGET:
            raise UnsupportedConfigurationError(
                f"minimal cover search over a fan of {len(masks)} MASSes ({len(fan.universe)} elements) "
                f"exceeded its node budget: {_COVER_NODE_BUDGET} nodes explored without proving a minimum"
            )
        if not uncovered:
            return []
        # too few slots left, or an uncovered element that no index >= start covers
        if slots == 0 or slots * max_size < uncovered.bit_count() or uncovered & ~reach[start]:
            return None
        for i in range(start, n):
            if rest[i] & uncovered:
                hit = dfs(i + 1, uncovered & ~rest[i], slots - 1)
                if hit is not None:
                    return [i, *hit]
        return None

    for k in range(n + 1):
        hit = dfs(0, uncovered, k)
        if hit is not None:
            size = len(forced) + k
            certificate = {
                "optimal_size": size,
                "sizes_exhausted_below": size - 1,
                "nodes_explored": nodes,
                "forced": len(forced),
                "dominated": dominated,
                "method": "forced and dominated MASS reductions, then iterative-deepening exact "
                          "search, lexicographic tie-break",
            }
            selected = tuple(sorted(forced + [alive[i] for i in hit]))
            return CoverSelection(fan=fan, selected=selected, certificate=certificate)
    raise InvariantError("unreachable: fan covers its universe but no cover was found")


# ---------------------------------------------------------------------------
# size bounds


def s_bound(d: int) -> int:
    """Crude upper bound for the minimal cover size of the standard fan.

    ``(7 + (d-2)^2) / 2`` for odd d, ``4 + (d-2)^2 / 2`` for even d > 2.
    """
    if d < 3:
        raise ValueError("bound requires d >= 3")
    if d % 2 == 1:
        return (7 + (d - 2) ** 2) // 2
    return 4 + ((d - 2) ** 2) // 2


def refined_bound(d: int, cover_size: int) -> int:
    """Pure-POVM size bound ``4 + (d-2) * cover_size`` for the hub-refined construction."""
    return 4 + (d - 2) * cover_size


# ---------------------------------------------------------------------------
# POVMs


@dataclass(frozen=True, eq=False)
class Povm:
    d: int
    elements: tuple[np.ndarray, ...]
    pure_flags: tuple[bool, ...]
    rank: int  # of the elements in the real space of Hermitian matrices
    sum_residual: float  # ||sum A_j - I||_F
    min_eigenvalue: float  # over all elements
    real_rows: np.ndarray  # the elements embedded in R^(d^2), one per row

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def n_pure(self) -> int:
        return sum(self.pure_flags)


def make_povm(d: int, elements) -> Povm:
    """Validate POVM axioms (sum to identity, PSD); record pure flags, real-embedded rows and their rank."""
    elems = tuple(as_square_matrix(e, f"POVM element {i}") for i, e in enumerate(elements))
    stack = np.stack(elems) if elems else np.zeros((0, d, d), dtype=complex)
    dev = np.linalg.norm(stack.sum(axis=0) - np.eye(d))
    if dev > tols().povm_sum:
        raise InvariantError(f"POVM elements sum to identity only within {dev:.3e}")
    adjoint = stack.conj().transpose(0, 2, 1)
    herm = (stack + adjoint) / 2.0
    w = np.linalg.eigvalsh(herm)
    scale = np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))
    not_hermitian = np.linalg.norm(stack - adjoint, axis=(1, 2)) > tols().hermitian * scale
    negative = w[:, 0] < -tols().psd
    failing = np.flatnonzero(not_hermitian | negative)
    if len(failing):
        i = failing[0]
        if not_hermitian[i]:
            raise InvariantError(f"POVM element {i} is not Hermitian")
        raise InvariantError(f"POVM element {i} has negative eigenvalue {w[i, 0]:.3e}")
    top = w[:, -1]
    second = w[:, -2] if d > 1 else 0.0
    flags = (top > 1e-12) & (second <= tols().purity_ratio * top)
    real_rows = _herm_to_real(herm)
    return Povm(d=d, elements=elems, pure_flags=tuple(map(bool, flags)),
                rank=int(np.linalg.matrix_rank(real_rows)), sum_residual=float(dev),
                min_eigenvalue=float(w.min()), real_rows=real_rows)


def _assemble_povm(tag: Tag, kept_vectors, n_selected: int) -> Povm:
    d = tag.d
    v = np.array(kept_vectors)
    projectors = v[:, :, None] * v.conj()[:, None, :]
    # Each cover MASS adds orthonormal vectors, so I - c * sum is PSD; make_povm checks it.
    c = 1.0 / n_selected
    povm = make_povm(d, [np.eye(d) - c * projectors.sum(axis=0), *(c * projectors)])
    complete, rank = is_info_complete(povm)
    if not complete:
        raise InvariantError(
            f"constructed POVM is not informationally complete: rank {rank} < {d * d}"
        )
    return povm


def crude_povm(tag: Tag, cover: CoverSelection, rng_seed: int = 0) -> Povm:
    """Pure POVM from a fan cover: d-1 eigenprojectors per covering MASS.

    Elements are ``c rho_j`` with ``c = 1/|cover|`` plus the completion
    element ``I - c sum(rho_j)`` at index 0; the canonically-last eigenbasis
    column of each MASS is the one dropped.  Size is (d-1)|cover| + 1.
    """
    if set(cover.fan.universe) != set(tag.labels):
        raise ValueError("cover does not belong to this tag")
    d = tag.d
    kept = []
    for idx in cover.selected:
        u = mass_eigenbasis(tag, cover.fan.masses[idx], rng_seed=rng_seed)
        kept.extend(u[:, j] for j in range(d - 1))
    return _assemble_povm(tag, kept, len(cover.selected))


def refined_povm(tag: Tag, cover: CoverSelection, hub: str, rng_seed: int = 0) -> Povm:
    """Hub-refined pure POVM over a minimal cover of the fan (see :func:`minimal_cover`).

    The hub must have degenerate eigenvalues and lie in at least two cover
    MASSes.  Cover MASSes are grouped by the degenerate elements they share
    (all elements with the hub's spectral multiplicity pattern sitting in two
    or more cover MASSes); the groups must partition the cover.  Within a
    group, whose common elements fix a block decomposition of C^d into
    eigenspaces, the first MASS keeps d-1 eigenvectors and every later MASS
    drops one eigenvector per block, since the block projectors are already
    determined.  The same 1/|cover| completion as the crude construction
    closes the POVM.
    """
    if set(cover.fan.universe) != set(tag.labels):
        raise ValueError("cover does not belong to this tag")
    if hub not in tag.operators:
        raise ValueError(f"hub {hub!r} is not a member of the tag system")
    d = tag.d
    masks = [cover.fan.masks[i] for i in cover.selected]
    n_cover = len(masks)
    hits_of = {y: tuple(i for i, m in enumerate(masks) if m >> k & 1) for k, y in enumerate(cover.fan.universe)}
    # only the hub and the members in two or more cover MASSes can decide a group
    spectral = [hub, *(y for y in tag.labels if y != hub and len(hits_of[y]) >= 2)]
    angles = unit_spectrum_angles(tag_members(tag, spectral), spectral)
    partitions = dict(zip(spectral, map(multiplicity_partition, angles)))
    hub_sig = partitions[hub]
    if hub_sig[0] < 2:
        raise ValueError(f"hub {hub!r} has simple spectrum; a degenerate hub is required")
    if len(hits_of[hub]) < 2:
        raise ValueError(f"hub {hub!r} lies in {len(hits_of[hub])} cover MASSes; at least 2 required")

    groups: dict[tuple[int, ...], set[str]] = {}
    for y in spectral:
        if partitions[y] == hub_sig and len(hits_of[y]) >= 2:
            groups.setdefault(hits_of[y], set()).add(y)
    if sorted(i for hits in groups for i in hits) != list(range(n_cover)):
        raise UnsupportedConfigurationError(
            "hub groups do not partition the cover; this fan does not match a supported "
            f"hub template (grouped cover indices: {sorted(groups)})"
        )

    kept: list[np.ndarray] = []
    for hits in sorted(groups):
        rep = min(groups[hits], key=label_sort_key)
        masses = sorted(
            (cover.masses[i] for i in hits),
            key=lambda mass: tuple(label_sort_key(x) for x in mass),
        )
        for mass_index, mass in enumerate(masses):
            # rep lies in the MASS, so its eigenbasis diagonalizes rep: one eigenvalue per column
            u = mass_eigenbasis(tag, mass, rng_seed=rng_seed)
            keys = [round_unit_angle(z) for z in np.einsum("ij,ij->j", u.conj(), tag.operators[rep] @ u)]
            if multiplicity_partition(keys) != hub_sig:
                raise UnsupportedConfigurationError(
                    f"eigenbasis of MASS {mass} does not respect the eigenspace blocks of {rep}"
                )
            blocks = [[u[:, c] for c in range(d) if keys[c] == key] for key in sorted(set(keys))]
            if mass_index == 0:
                blocks = [[v for blk in blocks for v in blk]]  # the first MASS drops one vector in all
            for blk in blocks:
                kept.extend(blk[:-1])
    return _assemble_povm(tag, kept, n_cover)


# ---------------------------------------------------------------------------
# informational completeness and reconstruction


def _herm_to_real(a: np.ndarray) -> np.ndarray:
    """Isometric embedding of Hermitian matrices into R^(d^2) (trace inner product), over the last two axes."""
    iu = np.triu_indices(a.shape[-1], k=1)
    off = a[..., iu[0], iu[1]]
    diag = np.diagonal(a, axis1=-2, axis2=-1).real
    return np.concatenate([diag, np.sqrt(2.0) * off.real, np.sqrt(2.0) * off.imag], axis=-1)


def _real_to_herm(v: np.ndarray, d: int) -> np.ndarray:
    a = np.zeros((d, d), dtype=complex)
    a[np.diag_indices(d)] = v[:d]
    iu = np.triu_indices(d, k=1)
    m = len(iu[0])
    off = (v[d : d + m] + 1j * v[d + m :]) / np.sqrt(2.0)
    a[iu] = off
    a[(iu[1], iu[0])] = off.conjugate()
    return a


def is_info_complete(povm: Povm) -> tuple[bool, int]:
    """Rank of the POVM elements in the real space of Hermitian matrices.

    Complete iff the rank equals d^2; the rank is the one :func:`make_povm` recorded.
    """
    return povm.rank == povm.d * povm.d, povm.rank


def reconstruct(rho, povm: Povm) -> tuple[np.ndarray, float]:
    """Noiseless linear-inversion reconstruction of a density matrix.

    Computes the exact outcome probabilities ``tr(rho A_j)`` from the POVM's
    ``real_rows`` and solves the least-squares system over Hermitian matrices
    with the unit-trace row appended.  Returns the estimate and its Frobenius
    error.  A state with non-finite entries is refused.
    """
    d = povm.d
    state = as_square_matrix(rho, "state")
    if state.shape != (d, d):
        raise ValueError(f"state shape {state.shape} does not match POVM dimension {d}")
    if abs(np.trace(state) - 1.0) > 1e-9:
        raise ValueError("state must have unit trace")
    herm = np.linalg.norm(state - state.conj().T)
    if herm > tols().hermitian * max(1.0, np.linalg.norm(state)):
        raise ValueError("state must be Hermitian")
    complete, rank = is_info_complete(povm)
    if not complete:
        raise ValueError(f"POVM is not informationally complete (rank {rank} < {d * d})")
    rows = np.vstack([povm.real_rows, _herm_to_real(np.eye(d))])
    # Re tr(rho A) = <emb(rho_H), emb(A_H)>, and real_rows holds emb(A_H) for every element A
    beta = np.append(povm.real_rows @ _herm_to_real((state + state.conj().T) / 2.0), 1.0)
    solution, *_ = np.linalg.lstsq(rows, beta, rcond=None)
    estimate = _real_to_herm(solution, d)
    return estimate, float(np.linalg.norm(state - estimate))
