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

from .basis import Fan, Tag, label_sort_key
from .config import tols
from .errors import InvariantError, UnsupportedConfigurationError
from .linalg import (
    eig_normal,
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
    return MubSystem(d=d, bases=tuple(bases), source=tuple(parts))


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


def minimal_cover(fan: Fan) -> CoverSelection:
    """Exact minimum set cover of the fan universe by its MASSes.

    Iterative deepening over the cover size with lexicographic depth-first
    search, so the reported cover is the lexicographically smallest among the
    minimum-cardinality ones.  The certificate records that all smaller sizes
    were exhausted.
    """
    sets = [frozenset(m) for m in fan.masses]
    universe = frozenset(fan.universe)
    if frozenset().union(*sets) != universe:
        raise ValueError("fan does not cover its universe")
    n = len(sets)
    max_size = max(len(s) for s in sets)
    containing: dict[str, tuple[int, ...]] = {
        x: tuple(i for i in range(n) if x in sets[i]) for x in universe
    }
    nodes = 0

    def dfs(start: int, chosen: list[int], uncovered: frozenset, slots: int):
        nonlocal nodes
        nodes += 1
        if not uncovered:
            return list(chosen)
        if slots == 0 or slots * max_size < len(uncovered):
            return None
        # every uncovered element must still be coverable by an index >= start
        if any(containing[x][-1] < start for x in uncovered):
            return None
        for i in range(start, n):
            if not (sets[i] & uncovered):
                continue
            chosen.append(i)
            hit = dfs(i + 1, chosen, uncovered - sets[i], slots - 1)
            if hit is not None:
                return hit
            chosen.pop()
        return None

    for k in range(1, n + 1):
        hit = dfs(0, [], universe, k)
        if hit is not None:
            certificate = {
                "optimal_size": k,
                "sizes_exhausted_below": k - 1,
                "nodes_explored": nodes,
                "method": "iterative-deepening exact search, lexicographic tie-break",
            }
            return CoverSelection(fan=fan, selected=tuple(hit), certificate=certificate)
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

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def n_pure(self) -> int:
        return sum(self.pure_flags)


def make_povm(d: int, elements) -> Povm:
    """Validate POVM axioms (sum to identity, PSD), flag rank-one elements and record the rank."""
    elems = tuple(np.asarray(e, dtype=complex) for e in elements)
    total = sum(elems)
    dev = np.linalg.norm(total - np.eye(d))
    if dev > tols().povm_sum:
        raise InvariantError(f"POVM elements sum to identity only within {dev:.3e}")
    spectra = [np.linalg.eigvalsh((e + e.conj().T) / 2.0) for e in elems]
    flags = []
    for i, (e, w) in enumerate(zip(elems, spectra)):
        herm = np.linalg.norm(e - e.conj().T)
        if herm > tols().hermitian * max(1.0, np.linalg.norm(e)):
            raise InvariantError(f"POVM element {i} is not Hermitian")
        if w.min() < -tols().psd:
            raise InvariantError(f"POVM element {i} has negative eigenvalue {w.min():.3e}")
        top = w[-1]
        second = w[-2] if len(w) > 1 else 0.0
        flags.append(bool(top > 1e-12 and second <= tols().purity_ratio * top))
    real_rows = np.stack([_herm_to_real((e + e.conj().T) / 2.0) for e in elems])
    return Povm(d=d, elements=elems, pure_flags=tuple(flags), rank=int(np.linalg.matrix_rank(real_rows)),
                sum_residual=float(dev), min_eigenvalue=min(float(w.min()) for w in spectra))


def _assemble_povm(tag: Tag, kept_vectors, n_selected: int) -> Povm:
    d = tag.d
    projectors = [np.outer(v, v.conj()) for v in kept_vectors]
    # Each cover MASS adds orthonormal vectors, so I - c * sum is PSD; make_povm checks it.
    c = 1.0 / n_selected
    completion = np.eye(d) - c * sum(projectors)
    povm = make_povm(d, [completion] + [c * p for p in projectors])
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


def _eigenspace_projectors(op: np.ndarray) -> list[np.ndarray]:
    dec = eig_normal(op)
    keys = [round_unit_angle(z) for z in dec.eigenvalues]
    projectors = []
    for key in sorted(set(keys)):
        cols = dec.eigenvectors[:, [i for i, k in enumerate(keys) if k == key]]
        projectors.append(cols @ cols.conj().T)
    return projectors


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
    angles = unit_spectrum_angles(np.stack([tag.operators[y] for y in tag.labels]))
    partitions = {y: multiplicity_partition(a) for y, a in zip(tag.labels, angles)}
    hub_sig = partitions[hub]
    if hub_sig[0] < 2:
        raise ValueError(f"hub {hub!r} has simple spectrum; a degenerate hub is required")
    cover_sets = [frozenset(m) for m in cover.masses]
    n_cover = len(cover_sets)
    hub_hits = tuple(i for i, s in enumerate(cover_sets) if hub in s)
    if len(hub_hits) < 2:
        raise ValueError(f"hub {hub!r} lies in {len(hub_hits)} cover MASSes; at least 2 required")

    groups: dict[tuple[int, ...], set[str]] = {}
    for y in tag.labels:
        if partitions[y] != hub_sig:
            continue
        hits = tuple(i for i, s in enumerate(cover_sets) if y in s)
        if len(hits) < 2:
            continue
        groups.setdefault(hits, set()).add(y)
    covered = sorted(i for hits in groups for i in hits)
    if covered != sorted(set(covered)) or set(covered) != set(range(n_cover)):
        raise UnsupportedConfigurationError(
            "hub groups do not partition the cover; this fan does not match a supported "
            f"hub template (grouped cover indices: {sorted(groups)})"
        )

    kept: list[np.ndarray] = []
    for hits in sorted(groups):
        unit = groups[hits]
        rep = min(unit, key=label_sort_key)
        block_projectors = _eigenspace_projectors(tag.operators[rep])
        masses = sorted(
            (cover.masses[i] for i in hits),
            key=lambda mass: tuple(label_sort_key(x) for x in mass),
        )
        for mass_index, mass in enumerate(masses):
            u = mass_eigenbasis(tag, mass, rng_seed=rng_seed)
            by_block: list[list[np.ndarray]] = [[] for _ in block_projectors]
            for c in range(d):
                v = u[:, c]
                overlaps = [np.linalg.norm(p @ v) for p in block_projectors]
                k = int(np.argmax(overlaps))
                if np.linalg.norm(block_projectors[k] @ v - v) > 1e-8:
                    raise UnsupportedConfigurationError(
                        f"eigenbasis of MASS {mass} does not respect the eigenspace blocks of {rep}"
                    )
                by_block[k].append(v)
            if mass_index == 0:
                flat = [v for blk in by_block for v in blk]
                kept.extend(flat[:-1])
            else:
                for blk in by_block:
                    kept.extend(blk[:-1])
    return _assemble_povm(tag, kept, n_cover)


# ---------------------------------------------------------------------------
# informational completeness and reconstruction


def _herm_to_real(a: np.ndarray) -> np.ndarray:
    """Isometric embedding of Hermitian matrices into R^(d^2) (trace inner product)."""
    d = a.shape[0]
    parts = [a.diagonal().real]
    iu = np.triu_indices(d, k=1)
    off = a[iu]
    parts.append(np.sqrt(2.0) * off.real)
    parts.append(np.sqrt(2.0) * off.imag)
    return np.concatenate(parts)


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

    Computes exact outcome probabilities ``tr(rho A_j)`` and solves the
    least-squares system over Hermitian matrices with the unit-trace row
    appended.  Returns the estimate and its Frobenius error.
    """
    d = povm.d
    state = np.asarray(rho, dtype=complex)
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
    rows = [_herm_to_real((e + e.conj().T) / 2.0) for e in povm.elements]
    beta = [float(np.trace(state @ e).real) for e in povm.elements]
    rows.append(_herm_to_real(np.eye(d)))
    beta.append(1.0)
    solution, *_ = np.linalg.lstsq(np.stack(rows), np.array(beta), rcond=None)
    estimate = _real_to_herm(solution, d)
    return estimate, float(np.linalg.norm(state - estimate))
