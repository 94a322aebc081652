"""Shared test utilities: random states, basis transformations, brute-force oracles."""

import numpy as np

import fanweave as fw
from fanweave.basis import parse_pair
from fanweave.config import tols


def random_density(d: int, rng) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_density(d: int, rng) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def transformed_basis(basis: fw.UnitaryBasis, rng) -> fw.UnitaryBasis:
    """Random relabeling plus two-sided unitary multiples: an equivalent basis."""
    d = basis.d
    v1 = fw.random_unitary(d, rng)
    v2 = fw.random_unitary(d, rng)
    perm = rng.permutation(len(basis.labels))
    labels = [f"t{i}" for i in range(len(basis.labels))]
    ops = {
        labels[i]: v1 @ basis.operators[basis.labels[perm[i]]] @ v2
        for i in range(len(labels))
    }
    return fw.unitary_basis(labels, ops, fw.Provenance(kind="transformed"))


def conjugated_basis(basis: fw.UnitaryBasis, rng) -> fw.UnitaryBasis:
    """``V U_x W`` for Haar V and W under the same labels: an equivalent basis that takes the dense path."""
    v, w = fw.random_unitary(basis.d, rng), fw.random_unitary(basis.d, rng)
    ops = {x: v @ u @ w for x, u in basis.operators.items()}
    return fw.unitary_basis(basis.labels, ops, fw.Provenance(kind="transformed"))


def brute_force_cliques(labels, adjacency) -> set[frozenset]:
    """Independent maximal-clique oracle: test every subset (small graphs only)."""
    import itertools

    n = len(labels)
    all_cliques = []
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            if all(adjacency[a][b] for a, b in itertools.combinations(combo, 2)):
                all_cliques.append(frozenset(combo))
    maximal = [c for c in all_cliques if not any(c < other for other in all_cliques)]
    return {frozenset(labels[i] for i in c) for c in maximal}


def frozenset_masses(vertices, adjacency) -> tuple[tuple[str, ...], ...]:
    """MASS oracle on frozensets: the same pivoted recursion as ``enumerate_mass``, sorted by label keys.

    Shares no code with the bitmask enumeration: vertices stay in input order, and each MASS
    and the list of MASSes are sorted by ``label_sort_key`` comparisons.
    """
    from fanweave.basis import label_sort_key

    n = len(vertices)
    nbrs = [frozenset(np.nonzero(adjacency[i])[0].tolist()) - {i} for i in range(n)]
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
    return tuple(sorted(
        (tuple(sorted((vertices[i] for i in c), key=label_sort_key)) for c in cliques),
        key=lambda mass: tuple(label_sort_key(x) for x in mass),
    ))


def per_tag_fans(basis: fw.UnitaryBasis, mode: str = "numeric") -> dict:
    """Per-tag oracle of the orbit path: ``tag_at``, ``commutation_graph`` and ``enumerate_mass`` at every tag.

    Maps each tag label to ``(tag, fan)``.  No tag's graph or fan comes from another tag.
    """
    fans = {}
    for x0 in basis.labels:
        tag = fw.tag_at(basis, x0)
        fans[x0] = tag, fw.enumerate_mass(fw.commutation_graph(tag, mode=mode))
    return fans


def per_tag_profile(tag_fans: dict, variant: str) -> tuple:
    """The invariant profile of :func:`per_tag_fans` output, as ``invariant_profile`` must give it."""
    return tuple(sorted(fw.fan_invariant(tag, fan, variant) for tag, fan in tag_fans.values()))


def brute_force_cover(fan: fw.Fan) -> tuple[int, ...]:
    """Cover oracle without reductions: iterative-deepening lexicographic search over all MASSes.

    Returns the lexicographically smallest minimum cover, as ``minimal_cover`` must.
    """
    sets = [frozenset(m) for m in fan.masses]
    universe = frozenset(fan.universe)
    n = len(sets)
    max_size = max(len(s) for s in sets)
    containing = {x: tuple(i for i in range(n) if x in sets[i]) for x in universe}

    def dfs(start: int, chosen: list[int], uncovered: frozenset, slots: int):
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
            return tuple(hit)
    raise AssertionError("fan does not cover its universe")


def latin_crisscross(lam: fw.LatinSquare, n: int, n2: int) -> bool:
    """Exact test of lam(n, lam(n2, k)) = lam(n2, lam(n, k)) for all k."""
    t = lam.table
    return bool(np.array_equal(t[n, t[n2]], t[n2, t[n]]))


def hadamard_crisscross(family: fw.HadamardFamily, lam: fw.LatinSquare, mn, m2n2) -> bool:
    """Commutation predicate on index pairs of an untagged shift-and-multiply basis.

    Tests H^n_{m, lam(n2,k)} H^n2_{m2,k} = H^n2_{m2, lam(n,k)} H^n_{m,k} for
    all k; exact over exponents when available.  Symmetric in the two pairs.
    """
    m, n = mn
    m2, n2 = m2n2
    t = lam.table
    if family.exact:
        e, order = family.exponents, family.root_order
        lhs = e[n][m, t[n2]] + e[n2][m2]
        rhs = e[n2][m2, t[n]] + e[n][m]
        return bool(np.all((lhs - rhs) % order == 0))
    h = family.matrices
    lhs = h[n][m, t[n2]] * h[n2][m2]
    rhs = h[n2][m2, t[n]] * h[n][m]
    return bool(np.abs(lhs - rhs).max() <= tols().commutation)


def predicate_adjacency(basis: fw.UnitaryBasis, x0: str | None = None) -> np.ndarray:
    """Pair-by-pair oracle from the paper's predicates: criss-cross untagged, twill at the tag x0."""
    lam, fam = basis.provenance.latin, basis.provenance.hadamard
    mu = fw.latin_inverse(lam)
    pairs = [parse_pair(x) for x in basis.labels if x != x0]
    t0 = None if x0 is None else parse_pair(x0)
    adj = np.eye(len(pairs), dtype=bool)
    for i, p in enumerate(pairs):
        for j, q in enumerate(pairs[:i]):
            if t0 is None:
                adj[i, j] = latin_crisscross(lam, p[1], q[1]) and hadamard_crisscross(fam, lam, p, q)
            else:
                adj[i, j] = fw.latin_twill(lam, mu, p[1], t0[1], q[1]) and fw.hadamard_twill(fam, lam, mu, p, t0, q)
            adj[j, i] = adj[i, j]
    return adj


def projector_refined_povm(tag, cover, hub: str, rng_seed: int = 0) -> fw.Povm:
    """Hub-refinement oracle: blocks from the projectors of a separate eigendecomposition of each representative.

    Groups the cover as ``refined_povm`` does, then assigns every eigenbasis column to the
    eigenspace projector of the representative that it overlaps most.  Must give the same
    elements as ``refined_povm``, and the same refusals.
    """
    from fanweave import tomography as tomo
    from fanweave.basis import label_sort_key
    from fanweave.errors import UnsupportedConfigurationError
    from fanweave.linalg import multiplicity_partition, round_unit_angle, unit_spectrum_angles

    def eigenspace_projectors(op):
        dec = fw.eig_normal(op)
        keys = [round_unit_angle(z) for z in dec.eigenvalues]
        projectors = []
        for key in sorted(set(keys)):
            cols = dec.eigenvectors[:, [i for i, k in enumerate(keys) if k == key]]
            projectors.append(cols @ cols.conj().T)
        return projectors

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
        hits = tuple(i for i, s in enumerate(cover_sets) if y in s)
        if partitions[y] == hub_sig and len(hits) >= 2:
            groups.setdefault(hits, set()).add(y)
    covered = sorted(i for hits in groups for i in hits)
    if covered != sorted(set(covered)) or set(covered) != set(range(n_cover)):
        raise UnsupportedConfigurationError(
            "hub groups do not partition the cover; this fan does not match a supported "
            f"hub template (grouped cover indices: {sorted(groups)})"
        )
    kept = []
    for hits in sorted(groups):
        rep = min(groups[hits], key=label_sort_key)
        block_projectors = eigenspace_projectors(tag.operators[rep])
        masses = sorted((cover.masses[i] for i in hits), key=lambda mass: tuple(label_sort_key(x) for x in mass))
        for mass_index, mass in enumerate(masses):
            u = tomo.mass_eigenbasis(tag, mass, rng_seed=rng_seed)
            by_block = [[] for _ in block_projectors]
            for c in range(d):
                v = u[:, c]
                k = int(np.argmax([np.linalg.norm(p @ v) for p in block_projectors]))
                if np.linalg.norm(block_projectors[k] @ v - v) > 1e-8:
                    raise UnsupportedConfigurationError(
                        f"eigenbasis of MASS {mass} does not respect the eigenspace blocks of {rep}"
                    )
                by_block[k].append(v)
            if mass_index == 0:
                kept.extend([v for blk in by_block for v in blk][:-1])
            else:
                for blk in by_block:
                    kept.extend(blk[:-1])
    return tomo._assemble_povm(tag, kept, n_cover)
