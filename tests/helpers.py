"""Shared test utilities: random states, basis transformations, brute-force oracles."""

import numpy as np

import fanweave as fw
from fanweave.basis import parse_pair


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
                adj[i, j] = fw.latin_crisscross(lam, p[1], q[1]) and fw.hadamard_crisscross(fam, lam, p, q)
            else:
                adj[i, j] = fw.latin_twill(lam, mu, p[1], t0[1], q[1]) and fw.hadamard_twill(fam, lam, mu, p, t0, q)
            adj[j, i] = adj[i, j]
    return adj
