"""The three benchmark workloads: the inputs each builds in set-up, the
certificates it requests, and the answer each certificate must give.

A workload's seed drives the conjugating unitaries, the relabellings, the
reconstructed states, the PPT seeds and the global ``--seed``; the basis
families and dimensions never depend on it, so every count the traced run
reports repeats exactly across seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

import fanweave as fw
from fanweave import combinatorics as comb
from fanweave import serialize as ser

INEQ = {"exit": 3, "verdict": "INEQUIVALENT"}
NOT_DIST = {"exit": 0, "verdict": "NOT-DISTINGUISHED"}

STATES_PER_POVM = 4
RECONSTRUCTION_ERROR = 1e-8
PPT_SEEDS = 3
PPT_LAMBDA_MIN = -1e-10
PPT_STRUCTURAL = 1e-9
MUB_DEVIATION = 1e-9


@dataclass
class Cert:
    """One certificate request and its expected answer.

    ``args`` are the CLI words after the global flags; a ``reconstruct``
    certificate instead has ``povm``, the path of the POVM artifact it loads,
    and ``states``, the density matrices it reconstructs.  ``expect`` maps an
    answer field to its value, or to ``("<=", bound)`` / ``(">=", bound)``;
    ``same_artifact_as`` is the path of another certificate's ``--out``
    artifact that this one's must equal.
    """

    cid: str
    verb: str
    args: tuple[str, ...] = ()
    expect: dict = field(default_factory=dict)
    seed: int | None = None
    out: str | None = None
    povm: str | None = None
    states: tuple = ()


# ---------------------------------------------------------------------------
# inputs


def _group(spec: str) -> comb.FiniteGroup:
    factors = [comb.group_s3() if p == "s3" else comb.group_cyclic(int(p[1:])) for p in spec.split("x")]
    group = factors[0]
    for extra in factors[1:]:
        group = comb.group_product(group, extra)
    return group


def build_basis(name: str) -> fw.UnitaryBasis:
    """``weyl<d>``, ``pauli2``, ``s3-<variant>`` or a group product such as ``z2xz2``."""
    if name == "pauli2":
        return fw.build_pauli2()
    if name.startswith("weyl"):
        return fw.build_weyl(int(name[4:]))
    spec, _, variant = name.partition("-")
    lam = comb.latin_from_group(_group(spec), variant or "e")
    params = {"group": spec, "variant": variant or "e"}
    return fw.build_shift_multiply(lam, comb.fourier_family(lam.size), params=params)


class Inputs:
    """Builds each input basis once and writes it as JSON into ``workdir``."""

    def __init__(self, workdir: str, rng: np.random.Generator):
        self.workdir = workdir
        self.rng = rng
        self._bases: dict[str, fw.UnitaryBasis] = {}
        self._paths: dict[str, str] = {}
        self.renamed: dict[str, dict[str, str]] = {}

    def _basis(self, name: str) -> fw.UnitaryBasis:
        if name not in self._bases:
            self._bases[name] = build_basis(name)
        return self._bases[name]

    def _write(self, key: str, basis: fw.UnitaryBasis) -> str:
        path = f"{self.workdir}/{key}.json"
        ser.write_json(path, ser.basis_to_json(basis))
        self._paths[key] = path
        return path

    def exact(self, name: str) -> str:
        """Path of the basis as constructed, with its latin/Hadamard provenance."""
        return self._paths.get(name) or self._write(name, self._basis(name))

    def dense(self, name: str) -> str:
        """Path of ``V U_x W`` for seeded Haar V, W, labels shuffled and renamed, no provenance."""
        key = f"conj-{name}"
        if key in self._paths:
            return self._paths[key]
        basis = self._basis(name)
        v = fw.random_unitary(basis.d, self.rng)
        w = fw.random_unitary(basis.d, self.rng)
        names = [str(k) for k in self.rng.permutation(len(basis.labels))]
        rename = dict(zip(basis.labels, names))
        order = self.rng.permutation(len(basis.labels))
        labels = [names[i] for i in order]
        ops = {rename[x]: v @ basis.operators[x] @ w for x in basis.labels}
        self.renamed[name] = rename
        return self._write(key, fw.unitary_basis(labels, ops, fw.Provenance(kind="conjugated")))


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# certificate lists

# Pairs compared in `classify`, with whether they are certified inequivalent.
CLASSIFY_PAIRS = (
    [("weyl4", "pauli2", True), ("weyl4", "z2xz2", True), ("pauli2", "z2xz2", True)]
    + [("weyl6", f"s3-{v}", True) for v in comb.LATIN_VARIANTS]
    + [("s3-e", "s3-g", False), ("s3-e", "s3-f", True), ("s3-f", "s3-l", False)]
    + [("weyl8", "z2xz2xz2", True)]
)
# Fans over all tags: MASS count at tag 0,0 (and at every tag, by symmetry).
ALL_TAG_FANS = {"weyl6": 12, "s3-e": 22}
WEYL16_MASSES = 31
DENSE_PROBES = ("weyl4", "pauli2", "weyl6", "s3-e", "s3-f", "weyl8")
DENSE_PAIRS = (("weyl6", "s3-e", True), ("s3-e", "s3-g", False), ("s3-e", "s3-f", True), ("weyl4", "pauli2", True))


def _compare(cid, path_a, path_b, inequivalent):
    return Cert(cid, "compare", ("compare", path_a, path_b), dict(INEQ if inequivalent else NOT_DIST))


def _all_tags(count):
    return {"exit": 0, "tags": 36, "mass_counts.0,0": count, "mass_count_multiset": {count: 36}}


def classify(inputs: Inputs) -> list[Cert]:
    certs = [
        _compare(f"compare {a} {b}", inputs.exact(a), inputs.exact(b), ineq)
        for a, b, ineq in CLASSIFY_PAIRS
    ]
    for name, count in ALL_TAG_FANS.items():
        path = inputs.exact(name)
        exact_out = f"{inputs.workdir}/fans-exact-{name}.json"
        certs.append(Cert(f"fans exact-twill {name}", "fans",
                          ("fans", path, "--all-tags", "--mode", "exact-twill"),
                          _all_tags(count), out=exact_out))
        certs.append(Cert(f"fans numeric {name}", "fans", ("fans", path, "--all-tags", "--mode", "numeric"),
                          {**_all_tags(count), "same_artifact_as": exact_out},
                          out=f"{inputs.workdir}/fans-numeric-{name}.json"))
    certs.append(Cert("fans weyl16 0,0", "fans", ("fans", inputs.exact("weyl16"), "--tag", "0,0"),
                      {"exit": 0, "mass_count": WEYL16_MASSES}))
    return certs


def classify_dense(inputs: Inputs) -> list[Cert]:
    certs = [
        _compare(f"compare {name} conj-{name}", inputs.exact(name), inputs.dense(name), False)
        for name in DENSE_PROBES
    ]
    certs += [
        _compare(f"compare conj-{a} conj-{b}", inputs.dense(a), inputs.dense(b), ineq)
        for a, b, ineq in DENSE_PAIRS
    ]
    for name, count in ALL_TAG_FANS.items():
        path = inputs.dense(name)
        tag = inputs.renamed[name]["0,0"]
        expect = {"exit": 0, "tags": 36, f"mass_counts.{tag}": count, "mass_count_multiset": {count: 36}}
        certs.append(Cert(f"fans numeric conj-{name}", "fans", ("fans", path, "--all-tags"), expect))
    path = inputs.dense("weyl16")
    tag = inputs.renamed["weyl16"]["0,0"]
    certs.append(Cert("fans conj-weyl16 0,0", "fans", ("fans", path, "--tag", tag),
                      {"exit": 0, "mass_count": WEYL16_MASSES}))
    return certs


# (basis, tag, hub or None, outcomes, cover size); crude when hub is None.
POVMS = (
    ("weyl4", "0,0", None, 19, 6),
    ("weyl6", "0,0", None, 61, 12),
    ("weyl8", "0,0", None, 85, 12),
    ("weyl10", "0,0", None, 163, 18),
    ("weyl12", "0,0", None, 265, 24),
    ("weyl4", "0,0", "2,2", 16, 6),
    ("weyl6", "0,0", "2,2", 45, 12),
    ("weyl6", "0,0", "3,3", 52, 12),
    ("s3xz2", "0,0", None, 914, 83),
)
MUBS = ("weyl5", "weyl7", "weyl11")
# Hadamard fans: MASS count and the multiset of partial Hadamard row counts.
HADAMARD_FANS = {"weyl6": (12, {5: 12}), "weyl8": (15, {7: 15}), "s3-e": (22, {1: 18, 5: 4})}
PPT_SIZES = range(2, 9)


def tomography(inputs: Inputs) -> list[Cert]:
    rng = inputs.rng
    certs = []
    for name, tag, hub, outcomes, cover in POVMS:
        d = int(name[4:]) if name.startswith("weyl") else 12
        strategy = ("--strategy", "refined", "--hub", hub) if hub else ()
        cid = f"povm {name} {tag}" + (f" hub {hub}" if hub else "")
        out = f"{inputs.workdir}/{cid.replace(' ', '_').replace(',', '-')}.json"
        certs.append(Cert(cid, "povm", ("povm", inputs.exact(name), "--tag", tag, *strategy),
                          {"exit": 0, "outcomes": outcomes, "cover_size": cover, "complete": True,
                           "rank": d * d}, out=out))
        states = tuple(random_density(d, rng) for _ in range(STATES_PER_POVM))
        certs.append(Cert(f"reconstruct {cid}", "reconstruct", povm=out, states=states,
                          expect={"states": STATES_PER_POVM, "max_error": ("<=", RECONSTRUCTION_ERROR)}))
    for name in MUBS:
        d = int(name[4:])
        certs.append(Cert(f"mub {name}", "mub", ("mub", inputs.exact(name), "--tag", "0,0"),
                          {"exit": 0, "d": d, "bases": d + 1, "unbiasedness_deviation": ("<=", MUB_DEVIATION)}))
    for name, (masses, rows) in HADAMARD_FANS.items():
        certs.append(Cert(f"hadamard-fan {name}", "hadamard-fan",
                          ("hadamard-fan", inputs.exact(name), "--tag", "0,0"),
                          {"exit": 0, "masses": masses, "row_count_multiset": rows,
                           "all_partial_hadamard": True}))
    for ppt_seed in rng.integers(0, 2**31, size=PPT_SEEDS).tolist():
        for n in PPT_SIZES:
            certs.append(Cert(f"ppt n={n} seed={ppt_seed}", "ppt", ("ppt", "--n", str(n)),
                              {"exit": 0, "n": n, "lambda_min": (">=", PPT_LAMBDA_MIN),
                               "lambda_min_pt": (">=", PPT_LAMBDA_MIN),
                               "structural_residual": ("<=", PPT_STRUCTURAL)}, seed=ppt_seed))
    return certs


def setup(workload: str, seed: int, workdir: str) -> list[Cert]:
    """Build and write every input of the workload; return its certificate list."""
    build = {"classify": classify, "classify-dense": classify_dense, "tomography": tomography}[workload]
    return build(Inputs(workdir, np.random.default_rng(seed)))


# ---------------------------------------------------------------------------
# the oracle


def answer_fields(code, report: dict) -> dict:
    """The CLI report plus the exit code and the multisets the oracle compares."""
    answer = {"exit": code, **report}
    if "mass_counts" in report:
        answer["mass_count_multiset"] = _multiset(report["mass_counts"].values())
    if "row_counts" in report:
        answer["row_count_multiset"] = _multiset(report["row_counts"])
    return answer


def _multiset(values) -> dict:
    counts: dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return counts


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _field(answer: dict, key: str):
    if key in answer:
        return answer[key]
    head, _, rest = key.partition(".")
    if rest and isinstance(answer.get(head), dict):
        return answer[head].get(rest)
    return None


def mismatch(cert: Cert, answer: dict) -> str | None:
    """The first way the answer disagrees with the certificate's expectation, or None."""
    for key, want in cert.expect.items():
        if key == "same_artifact_as":
            if _load(cert.out) != _load(want):
                return f"artifact differs from {want}"
            continue
        got = _field(answer, key)
        if isinstance(want, tuple):
            op, bound = want
            ok = isinstance(got, (int, float)) and (got <= bound if op == "<=" else got >= bound)
        else:
            ok = got == want
        if not ok:
            return f"{key}: expected {want!r}, got {got!r}"
    return None
