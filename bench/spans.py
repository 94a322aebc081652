"""Span recorder for the traced run.

``install`` wraps named fanweave functions in every fanweave namespace that
binds them (the defining module, modules that imported the name, and the
package re-exports), so calls the library makes internally are timed too and
the library is not edited.  Each span records its name, start, end, parent
span and certificate; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from itertools import chain

# Functions wrapped in the traced run, as (module, name).  Functions called
# ~1e5 times per pass with sub-microsecond bodies (round_unit_angle, the
# label helpers) are left out: their wrapper would cost more than they do.
TRACED = (
    ("serialize", "read_json"),
    ("serialize", "write_json"),
    ("serialize", "basis_from_json"),
    ("serialize", "basis_to_json"),
    ("serialize", "fan_to_json"),
    ("serialize", "povm_to_json"),
    ("serialize", "povm_from_json"),
    ("basis", "unitary_basis"),
    ("basis", "tag_at"),
    ("basis", "commutation_graph"),
    ("basis", "enumerate_mass"),
    ("basis", "fan_representation"),
    ("basis", "fan_system"),
    ("basis", "fan_invariant"),
    ("basis", "invariant_profile"),
    ("basis", "compare_ub"),
    ("basis", "hadamard_fan"),
    ("linalg", "unit_spectrum_angles"),
    ("linalg", "simul_diag"),
    ("linalg", "eig_normal"),
    ("linalg", "random_unitary"),
    ("combinatorics", "latin_twill"),
    ("combinatorics", "hadamard_twill"),
    ("tomography", "mass_eigenbasis"),
    ("tomography", "mub_from_partition"),
    ("tomography", "mub_unbiasedness_deviation"),
    ("tomography", "minimal_cover"),
    ("tomography", "crude_povm"),
    ("tomography", "refined_povm"),
    ("tomography", "make_povm"),
    ("tomography", "is_info_complete"),
    ("tomography", "reconstruct"),
    ("ppt", "build_ppt"),
    ("ppt", "blockwise_transpose_conjugation_residual"),
)


def _commutation_graph_counts(args, kwargs, result):
    tag = args[0]
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "numeric")
    n = len(tag.labels)
    counts = {"pairs": n * n}
    if mode == "numeric":
        # The n x n x d x d complex128 product tensor of the dense path (computed, not measured).
        counts["tensor_mb"] = n * n * tag.d * tag.d * 16 / 2**20
    return counts


def _fan_invariant_counts(args, kwargs, result):
    masses = args[1].masses
    return {"spectra": sum(map(len, masses)), "distinct_members": len(set(chain.from_iterable(masses)))}


# Exact counts taken from a call's arguments or result, by traced name.
COUNTERS = {
    "basis.commutation_graph": _commutation_graph_counts,
    "basis.enumerate_mass": lambda args, kwargs, result: {"masses": len(result.masses)},
    "basis.fan_invariant": _fan_invariant_counts,
    "tomography.minimal_cover": lambda args, kwargs, result: {"nodes": result.certificate["nodes_explored"]},
}


class Recorder:
    """In-memory spans plus per-name call counts, self times and counters.

    A span is ``(name, start, end, parent, cert)``: ``parent`` indexes the
    enclosing span (-1 at the root) and ``cert`` the certificate that issued it.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.certs: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self.library_s: dict[int, float] = defaultdict(float)  # cert -> time in top-level library spans
        self._stack: list[list] = []  # open spans: [index, name, start, child time]

    def _open(self, name: str) -> None:
        self._stack.append([len(self.spans), name, time.perf_counter(), 0.0])
        self.spans.append(None)

    def _close(self) -> None:
        index, name, start, child = self._stack.pop()
        end = time.perf_counter()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        self.spans[index] = (name, start, end, parent[0] if parent else -1, len(self.certs) - 1)
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if parent is not None:
            parent[3] += duration
            if len(self._stack) == 1:
                self.library_s[len(self.certs) - 1] += duration

    def begin_cert(self, cid: str, verb: str) -> None:
        """Open the root span of one certificate; library spans nest under it."""
        self.certs.append(cid)
        self._open(f"cert.{verb}")

    def end_cert(self) -> None:
        self._close()

    def wrap(self, name: str, func):
        counter = COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return traced


def write(path: str, recorders) -> None:
    """Write every recorder's spans, one list per recorder, as gzipped JSON."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "cert"],
                   "recorders": [{"certs": r.certs, "spans": r.spans} for r in recorders]}, fh)


def install(recorder: Recorder) -> list[tuple]:
    """Bind a traced wrapper wherever a fanweave namespace binds a TRACED function.

    Returns the replaced bindings for :func:`uninstall`.
    """
    modules = [m for key, m in sys.modules.items() if key == "fanweave" or key.startswith("fanweave.")]
    replaced = []
    for module_name, func_name in TRACED:
        original = getattr(sys.modules[f"fanweave.{module_name}"], func_name)
        traced = recorder.wrap(f"{module_name}.{func_name}", original)
        for module in modules:
            for attr in [a for a, value in vars(module).items() if value is original]:
                setattr(module, attr, traced)
                replaced.append((module, attr, original))
    return replaced


def uninstall(replaced: list[tuple]) -> None:
    for module, attr, original in replaced:
        setattr(module, attr, original)
