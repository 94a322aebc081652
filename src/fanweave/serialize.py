"""JSON encodings for every artifact type, plus DOT export of fans.

Complex scalars are serialized as [re, im] pairs; floats go through Python's
shortest-round-trip repr, so writing and re-reading a file reproduces the
doubles bit for bit and identical inputs give byte-identical files.  Loaders
check the shape of what they read and raise ``ValueError`` naming the field.

``dumps`` (and so ``write_json`` and the CLI's ``--format json`` report) gives
exactly the text of ``json.dumps(obj, indent=2) + "\n"``, which with any
indent runs json's pure-Python encoder one generator step per value.  A list
whose items are all ``[float, float]`` lists of exact, finite ``float``s (the
``entries`` of every matrix) is rendered by one %-format of a repeated pair
template; any other value, a NaN or an ``np.float64`` in a pair included,
follows json's rules one value at a time.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import inf, isfinite

import numpy as np

from .basis import Fan, HadamardFan, Provenance, UnitaryBasis, unitary_basis
from .combinatorics import (
    FiniteGroup,
    HadamardFamily,
    LatinSquare,
    group_from_cayley,
    hadamard_family,
    latin_square,
)
from .ppt import PptCertificate
from .tomography import MubSystem, Povm, make_povm


# ---------------------------------------------------------------------------
# schema checks


def _get(obj, key: str, kind: type, where: str = ""):
    """``obj[key]``, checked to be a JSON ``kind``; ValueError names the field otherwise."""
    field = f"{where}.{key}" if where else key
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing field {field!r}")
    if not isinstance(obj[key], kind) or isinstance(obj[key], bool):
        raise ValueError(f"field {field!r} must be of type {kind.__name__}, got {type(obj[key]).__name__}")
    return obj[key]


def _array(value: list, dtype: type, field: str) -> np.ndarray:
    try:
        return np.array(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"field {field!r} must be an array of numbers") from None


def _complex_entries(obj, count: int) -> np.ndarray:
    pairs = _array(_get(obj, "entries", list), float, "entries")
    if pairs.shape != (count, 2):
        raise ValueError(f"field 'entries' must hold {count} [re, im] pairs, got shape {pairs.shape}")
    return pairs.view(complex).reshape(-1)


# ---------------------------------------------------------------------------
# matrices


def _entries(m: np.ndarray) -> list:
    return np.ascontiguousarray(m).view(float).reshape(-1, 2).tolist()


def matrix_to_json(a) -> dict:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return {"dim": int(m.shape[0]), "entries": _entries(m)}


def matrix_from_json(obj) -> np.ndarray:
    d = _get(obj, "dim", int)
    return _complex_entries(obj, d * d).reshape(d, d)


def rect_to_json(a) -> dict:
    """Rectangular complex array encoding (partial Hadamard rows, etc.)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": _entries(m),
    }


def rect_from_json(obj) -> np.ndarray:
    rows, cols = _get(obj, "rows", int), _get(obj, "cols", int)
    return _complex_entries(obj, rows * cols).reshape(rows, cols)


# ---------------------------------------------------------------------------
# combinatorial objects


def latin_to_json(lam: LatinSquare) -> dict:
    return {"size": lam.size, "table": lam.table.tolist()}


def latin_from_json(obj) -> LatinSquare:
    return latin_square(_array(_get(obj, "table", list), int, "table"))


def group_to_json(group: FiniteGroup) -> dict:
    return {"order": group.order, "cayley": group.cayley.tolist()}


def group_from_json(obj) -> FiniteGroup:
    return group_from_cayley(_array(_get(obj, "cayley", list), int, "cayley"))


def hadamard_family_to_json(fam: HadamardFamily) -> dict:
    out: dict = {
        "d": fam.d,
        "matrices": {str(n): matrix_to_json(fam.matrices[n]) for n in range(fam.d)},
    }
    if fam.exact:
        out["root_order"] = int(fam.root_order)
        out["exponents"] = {str(n): fam.exponents[n].tolist() for n in range(fam.d)}
    return out


def hadamard_family_from_json(obj) -> HadamardFamily:
    d = _get(obj, "d", int)
    matrices = _get(obj, "matrices", dict)
    mats = np.stack([matrix_from_json(_get(matrices, str(n), dict, "matrices")) for n in range(d)])
    root_order = exponents = None
    if obj.get("root_order") is not None:
        root_order = _get(obj, "root_order", int)
        table = _get(obj, "exponents", dict)
        exponents = np.stack([
            _array(_get(table, str(n), list, "exponents"), int, f"exponents.{n}") for n in range(d)
        ])
    return hadamard_family(mats, root_order=root_order, exponents=exponents)


# ---------------------------------------------------------------------------
# bases and fans


def _provenance_to_json(prov: Provenance) -> dict:
    return {
        "kind": prov.kind,
        "params": prov.params,
        "latin": None if prov.latin is None else latin_to_json(prov.latin),
        "hadamard": None if prov.hadamard is None else hadamard_family_to_json(prov.hadamard),
    }


def _provenance_from_json(obj) -> Provenance:
    return Provenance(
        kind=_get(obj, "kind", str, "provenance"),
        params=dict(_get(obj, "params", dict, "provenance") if obj.get("params") else {}),
        latin=None if obj.get("latin") is None else latin_from_json(obj["latin"]),
        hadamard=None if obj.get("hadamard") is None else hadamard_family_from_json(obj["hadamard"]),
    )


def basis_to_json(basis: UnitaryBasis) -> dict:
    return {
        "d": basis.d,
        "labels": list(basis.labels),
        "operators": {x: matrix_to_json(basis.operators[x]) for x in basis.labels},
        "provenance": _provenance_to_json(basis.provenance),
    }


def basis_from_json(obj) -> UnitaryBasis:
    labels = [str(x) for x in _get(obj, "labels", list)]
    operators = _get(obj, "operators", dict)
    ops = {x: matrix_from_json(_get(operators, x, dict, "operators")) for x in labels}
    return unitary_basis(labels, ops, _provenance_from_json(_get(obj, "provenance", dict)))


def fan_to_json(fan: Fan) -> dict:
    return {"universe": list(fan.universe), "masses": [list(m) for m in fan.masses]}


def fan_from_json(obj) -> Fan:
    masses = _get(obj, "masses", list)
    if not all(isinstance(m, list) for m in masses):
        raise ValueError("field 'masses' must be an array of label arrays")
    fan = Fan(
        universe=tuple(str(x) for x in _get(obj, "universe", list)),
        masses=tuple(tuple(str(x) for x in m) for m in masses),
    )
    fan.masks  # raises ValueError on a repeated universe label or a MASS label outside the universe
    return fan


def fan_to_dot(fan: Fan) -> str:
    """Bipartite membership graph: box nodes M<k> for MASSes, circles for labels."""
    lines = ["graph fan {"]
    for k in range(len(fan.masses)):
        lines.append(f'  M{k} [shape=box];')
    for x in fan.universe:
        lines.append(f'  "{x}" [shape=circle];')
    for k, mass in enumerate(fan.masses):
        for x in mass:
            lines.append(f'  M{k} -- "{x}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# tomography and PPT artifacts


def povm_to_json(povm: Povm) -> dict:
    return {
        "d": povm.d,
        "elements": [matrix_to_json(e) for e in povm.elements],
        "pure_flags": list(povm.pure_flags),
    }


def povm_from_json(obj) -> Povm:
    d = _get(obj, "d", int)
    elements = _get(obj, "elements", list)
    return make_povm(d, [matrix_from_json(e) for e in elements])


def mub_to_json(mub: MubSystem) -> dict:
    return {
        "d": mub.d,
        "bases": [matrix_to_json(b) for b in mub.bases],
        "source": [list(m) for m in mub.source],
    }


def hadamard_fan_to_json(hfan: HadamardFan, seed: int) -> dict:
    return {
        "d": hfan.d,
        "seed": seed,
        "masses": [
            {
                "mass": list(entry.mass),
                "diagonalizer": matrix_to_json(entry.diagonalizer),
                "rows": rect_to_json(entry.rows),
                "augmented": rect_to_json(entry.augmented),
            }
            for entry in hfan.entries
        ],
    }


def certificate_to_json(cert: PptCertificate) -> dict:
    return {
        "n": cert.n,
        "block_half_dim": cert.block_half_dim,
        "shift_a": cert.shift_a,
        "lambda_min": cert.lambda_min,
        "lambda_min_pt": cert.lambda_min_pt,
        "matrix": matrix_to_json(cert.matrix),
    }


# ---------------------------------------------------------------------------
# file helpers


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, byte for byte, without json's pure-Python indent encoder."""
    chunks: list[str] = []
    _encode(obj, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _encode(o, nl: str, put) -> None:
    """Append the text of ``o`` through ``put``; ``nl`` is a newline plus the indent of ``o``'s level."""
    if isinstance(o, str):
        put(encode_basestring_ascii(o))
    elif o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif isinstance(o, int):
        put(int.__repr__(o))
    elif isinstance(o, float):
        put(_float(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        inner = nl + "  "
        pairs = _pair_block(o, inner)
        if pairs is not None:
            put("[" + inner + pairs)
        else:
            sep = "[" + inner
            for item in o:
                put(sep)
                _encode(item, inner, put)
                sep = "," + inner
        put(nl + "]")
    elif isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in o.items():
            put(sep + encode_basestring_ascii(_key(key)) + ": ")
            _encode(value, inner, put)
            sep = "," + inner
        put(nl + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _pair_block(items, nl: str) -> str | None:
    """The items of a list of finite ``[float, float]`` pairs in one %-format, or None for any other list."""
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return None
    flat = tuple(chain.from_iterable(items))
    if set(map(type, flat)) != {float} or not all(map(isfinite, flat)):
        return None
    inner = nl + "  "
    return ("," + nl).join([f"[{inner}%r,{inner}%r{nl}]"] * len(items)) % flat


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == inf:
        return "Infinity"
    if x == -inf:
        return "-Infinity"
    return float.__repr__(x)


def _key(key) -> str:
    """A dict key as json writes it: str as is; float, bool, None and int converted."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
