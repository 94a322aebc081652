import enum
import json
import random
import struct

import numpy as np
import pytest

import fanweave as fw
from fanweave import serialize as ser


class TestMatrixRoundTrip:
    def test_lossless_doubles(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        back = ser.matrix_from_json(json.loads(json.dumps(ser.matrix_to_json(m))))
        assert np.array_equal(back, m)

    def test_schema(self):
        obj = ser.matrix_to_json(np.eye(2))
        assert obj["dim"] == 2
        assert obj["entries"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]

    def test_rect_round_trip(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
        assert np.array_equal(ser.rect_from_json(ser.rect_to_json(m)), m)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            ser.matrix_from_json({"dim": 2, "entries": [[1.0, 0.0]]})


class TestCombinatorialRoundTrips:
    def test_latin(self):
        lam = fw.latin_from_group(fw.group_s3(), "f")
        back = ser.latin_from_json(json.loads(json.dumps(ser.latin_to_json(lam))))
        assert np.array_equal(back.table, lam.table)

    def test_group(self):
        g = fw.group_product(fw.group_cyclic(2), fw.group_cyclic(3))
        back = ser.group_from_json(json.loads(json.dumps(ser.group_to_json(g))))
        assert np.array_equal(back.cayley, g.cayley)
        assert back.identity == g.identity

    def test_hadamard_family_with_exponents(self):
        fam = fw.fourier_family(4)
        back = ser.hadamard_family_from_json(
            json.loads(json.dumps(ser.hadamard_family_to_json(fam)))
        )
        assert back.exact
        assert back.root_order == 4
        assert np.array_equal(back.exponents, fam.exponents)
        assert np.array_equal(back.matrices, fam.matrices)

    def test_hadamard_family_float_only(self):
        fam = fw.hadamard_family(fw.fourier_family(3).matrices)
        back = ser.hadamard_family_from_json(
            json.loads(json.dumps(ser.hadamard_family_to_json(fam)))
        )
        assert not back.exact


class TestBasisRoundTrip:
    def test_weyl_with_provenance(self, weyl):
        basis = weyl(3)
        back = ser.basis_from_json(json.loads(json.dumps(ser.basis_to_json(basis))))
        assert back.labels == basis.labels
        for x in basis.labels:
            assert np.array_equal(back.operators[x], basis.operators[x])
        assert back.provenance.kind == "weyl"
        assert back.provenance.hadamard.exact
        # exactness survives: the exact twill graph is still available
        fan = fw.fan_representation(back, "0,0", mode="exact-twill")
        assert len(fan.masses) == 4

    def test_pauli2(self, pauli2):
        back = ser.basis_from_json(json.loads(json.dumps(ser.basis_to_json(pauli2))))
        assert back.labels == pauli2.labels
        assert back.provenance.latin is None


class TestFanAndArtifacts:
    def test_fan_round_trip(self, weyl):
        fan = fw.fan_representation(weyl(4), "0,0")
        back = ser.fan_from_json(json.loads(json.dumps(ser.fan_to_json(fan))))
        assert back.masses == fan.masses
        assert back.universe == fan.universe

    def test_fan_dot_structure(self, weyl):
        fan = fw.fan_representation(weyl(3), "0,0")
        dot = ser.fan_to_dot(fan)
        assert dot.startswith("graph fan {")
        assert "M0 [shape=box];" in dot
        assert '"0,1" [shape=circle];' in dot
        for k, mass in enumerate(fan.masses):
            for x in mass:
                assert f'M{k} -- "{x}";' in dot

    @pytest.mark.parametrize("obj, message", [
        ({"universe": ["a", "a"], "masses": [["a", "z"]]}, r"fan universe repeats labels: \['a'\]"),
        ({"universe": ["a", "b"], "masses": [["a", "z"]]}, "MASS label 'z' is not in the fan universe"),
    ], ids=["repeated-label", "outside-label"])
    def test_malformed_fan_refused(self, obj, message):
        with pytest.raises(ValueError, match=message):
            ser.fan_from_json(obj)

    def test_povm_round_trip(self, weyl):
        tag = fw.tag_at(weyl(3), "0,0")
        fan = fw.fan_representation(weyl(3), "0,0")
        povm = fw.crude_povm(tag, fw.minimal_cover(fan))
        back = ser.povm_from_json(json.loads(json.dumps(ser.povm_to_json(povm))))
        assert back.pure_flags == povm.pure_flags
        for a, b in zip(back.elements, povm.elements):
            assert np.array_equal(a, b)

    def test_certificate_json(self):
        cert = fw.build_ppt(2, rng_seed=3)
        obj = json.loads(json.dumps(ser.certificate_to_json(cert)))
        assert obj["n"] == 2
        assert obj["block_half_dim"] == 2
        back = ser.matrix_from_json(obj["matrix"])
        assert np.array_equal(back, cert.matrix)

    def test_mub_json(self, weyl):
        tag = fw.tag_at(weyl(3), "0,0")
        fan = fw.fan_representation(weyl(3), "0,0")
        system = fw.mub_from_partition(tag, fan.masses)
        obj = json.loads(json.dumps(ser.mub_to_json(system)))
        assert obj["d"] == 3
        assert len(obj["bases"]) == 4

    def test_dumps_is_deterministic(self, weyl):
        basis = weyl(3)
        assert ser.dumps(ser.basis_to_json(basis)) == ser.dumps(ser.basis_to_json(fw.build_weyl(3)))


# ---------------------------------------------------------------------------
# dumps gives the bytes of json.dumps(obj, indent=2) + "\n"

NAN = float("nan")


class Level(enum.IntEnum):
    HIGH = 7


SCALARS = [
    NAN, float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1, 2.0**63,
    np.float64(2.5), np.float64("nan"), np.float64("-inf"),
    True, False, None, 0, -1, 2**63, -(2**64) - 1, 10**30, Level.HIGH,
    "", "plain", "é漢😀", "\x00\x1f\n\t\"\\/", "\u2028\x7f",
]
KEYS = ["", "k", "é", "\x07", 0, -3, 2**65, Level.HIGH, 1.5, -0.0, float("inf"), NAN, True, False, None]
SPOILERS = [NAN, float("-inf"), 3, True, None, np.float64(0.5), [0.5, 0.5, 0.5], [0.5], (0.5, 0.5), "0.5"]


def _random_double(rng):
    """Any bit pattern: normals, subnormals, zeros of both signs, and now and then a NaN or an infinity."""
    return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]


def _random_value(rng, depth=0):
    kind = rng.randrange(6) if depth < 4 else rng.randrange(2)
    if kind == 0:
        return rng.choice(SCALARS)
    if kind == 1:
        return _random_double(rng) if rng.random() < 0.5 else rng.uniform(-1.0, 1.0)
    if kind == 2:
        items = [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
        return items if rng.random() < 0.7 else tuple(items)
    if kind == 3:
        return {rng.choice(KEYS): _random_value(rng, depth + 1) for _ in range(rng.randrange(4))}
    # a pair list, the encoder's fast path, now and then spoiled by one item
    pairs = [[rng.uniform(-1.0, 1.0), _random_double(rng)] for _ in range(rng.randrange(1, 6))]
    if rng.random() < 0.4:
        k = rng.randrange(len(pairs))
        spoiler = rng.choice(SPOILERS)
        if isinstance(spoiler, (list, tuple)):
            pairs[k] = spoiler
        else:
            pairs[k][rng.randrange(2)] = spoiler
    return pairs


def _reference(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


class TestDumpsMatchesJson:
    def test_random_nested_values(self):
        rng = random.Random(2024)
        for _ in range(3000):
            obj = _random_value(rng)
            assert ser.dumps(obj) == _reference(obj), obj

    def test_pair_lists(self):
        good = [[0.1, -0.0], [5e-324, 1e16], [-1.5, 2.0**-1074]]
        assert ser.dumps(good) == _reference(good)
        assert ser.dumps({"entries": good}) == _reference({"entries": good})
        for spoiler in SPOILERS:
            for k in range(2):
                spoiled = [list(p) for p in good]
                spoiled[1][k] = spoiler
                assert ser.dumps(spoiled) == _reference(spoiled), spoiled
            replaced = [good[0], spoiler, good[2]]
            assert ser.dumps(replaced) == _reference(replaced), replaced

    @pytest.mark.parametrize("obj", [
        *SCALARS, [], {}, (), [[]], {"a": {}}, [(), [[]]],
        {key: [key] for key in KEYS}, {1: "a", "1": "b"},
    ])
    def test_fixed_values(self, obj):
        assert ser.dumps(obj) == _reference(obj)

    @pytest.mark.parametrize("obj", [{1, 2}, np.int64(3), [np.int64(3)], {"a": [0.5, {2}]}, [[0.5, np.int64(1)]]])
    def test_unsupported_value_raises_type_error(self, obj):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            ser.dumps(obj)
        with pytest.raises(TypeError):
            _reference(obj)

    def test_unsupported_key_raises_type_error(self):
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None, not tuple"):
            ser.dumps({(1, 2): 0})

    @pytest.mark.parametrize("name", ["weyl12", "weyl6-crude-povm", "hadamard-fan", "mub", "ppt"])
    def test_real_artifacts(self, name, weyl):
        if name == "weyl12":
            obj = ser.basis_to_json(weyl(12))
            assert obj["provenance"]["hadamard"]["exponents"]
        elif name == "weyl6-crude-povm":
            tag, fan = fw.tag_at(weyl(6), "0,0"), fw.fan_representation(weyl(6), "0,0")
            obj = ser.povm_to_json(fw.crude_povm(tag, fw.minimal_cover(fan)))
        elif name == "hadamard-fan":
            tag, fan = fw.tag_at(weyl(4), "0,0"), fw.fan_representation(weyl(4), "0,0")
            obj = ser.hadamard_fan_to_json(fw.hadamard_fan(tag, fan, rng_seed=1), 1)
        elif name == "mub":
            tag, fan = fw.tag_at(weyl(5), "0,0"), fw.fan_representation(weyl(5), "0,0")
            obj = ser.mub_to_json(fw.mub_from_partition(tag, fan.masses))
        else:
            obj = ser.certificate_to_json(fw.build_ppt(3, rng_seed=4))
        assert ser.dumps(obj) == _reference(obj)
