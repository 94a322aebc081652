import copy
import json
import pathlib
import shlex

import numpy as np
import pytest
from click.testing import CliRunner

import fanweave as fw
from fanweave import serialize as ser
from fanweave import tomography as tomo
from fanweave.cli import main
from fanweave.linalg import gram_deviation

from helpers import transformed_basis


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    return result


def write_basis(path, basis):
    ser.write_json(str(path), ser.basis_to_json(basis))


class TestConstruct:
    def test_weyl6(self, runner, tmp_path):
        out = tmp_path / "weyl6.json"
        result = invoke(runner, ["--out", str(out), "construct", "--kind", "weyl", "--d", "6"])
        assert result.exit_code == 0
        obj = ser.read_json(str(out))
        assert len(obj["labels"]) == 36
        assert "gram_check_max_deviation" in result.output

    @pytest.mark.parametrize("kind_args", [
        ["--kind", "weyl", "--d", "5"],
        ["--kind", "shift-multiply", "--group", "s3", "--variant", "f"],
    ], ids=["weyl5", "s3-f"])
    def test_reported_gram_deviation_is_the_basis_gram(self, runner, tmp_path, kind_args):
        out = tmp_path / "basis.json"
        result = invoke(runner, ["--format", "json", "--out", str(out), "construct", *kind_args])
        assert result.exit_code == 0
        basis = ser.basis_from_json(ser.read_json(str(out)))
        n, d = len(basis.labels), basis.d
        stack = np.stack([basis.operators[x] for x in basis.labels])
        expected = float(gram_deviation(stack.reshape(n, d * d), d).max())
        assert json.loads(result.output)["gram_check_max_deviation"] == expected

    def test_s3_shift_multiply(self, runner, tmp_path):
        out = tmp_path / "s3.json"
        result = invoke(runner, [
            "--out", str(out), "construct", "--kind", "shift-multiply",
            "--group", "s3", "--variant", "e", "--hadamard", "fourier",
        ])
        assert result.exit_code == 0
        basis = ser.basis_from_json(ser.read_json(str(out)))
        fan = fw.fan_representation(basis, "0,0")
        assert sorted(len(m) for m in fan.masses) == [1] * 18 + [5] * 4

    def test_pauli2(self, runner, tmp_path):
        out = tmp_path / "pauli2.json"
        result = invoke(runner, ["--out", str(out), "construct", "--kind", "pauli2"])
        assert result.exit_code == 0
        assert len(ser.read_json(str(out))["labels"]) == 16

    def test_product_group(self, runner, tmp_path):
        out = tmp_path / "z2z2.json"
        result = invoke(runner, [
            "--out", str(out), "construct", "--kind", "shift-multiply", "--group", "z2xz2",
        ])
        assert result.exit_code == 0
        assert ser.read_json(str(out))["d"] == 4

    def test_missing_arguments(self, runner):
        result = invoke(runner, ["construct", "--kind", "weyl"])
        assert result.exit_code == 2

    def test_byte_identical_reruns(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        invoke(runner, ["--out", str(out1), "construct", "--kind", "weyl", "--d", "4"])
        invoke(runner, ["--out", str(out2), "construct", "--kind", "weyl", "--d", "4"])
        assert out1.read_bytes() == out2.read_bytes()


class TestFans:
    def test_weyl4_report(self, runner, tmp_path, weyl):
        path = tmp_path / "weyl4.json"
        write_basis(path, weyl(4))
        out = tmp_path / "fan.json"
        dot = tmp_path / "fan.dot"
        result = invoke(runner, [
            "--out", str(out), "fans", str(path), "--tag", "0,0", "--dot", str(dot),
        ])
        assert result.exit_code == 0
        assert "mass_count: 7" in result.output
        assert "'0,2': 3" in result.output and "'2,0': 3" in result.output
        fan = ser.fan_from_json(ser.read_json(str(out)))
        assert len(fan.masses) == 7
        assert dot.read_text().startswith("graph fan {")

    def test_untagged(self, runner, tmp_path, z3f_basis):
        path = tmp_path / "z3f.json"
        write_basis(path, z3f_basis)
        result = invoke(runner, ["fans", str(path), "--untagged"])
        assert result.exit_code == 0
        assert "mass_count: 9" in result.output

    def test_all_tags(self, runner, tmp_path, weyl):
        path = tmp_path / "weyl3.json"
        write_basis(path, weyl(3))
        out = tmp_path / "fans.json"
        result = invoke(runner, ["--out", str(out), "fans", str(path), "--all-tags"])
        assert result.exit_code == 0
        obj = ser.read_json(str(out))
        assert len(obj["fans"]) == 9

    def test_bad_tag_exits_2(self, runner, tmp_path, weyl):
        path = tmp_path / "weyl3.json"
        write_basis(path, weyl(3))
        result = runner.invoke(main, ["fans", str(path), "--tag", "9,9"])
        assert result.exit_code == 2

    def test_dot_with_all_tags_rejected(self, runner, tmp_path, weyl):
        path = tmp_path / "weyl3.json"
        write_basis(path, weyl(3))
        result = runner.invoke(main, [
            "fans", str(path), "--all-tags", "--dot", str(tmp_path / "x.dot"),
        ])
        assert result.exit_code == 2

    def test_exact_mode(self, runner, tmp_path, weyl):
        path = tmp_path / "weyl4.json"
        write_basis(path, weyl(4))
        result = invoke(runner, ["fans", str(path), "--tag", "0,0", "--mode", "exact-twill"])
        assert result.exit_code == 0
        assert "mass_count: 7" in result.output

    def test_forged_provenance_refused_in_exact_mode(self, runner, tmp_path, weyl):
        doc = ser.basis_to_json(weyl(4))
        doc["operators"]["0,1"], doc["operators"]["1,0"] = doc["operators"]["1,0"], doc["operators"]["0,1"]
        path = tmp_path / "forged.json"
        ser.write_json(str(path), doc)
        result = runner.invoke(main, ["fans", str(path), "--tag", "0,0", "--mode", "exact-twill"])
        assert result.exit_code == 2
        assert result.output.startswith("error: mode 'exact-twill': provenance does not match operator")
        result = invoke(runner, ["fans", str(path), "--tag", "0,0"])
        assert result.exit_code == 0
        assert "mass_count: 7" in result.output

    @pytest.mark.parametrize("scope, mode", [(["--untagged"], "exact-crisscross"), (["--tag", "0,0"], "exact-twill")])
    def test_forged_provenance_refused_under_loose_tol(self, runner, tmp_path, weyl, scope, mode):
        doc = ser.basis_to_json(weyl(4))
        doc["operators"]["0,1"], doc["operators"]["1,0"] = doc["operators"]["1,0"], doc["operators"]["0,1"]
        path = tmp_path / "forged.json"
        ser.write_json(str(path), doc)
        result = runner.invoke(main, ["--tol", "commutation=3", "fans", str(path), *scope, "--mode", mode])
        assert result.exit_code == 2
        assert result.output.startswith(f"error: mode '{mode}': provenance does not match operator")

    def test_fan_artifact_byte_identical(self, runner, tmp_path, weyl):
        path = tmp_path / "weyl4.json"
        write_basis(path, weyl(4))
        out1, out2 = tmp_path / "f1.json", tmp_path / "f2.json"
        invoke(runner, ["--out", str(out1), "fans", str(path), "--tag", "0,0"])
        invoke(runner, ["--out", str(out2), "fans", str(path), "--tag", "0,0"])
        assert out1.read_bytes() == out2.read_bytes()


class TestCompare:
    def test_inequivalent_exit_3(self, runner, tmp_path, weyl, pauli2):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_basis(a, weyl(4))
        write_basis(b, pauli2)
        result = runner.invoke(main, ["compare", str(a), str(b)])
        assert result.exit_code == 3
        assert "INEQUIVALENT" in result.output

    def test_not_distinguished_exit_0(self, runner, tmp_path, weyl):
        rng = np.random.default_rng(3)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_basis(a, weyl(3))
        write_basis(b, transformed_basis(weyl(3), rng))
        result = runner.invoke(main, ["compare", str(a), str(b), "--variant", "pcue"])
        assert result.exit_code == 0
        assert "NOT-DISTINGUISHED" in result.output


class TestMubPovmPpt:
    def test_mub_weyl3(self, runner, tmp_path, weyl):
        path = tmp_path / "weyl3.json"
        write_basis(path, weyl(3))
        out = tmp_path / "mub.json"
        result = invoke(runner, ["--out", str(out), "mub", str(path), "--tag", "0,0"])
        assert result.exit_code == 0
        assert "bases: 4" in result.output
        assert len(ser.read_json(str(out))["bases"]) == 4

    def test_mub_fails_on_non_partition(self, runner, tmp_path, weyl):
        path = tmp_path / "weyl4.json"
        write_basis(path, weyl(4))
        result = runner.invoke(main, ["mub", str(path), "--tag", "0,0"])
        assert result.exit_code == 2

    def test_povm_crude_weyl6(self, runner, tmp_path, weyl):
        path = tmp_path / "weyl6.json"
        write_basis(path, weyl(6))
        result = invoke(runner, ["povm", str(path), "--tag", "0,0", "--strategy", "crude"])
        assert result.exit_code == 0
        assert "outcomes: 61" in result.output
        assert "complete: True" in result.output

    def test_povm_refined_weyl4(self, runner, tmp_path, weyl):
        path = tmp_path / "weyl4.json"
        write_basis(path, weyl(4))
        out = tmp_path / "povm.json"
        result = invoke(runner, [
            "--format", "json", "--out", str(out),
            "povm", str(path), "--tag", "0,0", "--strategy", "refined", "--hub", "2,2",
        ])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["outcomes"] == 16
        assert report["pure_outcomes"] == 15
        assert report["rank"] == 16
        povm = ser.povm_from_json(ser.read_json(str(out)))
        assert len(povm) == 16

    def test_povm_s3xz2_largest_cover(self, runner, tmp_path, s3xz2_basis):
        path = tmp_path / "s3xz2.json"
        write_basis(path, s3xz2_basis)
        result = invoke(runner, ["--format", "json", "povm", str(path), "--tag", "0,0"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        summary = (report["outcomes"], report["cover_size"], report["complete"], report["rank"])
        assert summary == (914, 83, True, 144)
        cover = fw.minimal_cover(fw.fan_representation(s3xz2_basis, "0,0"))
        assert cover.certificate["nodes_explored"] <= 100

    def test_povm_over_cover_budget_exits_2(self, runner, tmp_path, pauli2, monkeypatch):
        path = tmp_path / "pauli2.json"
        write_basis(path, pauli2)
        # the 15 MASSes of a pauli2 tag survive both reductions, so the search explores 19 nodes
        monkeypatch.setattr(tomo, "_COVER_NODE_BUDGET", 10)
        result = runner.invoke(main, ["povm", str(path), "--tag", "I,I"])
        assert result.exit_code == 2
        assert result.output.startswith("error: minimal cover search over a fan of 15 MASSes")
        assert "10 nodes explored" in result.output

    def test_povm_artifact_and_report_in_json_indent_2(self, runner, tmp_path, weyl):
        # doubles round-trip exactly, so re-encoding with json pins the bytes on disk and on stdout
        write_basis(tmp_path / "weyl4.json", weyl(4))
        out = tmp_path / "p.json"
        result = invoke(runner, [
            "--format", "json", "--out", str(out), "povm", str(tmp_path / "weyl4.json"), "--tag", "0,0",
        ])
        assert result.exit_code == 0
        text = out.read_text(encoding="utf-8")
        assert len(json.loads(text)["elements"]) == 19
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert result.output == json.dumps(json.loads(result.output), indent=2) + "\n"

    def test_ppt(self, runner, tmp_path):
        out = tmp_path / "cert.json"
        result = invoke(runner, ["--seed", "7", "--out", str(out), "ppt", "--n", "3"])
        assert result.exit_code == 0
        assert "seed: 7" in result.output
        obj = ser.read_json(str(out))
        assert obj["lambda_min_pt"] >= -1e-10

    def test_hadamard_fan(self, runner, tmp_path, weyl):
        path = tmp_path / "weyl3.json"
        write_basis(path, weyl(3))
        out = tmp_path / "hfan.json"
        result = invoke(runner, ["--out", str(out), "hadamard-fan", str(path), "--tag", "0,0"])
        assert result.exit_code == 0
        obj = ser.read_json(str(out))
        assert len(obj["masses"]) == 4
        aug = ser.rect_from_json(obj["masses"][0]["augmented"])
        assert fw.is_partial_hadamard(aug)


def readme_cli_commands():
    """The command lines of the ``sh`` block under ``## CLI`` in README.md, without comments."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


def test_readme_commands(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_cli_commands()
    assert len(commands) >= 9 and all(args[0] == "fanweave" for args in commands)
    for args in commands:
        result = runner.invoke(main, args[1:])
        verb = next(a for a in args[1:] if a in main.commands)
        assert result.exit_code == {"compare": 3, "mub": 2}.get(verb, 0), (args, result.output)


class TestGlobalFlags:
    def test_seed_echoed(self, runner, tmp_path):
        result = invoke(runner, ["--seed", "42", "ppt", "--n", "2"])
        assert "seed: 42" in result.output

    def test_env_seed_fallback(self, runner):
        result = runner.invoke(main, ["ppt", "--n", "2"], env={"FANWEAVE_SEED": "11"})
        assert "seed: 11" in result.output

    def test_unknown_tolerance_rejected(self, runner):
        result = runner.invoke(main, ["--tol", "nonsense=1e-3", "ppt", "--n", "2"])
        assert result.exit_code == 2
        assert "unknown tolerance" in result.output

    def test_tolerance_override_applies_and_restores(self, runner, tmp_path, weyl):
        path = tmp_path / "weyl3.json"
        write_basis(path, weyl(3))
        before = fw.DEFAULT_TOLS.commutation
        result = invoke(runner, ["--tol", "commutation=1e-3", "fans", str(path), "--tag", "0,0"])
        assert result.exit_code == 0
        assert fw.DEFAULT_TOLS.commutation == before

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_value_rejected(self, runner, tmp_path, weyl, value):
        path = tmp_path / "weyl4.json"
        write_basis(path, weyl(4))
        result = runner.invoke(main, ["--tol", f"commutation={value}", "fans", str(path), "--tag", "0,0"])
        assert result.exit_code == 2
        assert "error: tolerance 'commutation' must be finite and positive" in result.output

    def test_tolerance_override_changes_the_result(self, runner, tmp_path, weyl):
        path = tmp_path / "weyl4.json"
        write_basis(path, weyl(4))
        # ||AB - BA||_F <= 2 sqrt(d) = 4 for unitaries, so every pair commutes within 10
        result = invoke(runner, ["--tol", "commutation=10", "fans", str(path), "--tag", "0,0"])
        assert "mass_count: 1\n" in result.output
        assert "mass_count: 7\n" in invoke(runner, ["fans", str(path), "--tag", "0,0"]).output

    def test_loose_commutation_tolerance_keeps_dense_bases_dense(self, runner, tmp_path, weyl):
        # a loose --tol leaves a conjugated basis on the dense path; at 10 every pair commutes
        conj = transformed_basis(weyl(4), np.random.default_rng(5))
        with fw.tolerances(commutation=10):
            assert ser.basis_from_json(ser.basis_to_json(conj)).form is None
        path = tmp_path / "conj-weyl4.json"
        write_basis(path, conj)
        result = invoke(runner, ["--tol", "commutation=10", "fans", str(path), "--tag", "t0"])
        assert result.output == (
            "seed: 0\nscope: tag t0\nmass_count: 1\nsize_multiset: [15]\noverlap_degrees: {}\n"
        )

    def test_psd_tolerance_reaches_ppt(self, runner):
        # a shift 5e-13 below the minimal one leaves lambda_min at about -5e-13
        shift = fw.build_ppt(2, rng_seed=0).shift_a - 5e-13
        args = ["ppt", "--n", "2", "--shift", repr(shift)]
        assert invoke(runner, args).exit_code == 0
        result = runner.invoke(main, ["--tol", "psd=1e-13", *args])
        assert result.exit_code == 2
        assert "error: PPT certificate failed" in result.output

    def test_json_format(self, runner):
        result = invoke(runner, ["--format", "json", "ppt", "--n", "2"])
        report = json.loads(result.output)
        assert report["seed"] == 0


# Values that change a JSON node's type; a mutation replaces a node with one of
# another type or drops a key.
_REPLACEMENTS = (None, True, 0, -3, 1.5, "x", [], [1, 2], {}, {"a": 1}, [[1.0, 0.0]])


def mutate(doc, rng):
    """A copy of ``doc`` with one randomly chosen node dropped or retyped."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and (parent is None or rng.random() < 0.75):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = keys[rng.integers(len(keys))]
        parent, node = node, node[key]
    if isinstance(parent, dict) and rng.random() < 0.5:
        del parent[key]
    else:
        choices = [r for r in _REPLACEMENTS if type(r) is not type(node)]
        parent[key] = copy.deepcopy(choices[rng.integers(len(choices))])
    return doc


@pytest.mark.parametrize("args", [
    ["construct", "--kind", "shift-multiply", "--group", "s3", "--hadamard", "{tmp}/missing.json"],
    ["--out", "{tmp}/missing/x.json", "construct", "--kind", "weyl", "--d", "3"],
    ["fans", "{tmp}/weyl4.json", "--tag", "0,0", "--dot", "{tmp}/missing/x.dot"],
])
def test_io_errors_exit_2(runner, tmp_path, weyl, args):
    write_basis(tmp_path / "weyl4.json", weyl(4))
    result = runner.invoke(main, [a.format(tmp=tmp_path) for a in args])
    assert result.exit_code == 2
    assert result.output.startswith("error: ") and "No such file or directory" in result.output


class TestMalformedBasisJson:
    @pytest.mark.parametrize("args", [["compare", "{path}", "{path}"], ["fans", "{path}", "--tag", "a"],
                                      ["fans", "{path}", "--all-tags"]])
    def test_dimension_one_refused(self, runner, tmp_path, args):
        path = tmp_path / "d1.json"
        doc = {"d": 1, "labels": ["a"], "operators": {"a": ser.matrix_to_json(np.eye(1))}, "provenance": {"kind": "x"}}
        ser.write_json(str(path), doc)
        result = runner.invoke(main, [a.format(path=path) for a in args])
        assert result.exit_code == 2
        assert result.output == (
            f"error: cannot load unitary basis from {path}: a unitary basis needs dimension d >= 2, got d = 1\n"
        )

    @pytest.mark.parametrize("text, field", [
        ('{"labels": 5}', "'labels' must be of type list"),
        ("[1, 2, 3]", "missing field 'labels'"),
        ("not a pair", "field 'entries' must be an array of numbers"),
    ])
    def test_rejected_with_exit_2(self, runner, tmp_path, weyl, text, field):
        if text == "not a pair":
            doc = ser.basis_to_json(weyl(2))
            doc["operators"]["0,0"]["entries"][1] = 5
            text = json.dumps(doc)
        path = tmp_path / "bad.json"
        path.write_text(text)
        result = runner.invoke(main, ["fans", str(path), "--tag", "0,0"])
        assert result.exit_code == 2
        assert f"error: cannot load unitary basis from {path}:" in result.output
        assert field in result.output

    @pytest.mark.parametrize("basis_name", ["weyl3", "pauli2"])
    def test_seeded_mutations_never_crash(self, runner, tmp_path, weyl, pauli2, basis_name):
        basis = weyl(3) if basis_name == "weyl3" else pauli2
        doc = ser.basis_to_json(basis)
        path = tmp_path / "mutant.json"
        rng = np.random.default_rng(7)
        outcomes = set()
        for _ in range(150):
            path.write_text(json.dumps(mutate(doc, rng)))
            result = runner.invoke(main, ["fans", str(path), "--tag", basis.labels[0]])
            assert result.exit_code in (0, 2), result.output
            if result.exit_code == 2:
                assert result.output.startswith("error: ")
            outcomes.add(result.exit_code)
        assert outcomes == {0, 2}
