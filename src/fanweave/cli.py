"""Command-line entry point.

Subcommands: construct, fans, compare, mub, povm, ppt, hadamard-fan.
Global flags: --seed (env FANWEAVE_SEED as fallback), --tol NAME=VALUE,
--format text|json, --out PATH.  Exit codes: 2 on invariant or input
failures, 3 when a comparison certifies inequivalence.

Output is a deterministic function of (inputs, seed, configuration); the
seed is echoed into every report.
"""

from __future__ import annotations

import re
import sys

import click

from . import basis as basis_mod
from . import combinatorics as comb
from . import serialize as ser
from . import tomography as tomo
from . import ppt as ppt_mod
from .config import RunConfig, tolerances


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


class _Cli(click.Group):
    """The one error boundary: any ``ValueError`` (``InvariantError`` included) or ``OSError`` exits 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (OSError, ValueError) as exc:
            _fail(str(exc))


def _emit(cfg: RunConfig, report: dict, artifact: dict | None = None) -> None:
    """Write the artifact to ``--out`` when both are given, then print the report, seed first."""
    if cfg.out and artifact is not None:
        ser.write_json(cfg.out, artifact)
    report = {"seed": cfg.seed, **report}
    if cfg.fmt == "json":
        click.echo(ser.dumps(report), nl=False)
    else:
        for key, value in report.items():
            click.echo(f"{key}: {value}")


@click.group(cls=_Cli)
@click.option("--seed", type=int, default=0, envvar="FANWEAVE_SEED", show_default=True,
              help="RNG seed used by randomized steps (env fallback FANWEAVE_SEED).")
@click.option("--tol", "tol_overrides", multiple=True, metavar="NAME=VALUE",
              help="Override a named tolerance; repeatable.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True, help="Report format on stdout.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the primary artifact (JSON) to this path.")
@click.pass_context
def main(ctx, seed, tol_overrides, fmt, out):
    """Unitary bases, fans, invariants, MUBs, pure POVMs, and PPT certificates."""
    overrides = {}
    for item in tol_overrides:
        if "=" not in item:
            _fail(f"--tol expects NAME=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        try:
            overrides[name.strip()] = float(value)
        except ValueError:
            _fail(f"--tol value for {name!r} is not a number: {value!r}")
    ctx.with_resource(tolerances(**overrides))
    ctx.obj = RunConfig(seed=seed, fmt=fmt, out=out)


def _load_basis(path: str) -> basis_mod.UnitaryBasis:
    try:
        return ser.basis_from_json(ser.read_json(path))
    except (OSError, ValueError) as exc:
        _fail(f"cannot load unitary basis from {path}: {exc}")


def _resolve_group(spec: str) -> comb.FiniteGroup:
    factors = []
    for part in spec.lower().split("x"):
        if part == "s3":
            factors.append(comb.group_s3())
        elif re.fullmatch(r"z\d+", part):
            factors.append(comb.group_cyclic(int(part[1:])))
        else:
            _fail(f"unknown group {part!r}; expected s3, z<N>, or products like z2xz2")
    group = factors[0]
    for extra in factors[1:]:
        group = comb.group_product(group, extra)
    return group


@main.command()
@click.option("--kind", type=click.Choice(["weyl", "pauli2", "shift-multiply"]), required=True)
@click.option("--d", "dim", type=int, default=None, help="Dimension (weyl).")
@click.option("--group", "group_spec", default=None, help="Group: s3, z<N>, or products (z2xz2).")
@click.option("--group-file", type=click.Path(exists=True), default=None)
@click.option("--variant", type=click.Choice(list(comb.LATIN_VARIANTS)), default="e",
              show_default=True, help="Group latin-square variant.")
@click.option("--latin-file", type=click.Path(exists=True), default=None)
@click.option("--hadamard", "hadamard_spec", default="fourier", show_default=True,
              help="Hadamard family: 'fourier' or a file path.")
@click.pass_obj
def construct(cfg, kind, dim, group_spec, group_file, variant, latin_file, hadamard_spec):
    """Construct a unitary basis and write it as JSON."""
    if kind == "weyl":
        if dim is None:
            _fail("--kind weyl requires --d")
        built = basis_mod.build_weyl(dim)
    elif kind == "pauli2":
        built = basis_mod.build_pauli2()
    else:
        if latin_file:
            lam = ser.latin_from_json(ser.read_json(latin_file))
        elif group_file or group_spec:
            group = ser.group_from_json(ser.read_json(group_file)) if group_file else _resolve_group(group_spec)
            lam = comb.latin_from_group(group, variant)
        else:
            _fail("--kind shift-multiply needs --latin-file or --group/--group-file")
        if hadamard_spec == "fourier":
            fam = comb.fourier_family(lam.size)
        else:
            fam = ser.hadamard_family_from_json(ser.read_json(hadamard_spec))
        params = {"variant": variant}
        if group_spec:
            params["group"] = group_spec
        built = basis_mod.build_shift_multiply(lam, fam, params=params)
    _emit(cfg, {
        "kind": kind,
        "d": built.d,
        "elements": len(built.labels),
        "gram_check_max_deviation": built.gram_max_deviation,
        "out": cfg.out or "(not written)",
    }, ser.basis_to_json(built))


def _fan_summary(fan: basis_mod.Fan) -> dict:
    degrees = basis_mod.membership_degrees(fan)
    return {
        "mass_count": len(fan.masses),
        "size_multiset": sorted(len(m) for m in fan.masses),
        "overlap_degrees": {x: c for x, c in sorted(degrees.items()) if c > 1},
    }


@main.command()
@click.argument("basis_file", type=click.Path(exists=True))
@click.option("--tag", "tag_label", default=None, help="Tag label, e.g. '0,0'.")
@click.option("--all-tags", is_flag=True, help="Compute the fan of every tag.")
@click.option("--untagged", is_flag=True, help="Commutation structure of the basis itself.")
@click.option("--mode", type=click.Choice(list(basis_mod.GRAPH_MODES)), default="numeric",
              show_default=True)
@click.option("--dot", "dot_path", type=click.Path(dir_okay=False), default=None,
              help="Write the fan membership graph in DOT format.")
@click.pass_obj
def fans(cfg, basis_file, tag_label, all_tags, untagged, mode, dot_path):
    """Fan representation (all maximal abelian subsystems) of a basis or tag."""
    built = _load_basis(basis_file)
    if sum(map(bool, (tag_label is not None, all_tags, untagged))) != 1:
        _fail("choose exactly one of --tag, --all-tags, --untagged")
    if dot_path and all_tags:
        _fail("--dot is only supported for a single fan (--tag or --untagged)")
    if all_tags:
        system = basis_mod.fan_system(built, mode=mode)
        report = {
            "scope": "all-tags",
            "tags": len(system),
            "mass_counts": {x0: len(f.masses) for x0, f in system.items()},
        }
        artifact = {"fans": {x0: ser.fan_to_json(f) for x0, f in system.items()}}
    else:
        fan = basis_mod.fan_representation(built, tag_label, mode=mode)
        report = {"scope": "untagged" if untagged else f"tag {tag_label}", **_fan_summary(fan)}
        artifact = ser.fan_to_json(fan)
        if dot_path:
            with open(dot_path, "w", encoding="utf-8") as fh:
                fh.write(ser.fan_to_dot(fan))
    _emit(cfg, report, artifact)


@main.command()
@click.argument("file_a", type=click.Path(exists=True))
@click.argument("file_b", type=click.Path(exists=True))
@click.option("--variant", type=click.Choice(list(basis_mod.INVARIANT_VARIANTS)), default="cue",
              show_default=True)
@click.pass_obj
def compare(cfg, file_a, file_b, variant):
    """Compare two bases; exit code 3 when certified inequivalent."""
    verdict = basis_mod.compare_ub(_load_basis(file_a), _load_basis(file_b), variant=variant)
    _emit(cfg, {"variant": variant, "verdict": verdict.upper()})
    if verdict == basis_mod.INEQUIVALENT:
        sys.exit(3)


@main.command()
@click.argument("basis_file", type=click.Path(exists=True))
@click.option("--tag", "tag_label", required=True, help="Tag label, e.g. '0,0'.")
@click.pass_obj
def mub(cfg, basis_file, tag_label):
    """Mutually unbiased bases from a fan that partitions the tag system."""
    tag, fan = basis_mod.tag_and_fan(_load_basis(basis_file), tag_label)
    system = tomo.mub_from_partition(tag, fan.masses, rng_seed=cfg.seed)
    _emit(cfg, {
        "d": system.d,
        "bases": len(system.bases),
        "unbiasedness_deviation": system.unbiasedness_deviation,
        "out": cfg.out or "(not written)",
    }, ser.mub_to_json(system))


@main.command()
@click.argument("basis_file", type=click.Path(exists=True))
@click.option("--tag", "tag_label", required=True, help="Tag label, e.g. '0,0'.")
@click.option("--strategy", type=click.Choice(["crude", "refined"]), default="crude",
              show_default=True)
@click.option("--hub", "hub_label", default=None, help="Hub label for the refined strategy.")
@click.pass_obj
def povm(cfg, basis_file, tag_label, strategy, hub_label):
    """Pure POVM from the fan of a tag (crude cover-based or hub-refined)."""
    tag, fan = basis_mod.tag_and_fan(_load_basis(basis_file), tag_label)
    cover = tomo.minimal_cover(fan)
    if strategy == "crude":
        measure = tomo.crude_povm(tag, cover, rng_seed=cfg.seed)
    else:
        if hub_label is None:
            _fail("--strategy refined requires --hub")
        measure = tomo.refined_povm(tag, cover, hub_label, rng_seed=cfg.seed)
    complete, rank = tomo.is_info_complete(measure)
    d = measure.d
    _emit(cfg, {
        "strategy": strategy,
        "outcomes": len(measure),
        "pure_outcomes": measure.n_pure,
        "complete": complete,
        "rank": rank,
        "cover_size": len(cover.selected),
        "crude_size_bound": (d - 1) * len(cover.selected) + 1,
        "s_bound": tomo.s_bound(d) if d >= 3 else None,
        "refined_bound": tomo.refined_bound(d, len(cover.selected)),
        "sum_residual": measure.sum_residual,
        "min_element_eigenvalue": measure.min_eigenvalue,
        "out": cfg.out or "(not written)",
    }, ser.povm_to_json(measure))


@main.command("ppt")
@click.option("--n", "outer", type=int, required=True, help="Outer block count (n >= 2).")
@click.option("--half-dim", type=int, default=None, help="SHM half-dimension n0 (default n).")
@click.option("--shift", type=float, default=None, help="Shift a >= a0 (default a0).")
@click.option("--zero", "zero_tuple", is_flag=True, help="Use the all-zero SHM tuple.")
@click.pass_obj
def ppt_cmd(cfg, outer, half_dim, shift, zero_tuple):
    """Build a PPT matrix certificate from a skew-Hamiltonian block tuple."""
    cert = ppt_mod.build_ppt(outer, rng_seed=cfg.seed, half_dim=half_dim,
                             shift=shift, zero_tuple=zero_tuple)
    structural = ppt_mod.blockwise_transpose_conjugation_residual(cert)
    _emit(cfg, {
        "n": cert.n,
        "block_half_dim": cert.block_half_dim,
        "shift_a": cert.shift_a,
        "lambda_min": cert.lambda_min,
        "lambda_min_pt": cert.lambda_min_pt,
        "structural_residual": structural,
        "out": cfg.out or "(not written)",
    }, ser.certificate_to_json(cert))


@main.command("hadamard-fan")
@click.argument("basis_file", type=click.Path(exists=True))
@click.option("--tag", "tag_label", required=True, help="Tag label, e.g. '0,0'.")
@click.pass_obj
def hadamard_fan_cmd(cfg, basis_file, tag_label):
    """Per-MASS diagonalizers and partial Hadamard matrices of a tag fan."""
    tag, fan = basis_mod.tag_and_fan(_load_basis(basis_file), tag_label)
    hfan = basis_mod.hadamard_fan(tag, fan, rng_seed=cfg.seed)
    _emit(cfg, {
        "masses": len(hfan.entries),
        "row_counts": [entry.rows.shape[0] for entry in hfan.entries],
        "all_partial_hadamard": True,
        "out": cfg.out or "(not written)",
    }, ser.hadamard_fan_to_json(hfan, cfg.seed))


if __name__ == "__main__":
    main()
