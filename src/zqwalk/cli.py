"""Command-line front end.

Subcommands: check, bands, decompose, winding, ct-check, simulate, limit,
compare, conjugate.  Every run writes its artifacts plus a manifest.json into
one run directory (--out).  Specs are JSON files or '-' for stdin.  Each
subcommand takes only the options it reads: --grid (the base circle grid of
track_bands, a power of two in 64..MAX_GRID/2 = 32768, default 1024) where it
tracks bands, --tol (the non-conjugate edge) for conjugate alone.

`check` reports unitarity as a verdict and always exits 0 on a well-formed
spec; every other subcommand treats a non-unitary symbol as an input error.
Both apply the one test of _require_unitary, so a walk `check` passes is a
walk the other subcommands accept.  Each walk is checked once per command: by
`track_bands` where the command tracks it, by the loader otherwise.
Exit codes: 0 ok, 2 malformed spec or option value (checked before any
work), 3 unitarity failure, 4 resolution failure, 5 domain error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from . import io as zio
from .errors import (
    DomainError,
    ResolutionError,
    SpecFormatError,
    UnitarityError,
    ZqwalkError,
)
from .limit import limit_measure
from .model import ModelWalkSpec, build_model_walk
from .simulate import StateVector, evolve, position_distribution
from .spectral import (
    DEFAULT_BASE_GRID,
    DEFAULT_TOL,
    MAX_GRID,
    UNITARY_TOL,
    EigenSystem,
    _char_polys_match,
    _require_unitary,
    ct_realizable,
    is_decomposable,
    total_winding,
    track_bands,
    winding_numbers,
)
from .symbol import (
    SymbolMatrix,
    classify_decay,
    verify_cayley_hamilton,
    verify_unitary_symbol,
)

EXIT_CODES = {
    SpecFormatError: 2,
    UnitarityError: 3,
    ResolutionError: 4,
    DomainError: 5,
}


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _walk_id(path: str) -> str:
    return "stdin" if path == "-" else Path(path).stem


def _load_walk(path: str, require_unitary: bool = False) -> SymbolMatrix:
    spec = zio.parse_spec(_read_source(path))
    if isinstance(spec, ModelWalkSpec):
        spec = build_model_walk(spec)
    if isinstance(spec, StateVector):
        raise SpecFormatError(f"{path}: expected a walk spec, found an initial vector")
    if require_unitary:
        _with_path(path, _require_unitary, spec)
    return spec


def _with_path(path: str, func, *args):
    """func(*args), with the spec path named in a UnitarityError it raises."""
    try:
        return func(*args)
    except UnitarityError as exc:
        raise UnitarityError(f"{path}: {exc}") from None


def _load_tracked(path: str, args) -> tuple[SymbolMatrix, EigenSystem]:
    """A walk spec and its bands; track_bands makes the unitarity check."""
    if args.grid < 64 or args.grid & (args.grid - 1) or 2 * args.grid > MAX_GRID:
        raise SpecFormatError(
            f"--grid must be a power of two in 64..{MAX_GRID // 2}, got {args.grid}"
        )
    walk = _load_walk(path)
    return walk, _with_path(path, track_bands, walk, args.grid)


def _load_vector(path: str) -> StateVector:
    spec = zio.parse_spec(_read_source(path))
    if not isinstance(spec, StateVector):
        raise SpecFormatError(f"{path}: expected an initial vector spec")
    return spec


class Run:
    """One run directory: collects artifacts and writes the manifest."""

    def __init__(self, args, command: str):
        base = args.out or os.path.join("runs", f"{_walk_id(args.spec)}-{command}")
        self.dir = Path(base)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.command = command
        self.args = {
            k: v for k, v in vars(args).items() if k not in ("func",) and v is not None
        }
        self.outputs: list[str] = []

    def path(self, name: str) -> Path:
        self.outputs.append(name)
        return self.dir / name

    def write_json(self, name: str, payload: dict) -> None:
        with open(self.path(name), "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "arguments": self.args,
            "outputs": list(self.outputs),
        }
        with open(self.dir / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")


# -- subcommands ---------------------------------------------------------------


def cmd_check(args) -> int:
    walk = _load_walk(args.spec)
    run = Run(args, "check")
    unitary = verify_unitary_symbol(walk, 256, UNITARY_TOL)  # as _require_unitary
    decay = classify_decay(walk, max(4, walk.propagation_radius + 1))
    report = {
        "walk_id": _walk_id(args.spec),
        "unitarity_passed": bool(unitary.passed),
        "unitarity_deviation": unitary.max_deviation,
        "decay": dataclasses.asdict(decay),
    }
    summary = (
        f"{report['walk_id']}: unitarity {'pass' if unitary.passed else 'FAIL'} "
        f"(deviation {unitary.max_deviation:.3e}), decay {decay.kind}"
    )
    if unitary.passed:
        residual = report["cayley_hamilton_residual"] = verify_cayley_hamilton(walk)
        summary += f", cayley-hamilton residual {residual:.3e}"
    report["artifacts"] = ["check.json"]
    run.write_json("check.json", report)
    run.finish()
    print(summary)
    return 0


def cmd_bands(args) -> int:
    _walk, system = _load_tracked(args.spec, args)
    run = Run(args, "bands")
    run.write_json("eigensystem.json", zio.eigensystem_to_json(system))
    with open(run.path("bands.csv"), "w") as fh:
        zio.write_bands_csv(system, fh)
    run.finish()
    print(
        f"{_walk_id(args.spec)}: {len(system.bands)} band(s) "
        f"{[(b.d, b.multiplicity) for b in system.bands]} on grid {system.base_grid}"
    )
    return 0


def cmd_decompose(args) -> int:
    _walk, system = _load_tracked(args.spec, args)
    run = Run(args, "decompose")
    run.write_json("eigensystem.json", zio.eigensystem_to_json(system))
    report = {
        "walk_id": _walk_id(args.spec),
        "bands": [
            {"d": b.d, "winding": b.winding, "multiplicity": b.multiplicity}
            for b in system.bands
        ],
        "decomposable": is_decomposable(system),
        "ct_realizable": ct_realizable(system),
        "total_abs_winding": total_winding(system),
        "artifacts": run.outputs + ["decompose.json"],
    }
    run.write_json("decompose.json", report)
    run.finish()
    verdict = "decomposable" if report["decomposable"] else "indecomposable"
    print(
        f"{report['walk_id']}: {verdict}, bands "
        f"{[(b.d, b.winding) for b in system.bands]}"
    )
    return 0


def cmd_winding(args) -> int:
    _walk, system = _load_tracked(args.spec, args)
    windings = winding_numbers(system)
    multiplicities = [b.multiplicity for b in system.bands]
    total = total_winding(system)
    run = Run(args, "winding")
    run.write_json(
        "winding.json",
        {"windings": windings, "multiplicities": multiplicities, "total_abs": total},
    )
    run.finish()
    print(f"{_walk_id(args.spec)}: windings {windings}, |w| = {total}")
    return 0


def cmd_ct_check(args) -> int:
    _walk, system = _load_tracked(args.spec, args)
    realizable = ct_realizable(system)
    run = Run(args, "ct-check")
    payload = {"ct_realizable": realizable}
    if realizable:
        for j, band in enumerate(system.bands):
            with open(run.path(f"generator_band{j}.csv"), "w") as fh:
                zio.write_generator_csv(band, fh)
    else:
        payload["reason"] = (
            f"winding {[b.winding for b in system.bands if b.winding != 0]}"
        )
    run.write_json("ct_check.json", payload)
    run.finish()
    if realizable:
        print(f"{_walk_id(args.spec)}: true (generators written)")
    else:
        print(f"{_walk_id(args.spec)}: false, reason \"{payload['reason']}\"")
    return 0


def _parse_times(text: str) -> list[int]:
    """The comma-separated times, repeats dropped, in order of first occurrence."""
    try:
        times = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise SpecFormatError(f"bad time list '{text}'") from exc
    if not times or any(t < 0 for t in times):
        raise SpecFormatError("times must be nonnegative integers")
    return list(dict.fromkeys(times))


def cmd_simulate(args) -> int:
    walk = _load_walk(args.spec, require_unitary=True)
    xi = _load_vector(args.init)
    times = _parse_times(args.t)
    run = Run(args, "simulate")
    for t in times:
        dist = position_distribution(evolve(walk, xi, t), time=t)
        with open(run.path(f"dist_t{t}.csv"), "w") as fh:
            zio.write_distribution_csv(dist, fh, rescaled=args.rescaled and t > 0)
    run.finish()
    print(f"{_walk_id(args.spec)}: wrote distributions for t = {times}")
    return 0


def cmd_limit(args) -> int:
    walk, system = _load_tracked(args.spec, args)
    xi = _load_vector(args.init)
    measure = limit_measure(walk, xi, system)
    run = Run(args, "limit")
    run.write_json("measure.json", zio.measure_to_json(measure))
    with open(run.path("measure.csv"), "w") as fh:
        zio.write_measure_csv(measure, fh)
    run.finish()
    atoms = ", ".join(f"{x:+.4f} (mass {mass:.4f})" for x, mass in measure.atoms)
    print(
        f"{_walk_id(args.spec)}: total mass {measure.total_mass:.6f}, "
        f"atoms [{atoms or 'none'}]"
    )
    return 0


def cmd_compare(args) -> int:
    from .limit import cdf_distance, compare_moments

    times = _parse_times(args.t)
    if 0 in times:
        raise SpecFormatError("compare times must be positive")
    if args.mmax < 1:
        raise SpecFormatError(f"--mmax must be at least 1, got {args.mmax}")
    walk, system = _load_tracked(args.spec, args)
    xi = _load_vector(args.init)
    measure = limit_measure(walk, xi, system)
    states = [(t, evolve(walk, xi, t)) for t in times]
    rows = compare_moments(measure, states, args.mmax)
    run = Run(args, "compare")
    with open(run.path("moments.csv"), "w") as fh:
        zio.write_comparison_csv(rows, fh)
    run.finish()
    worst = max(row.deviation for row in rows)
    print(f"{_walk_id(args.spec)}: max |empirical - limit| = {worst:.3e}")
    # KS-style distance is diagnostic only (atoms block uniform convergence)
    for t, state in states:
        dist = position_distribution(state, time=t)
        print(f"  t={t}: CDF sup distance {cdf_distance(measure, dist, t):.4f}",
              file=sys.stderr)
    return 0


def cmd_conjugate(args) -> int:
    # are_conjugate, with each walk checked once, by the loader and by name
    if not 0 < args.tol < math.inf:
        raise SpecFormatError(f"--tol must be finite and positive, got {args.tol}")
    w1 = _load_walk(args.spec, require_unitary=True)
    w2 = _load_walk(args.other, require_unitary=True)
    verdict = _char_polys_match(w1, w2, args.tol)
    run = Run(args, "conjugate")
    run.write_json("conjugate.json", {"conjugate": verdict})
    run.finish()
    print("true" if verdict else "false")
    return 0


# -- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zqwalk",
        description="Spectral analysis and weak limits of homogeneous quantum "
        "walks on the integer lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options are added in one order (spec, --grid, --tol, --out, --init, --t), which
    # is the key order of the manifest arguments
    def add(name, func, help, grid=False, tol=False, init=False, times=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("spec", help="walk spec JSON path, or - for stdin")
        if grid:
            p.add_argument(
                "--grid", type=int, default=DEFAULT_BASE_GRID,
                help=f"base grid (power of two in 64..{MAX_GRID // 2}; default %(default)s)",
            )
        if tol:
            p.add_argument(
                "--tol", type=float, default=DEFAULT_TOL,
                help="characteristic-polynomial distance at and above which two "
                "walks are not conjugate (default %(default)s)",
            )
        p.add_argument("--out", help="run directory (default runs/<spec>-<command>)")
        if init:
            p.add_argument("--init", required=True, help="initial vector JSON path")
        if times:
            p.add_argument("--t", required=True, help="comma-separated list of times")
        p.set_defaults(func=func)
        return p

    add("check", cmd_check, "unitarity, decay class, Cayley-Hamilton")
    add("bands", cmd_bands, "track eigenvalue branches", grid=True)
    add("decompose", cmd_decompose, "refined system and decomposability", grid=True)
    add("winding", cmd_winding, "winding numbers and their |.| total", grid=True)
    add("ct-check", cmd_ct_check, "continuous-time realizability", grid=True)
    p = add("simulate", cmd_simulate, "evolve and write distributions",
            init=True, times=True)
    p.add_argument("--rescaled", action="store_true", help="write x = site/t columns")
    add("limit", cmd_limit, "weak limit measure", grid=True, init=True)
    p = add("compare", cmd_compare, "empirical vs limit moments",
            grid=True, init=True, times=True)
    p.add_argument("--mmax", type=int, default=4, help="highest moment order")
    p = add("conjugate", cmd_conjugate, "are two walks conjugate?", tol=True)
    p.add_argument("other", help="second walk spec JSON path")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ZqwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for cls, code in EXIT_CODES.items():
            if isinstance(exc, cls):
                return code
        return 1


if __name__ == "__main__":
    sys.exit(main())
