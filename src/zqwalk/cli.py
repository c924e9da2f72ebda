"""Command-line front end.

Subcommands: check, bands, decompose, winding, ct-check, simulate, limit,
compare, conjugate.  main owns the run: each subcommand loads its specs,
computes, writes its artifacts into the Run it is given and returns its
stdout line; main then writes manifest.json and prints that line.  The run
directory (--out) is made when the first artifact is written, so a refused
spec or option leaves none.  Specs are JSON files or '-' for stdin.  Each
subcommand takes only the options it reads: --grid (the base circle grid of
track_bands, a power of two in 64..MAX_GRID/2 = 32768, default 1024) where it
tracks bands, --tol (the non-conjugate edge) for conjugate alone.

`check` reports unitarity as a verdict and always exits 0 on a well-formed
spec; every other subcommand treats a non-unitary symbol as an input error.
Both read the one verdict of verify_unitary_symbol, so a walk `check` passes
is a walk the other subcommands accept.  Every loader but `check`'s requires
the verdict and names the spec in its error; a walk keeps its verdict, so
the library calls after it (track_bands, are_conjugate) compute none.  Exit
codes: 0 ok, 2 malformed or unreadable spec or option value (checked before
any work), 3 unitarity failure, 4 resolution failure, 5 domain error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, io as zio
from .errors import (
    DomainError,
    ResolutionError,
    SpecFormatError,
    UnitarityError,
    ZqwalkError,
)
from .limit import cdf_distance, compare_moments, limit_measure
from .model import ModelWalkSpec, build_model_walk
from .simulate import StateVector, evolve, position_distribution
from .spectral import (
    DEFAULT_BASE_GRID,
    DEFAULT_TOL,
    MAX_GRID,
    EigenSystem,
    _require_unitary,
    are_conjugate,
    ct_realizable,
    is_decomposable,
    total_winding,
    track_bands,
    valid_base_grid,
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
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise SpecFormatError(f"{path}: cannot read spec: {reason}") from None


def _walk_id(path: str) -> str:
    return "stdin" if path == "-" else Path(path).stem


def _load_walk(path: str, require_unitary: bool = True) -> SymbolMatrix:
    """The walk spec at `path`; a non-unitary one raises UnitarityError naming it."""
    spec = zio.parse_spec(_read_source(path))
    if isinstance(spec, ModelWalkSpec):
        spec = build_model_walk(spec)
    if isinstance(spec, StateVector):
        raise SpecFormatError(f"{path}: expected a walk spec, found an initial vector")
    if require_unitary:
        try:
            _require_unitary(spec)
        except UnitarityError as exc:
            raise UnitarityError(f"{path}: {exc}") from None
    return spec


def _load_tracked(args, run: Run) -> tuple[SymbolMatrix, EigenSystem]:
    """The walk spec and its bands on the base grid --grid; the run keeps the record."""
    if not valid_base_grid(args.grid):
        raise SpecFormatError(
            f"--grid must be a power of two in 64..{MAX_GRID // 2}, got {args.grid}"
        )
    walk = _load_walk(args.spec)
    system = track_bands(walk, args.grid)
    run.record = system.record
    return walk, system


def _load_vector(path: str) -> StateVector:
    spec = zio.parse_spec(_read_source(path))
    if not isinstance(spec, StateVector):
        raise SpecFormatError(f"{path}: expected an initial vector spec")
    return spec


def _write_json(payload: dict, stream) -> None:
    json.dump(payload, stream, indent=2)
    stream.write("\n")


class Run:
    """One run directory, made on the first write: artifacts and the manifest."""

    def __init__(self, args):
        self.command = args.command
        base = args.out or os.path.join("runs", f"{_walk_id(args.spec)}-{self.command}")
        self.dir = Path(base)
        self.args = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
        self.outputs, self.record = [], None  # record: track_bands' TrackingRecord

    def _write(self, name: str, writer, obj, **options) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        with open(self.dir / name, "w") as fh:
            writer(obj, fh, **options)

    def write_csv(self, name: str, writer, obj, **options) -> None:
        """Artifact `name`, written by writer(obj, stream, **options)."""
        self.outputs.append(name)
        self._write(name, writer, obj, **options)

    def write_json(self, name: str, payload: dict) -> None:
        self.outputs.append(name)
        self._write(name, _write_json, payload)

    def finish(self) -> None:
        manifest = {"command": self.command, "arguments": self.args, "outputs": self.outputs}
        if self.record is not None:
            versions = {"zqwalk": __version__, "numpy": np.__version__, "python": sys.version}
            # the wall time in fixed width: runs that compute the same write as many bytes
            record = {**dataclasses.asdict(self.record), "bisect_s": f"{self.record.bisect_s:.6e}"}
            manifest.update(record=record, versions=versions)
        self._write("manifest.json", _write_json, manifest)


# -- subcommands ---------------------------------------------------------------
# Each writes its artifacts into `run` and returns its stdout line.


def cmd_check(args, run: Run) -> str:
    walk = _load_walk(args.spec, require_unitary=False)
    unitary = verify_unitary_symbol(walk)
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
    return summary


def cmd_bands(args, run: Run) -> str:
    _walk, system = _load_tracked(args, run)
    run.write_json("eigensystem.json", zio.eigensystem_to_json(system))
    run.write_csv("bands.csv", zio.write_bands_csv, system)
    return (
        f"{_walk_id(args.spec)}: {len(system.bands)} band(s) "
        f"{[(b.d, b.multiplicity) for b in system.bands]} on grid {system.base_grid}"
    )


def cmd_decompose(args, run: Run) -> str:
    _walk, system = _load_tracked(args, run)
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
    verdict = "decomposable" if report["decomposable"] else "indecomposable"
    return f"{report['walk_id']}: {verdict}, bands {[(b.d, b.winding) for b in system.bands]}"


def cmd_winding(args, run: Run) -> str:
    _walk, system = _load_tracked(args, run)
    windings = winding_numbers(system)
    multiplicities = [b.multiplicity for b in system.bands]
    total = total_winding(system)
    run.write_json(
        "winding.json",
        {"windings": windings, "multiplicities": multiplicities, "total_abs": total},
    )
    return f"{_walk_id(args.spec)}: windings {windings}, |w| = {total}"


def cmd_ct_check(args, run: Run) -> str:
    _walk, system = _load_tracked(args, run)
    if not ct_realizable(system):
        reason = f"winding {[b.winding for b in system.bands if b.winding != 0]}"
        run.write_json("ct_check.json", {"ct_realizable": False, "reason": reason})
        return f"{_walk_id(args.spec)}: false, reason \"{reason}\""
    for j, band in enumerate(system.bands):
        run.write_csv(f"generator_band{j}.csv", zio.write_generator_csv, band)
    run.write_json("ct_check.json", {"ct_realizable": True})
    return f"{_walk_id(args.spec)}: true (generators written)"


def _parse_times(text: str) -> list[int]:
    """The comma-separated times, repeats dropped, in order of first occurrence."""
    try:
        times = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise SpecFormatError(f"bad time list '{text}'") from exc
    if not times or any(t < 0 for t in times):
        raise SpecFormatError("times must be nonnegative integers")
    return list(dict.fromkeys(times))


def cmd_simulate(args, run: Run) -> str:
    walk = _load_walk(args.spec)
    xi = _load_vector(args.init)
    times = _parse_times(args.t)
    for t in times:
        dist = position_distribution(evolve(walk, xi, t), time=t)
        run.write_csv(
            f"dist_t{t}.csv", zio.write_distribution_csv, dist,
            rescaled=args.rescaled and t > 0,
        )
    return f"{_walk_id(args.spec)}: wrote distributions for t = {times}"


def cmd_limit(args, run: Run) -> str:
    xi = _load_vector(args.init)
    walk, system = _load_tracked(args, run)
    measure = limit_measure(walk, xi, system)
    run.write_json("measure.json", zio.measure_to_json(measure))
    run.write_csv("measure.csv", zio.write_measure_csv, measure)
    atoms = ", ".join(f"{x:+.4f} (mass {mass:.4f})" for x, mass in measure.atoms)
    return (
        f"{_walk_id(args.spec)}: total mass {measure.total_mass:.6f}, "
        f"atoms [{atoms or 'none'}]"
    )


def cmd_compare(args, run: Run) -> str:
    times = _parse_times(args.t)
    if 0 in times:
        raise SpecFormatError("compare times must be positive")
    if args.mmax < 1:
        raise SpecFormatError(f"--mmax must be at least 1, got {args.mmax}")
    xi = _load_vector(args.init)
    walk, system = _load_tracked(args, run)
    measure = limit_measure(walk, xi, system)
    states = [(t, evolve(walk, xi, t)) for t in times]
    rows = compare_moments(measure, states, args.mmax)
    run.write_csv("moments.csv", zio.write_comparison_csv, rows)
    # KS-style distance is diagnostic only (atoms block uniform convergence)
    for t, state in states:
        dist = position_distribution(state, time=t)
        print(f"  t={t}: CDF sup distance {cdf_distance(measure, dist, t):.4f}",
              file=sys.stderr)
    worst = max(row.deviation for row in rows)
    return f"{_walk_id(args.spec)}: max |empirical - limit| = {worst:.3e}"


def cmd_conjugate(args, run: Run) -> str:
    if not 0 < args.tol < math.inf:
        raise SpecFormatError(f"--tol must be finite and positive, got {args.tol}")
    w1 = _load_walk(args.spec)
    w2 = _load_walk(args.other)
    verdict = are_conjugate(w1, w2, args.tol)
    run.write_json("conjugate.json", {"conjugate": verdict})
    return "true" if verdict else "false"


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
    run = Run(args)
    try:
        summary = args.func(args, run)
    except ZqwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in EXIT_CODES.items() if isinstance(exc, cls)), 1)
    run.finish()
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
