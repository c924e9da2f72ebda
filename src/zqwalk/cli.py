"""Command-line front end.

Subcommands: check, bands, decompose, winding, ct-check, simulate, limit,
compare, conjugate.  Every run writes its artifacts plus a manifest.json into
one run directory (--out).  Specs are JSON files or '-' for stdin.  The
default analysis grid comes from ZQWALK_GRID when set.

`check` reports unitarity as a verdict and always exits 0 on a well-formed
spec; every other subcommand treats a non-unitary symbol as an input error.
Each walk is checked once per command: by `track_bands` where the command
tracks it, by the loader otherwise.
Exit codes: 0 ok, 2 malformed spec, 3 unitarity failure, 4 resolution
failure, 5 domain error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
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
from .model import ModelWalkSpec, build_model_walk, ct_generator
from .simulate import StateVector, evolve, position_distribution
from .spectral import (
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


@dataclass
class AnalysisReport:
    """Everything a subcommand learned about one walk, JSON-serializable."""

    walk_id: str
    unitarity_passed: bool | None = None
    unitarity_deviation: float | None = None
    decay: dict | None = None
    cayley_hamilton_residual: float | None = None
    bands: list | None = None
    decomposable: bool | None = None
    ct_realizable: bool | None = None
    total_abs_winding: int | None = None
    artifacts: list[str] = dataclasses.field(default_factory=list)

    def to_json(self) -> dict:
        return {k: v for k, v in dataclasses.asdict(self).items() if v is not None}


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
    walk = _load_walk(path)
    return walk, _with_path(path, track_bands, walk, args.grid, args.tol)


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


def _grid_default() -> int:
    value = os.environ.get("ZQWALK_GRID")
    return int(value) if value else 1024


def _band_summary(system: EigenSystem) -> list[dict]:
    return [
        {"d": b.d, "winding": b.winding, "multiplicity": b.multiplicity}
        for b in system.bands
    ]


# -- subcommands ---------------------------------------------------------------


def cmd_check(args) -> int:
    walk = _load_walk(args.spec)
    run = Run(args, "check")
    report = AnalysisReport(_walk_id(args.spec))
    unitary = verify_unitary_symbol(walk, max(args.grid, 256), UNITARY_TOL)
    report.unitarity_passed = bool(unitary.passed)
    report.unitarity_deviation = unitary.max_deviation
    decay = classify_decay(walk, max(4, walk.propagation_radius + 1))
    report.decay = dataclasses.asdict(decay)
    if unitary.passed:
        report.cayley_hamilton_residual = verify_cayley_hamilton(walk)
    report.artifacts = ["check.json"]
    run.write_json("check.json", report.to_json())
    run.finish()
    status = "pass" if unitary.passed else "FAIL"
    print(
        f"{report.walk_id}: unitarity {status} "
        f"(deviation {unitary.max_deviation:.3e}), decay {decay.kind}"
        + (
            f", cayley-hamilton residual {report.cayley_hamilton_residual:.3e}"
            if report.cayley_hamilton_residual is not None
            else ""
        )
    )
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
    report = AnalysisReport(_walk_id(args.spec))
    report.bands = _band_summary(system)
    report.decomposable = is_decomposable(system)
    report.ct_realizable = ct_realizable(system)
    report.total_abs_winding = total_winding(system)
    run.write_json("eigensystem.json", zio.eigensystem_to_json(system))
    report.artifacts = run.outputs + ["decompose.json"]
    run.write_json("decompose.json", report.to_json())
    run.finish()
    verdict = "decomposable" if report.decomposable else "indecomposable"
    print(
        f"{report.walk_id}: {verdict}, bands "
        f"{[(b['d'], b['winding']) for b in report.bands]}"
    )
    return 0


def cmd_winding(args) -> int:
    _walk, system = _load_tracked(args.spec, args)
    windings = winding_numbers(system)
    multiplicities = [b.multiplicity for b in system.bands]
    total = sum(abs(w) * m for w, m in zip(windings, multiplicities))
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
            gen = ct_generator(band.samples)
            with open(run.path(f"generator_band{j}.csv"), "w") as fh:
                zio.write_generator_csv(gen, fh)
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
    try:
        times = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise SpecFormatError(f"bad time list '{text}'") from exc
    if not times or any(t < 0 for t in times):
        raise SpecFormatError("times must be nonnegative integers")
    return times


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
    measure = limit_measure(walk, xi, system, bins=args.bins)
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

    walk, system = _load_tracked(args.spec, args)
    xi = _load_vector(args.init)
    measure = limit_measure(walk, xi, system, bins=args.bins)
    states = [(t, evolve(walk, xi, t)) for t in _parse_times(args.t)]
    rows = compare_moments(measure, states, args.mmax)
    run = Run(args, "compare")
    with open(run.path("moments.csv"), "w") as fh:
        zio.write_comparison_csv(rows, fh)
    run.finish()
    worst = max(row.deviation for row in rows)
    print(f"{_walk_id(args.spec)}: max |empirical - limit| = {worst:.3e}")
    # KS-style distance is diagnostic only (atoms block uniform convergence)
    for t, state in states:
        if t > 0:
            dist = position_distribution(state, time=t)
            print(f"  t={t}: CDF sup distance {cdf_distance(measure, dist, t):.4f}",
                  file=sys.stderr)
    return 0


def cmd_conjugate(args) -> int:
    # are_conjugate, with each walk checked once, by the loader and by name
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

    def common(p, init=False, times=False):
        p.add_argument("spec", help="walk spec JSON path, or - for stdin")
        p.add_argument(
            "--grid",
            type=int,
            default=_grid_default(),
            help="base circle grid (power of two; default %(default)s or $ZQWALK_GRID)",
        )
        p.add_argument("--tol", type=float, default=1e-6, help="tracking or conjugacy tolerance")
        p.add_argument("--bins", type=int, default=512, help="velocity histogram bins")
        p.add_argument("--out", help="run directory (default runs/<spec>-<command>)")
        if init:
            p.add_argument("--init", required=True, help="initial vector JSON path")
        if times:
            p.add_argument(
                "--t", required=True, help="comma-separated list of times"
            )

    p = sub.add_parser("check", help="unitarity, decay class, Cayley-Hamilton")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bands", help="track eigenvalue branches")
    common(p)
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("decompose", help="refined system and decomposability")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("winding", help="winding numbers and their |.| total")
    common(p)
    p.set_defaults(func=cmd_winding)

    p = sub.add_parser("ct-check", help="continuous-time realizability")
    common(p)
    p.set_defaults(func=cmd_ct_check)

    p = sub.add_parser("simulate", help="evolve and write distributions")
    common(p, init=True, times=True)
    p.add_argument("--rescaled", action="store_true", help="write x = site/t columns")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("limit", help="weak limit measure")
    common(p, init=True)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("compare", help="empirical vs limit moments")
    common(p, init=True, times=True)
    p.add_argument("--mmax", type=int, default=4, help="highest moment order")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("conjugate", help="are two walks conjugate?")
    common(p)
    p.add_argument("other", help="second walk spec JSON path")
    p.set_defaults(func=cmd_conjugate)

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
