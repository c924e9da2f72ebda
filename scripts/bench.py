#!/usr/bin/env python3
"""Time each library stage in-process and record accuracy beside the timings.

Inputs: the three walk fixtures (hadamard, modified_hadamard, grover3) and a
seeded n = 6 split-step walk, each at base grid 1024.  Stages per walk:

- grid_eval: the (M, n, n) symbol stack;
- eigvals, eig: the batched eigensolve of that stack without and with
  eigenvectors (track_bands solves one of them on its base grid);
- track_bands: the certified, refined system;
- band_projections_first: the first call on a freshly tracked system;
- band_projections_repeat: a second vector on the same system;
- limit_measure: the first measure on a freshly tracked system;
- evolve_t400, evolve_t1600, evolve_t6400: dense evolution of the delta;
- verify_unitary_symbol, char_poly, verify_cayley_hamilton: the circle-grid
  checks of `zqwalk check` (unitarity on 256 points, Cayley-Hamilton);
- build_model_walk: the model walk of the first tracked band's Fourier
  coefficients, its |lambda| = 1 check included.

Laurent objects: the tracemalloc peak of parsing the spec of diag(1, z^1000000)
(two live terms across a span of 10^6 + 1 shifts), and the per-call cost of
three small objects: LaurentPoly.monomial, SymbolMatrix(8, entries) of a
diagonal of monomials, and evaluating a 43-term LaurentPoly at 128 points.

Writers, in-process on grover3 at grid 1024 into memory: eigensystem_to_json
plus write_bands_csv (the artifacts of `bands`), write_measure_csv of the
delta's limit measure, and write_distribution_csv at t = 6400.

CLI: each of the nine subcommands on the fixtures as a subprocess, the
interpreter's start and imports included, timed over CLI_RUNS runs.

Each stage and writer reports the median and quartiles of --repeats timed
runs (one untimed warm-up first; CLI_RUNS runs for the subcommands).  The
file also records the machine (nproc, BLAS thread cap, numpy and, where it
imports, scipy versions), the numbers of eig, eigvals and inv calls one
track_bands -> refine_system -> 2 x limit_measure chain makes, the coined
moment errors against -(1 - 1/sqrt 2) and 1 - 1/sqrt 2, the grover3 atom
error against 1 - 2/sqrt 6, the largest norm drift of the evolved states, the
Cayley-Hamilton residual of the 1 x 1 walk z^100000 (exact phases give
roundoff), and the windings track_bands certifies at grid 1024 for the
near-avoided crossing coined_walk(sqrt(1 - 1e-6), 1e-3), whose truth is
[0, 0].

Usage: PYTHONPATH=src python scripts/bench.py --out BENCH.json [--repeats 7]
"""

from __future__ import annotations

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # one BLAS thread, before numpy loads
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from zqwalk import (  # noqa: E402
    LaurentPoly,
    ModelWalkSpec,
    StateVector,
    SymbolMatrix,
    band_projections,
    build_model_walk,
    char_poly,
    coined_walk,
    compose,
    evolve,
    lambda_coeffs_from_samples,
    limit_measure,
    limit_moments,
    position_distribution,
    refine_system,
    track_bands,
    verify_cayley_hamilton,
    verify_unitary_symbol,
    winding_numbers,
)
import zqwalk  # noqa: E402
from zqwalk import io as zio  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
GRID = 1024
TIMES = (400, 1600, 6400)
R = 2**-0.5
CLI_RUNS = 5
CLI_ENTRY = "import sys; from zqwalk.cli import main; sys.exit(main())"


def fixture(name: str) -> str:
    return str(ROOT / "fixtures" / f"{name}.json")


CLI_COMMANDS = [
    ["check", fixture("grover3")],
    ["bands", fixture("grover3")],
    ["decompose", fixture("grover3")],
    ["winding", fixture("modified_hadamard")],
    ["ct-check", fixture("hadamard")],
    ["simulate", fixture("hadamard"), "--init", fixture("delta0_ch1"), "--t", "100,400"],
    ["limit", fixture("grover3"), "--init", fixture("delta0_ch2_3state")],
    ["compare", fixture("hadamard"), "--init", fixture("delta0_ch1"), "--t", "100,400",
     "--mmax", "4"],
    ["conjugate", fixture("hadamard"), fixture("modified_hadamard")],
]


def split_step_walk(seed: int, n: int, layers: int) -> SymbolMatrix:
    """`layers` random coins each followed by a diagonal shift in {-1, 0, 1}.

    Channel 1 moves right and channel n left in every layer.
    """
    rng = np.random.default_rng(seed)
    walk = SymbolMatrix.identity(n)
    for _ in range(layers):
        steps = rng.integers(-1, 2, size=n)
        steps[0], steps[-1] = 1, -1
        shift = np.zeros((3, n, n), dtype=complex)
        shift[steps + 1, np.arange(n), np.arange(n)] = 1.0
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = np.linalg.qr(z)
        coin = SymbolMatrix.from_constant(q * (np.diag(r) / np.abs(np.diag(r))))
        walk = compose(SymbolMatrix.from_terms([-1, 0, 1], shift), compose(coin, walk))
    return walk


def inputs() -> dict[str, tuple[SymbolMatrix, StateVector, StateVector]]:
    """name -> (walk, delta vector, a second unit vector)."""
    walks = {
        name: zio.parse_spec(Path(fixture(name)).read_text())
        for name in ("hadamard", "modified_hadamard", "grover3")
    }
    walks["split_n6"] = split_step_walk(306, 6, 1)
    out = {}
    for name, walk in walks.items():
        n = walk.n
        delta = StateVector.delta(0, 2 if name == "grover3" else 1, n)
        other = StateVector({(0, k): n**-0.5 for k in range(1, n + 1)}, n)
        out[name] = (walk, delta, other)
    return out


def timed(fn, repeats: int, setup=None) -> dict:
    """Median and quartiles of `repeats` timed calls of fn(setup())."""
    samples = []
    for i in range(repeats + 1):
        arg = setup() if setup else None
        start = time.perf_counter()
        fn(arg)
        if i:  # the first call is a warm-up
            samples.append(time.perf_counter() - start)
    q25, median, q75 = (
        statistics.quantiles(samples, n=4, method="inclusive") if repeats > 1 else samples * 3
    )
    return {"median_s": median, "q25_s": q25, "q75_s": q75, "runs": repeats}


def stage_timings(walk, delta, other, repeats: int) -> dict:
    xh, xh2 = delta.fourier_samples(GRID), other.fourier_samples(GRID)
    stack = walk.grid_eval(GRID)

    def tracked(_=None):
        return refine_system(track_bands(walk, GRID))

    def projected_once():
        system = tracked()
        band_projections(walk, system, xh)
        return system

    stages = {
        "grid_eval": timed(lambda _: walk.grid_eval(GRID), repeats),
        "eigvals": timed(lambda _: np.linalg.eigvals(stack), repeats),
        "eig": timed(lambda _: np.linalg.eig(stack), repeats),
        "track_bands": timed(lambda _: track_bands(walk, GRID), repeats),
        "band_projections_first": timed(
            lambda s: band_projections(walk, s, xh), repeats, tracked
        ),
        "band_projections_repeat": timed(
            lambda s: band_projections(walk, s, xh2), repeats, projected_once
        ),
        "limit_measure": timed(lambda s: limit_measure(walk, delta, s), repeats, tracked),
    }
    for t in TIMES:
        stages[f"evolve_t{t}"] = timed(lambda _, t=t: evolve(walk, delta, t), repeats)
    band = track_bands(walk, GRID).bands[0]
    model = ModelWalkSpec(band.d, lambda_coeffs_from_samples(band.samples))
    stages.update(
        verify_unitary_symbol=timed(lambda _: verify_unitary_symbol(walk), repeats),
        char_poly=timed(lambda _: char_poly(walk), repeats),
        verify_cayley_hamilton=timed(lambda _: verify_cayley_hamilton(walk, 256), repeats),
        build_model_walk=timed(lambda _: build_model_walk(model), repeats),
    )
    return stages


def per_call(fn, calls: int, repeats: int) -> dict:
    """timed() of `calls` back-to-back calls of fn(), scaled to one call."""
    batch = timed(lambda _: [fn() for _ in range(calls)], repeats)
    return {key: value / calls if key.endswith("_s") else value for key, value in batch.items()}


def laurent_costs(repeats: int) -> dict:
    """Parse peak of a far-shift spec and the per-call cost of three small objects."""
    term = {"re": 1.0, "im": 0.0}
    text = json.dumps({"n": 2, "entries": [
        {"row": 1, "col": 1, "terms": [{"shift": 0, **term}]},
        {"row": 2, "col": 2, "terms": [{"shift": 10**6, **term}]},
    ]})
    tracemalloc.start()
    try:
        zio.parse_spec(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rng = np.random.default_rng(26)
    zero = LaurentPoly.zero()
    diagonal = [LaurentPoly.monomial(int(s)) for s in rng.integers(-1, 2, size=8)]
    entries = [[diagonal[i] if i == j else zero for j in range(8)] for i in range(8)]
    poly = LaurentPoly({s: complex(*rng.normal(size=2)) for s in range(-21, 22)})
    points = np.exp(2j * np.pi * np.arange(128) / 128)
    return {
        "parse_diag_z1e6_peak_bytes": peak,
        "monomial": per_call(lambda: LaurentPoly.monomial(3, 0.5), 2000, repeats),
        "symbol_matrix_n8": per_call(lambda: SymbolMatrix(8, entries), 200, repeats),
        "call_43_shifts_128_points": per_call(lambda: poly(points), 50, repeats),
    }


def writer_timings(walk, delta, repeats: int) -> dict:
    """The artifact writers into memory: bands, limit measure, a t = 6400 distribution."""
    system = track_bands(walk, GRID)
    measure = limit_measure(walk, delta, system)
    dist = position_distribution(evolve(walk, delta, TIMES[-1]), time=TIMES[-1])

    def bands(_):
        zio.eigensystem_to_json(system)
        zio.write_bands_csv(system, io.StringIO())

    return {
        "eigensystem_json_bands_csv": timed(bands, repeats),
        "measure_csv": timed(lambda _: zio.write_measure_csv(measure, io.StringIO()), repeats),
        f"distribution_csv_t{TIMES[-1]}": timed(
            lambda _: zio.write_distribution_csv(dist, io.StringIO()), repeats
        ),
    }


def cli_timings() -> dict:
    """Each subcommand as a fresh interpreter on the fixtures, writing into a scratch dir.

    The subprocesses import the zqwalk package this script imported.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(zqwalk.__file__).resolve().parent.parent)}
    timings = {}
    with tempfile.TemporaryDirectory() as scratch:
        for argv in CLI_COMMANDS:
            name = argv[0]
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv, "--out", str(Path(scratch) / name)]
            timings[name] = timed(
                lambda _, cmd=cmd: subprocess.run(cmd, env=env, capture_output=True, check=True),
                CLI_RUNS,
            )
    return timings


def scipy_version() -> str | None:
    try:
        import scipy
    except ImportError:
        return None
    return scipy.__version__


def solve_counts(walk, vectors) -> dict:
    """np.linalg eig/eigvals/inv calls of track_bands -> refine_system -> limit_measure(s)."""
    counts = {"eig": 0, "eigvals": 0, "inv": 0}
    originals = {name: getattr(np.linalg, name) for name in counts}

    def counting(name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return originals[name](*args, **kwargs)

        return wrapper

    for name in counts:
        setattr(np.linalg, name, counting(name))
    try:
        system = refine_system(track_bands(walk, GRID))
        for xi in vectors:
            limit_measure(walk, xi, system)
    finally:
        for name, fn in originals.items():
            setattr(np.linalg, name, fn)
    return counts


def accuracy(cases) -> dict:
    walk, delta, _other = cases["hadamard"]
    mu = limit_measure(walk, delta, refine_system(track_bands(walk, GRID)))
    g_walk, g_delta, _other = cases["grover3"]
    nu = limit_measure(g_walk, g_delta, refine_system(track_bands(g_walk, GRID)))
    drift = max(
        abs(evolve(w, xi, t).norm() ** 2 - 1.0)
        for w, xi, _other in cases.values()
        for t in TIMES
    )
    near_crossing = coined_walk(np.sqrt(1 - 1e-6), 1e-3)
    return {
        "coined_m1_err": abs(limit_moments(mu, 1) + (1.0 - R)),
        "coined_m2_err": abs(limit_moments(mu, 2) - (1.0 - R)),
        "grover3_atom_err": abs(nu.atom_mass(0.0) - (1.0 - 2.0 / 6.0**0.5)),
        "norm_drift_max": drift,
        "z100000_cayley_hamilton": verify_cayley_hamilton(SymbolMatrix.shift(100000)),
        "near_crossing_windings": winding_numbers(track_bands(near_crossing, GRID)),
    }


def commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH.json")
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    cases = inputs()
    report = {
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy_version(),
            "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
            "commit": commit(),
        },
        "grid": GRID,
        "stages": {},
        "laurent": laurent_costs(args.repeats),
        "writers": writer_timings(*cases["grover3"][:2], args.repeats),
        "cli": cli_timings(),
        "solve_counts": {},
        "accuracy": accuracy(cases),
    }
    for name, (walk, delta, other) in cases.items():
        report["solve_counts"][name] = solve_counts(walk, [delta, other])
        report["stages"][name] = stage_timings(walk, delta, other, args.repeats)
        medians = ", ".join(
            f"{stage} {1e3 * s['median_s']:.2f}" for stage, s in report["stages"][name].items()
        )
        print(f"{name} (median ms): {medians}")
    costs = dict(report["laurent"])
    peak = costs.pop("parse_diag_z1e6_peak_bytes")
    calls = ", ".join(f"{k} {1e6 * s['median_s']:.2f}" for k, s in costs.items())
    print(f"laurent: parse peak {peak} B; per call (median us): {calls}")
    for group in ("writers", "cli"):
        medians = ", ".join(f"{k} {1e3 * s['median_s']:.2f}" for k, s in report[group].items())
        print(f"{group} (median ms): {medians}")
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"accuracy: {report['accuracy']}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
