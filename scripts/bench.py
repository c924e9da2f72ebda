#!/usr/bin/env python3
"""Time each library stage in-process and record accuracy beside the timings.

Inputs: the three walk fixtures (hadamard, modified_hadamard, grover3) and a
seeded n = 6 split-step walk, each at base grid 1024.  Stages per walk:

- grid_eval: the (M, n, n) symbol stack;
- eig: the unitary eigensolver (spectral._unitary_eig) on that stack, values
  and orthonormal eigenvectors, as track_bands solves every grid; np_eig:
  LAPACK's general np.linalg.eig on the same stack, for reference;
- track_bands: the certified, refined system;
- limit_measure_first: the first measure on a freshly tracked system, its
  velocity frame built;
- limit_measure_repeat: a second vector on the same system, the frame reused;
- evolve_t400, evolve_t1600, evolve_t6400: evolution of the delta through
  the symbol (binary powering, each power squared on an FFT grid that grows
  with it up to a quarter of the light cone's grid, then on that grid; the
  error inside the cone is of order t times machine epsilon);
- moments_t6400: rescaled_moment of the delta's state at t = 6400 and
  limit_moments of its limit measure, m = 1..4;
- position_distribution_t6400: the position distribution of that state;
- cdf_distance_t6400: the CDF distance between that distribution and the
  limit measure;
- verify_unitary_symbol, char_poly, verify_cayley_hamilton: the circle-grid
  checks of `zqwalk check` (unitarity on 256 points, Cayley-Hamilton, its
  char poly included);
- symbol_power_t64: the exact symbol U^64;
- build_model_walk: the model walk of the first tracked band's Fourier
  coefficients, its |lambda| = 1 check included;
- rearrangement_check: that model walk against its interleaved 1-channel
  form on two vectors, the walk built inside the stage.

A walk keeps its unitarity verdict and char poly, and a model spec its walk,
so track_bands, the three checks, build_model_walk and rearrangement_check
each get a fresh copy of the walk or spec, made outside the timed call: every
stage times the work, not a lookup.

Laurent objects: the tracemalloc peak of parsing the spec of diag(1, z^1000000)
(two live terms across a span of 10^6 + 1 shifts), and the per-call cost of
three small objects: LaurentPoly.monomial, SymbolMatrix(8, entries) of a
diagonal of monomials, and evaluating a 43-term LaurentPoly at 128 points.

Writers, in-process on grover3 at grid 1024 into memory: eigensystem_to_json
plus write_bands_csv (the artifacts of `bands`), write_measure_csv of the
delta's limit measure, and write_distribution_csv at t = 6400.

CLI: each of the nine subcommands on the fixtures as a subprocess, the
interpreter's start and imports included.

Each stage and writer reports the median and quartiles of --repeats timed
runs, each subcommand of min(CLI_RUNS, --repeats), one untimed warm-up
first; the bisection of the steps grid 1024 leaves uncertified reports
those of track_bands' own TrackingRecord.bisect_s over --repeats trackings.
The file also records the machine (nproc, BLAS thread cap, numpy and, where
it imports, scipy versions), what one track_bands -> 2 x limit_measure
chain solves (from the TrackingRecord: the rows of each stack
solved and how many of them were retried with another Cayley pole, the
grids, points, exact-crossing angles and narrowest unexplained gap; and the
numbers of np.linalg eig, eigvals and inv calls in the chain), the coined
moment errors against -(1 - 1/sqrt 2) and 1 - 1/sqrt 2, the grover3 atom
error against 1 - 2/sqrt 6, grover3's m1 error from channel 1 against
-0.183503419072274 (pointwise sums at grids 1024 to 32768 and Richardson
extrapolation of finite-time moments agree on it), the largest norm drift of the evolved states
(mostly the walk's own distance from unitary), the largest l2 distance
between evolve at t = 400 and 400 apply_walk steps, the Cayley-Hamilton
residual of the 1 x 1 walk z^100000 (exact phases give roundoff), and the
windings track_bands certifies from grid 1024 for the near-avoided crossing
coined_walk(sqrt(1 - 1e-6), 1e-3), whose truth is [0, 0].

With --against CHECKOUT, the `src/zqwalk` of another checkout is imported
beside this one under the package name zqwalk_against, and the stages above
are paired: each round times this checkout's call and the other's back to
back, alternating which goes first, on inputs each package builds for
itself.  Each stage then reports this checkout's median and quartiles, the
other's under "against", and "ratio", the other's median over this one's
(above 1: this checkout is faster).  np_eig runs the same code on both
sides, so its ratio shows how far the pairing resolves.  Everything else in
the report (Laurent objects, writers, CLI, solve counts, bisection and
accuracy) is this checkout's alone, as without --against.

Usage: PYTHONPATH=src python scripts/bench.py --out BENCH.json [--repeats 7]
           [--against ../other-checkout]
"""

from __future__ import annotations

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # one BLAS thread, before numpy loads
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib.util  # noqa: E402
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
    StateVector,
    SymbolMatrix,
    apply_walk,
    coined_walk,
    evolve,
    limit_measure,
    limit_moments,
    position_distribution,
    track_bands,
    verify_cayley_hamilton,
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
AGAINST_PACKAGE = "zqwalk_against"


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


def split_step_walk(zq, seed: int, n: int, layers: int) -> SymbolMatrix:
    """`layers` random coins each followed by a diagonal shift in {-1, 0, 1}.

    Channel 1 moves right and channel n left in every layer.  `zq` is the
    zqwalk package that builds it.
    """
    rng = np.random.default_rng(seed)
    walk = zq.SymbolMatrix.identity(n)
    for _ in range(layers):
        steps = rng.integers(-1, 2, size=n)
        steps[0], steps[-1] = 1, -1
        shift = np.zeros((3, n, n), dtype=complex)
        shift[steps + 1, np.arange(n), np.arange(n)] = 1.0
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = np.linalg.qr(z)
        coin = zq.SymbolMatrix.from_constant(q * (np.diag(r) / np.abs(np.diag(r))))
        walk = zq.compose(zq.SymbolMatrix.from_terms([-1, 0, 1], shift), zq.compose(coin, walk))
    return walk


def inputs(zq=zqwalk) -> dict[str, tuple[SymbolMatrix, StateVector, StateVector]]:
    """name -> (walk, delta vector, a second unit vector), built by package `zq`."""
    walks = {
        name: zq.io.parse_spec(Path(fixture(name)).read_text())
        for name in ("hadamard", "modified_hadamard", "grover3")
    }
    walks["split_n6"] = split_step_walk(zq, 306, 6, 1)
    out = {}
    for name, walk in walks.items():
        n = walk.n
        delta = zq.StateVector.delta(0, 2 if name == "grover3" else 1, n)
        other = zq.StateVector({(0, k): n**-0.5 for k in range(1, n + 1)}, n)
        out[name] = (walk, delta, other)
    return out


def summary(samples: list[float]) -> dict:
    """Median and quartiles of timed samples."""
    q25, median, q75 = (
        statistics.quantiles(samples, n=4, method="inclusive") if len(samples) > 1 else samples * 3
    )
    return {"median_s": median, "q25_s": q25, "q75_s": q75, "runs": len(samples)}


def run_once(fn, setup) -> float:
    arg = setup() if setup else None
    start = time.perf_counter()
    fn(arg)
    return time.perf_counter() - start


def timed(fn, repeats: int, setup=None) -> dict:
    """Median and quartiles of `repeats` timed calls of fn(setup())."""
    run_once(fn, setup)  # warm-up
    return summary([run_once(fn, setup) for _ in range(repeats)])


def timed_pair(this, other, repeats: int) -> dict:
    """timed() of two (fn, setup) stages in alternating order, and their median ratio."""
    samples: tuple[list, list] = ([], [])
    for i in range(repeats + 1):
        for side in ((0, 1) if i % 2 else (1, 0)):
            fn, setup = (this, other)[side]
            elapsed = run_once(fn, setup)
            if i:  # the first round is a warm-up
                samples[side].append(elapsed)
    mine, theirs = summary(samples[0]), summary(samples[1])
    return {**mine, "against": theirs, "ratio": theirs["median_s"] / mine["median_s"]}


def stages(zq, walk, delta, other) -> dict:
    """Stage name -> (fn, setup) for one walk of package `zq`; timed() runs fn(setup())."""
    stack = walk.grid_eval(GRID)

    def tracked(_=None):
        return zq.track_bands(walk, GRID)

    def measured_once():
        system = tracked()
        zq.limit_measure(walk, delta, system)
        return system

    def fresh_walk():
        return zq.SymbolMatrix.from_terms(walk.shifts, walk.coeffs)

    out = {
        "grid_eval": (lambda _: walk.grid_eval(GRID), None),
        "eig": (lambda _: zq.spectral._unitary_eig(stack), None),
        "np_eig": (lambda _: np.linalg.eig(stack), None),
        "track_bands": (lambda w: zq.track_bands(w, GRID), fresh_walk),
        "limit_measure_first": (lambda s: zq.limit_measure(walk, delta, s), tracked),
        "limit_measure_repeat": (lambda s: zq.limit_measure(walk, other, s), measured_once),
    }
    for t in TIMES:
        out[f"evolve_t{t}"] = (lambda _, t=t: zq.evolve(walk, delta, t), None)
    last = TIMES[-1]
    state = zq.evolve(walk, delta, last)
    measure = zq.limit_measure(walk, delta, tracked())
    dist = zq.position_distribution(state, time=last)

    def moments(_):
        for m in range(1, 5):
            zq.rescaled_moment(state, last, m)
            zq.limit_moments(measure, m)

    out[f"moments_t{last}"] = (moments, None)
    out[f"position_distribution_t{last}"] = (
        lambda _: zq.position_distribution(state, time=last), None
    )
    out[f"cdf_distance_t{last}"] = (lambda _: zq.cdf_distance(measure, dist, last), None)
    band = zq.track_bands(walk, GRID).bands[0]
    lam = zq.lambda_coeffs_from_samples(band.samples)
    vectors = [
        zq.StateVector.delta(0, 1, band.d),
        zq.StateVector({(s, k): complex(s, k) for s in range(-3, 4) for k in range(1, band.d + 1)},
                       band.d),
    ]

    def fresh_spec():
        return zq.ModelWalkSpec(band.d, lam)

    out.update(
        verify_unitary_symbol=(lambda w: zq.verify_unitary_symbol(w), fresh_walk),
        char_poly=(lambda w: zq.char_poly(w), fresh_walk),
        verify_cayley_hamilton=(lambda w: zq.verify_cayley_hamilton(w, 256), fresh_walk),
        symbol_power_t64=(lambda _: zq.symbol_power(walk, 64), None),
        build_model_walk=(lambda spec: zq.build_model_walk(spec), fresh_spec),
        rearrangement_check=(lambda spec: zq.rearrangement_check(spec, vectors), fresh_spec),
    )
    return out


def load_against(checkout: Path):
    """Import `checkout`/src/zqwalk as the package AGAINST_PACKAGE."""
    init = checkout / "src" / "zqwalk" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"--against: no {init}")
    spec = importlib.util.spec_from_file_location(
        AGAINST_PACKAGE, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[AGAINST_PACKAGE] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{AGAINST_PACKAGE}.io")
    return package


def against_timings(zq_other, repeats: int) -> dict:
    """Every stage of every walk, this checkout and `zq_other` timed in alternation."""
    other_cases = inputs(zq_other)
    report = {}
    for name, case in inputs().items():
        mine, theirs = stages(zqwalk, *case), stages(zq_other, *other_cases[name])
        report[name] = {stage: timed_pair(mine[stage], theirs[stage], repeats) for stage in mine}
    return report


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


def cli_timings(repeats: int) -> dict:
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
                min(CLI_RUNS, repeats),
            )
    return timings


def scipy_version() -> str | None:
    try:
        import scipy
    except ImportError:
        return None
    return scipy.__version__


def solve_counts(walk, vectors) -> dict:
    """Eigensolves of track_bands -> limit_measure(s).

    unitary_eig_rows lists the rows of each stack track_bands solved and
    retried_rows how many of those rows it solved again with another Cayley
    pole; they, grids, points, crossings and avoided_gap are its
    TrackingRecord (the grid of each pass, the points solved, the exact
    crossings' angles and the narrowest unexplained gap); eig, eigvals and
    inv count the np.linalg functions over the whole chain.
    """
    counts = dict.fromkeys(("eig", "eigvals", "inv"), 0)
    originals = {name: getattr(np.linalg, name) for name in counts}

    def counting(name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return originals[name](*args, **kwargs)

        return wrapper

    for name in originals:
        setattr(np.linalg, name, counting(name))
    try:
        system = track_bands(walk, GRID)
        for xi in vectors:
            limit_measure(walk, xi, system)
    finally:
        for name, fn in originals.items():
            setattr(np.linalg, name, fn)
    record = system.record
    return {
        "unitary_eig_rows": [rows for rows, _retried in record.solves],
        "retried_rows": [retried for _rows, retried in record.solves],
        "grids": list(record.grids), "points": record.points,
        "crossings": list(record.crossings), "avoided_gap": record.avoided_gap, **counts,
    }


def bisection(walk, repeats: int) -> dict:
    """summary() of TrackingRecord.bisect_s in `repeats` trackings after a warm-up."""
    return summary([track_bands(walk, GRID).record.bisect_s for _ in range(repeats + 1)][1:])


def accuracy(cases) -> dict:
    walk, delta, _other = cases["hadamard"]
    mu = limit_measure(walk, delta, track_bands(walk, GRID))
    g_walk, g_delta, _other = cases["grover3"]
    g_system = track_bands(g_walk, GRID)
    nu = limit_measure(g_walk, g_delta, g_system)
    channel_1 = limit_measure(g_walk, StateVector.delta(0, 1, 3), g_system)
    drift = max(
        abs(evolve(w, xi, t).norm() ** 2 - 1.0)
        for w, xi, _other in cases.values()
        for t in TIMES
    )
    evolve_l2 = 0.0  # against TIMES[0] exact steps
    for w, xi, _other in cases.values():
        stepped = xi
        for _ in range(TIMES[0]):
            stepped = apply_walk(w, stepped)
        evolve_l2 = max(evolve_l2, evolve(w, xi, TIMES[0]).distance(stepped))
    near_crossing = coined_walk(np.sqrt(1 - 1e-6), 1e-3)
    return {
        "coined_m1_err": abs(limit_moments(mu, 1) + (1.0 - R)),
        "coined_m2_err": abs(limit_moments(mu, 2) - (1.0 - R)),
        "grover3_atom_err": abs(nu.atom_mass(0.0) - (1.0 - 2.0 / 6.0**0.5)),
        "grover3_ch1_m1_err": abs(limit_moments(channel_1, 1) + 0.183503419072274),
        "norm_drift_max": drift,
        f"evolve_l2_t{TIMES[0]}_max": evolve_l2,
        "z100000_cayley_hamilton": verify_cayley_hamilton(SymbolMatrix.shift(100000)),
        "near_crossing_windings": winding_numbers(track_bands(near_crossing, GRID)),
    }


def commit(checkout: Path = ROOT) -> str | None:
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=checkout, capture_output=True,
            text=True,
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH.json")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--against", type=Path, help="checkout to time the stages against")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    environment = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "commit": commit(),
    }
    cases = inputs()
    report = {"environment": environment, "grid": GRID}
    if args.against is not None:
        checkout = args.against.resolve()
        report["against"] = {"checkout": str(checkout), "commit": commit(checkout)}
        report["stages"] = against_timings(load_against(checkout), args.repeats)
    else:
        report["stages"] = {
            name: {
                stage: timed(fn, args.repeats, setup)
                for stage, (fn, setup) in stages(zqwalk, *case).items()
            }
            for name, case in cases.items()
        }
    report.update(
        laurent=laurent_costs(args.repeats),
        writers=writer_timings(*cases["grover3"][:2], args.repeats),
        cli=cli_timings(args.repeats),
        solve_counts={name: solve_counts(walk, [delta, other])
                      for name, (walk, delta, other) in cases.items()},
        bisection={name: bisection(case[0], args.repeats) for name, case in cases.items()},
        accuracy=accuracy(cases),
    )
    paired = " this/against" if args.against is not None else ""
    for name, timings in report["stages"].items():
        medians = ", ".join(
            f"{stage} {1e3 * s['median_s']:.2f}" + (
                f"/{1e3 * s['against']['median_s']:.2f} ({s['ratio']:.2f}x)" if paired else ""
            )
            for stage, s in timings.items()
        )
        print(f"{name} (median ms{paired}): {medians}")
    costs = dict(report["laurent"])
    peak = costs.pop("parse_diag_z1e6_peak_bytes")
    calls = ", ".join(f"{k} {1e6 * s['median_s']:.2f}" for k, s in costs.items())
    print(f"laurent: parse peak {peak} B; per call (median us): {calls}")
    for group in ("bisection", "writers", "cli"):
        medians = ", ".join(f"{k} {1e3 * s['median_s']:.2f}" for k, s in report[group].items())
        print(f"{group} (median ms): {medians}")
    print(f"accuracy: {report['accuracy']}")
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
