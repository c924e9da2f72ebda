"""zqwalk benchmark: closed-loop workloads with correctness checks.

    python3 zqbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root; `--workload all` runs the four workloads in turn
in one process, each reported as below.  The library is imported from `src/` of the
same checkout (never from an installed copy); the CLI workload runs
`zqwalk.cli:main`, what the installed `zqwalk` script runs, in subprocesses.

One client issues each op only after the previous one returned.  A run makes
whole passes over the workload's ops (`workloads.py`); pass k draws its inputs
from numpy.random.default_rng([seed, k]).  The number of passes is
`--seconds` over the workload's nominal pass time (at least MIN_PASSES), so
the run lasts about `--seconds` on the reference machine and every run of a
workload has the same ops, whatever the speed of the code under test.  Every
op's result is checked after it returns; the checks are not timed.

--trace 0  times the ops and prints the end-to-end metrics.  The machine this
           was built on has spells of 1.3-1.8x slower CPU lasting seconds to
           minutes (other tenants), so each op slot (same op, fresh inputs
           each pass) is timed by its best latency over the passes, and
           throughput, p50 and tail are taken over a pass in which each op
           takes its slot's best time (counted once per pass for the tail).
           The raw p50 and tail over all ops, and a calibration kernel timed
           before each pass, are printed beside them.  Each pass runs in a
           forked child so that it has a peak RSS of its own; peak_rss_mb is
           the median of the pass peaks.  Only the metrics that
           BENCHMARK.json lists go into the result object.
--trace 1  alternates untraced and traced rounds (set-up plus one pass, pass-0
           inputs), about `--seconds` in all, and prints the per-layer
           metrics: counts of the first traced round (they repeat exactly for
           a seed), medians of the round times, and the tracing overhead.
           Spans are written to zqbench/out/spans-<workload>-seed<seed>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `failed` counts ops that raised an
unexpected error or failed a check; `correct` is false when any failure is
not a known library defect named by its op (see `Op.known_defect`).  The run
exits 1 when the library cannot be imported and 3 when a check cannot run,
without printing a result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# One thread does all the work: the BLAS pool is capped to the calling thread,
# in this process and the CLI subprocesses it starts, and nowhere else.
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
MIN_PASSES = 2
TAIL_BEYOND = 10
# every end-to-end metric the run computes; BENCHMARK.json gates a subset
END_TO_END_UNITS = {"setup_s": "s", "throughput_ops_s": "1/s", "latency_p50_s": "s",
                    "latency_tail_s": "s", "peak_rss_mb": "MB"}
VERBOSE_INFO = ("failures", "moment_err_max", "norm_drift_max", "slot_best_s",
                "latencies_s", "pass_peak_rss_mb", "calibration_s")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import zqwalk; "
                "print(time.perf_counter() - t, zqwalk.__file__)")


class CheckError(Exception):
    """A correctness check could not run."""


@dataclass
class Record:
    slot: int
    kind: str
    latency: float
    outcome: object
    known: bool


def cap_blas_threads() -> None:
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_library():
    """Import zqwalk from this checkout's src/, or exit 1."""
    if not (SRC / "zqwalk" / "__init__.py").is_file():
        sys.exit(f"zqbench: no zqwalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import zqwalk
    import zqwalk.cli  # noqa: F401  (loads every module the tracer wraps)
    import zqwalk.io  # noqa: F401

    if Path(zqwalk.__file__).resolve().parent != (SRC / "zqwalk").resolve():
        sys.exit(f"zqbench: zqwalk imported from {zqwalk.__file__}, not {SRC}")
    return zqwalk


# -- environment ------------------------------------------------------------------


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "zqwalk").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def thread_count() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment(zq) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_cap": BLAS_THREADS,
        "threads": thread_count(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "zqwalk": zq.__version__,
    }


# -- running ops -----------------------------------------------------------------------


def pass_rng(seed: int, index: int):
    import numpy as np

    return np.random.default_rng([seed, index])


def run_op(zq, op, slot: int = 0, tracer=None, op_id=None) -> Record:
    from workloads import Outcome

    start = time.perf_counter()
    error = None
    try:
        if tracer is None:
            result = op.run()
        else:
            with tracer.recording(op_id):
                result = op.run()
    except zq.ZqwalkError as exc:
        error = exc
    except Exception as exc:  # an op that crashes is a failed op, not a dead run
        traceback.print_exc(file=sys.stderr)
        error = exc
    latency = time.perf_counter() - start
    if error is None:
        try:
            outcome = op.check(result)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            raise CheckError(f"check of op {op.kind} could not run: {exc!r}") from exc
    elif isinstance(error, zq.ResolutionError) and op.refusal_ok:
        outcome = Outcome(refused=True)
    else:
        outcome = Outcome([f"raised {type(error).__name__}: {error}"])
    known = bool(outcome.failures) and op.known_defect is not None and all(
        f.startswith(op.known_defect) for f in outcome.failures)
    return Record(slot, op.kind, latency, outcome, known)


def forked_pass(zq, ops) -> tuple[list[Record], float]:
    """Run one pass in a forked child; return its records and its peak RSS in MB.

    The child starts from this process's resident image, so its peak resident
    set is the workload's peak during that pass (CLI subprocesses included,
    as descendants), and every pass gets a peak of its own.
    """
    from workloads import Outcome

    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    gc.freeze()  # the child's collector then leaves inherited pages unshared
    pid = os.fork()
    gc.unfreeze()
    if pid == 0:
        os.close(read_fd)
        try:
            records = [run_op(zq, op, slot) for slot, op in enumerate(ops)]
            payload = [[r.slot, r.kind, r.latency, r.outcome.failures, r.outcome.refused,
                        r.outcome.moment_err, r.outcome.norm_drift, r.known] for r in records]
        except BaseException as exc:  # report to the parent, never return into it
            traceback.print_exc(file=sys.stderr)
            payload = {"check_error": repr(exc)}
        with os.fdopen(write_fd, "w") as fh:
            json.dump(payload, fh)
        sys.stderr.flush()
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _pid, status, usage = os.wait4(pid, 0)
    payload = json.loads(data) if data else {"check_error": f"pass exited with {status}"}
    if isinstance(payload, dict):
        raise CheckError(payload["check_error"])
    records = [Record(slot, kind, latency, Outcome(failures, refused, err, drift), known)
               for slot, kind, latency, failures, refused, err, drift, known in payload]
    return records, usage.ru_maxrss / 1024.0


def child_import_s() -> float:
    """Time `import zqwalk` takes in a fresh interpreter (measured inside it)."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                          text=True, timeout=120, check=True)
    seconds, path = proc.stdout.split()
    if Path(path).resolve().parent != (SRC / "zqwalk").resolve():
        raise CheckError(f"child imported zqwalk from {path}")
    return float(seconds)


def fresh_import_wall_s() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import zqwalk"], check=True, timeout=120)
    return time.perf_counter() - start


def tail(latencies: list[float]) -> tuple[float, int]:
    """Latency at the highest whole percentile with >= TAIL_BEYOND ops above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    pct = max(0, math.floor(100 * (n - TAIL_BEYOND) / n))
    while pct > 0 and n - math.ceil(pct * n / 100) < TAIL_BEYOND:
        pct -= 1
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct


def summarize(records: list[Record]) -> dict:
    failed = [r for r in records if r.outcome.failures]
    errs = [r.outcome.moment_err for r in records if r.outcome.moment_err is not None]
    drifts = [r.outcome.norm_drift for r in records if r.outcome.norm_drift is not None]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "known_defects": sum(r.known for r in failed),
        "correct": all(r.known for r in failed),
        "refused": sum(r.outcome.refused for r in records),
        "refused_ops": sorted({r.kind for r in records if r.outcome.refused}),
        "moment_err_max": max(errs) if errs else None,
        "norm_drift_max": max(drifts) if drifts else None,
        "failures": sorted({f"{r.kind}: {f}" for r in failed for f in r.outcome.failures}),
    }


# -- timed run (--trace 0) -----------------------------------------------------------


def calibration_s() -> float:
    """Median time of a fixed numpy-and-Python kernel that does not use zqwalk.

    Measured before each pass: it slows down with the machine (other tenants'
    load), not with the code under test, so it tells a slow spell of the
    machine from slow code when results are compared.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    stack = rng.normal(size=(256, 4, 4)) + 1j * rng.normal(size=(256, 4, 4))
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.linalg.eigvals(stack)
        acc: dict[int, int] = {}
        for i in range(20000):
            acc[i % 97] = acc.get(i % 97, 0) + i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_run(zq, setup, nominal_s: float, seed: int, seconds: float,
              ctx) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = child_import_s()
        start = time.perf_counter()
        ops = setup(zq, pass_rng(seed, 0), ctx)
        setups.append(imported + time.perf_counter() - start)
    run_op(zq, ops[0])  # warm-up: lazy imports and first-call costs, not counted

    planned = max(MIN_PASSES, round(seconds / nominal_s))
    records: list[Record] = []
    peaks: list[float] = []
    calibrations: list[float] = []
    start = time.perf_counter()
    for index in range(planned):
        if index:
            ops = setup(zq, pass_rng(seed, index), ctx)
        calibrations.append(calibration_s())
        pass_records, peak = forked_pass(zq, ops)
        records += pass_records
        peaks.append(peak)
    wall = time.perf_counter() - start

    best = [min(r.latency for r in records if r.slot == slot) for slot in range(len(ops))]
    tail_value, tail_pct = tail(best * planned)
    raw = [r.latency for r in records]
    raw_tail, _pct = tail(raw)
    info = summarize(records)
    info.update(passes=planned, wall_s=wall, ops_per_pass=len(ops),
                tail_percentile=tail_pct, samples=len(records),
                failed_frac=info["failed"] / len(records),
                raw_p50_s=statistics.median(raw), raw_tail_s=raw_tail,
                calibration_s=calibrations,
                slot_best_s={f"{slot}:{ops[slot].kind}": b for slot, b in enumerate(best)},
                pass_peak_rss_mb=peaks,
                latencies_s=[[r.slot, r.latency] for r in records])
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": len(ops) / sum(best),
        "latency_p50_s": statistics.median(best),
        "latency_tail_s": tail_value,
        "peak_rss_mb": statistics.median(peaks),
    }
    return metrics, info


# -- traced run (--trace 1) -----------------------------------------------------------


def round_metrics(spans, traced: list[Record], untraced: list[Record]) -> dict:
    from tracing import outermost, self_times

    out: dict[str, float] = {}
    selfs = self_times(spans)
    for i, span in enumerate(spans):
        base = span.name
        out[f"{base}.calls"] = out.get(f"{base}.calls", 0) + 1
        out[f"{base}.self_s"] = out.get(f"{base}.self_s", 0.0) + selfs[i]
        for key, value in span.counts.items():
            out[f"{base}.{key}"] = out.get(f"{base}.{key}", 0) + value
        layer = f"layer.{base.split('.')[0]}.self_s"
        out[layer] = out.get(layer, 0.0) + selfs[i]
    for name in {s.name for s in spans}:
        out[f"{name}.busy_s"] = sum(
            spans[i].duration for i in outermost(spans, lambda n, name=name: n == name))

    tracks = [(i, s) for i, s in enumerate(spans) if s.name == "spectral.track_bands"]
    out["spectral.track_bands.eig_points"] = sum(
        c.counts.get("points", 0) for c in spans
        if c.name == "symbol.grid_eval" and c.parent is not None
        and spans[c.parent].name == "spectral.track_bands")
    out["spectral.track_bands.first_grid_ratio"] = (
        sum(s.counts.get("grid_doublings") == 0 for _i, s in tracks) / len(tracks)
        if tracks else 0.0)
    out["laurent.result_terms"] = sum(s.counts.get("result_terms", 0) for s in spans)
    out["io.write_s"] = sum(
        spans[i].duration for i in outermost(spans, lambda n: n.startswith("io.write.")))
    out["io.bytes_written"] = sum(s.counts.get("bytes_written", 0) for s in spans)
    out["spectral.refused"] = sum(r.outcome.refused for r in traced)

    traced_s = sum(r.latency for r in traced)
    top = sum(s.duration for s in spans if s.parent is None and s.op != "setup")
    out["trace.op_s"] = sum(r.latency for r in untraced)
    out["trace.overhead_s"] = traced_s - out["trace.op_s"]
    out["trace.top_level_s"] = top
    out["trace.unspanned_s"] = traced_s - top
    return out


def traced_run(zq, setup, nominal_s: float, seed: int, seconds: float, ctx,
               workload: str) -> tuple[dict, dict]:
    from tracing import Tracer
    from workloads import Context

    rounds = []
    for _ in range(max(1, round(seconds / (2 * nominal_s)))):
        ops = setup(zq, pass_rng(seed, 0), ctx)
        if not rounds:
            run_op(zq, ops[0])  # warm-up, as in the timed run
        untraced = [run_op(zq, op, slot) for slot, op in enumerate(ops)]
        tracer = Tracer()
        traced_ctx = Context(ctx.root, ctx.workdir, tracer)
        with tracer.installed():
            with tracer.recording("setup"):
                ops = setup(zq, pass_rng(seed, 0), traced_ctx)
            traced = [run_op(zq, op, slot, tracer, f"{slot}:{op.kind}")
                      for slot, op in enumerate(ops)]
        rounds.append((tracer, traced, untraced))

    per_round = [round_metrics(t.spans, traced, untraced) for t, traced, untraced in rounds]
    metrics = {}
    for key in set().union(*per_round):
        values = [m.get(key, 0) for m in per_round]
        is_time = key.endswith("_s") or key.startswith("trace.")
        metrics[key] = statistics.median(values) if is_time else values[0]
    unstable = sorted(k for k in metrics if not k.endswith("_s") and "ratio" not in k
                      and any(m.get(k, 0) != metrics[k] for m in per_round))
    if workload == "cli":
        metrics["cli.import_s"] = statistics.median(fresh_import_wall_s() for _ in range(3))
        for sub in {r.kind for r in rounds[0][2]}:
            metrics[f"cli.{sub}.wall_s"] = statistics.median(
                r.latency for _t, _tr, untraced in rounds for r in untraced if r.kind == sub)

    records = [r for _t, traced, _u in rounds for r in traced]
    info = summarize(records)
    info.update(rounds=len(rounds), missing_targets=rounds[0][0].missing,
                counter_errors=sum(t.counter_errors for t, _tr, _u in rounds),
                counts_differ_between_rounds=unstable)
    metrics["limit.moment_err_max"] = info["moment_err_max"] or 0.0
    metrics["simulate.norm_drift_max"] = info["norm_drift_max"] or 0.0

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}-seed{seed}.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "rounds": [
            [s.to_json() for s in t.spans] for t, _tr, _u in rounds]}, fh)
    return metrics, info


# -- entry point -------------------------------------------------------------------------


def report(workload: str, seed: int, trace: bool, env: dict, metrics: dict, info: dict,
           registered: list[dict]) -> None:
    print(f"environment {json.dumps(env)}")
    print(f"workload {workload} seed {seed} trace {int(trace)}: "
          + ", ".join(f"{k} {v}" for k, v in info.items() if k not in VERBOSE_INFO))
    for failure in info["failures"]:
        print(f"  failed: {failure}")
    units = {e["name"]: e["unit"] for e in registered}
    if not trace:
        units = {**END_TO_END_UNITS, **units}
    for name, unit in units.items():
        print(f"  {name:<42} {metrics.get(name, 0.0):.6g} {unit}")
    if not trace:
        for name in ("failed_frac", "moment_err_max", "norm_drift_max"):
            value = info[name]
            print(f"  {name:<42} {'n/a' if value is None else f'{value:.6g}'} 1")
        print(f"  {'latency_tail_s':<42} is p{info['tail_percentile']} of {info['samples']} "
              f"ops ({info['ops_per_pass']} slots x {info['passes']} passes, slot-best times)")
        print(f"  {'raw_p50_s':<42} {info['raw_p50_s']:.6g} s (all ops as timed)")
        print(f"  {'raw_tail_s':<42} {info['raw_tail_s']:.6g} s (all ops as timed)")
        print(f"  {'calibration_s':<42} {statistics.median(info['calibration_s']):.6g} s "
              f"median, {max(info['calibration_s']):.6g} s max (machine speed)")


def run_workload(zq, spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool) -> int:
    """Run, check and report one workload; return the exit code."""
    from workloads import WORKLOADS, Context

    registered = spec["per_layer" if trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    ctx = Context(ROOT, workdir)
    setup, nominal_s = WORKLOADS[workload]
    try:
        if trace:
            metrics, info = traced_run(zq, setup, nominal_s, seed, seconds, ctx, workload)
        else:
            metrics, info = timed_run(zq, setup, nominal_s, seed, seconds, ctx)
    except CheckError as exc:
        print(f"zqbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # a per-layer metric of a layer the workload never calls reads 0
    missing = [e["name"] for e in registered if e["name"] not in metrics]
    if missing and not trace:
        print(f"zqbench: metrics not produced: {missing}", file=sys.stderr)
        return 3
    values = {e["name"]: metrics.get(e["name"], 0.0) for e in registered}
    env = environment(zq)
    report(workload, seed, trace, env, {**metrics, **values}, info, registered)
    with open(OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({"environment": env, "metrics": values if trace else {**metrics, **values},
                   "info": info}, fh, indent=1)
    print(json.dumps({
        "correct": info["correct"],
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
                    for e in registered},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cap_blas_threads()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    zq = import_library()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or all")
    codes = [run_workload(zq, spec, name, args.seed, args.seconds, bool(args.trace))
             for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
