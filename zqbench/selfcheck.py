"""Self-check of the benchmark definition and of its counters.

    python3 zqbench/selfcheck.py [--seed N] [--workload NAME ...]

1. Every workload and metric the benchmark promises is declared in
   BENCHMARK.json with a unit and a direction, and every workload with a
   one-line reason.  End-to-end metrics that BENCHMARK.json does not gate are
   printed by every timed run (run.END_TO_END_UNITS, ACCURACY); the accuracy
   figures also have per-layer stand-ins.
2. Two traced runs with the same seed report identical values for every
   per-layer metric that is not a time (counts, bytes, ratios, accuracy).

Exits 0 when both hold, 1 otherwise.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("spectral_corpus", "long_evolve", "symbol_algebra", "cli")
# gated by BENCHMARK.json; the latency percentiles are printed, not gated,
# because their spread over seeds on a shared machine exceeds the largest bound
GATED = ("setup_s", "throughput_ops_s", "peak_rss_mb")
PRINTED = ("latency_p50_s", "latency_tail_s")
# accuracy figures and where each one is reported besides the printed line,
# because end-to-end metrics must be nonzero on every workload
ACCURACY = {
    "failed_frac": "the result's failed / attempted",
    "moment_err_max": "limit.moment_err_max",
    "norm_drift_max": "simulate.norm_drift_max",
}
SUBCOMMANDS = ("check", "bands", "decompose", "winding", "ct-check", "simulate", "limit",
               "compare", "conjugate")
PER_LAYER = (
    "symbol.grid_eval.calls", "symbol.grid_eval.points", "symbol.grid_eval.busy_s",
    "symbol.verify_unitary.calls", "symbol.verify_unitary.busy_s",
    "symbol.compose.busy_s", "symbol.symbol_power.busy_s", "symbol.char_poly.busy_s",
    "symbol.cayley_hamilton.busy_s", "symbol.classify_decay.busy_s", "laurent.result_terms",
    "spectral.track_bands.calls", "spectral.track_bands.self_s",
    "spectral.track_bands.eig_points", "spectral.track_bands.grid_doublings",
    "spectral.track_bands.first_grid_ratio", "spectral.refine_system.busy_s",
    "spectral.winding_numbers.busy_s", "spectral.are_conjugate.self_s", "spectral.refused",
    "spectral.band_projections.busy_s", "spectral.band_projections.points",
    "limit.group_velocities.busy_s", "limit.limit_measure.self_s",
    "limit.limit_moments.busy_s", "limit.cdf_distance.busy_s",
    "simulate.evolve.calls", "simulate.evolve.busy_s", "simulate.evolve.site_steps",
    "simulate.apply_walk.busy_s", "simulate.rescaled_moment.busy_s",
    "model.build_model_walk.busy_s", "model.rearrangement_check.busy_s",
    "io.parse_spec.busy_s", "io.write_s", "io.bytes_written", "cli.import_s",
    *(f"cli.{sub}.wall_s" for sub in SUBCOMMANDS),
    *(f"layer.{layer}.self_s" for layer in
      ("symbol", "spectral", "limit", "simulate", "model", "io", "cli")),
    "trace.op_s", "trace.overhead_s", "trace.top_level_s", "trace.unspanned_s",
    ACCURACY["moment_err_max"], ACCURACY["norm_drift_max"],
)


def check_declarations(spec: dict) -> list[str]:
    problems = []
    workloads = {w["name"]: w for w in spec["workloads"]}
    for name in WORKLOADS:
        why = workloads.get(name, {}).get("why", "")
        if not why.strip() or "\n" in why:
            problems.append(f"workload {name}: missing or multi-line 'why'")
    from run import END_TO_END_UNITS

    for name in (*GATED, *PRINTED):
        if name not in END_TO_END_UNITS:
            problems.append(f"run.py does not print {name}")
    for section, names in (("end_to_end", GATED), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m for m in spec[section]}
        for name in names:
            entry = declared.get(name)
            if entry is None:
                problems.append(f"{section}: {name} not declared")
            elif not entry.get("unit") or entry.get("better") not in ("lower", "higher"):
                problems.append(f"{section}: {name} lacks a unit or a direction")
    return problems


def traced_metrics(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "zqbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: traced run exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()

    problems = check_declarations(json.loads((ROOT / "BENCHMARK.json").read_text()))
    for workload in args.workload or WORKLOADS:
        first, second = (traced_metrics(workload, args.seed) for _ in range(2))
        exact = [k for k, v in first.items() if v["unit"] != "s"]
        differ = [k for k in exact if first[k]["value"] != second[k]["value"]]
        for key in differ:
            problems.append(f"{workload}: {key} differs between runs "
                            f"({first[key]['value']} vs {second[key]['value']})")
        print(f"{workload}: {len(exact) - len(differ)} of {len(exact)} counts repeat exactly")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
