"""Summarize benchmark runs: median, quartiles and spread per metric.

    python3 zqbench/baseline.py > summary.json

Reads the result files that `run.py` leaves in zqbench/out/ (one per
workload, seed and trace mode) and prints, per workload and metric, the
median, first and third quartiles and spread (quartile distance over median)
across the seeds found, as `statistics.quantiles(values, n=4)` gives them.
From the span files of the traced runs it also reports per-stage medians
(top-level calls of named ops) that can be set beside single-walk timings.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"
# (workload, op kind, span name) -> per-stage timing of that call
STAGES = [
    ("spectral_corpus", kind, span)
    for kind in ("fixture_coined", "fixture_modified", "fixture_grover3", "grover3_grid4096")
    for span in ("spectral.track_bands", "spectral.are_conjugate", "limit.limit_measure",
                 "spectral.band_projections")
] + [
    ("long_evolve", f"{walk}_delta_t{t}", "simulate.evolve")
    for walk in ("coined", "modified", "grover3") for t in (1600, 6400)
]


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "runs": len(values)}


def stage_seconds(workload: str) -> dict:
    found: dict[tuple[str, str], list[float]] = {}
    for path in OUT.glob(f"spans-{workload}-seed*.json"):
        for spans in json.loads(path.read_text())["rounds"]:
            seen = set()
            for s in spans:
                kind = (s["op"] or "").partition(":")[2]
                key = (kind, s["name"])
                # first call of the stage in the op, whatever its depth
                if (workload, *key) in STAGES and (s["op"], s["name"]) not in seen:
                    seen.add((s["op"], s["name"]))
                    found.setdefault(key, []).append(s["end"] - s["start"])
    return {f"{kind} {name}": statistics.median(v) for (kind, name), v in sorted(found.items())}


def main() -> int:
    runs: dict[tuple[str, int], dict[str, list[float]]] = {}
    environment = None
    for path in sorted(OUT.glob("result-*.json")):
        match = re.fullmatch(r"result-(.+)-seed(\d+)-trace([01])\.json", path.name)
        data = json.loads(path.read_text())
        environment = environment or data["environment"]
        bucket = runs.setdefault((match[1], int(match[3])), {})
        for name, value in data["metrics"].items():
            bucket.setdefault(name, []).append(value)
        for name in ("failed_frac", "moment_err_max", "norm_drift_max"):
            if data["info"].get(name) is not None:
                bucket.setdefault(name, []).append(data["info"][name])
    summary = {"environment": environment, "end_to_end": {}, "per_layer": {}, "stages_s": {}}
    for (workload, trace), metrics in sorted(runs.items()):
        section = summary["per_layer" if trace else "end_to_end"]
        section[workload] = {name: spread(v) for name, v in sorted(metrics.items())}
        if trace:
            summary["stages_s"][workload] = stage_seconds(workload)
    json.dump(summary, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
