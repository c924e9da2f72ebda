#!/usr/bin/env python3
"""Full analysis of the three reference walks into one run directory.

For each walk: unitarity check, decay class, characteristic polynomial
residual, tracked and refined eigen system, windings, decomposability,
continuous-time realizability, and (for the walks with a natural initial
vector) the weak limit measure.  Everything lands under runs/reference/.
"""

import json
from pathlib import Path



from zqwalk import (
    StateVector,
    classify_decay,
    ct_realizable,
    is_decomposable,
    limit_measure,
    total_winding,
    track_bands,
    verify_cayley_hamilton,
    verify_unitary_symbol,
    walk_corpus,
    winding_numbers,
)
from zqwalk import io as zio

INITIAL = {
    "coined": StateVector.delta(0, 1, 2),
    "modified": StateVector.delta(0, 1, 2),
    "grover3": StateVector.from_channel_vector(0, [0.0, 1.0, 0.0]),
}


def main() -> None:
    out = Path("runs/reference")
    out.mkdir(parents=True, exist_ok=True)
    for name, walk in walk_corpus().items():
        unitary = verify_unitary_symbol(walk)
        system = track_bands(walk, 1024)
        measure = limit_measure(walk, INITIAL[name], system)
        report = {
            "walk": name,
            "unitarity_deviation": unitary.max_deviation,
            "decay": classify_decay(walk, max(4, walk.propagation_radius + 1)).kind,
            "cayley_hamilton_residual": verify_cayley_hamilton(walk),
            "bands": [
                {"d": b.d, "winding": b.winding, "multiplicity": b.multiplicity}
                for b in system.bands
            ],
            "windings": winding_numbers(system),
            "total_abs_winding": total_winding(system),
            "decomposable": is_decomposable(system),
            "ct_realizable": ct_realizable(system),
            "limit_atoms": list(measure.atoms),
            "limit_support": measure.max_support(),
        }
        with open(out / f"{name}.json", "w") as fh:
            json.dump(report, fh, indent=2)
        with open(out / f"{name}_bands.csv", "w") as fh:
            zio.write_bands_csv(system, fh)
        with open(out / f"{name}_measure.csv", "w") as fh:
            zio.write_measure_csv(measure, fh)
        atoms = ", ".join(f"{x:+.3f}:{m:.4f}" for x, m in measure.atoms) or "none"
        print(
            f"{name:9s} bands={[(b.d, b.winding) for b in system.bands]} "
            f"|w|={report['total_abs_winding']} "
            f"decomposable={report['decomposable']} ct={report['ct_realizable']} "
            f"atoms=[{atoms}]"
        )
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
