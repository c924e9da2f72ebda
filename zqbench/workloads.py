"""Seeded inputs, operations and correctness checks of the benchmark workloads.

`WORKLOADS[name](zq, rng, ctx)` builds the inputs of one pass of a workload
from the numpy Generator `rng` and returns its ops.  Every pass has the same
ops ("slots") in the same order; the seeded parts of their inputs are drawn
afresh for each pass.  An op's
`run` makes library calls only and is what the loop times (and, in the traced
run, what gets traced); its `check` verifies the result afterwards, untimed
and untraced, with the benchmark's own numpy evaluation of the symbol where a
reference is needed.  Ops call the library through the package namespace at
call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

R = 2**-0.5
# Closed forms for the delta initial vectors of the fixtures: coined (Hadamard)
# walk from channel 1 (Grimmett-Janson-Scudo), Grover walk from channel 2.
COINED_M1 = -(1.0 - R)
COINED_M2 = 1.0 - R
GROVER_ATOM = 1.0 - 2.0 / np.sqrt(6.0)

# The limit moments come from a 512-bin histogram whose error on the coined
# moments is ~7e-5; the atom is exact up to roundoff.
MOMENT_TOL = 5e-4
ATOM_TOL = 1e-8
MASS_TOL = 1e-9
NORM_TOL = 1e-9
TV_TOL = 1e-9
SAMPLE_TOL = 1e-9
CH_TOL = 1e-8
REARRANGE_TOL = 1e-12
# |empirical - limit| rescaled moments at t >= 1600 (acceptance criterion 6)
DEVIATION_TOL = 0.02
CLI_TIMEOUT_S = 120
SPEC_GRID = 4096


@dataclass
class Outcome:
    """What one op's check found."""

    failures: list[str] = field(default_factory=list)
    refused: bool = False
    moment_err: float | None = None
    norm_drift: float | None = None

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def moment(self, got: float, want: float, tol: float, what: str) -> None:
        err = abs(got - want)
        self.moment_err = max(self.moment_err or 0.0, err)
        self.expect(err <= tol, f"{what} {got:.12g} != closed form {want:.12g}")

    def drift(self, value: float) -> None:
        self.norm_drift = max(self.norm_drift or 0.0, value)
        self.expect(value <= NORM_TOL, f"norm drift {value:.3e}")


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    # a ResolutionError is an accepted answer (generated walks may be unresolvable)
    refusal_ok: bool = False
    # failure prefix that the library is known to produce on this op
    known_defect: str | None = None


@dataclass
class Context:
    root: Path
    workdir: Path
    tracer: Any = None


# -- independent references ------------------------------------------------------


def circle(m: int, offset: float = 0.0) -> np.ndarray:
    return np.exp(2j * np.pi * (np.arange(m) + offset) / m)


def sample_symbol(walk, z: np.ndarray) -> np.ndarray:
    """U(z) as sum_s C_s z^s from the coefficient matrices, shape (M, n, n)."""
    out = np.zeros((len(z), walk.n, walk.n), dtype=complex)
    for s, mat in walk.coefficient_sequences().items():
        out += z[:, None, None] ** s * mat
    return out


def loop_winding(samples: np.ndarray) -> int:
    return int(np.rint(np.sum(np.angle(np.roll(samples, -1) / samples)) / (2 * np.pi)))


def det_winding(walk, m: int = 4096) -> int:
    """Winding of det U(z): the GNVW index that the band windings must sum to."""
    return loop_winding(np.linalg.det(sample_symbol(walk, circle(m))))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def local_vector(zq, rng: np.random.Generator, n: int, radius: int = 3):
    """Unit vector with Gaussian amplitudes on |site| <= radius."""
    amps = rng.normal(size=(2 * radius + 1, n)) + 1j * rng.normal(size=(2 * radius + 1, n))
    amps /= np.linalg.norm(amps)
    return zq.StateVector(
        {(s - radius, k + 1): amps[s, k] for s in range(2 * radius + 1) for k in range(n)}, n
    )


def state_norm(xi) -> float:
    return float(np.sqrt(sum(abs(a) ** 2 for a in xi.amplitudes.values())))


def shift_layer(zq, shifts):
    n = len(shifts)
    zero = zq.LaurentPoly.zero()
    return zq.SymbolMatrix(n, tuple(
        tuple(zq.LaurentPoly.monomial(int(shifts[i])) if i == j else zero for j in range(n))
        for i in range(n)
    ))


def split_step_layers(zq, rng: np.random.Generator, n: int, radius: int) -> list:
    """`radius` coin x shift layers, channel 1 moving right and channel n left."""
    layers = []
    for _ in range(radius):
        shifts = rng.integers(-1, 2, size=n)
        shifts[0], shifts[-1] = 1, -1
        layers += [zq.SymbolMatrix.from_constant(random_unitary(rng, n)), shift_layer(zq, shifts)]
    return layers


def compose_all(zq, layers):
    """layers[-1] * ... * layers[0]."""
    walk = layers[0]
    for layer in layers[1:]:
        walk = zq.compose(layer, walk)
    return walk


def conjugated(zq, walk, unitary):
    v = zq.SymbolMatrix.from_constant(unitary)
    vstar = zq.SymbolMatrix.from_constant(unitary.conj().T)
    return zq.compose(v, zq.compose(walk, vstar))


def model_spec(zq, rng: np.random.Generator, d: int, winding: int):
    """A model spec whose eigenvalue function has the given winding and no
    rotation symmetry, so its walk has exactly one band of degree d."""
    theta = 2 * np.pi * np.arange(SPEC_GRID) / SPEC_GRID
    z = np.exp(1j * theta)
    while True:
        phase = winding * theta
        for f in range(1, 4):
            a, b = rng.uniform(-0.6, 0.6, size=2) / f
            phase = phase + a * np.cos(f * theta) + b * np.sin(f * theta)
        spec = zq.ModelWalkSpec(d, zq.lambda_coeffs_from_samples(np.exp(1j * phase)))
        base = spec.lambda_coeffs(z[::8])
        if all(
            np.max(np.abs(base - spec.lambda_coeffs(np.exp(2j * np.pi * c / d) * z[::8]))) >= 0.05
            for c in range(1, d)
        ):
            return spec


def band_shape(system) -> list[tuple[int, int]]:
    return sorted((b.d, b.multiplicity) for b in system.bands)


# -- spectral_corpus ----------------------------------------------------------------


@dataclass
class Golden:
    shape: list[tuple[int, int]] | None = None
    windings: list[int] | None = None
    decomposable: bool | None = None
    ct: bool | None = None
    # closed forms for the delta vector: {"m1": ..., "m2": ...} or {"atom": ...}
    closed: dict[str, float] = field(default_factory=dict)


def spectral_op(zq, kind, walk, other, vectors, grid, golden: Golden, **flags) -> Op:
    def run():
        # a refusal of one stage still leaves the earlier answers to check
        out = {"system": zq.track_bands(walk, grid), "refused": []}
        refined = out["refined"] = zq.refine_system(out["system"])
        out["windings"] = zq.winding_numbers(refined)
        out["ct"] = zq.ct_realizable(refined)
        out["decomposable"] = zq.is_decomposable(refined)
        try:
            out["conjugate"] = zq.are_conjugate(walk, other, base_grid=grid)
        except zq.ResolutionError as exc:
            out["refused"].append(f"are_conjugate: {exc}")
        try:
            measures = [zq.limit_measure(walk, xi, refined) for xi in vectors]
            out["moments"] = [[zq.limit_moments(m, k) for k in range(1, 5)] for m in measures]
            out["measures"] = measures
        except zq.ResolutionError as exc:
            out["refused"].append(f"limit_measure: {exc}")
        return out

    def check(out) -> Outcome:
        res = Outcome()
        refined, windings = out["refined"], out["windings"]
        index = sum(b.multiplicity * w for b, w in zip(refined.bands, windings))
        det_index = det_winding(walk)
        res.expect(index == det_index, f"index {index} != det winding {det_index}")
        if golden.windings is not None:
            res.expect(sorted(windings) == golden.windings,
                       f"winding {sorted(windings)} != {golden.windings}")
        if golden.shape is not None:
            res.expect(band_shape(refined) == golden.shape, f"bands {band_shape(refined)}")
        if golden.decomposable is not None:
            res.expect(out["decomposable"] == golden.decomposable, "decomposability")
        if golden.ct is not None:
            res.expect(out["ct"] == golden.ct, "ct_realizable")
        if out["refused"]:
            res.refused = True
            if not flags.get("refusal_ok", False):
                res.failures += [f"refused {r}" for r in out["refused"]]
        if "conjugate" in out:
            res.expect(out["conjugate"] is True, "are_conjugate(w, V w V*) is not True")
        if "measures" not in out:
            return res
        for measure in out["measures"]:
            res.expect(abs(measure.total_mass - 1.0) <= MASS_TOL,
                       f"limit mass {measure.total_mass:.15g}")
        m1, m2 = out["moments"][0][:2]
        if "m1" in golden.closed:
            res.moment(m1, golden.closed["m1"], MOMENT_TOL, "m1")
            res.moment(m2, golden.closed["m2"], MOMENT_TOL, "m2")
        if "atom" in golden.closed:
            res.moment(out["measures"][0].atom_mass(0.0), golden.closed["atom"], ATOM_TOL, "atom")
        return res

    return Op(kind, run, check, **flags)


def spectral_corpus(zq, rng: np.random.Generator, ctx: Context) -> list[Op]:
    """Fixtures, seeded split-step, coined and model walks, a degenerate direct
    sum, the near-avoided crossing and one grover3 op at grid 4096."""
    ops = []

    def add(kind, walk, golden, grid=1024, delta=None, **flags):
        n = walk.n
        vectors = [delta or zq.StateVector.delta(0, 1, n), local_vector(zq, rng, n)]
        other = conjugated(zq, walk, random_unitary(rng, n))
        ops.append(spectral_op(zq, kind, walk, other, vectors, grid, golden, **flags))

    coined, grover = zq.coined_walk(), zq.grover_walk_3()
    grover_delta = zq.StateVector.delta(0, 2, 3)
    add("fixture_coined", coined,
        Golden([(1, 1), (1, 1)], [0, 0], True, True, {"m1": COINED_M1, "m2": COINED_M2}))
    add("fixture_modified", zq.modified_coined_walk(), Golden([(2, 1)], [1], False, False))
    add("fixture_grover3", grover,
        Golden([(1, 1), (2, 1)], [0, 0], True, True, {"atom": GROVER_ATOM}), delta=grover_delta)
    for n in (2, 4, 6, 8):
        layers = split_step_layers(zq, rng, n, 1 + n % 3)
        add(f"split_n{n}", compose_all(zq, layers), Golden(), refusal_ok=True)
    a = np.sqrt(rng.uniform(0.05, 0.95)) * np.exp(2j * np.pi * rng.uniform())
    b = np.sqrt(1 - abs(a) ** 2) * np.exp(2j * np.pi * rng.uniform())
    add("coined_seeded", zq.coined_walk(a, b), Golden([(1, 1), (1, 1)], [0, 0]), refusal_ok=True)
    for d in (2, 3, 4):
        w = int(rng.choice([-2, -1, 1, 2]))
        walk = zq.build_model_walk(model_spec(zq, rng, d, w))
        add(f"model_d{d}", walk, Golden([(d, 1)], [w]), refusal_ok=True)
    add("direct_sum", zq.direct_sum(coined, coined),
        Golden([(1, 2), (1, 2)], [0, 0], True, True, {"m1": COINED_M1, "m2": COINED_M2}),
        refusal_ok=True)
    # ROADMAP item 2: grid 1024 certifies windings (+1, -1) here; the truth is (0, 0)
    add("near_crossing", zq.coined_walk(np.sqrt(1 - 1e-6), 1e-3),
        Golden([(1, 1), (1, 1)], [0, 0]), refusal_ok=True, known_defect="winding")
    # At grid 4096 the FFT velocity of the flat band varies by more than
    # limit.ATOM_TOTAL_VARIATION, so limit_measure puts the atom into the histogram.
    add("grover3_grid4096", grover,
        Golden([(1, 1), (2, 1)], [0, 0], True, True, {"atom": GROVER_ATOM}),
        grid=4096, delta=grover_delta, known_defect="atom")
    return ops


# -- long_evolve ------------------------------------------------------------------------


def long_evolve(zq, rng: np.random.Generator, ctx: Context) -> list[Op]:
    """compare, in process: one limit op per (walk, vector), then one op per t."""
    fixtures = [
        ("coined", zq.coined_walk(), zq.StateVector.delta(0, 1, 2),
         {"m1": COINED_M1, "m2": COINED_M2}),
        ("modified", zq.modified_coined_walk(), zq.StateVector.delta(0, 1, 2), {}),
        ("grover3", zq.grover_walk_3(), zq.StateVector.delta(0, 2, 3), {"atom": GROVER_ATOM}),
    ]
    ops = []
    for name, walk, delta, closed in fixtures:
        for label, xi, forms in (("delta", delta, closed),
                                 ("local", local_vector(zq, rng, walk.n), {})):
            shared: dict = {}
            ops.append(limit_op(zq, f"{name}_{label}_limit", walk, xi, forms, shared))
            for t in (400, 1600, 6400):
                ops.append(evolve_op(zq, f"{name}_{label}_t{t}", walk, xi, t, shared))
    return ops


def limit_op(zq, kind, walk, xi, closed, shared) -> Op:
    def run():
        system = zq.refine_system(zq.track_bands(walk, 1024))
        measure = zq.limit_measure(walk, xi, system)
        shared["measure"] = measure
        shared["moments"] = [zq.limit_moments(measure, m) for m in range(1, 5)]
        return measure

    def check(measure) -> Outcome:
        res = Outcome()
        res.expect(abs(measure.total_mass - 1.0) <= MASS_TOL, f"limit mass {measure.total_mass}")
        if "m1" in closed:
            res.moment(shared["moments"][0], closed["m1"], MOMENT_TOL, "m1")
            res.moment(shared["moments"][1], closed["m2"], MOMENT_TOL, "m2")
        if "atom" in closed:
            res.moment(measure.atom_mass(0.0), closed["atom"], ATOM_TOL, "atom")
        return res

    return Op(kind, run, check)


def evolve_op(zq, kind, walk, xi, t, shared) -> Op:
    def run():
        state = zq.evolve(walk, xi, t)
        moments = [zq.rescaled_moment(state, t, m) for m in range(1, 5)]
        dist = zq.position_distribution(state, time=t)
        return state, moments, dist, zq.cdf_distance(shared["measure"], dist, t)

    def check(out) -> Outcome:
        state, moments, dist, cdf = out
        res = Outcome()
        res.drift(abs(state_norm(state) - 1.0))
        res.expect(0.0 <= cdf <= 1.0, f"cdf distance {cdf}")
        if t >= 1600:
            worst = max(abs(a - b) for a, b in zip(moments, shared["moments"]))
            res.expect(worst <= DEVIATION_TOL, f"moment deviation {worst:.3e} at t={t}")
        if t == 400:
            ref = zq.fourier_position_distribution(walk, xi, t).probs
            sites = set(ref) | set(dist.probs)
            tv = 0.5 * sum(abs(ref.get(s, 0.0) - dist.probs.get(s, 0.0)) for s in sites)
            res.expect(tv <= TV_TOL, f"evolve vs Fourier total variation {tv:.3e}")
        return res

    return Op(kind, run, check)


# -- symbol_algebra ---------------------------------------------------------------------


def symbol_algebra(zq, rng: np.random.Generator, ctx: Context) -> list[Op]:
    """Exact Laurent-ring work: compose, adjoint, powers, char_poly, decay,
    model walks and a few single steps; two independent instances of each."""
    return [op for _ in range(2) for op in algebra_ops(zq, rng)]


def algebra_ops(zq, rng: np.random.Generator) -> list[Op]:
    z = circle(16, offset=rng.uniform())
    ops = []

    for n in (2, 4, 6, 8):
        layers = split_step_layers(zq, rng, n, 3)

        def run(layers=layers):
            return compose_all(zq, layers)

        def check(walk, layers=layers):
            want = np.broadcast_to(np.eye(layers[0].n, dtype=complex), (len(z),) + (layers[0].n,) * 2)
            for layer in layers:
                want = sample_symbol(layer, z) @ want
            res = Outcome()
            err = float(np.max(np.abs(sample_symbol(walk, z) - want)))
            res.expect(err <= SAMPLE_TOL, f"compose off by {err:.3e}")
            return res

        ops.append(Op(f"compose_n{n}", run, check))

    a = np.sqrt(rng.uniform(0.05, 0.95)) * np.exp(2j * np.pi * rng.uniform())
    b = np.sqrt(1 - abs(a) ** 2) * np.exp(2j * np.pi * rng.uniform())
    powers = [
        (zq.coined_walk(a, b), 64),
        (zq.grover_walk_3(), 64),
        (compose_all(zq, split_step_layers(zq, rng, 3, 1)), 64),
        (zq.build_model_walk(model_spec(zq, rng, 2, 1)), 16),
    ]
    for walk, t in powers:

        def run(walk=walk, t=t):
            adj = zq.adjoint(walk)
            return adj, zq.symbol_power(walk, t)

        def check(out, walk=walk, t=t):
            adj, power = out
            u = sample_symbol(walk, z)
            res = Outcome()
            err = float(np.max(np.abs(sample_symbol(adj, z) @ u - np.eye(walk.n))))
            res.expect(err <= SAMPLE_TOL, f"adjoint * U off identity by {err:.3e}")
            err = float(np.max(np.abs(sample_symbol(power, z) - np.linalg.matrix_power(u, t))))
            res.expect(err <= SAMPLE_TOL * t, f"U^{t} off by {err:.3e}")
            return res

        ops.append(Op(f"power_n{walk.n}_t{t}", run, check))

    for n in range(2, 9):
        walk = compose_all(zq, split_step_layers(zq, rng, n, 1 + n % 2))

        def run(walk=walk):
            return zq.char_poly(walk), zq.verify_cayley_hamilton(walk, 256)

        def check(out, walk=walk):
            f, residual = out
            res = Outcome()
            want = np.array([np.poly(u)[::-1] for u in sample_symbol(walk, z)])
            got = np.stack([c(z) if not c.is_zero else np.zeros_like(z) for c in f.coeffs], axis=1)
            err = float(np.max(np.abs(got - want)))
            res.expect(err <= SAMPLE_TOL, f"char_poly off np.poly by {err:.3e}")
            res.expect(residual <= CH_TOL, f"Cayley-Hamilton residual {residual:.3e}")
            return res

        ops.append(Op(f"char_poly_n{n}", run, check))

        def run_decay(walk=walk):
            return zq.classify_decay(walk, walk.propagation_radius + 4)

        def check_decay(decay, walk=walk):
            res = Outcome()
            res.expect(decay.is_finite_propagation and decay.radius == walk.propagation_radius,
                       f"decay {decay}")
            return res

        ops.append(Op(f"classify_decay_n{n}", run_decay, check_decay))

    for d in (1, 2, 3, 4):
        spec = model_spec(zq, rng, d, int(rng.integers(-1, 2)))
        vectors = [local_vector(zq, rng, d) for _ in range(5)]

        def run(spec=spec, vectors=vectors):
            return zq.build_model_walk(spec), zq.rearrangement_check(spec, vectors)

        def check(out, spec=spec):
            walk, residual = out
            res = Outcome()
            u = sample_symbol(walk, z)
            err = float(np.max(np.abs(np.conj(np.swapaxes(u, 1, 2)) @ u - np.eye(spec.d))))
            res.expect(err <= 1e-8, f"model walk not unitary ({err:.3e})")
            res.expect(residual <= REARRANGE_TOL, f"rearrangement residual {residual:.3e}")
            return res

        ops.append(Op(f"model_d{d}", run, check))

    for n in (2, 4):
        walk = compose_all(zq, split_step_layers(zq, rng, n, 2))
        xi = local_vector(zq, rng, n)

        def run(walk=walk, xi=xi):
            state = xi
            for _ in range(8):
                state = zq.apply_walk(walk, state)
            return state

        def check(state, walk=walk, xi=xi):
            res = Outcome()
            res.drift(abs(state_norm(state) - 1.0))
            dist = state.distance(zq.evolve(walk, xi, 8))
            res.expect(dist <= SAMPLE_TOL, f"apply_walk^8 vs evolve distance {dist:.3e}")
            return res

        ops.append(Op(f"apply_walk_n{n}", run, check))
    return ops


# -- cli ----------------------------------------------------------------------------------

CLI_ENTRY = "import sys; from zqwalk.cli import main; sys.exit(main())"


def cli(zq, rng: np.random.Generator, ctx: Context) -> list[Op]:
    """Each of the nine subcommands once, as a subprocess on the fixtures."""
    inputs = ctx.workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for name in ("hadamard", "modified_hadamard", "grover3", "delta0_ch1"):
        shutil.copyfile(ctx.root / "fixtures" / f"{name}.json", inputs / f"{name}.json")
    hadamard = zq.coined_walk()
    specs = {
        "local2": zq.io.state_to_json(local_vector(zq, rng, 2)),
        "local3": zq.io.state_to_json(local_vector(zq, rng, 3)),
        "hadamard_conj": zq.io.walk_to_json(conjugated(zq, hadamard, random_unitary(rng, 2))),
    }
    for name, payload in specs.items():
        (inputs / f"{name}.json").write_text(json.dumps(payload))

    def spec(name):
        return f"inputs/{name}.json"

    def artifact(out, name):
        return json.loads((ctx.workdir / out / name).read_text())

    def check_ch(out, res):
        residual = artifact(out, "check.json").get("cayley_hamilton_residual", 1.0)
        res.expect(residual <= CH_TOL, f"check: Cayley-Hamilton residual {residual}")

    def check_bands(out, res):
        bands = artifact(out, "eigensystem.json")["bands"]
        shape = sorted((b["d"], b["multiplicity"]) for b in bands)
        res.expect(shape == [(1, 1), (2, 1)], f"bands: grover3 shape {shape}")

    def check_decompose(out, res):
        res.expect(artifact(out, "decompose.json")["decomposable"] is True,
                   "decompose: grover3 must be decomposable")

    def check_winding(out, res):
        windings = artifact(out, "winding.json")["windings"]
        res.expect(windings == [1], f"winding: modified gives {windings}, want [1]")

    def check_ct(out, res):
        res.expect(artifact(out, "ct_check.json")["ct_realizable"] is True,
                   "ct-check: hadamard must be realizable")

    def check_simulate(out, res):
        for t in (100, 400):
            rows = (ctx.workdir / out / f"dist_t{t}.csv").read_text().splitlines()[1:]
            mass = sum(float(row.split(",")[1]) for row in rows)
            res.expect(abs(mass - 1.0) <= MASS_TOL, f"simulate: t={t} mass {mass:.15g}")

    def check_limit(out, res):
        measure = artifact(out, "measure.json")
        mass = sum(a["mass"] for key in ("atoms", "bins") for a in measure[key])
        res.expect(abs(mass - 1.0) <= MASS_TOL, f"limit: total mass {mass:.15g}")

    def check_compare(out, res):
        rows = (ctx.workdir / out / "moments.csv").read_text().splitlines()[1:]
        res.expect(len(rows) == 8, f"compare: {len(rows)} moment rows, want 8")

    def check_conjugate(out, res):
        res.expect(artifact(out, "conjugate.json")["conjugate"] is True,
                   "conjugate: V h V* must be conjugate to h")

    commands = [
        ("check", [spec("grover3")], check_ch),
        ("bands", [spec("grover3")], check_bands),
        ("decompose", [spec("grover3")], check_decompose),
        ("winding", [spec("modified_hadamard")], check_winding),
        ("ct-check", [spec("hadamard")], check_ct),
        ("simulate", [spec("hadamard"), "--init", spec("local2"), "--t", "100,400"],
         check_simulate),
        ("limit", [spec("grover3"), "--init", spec("local3")], check_limit),
        ("compare", [spec("hadamard"), "--init", spec("delta0_ch1"), "--t", "100,400",
                     "--mmax", "4"], check_compare),
        ("conjugate", [spec("hadamard"), spec("hadamard_conj")], check_conjugate),
    ]
    return [cli_op(ctx, sub, args, golden) for sub, args, golden in commands]


def cli_op(ctx: Context, sub: str, args: list[str], golden) -> Op:
    out = f"runs/{sub}"
    bench_dir = Path(__file__).resolve().parent
    spans_file = ctx.workdir / f"spans-{sub}.json"

    def run():
        argv = [sub, *args, "--out", out]
        if ctx.tracer is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
        else:
            cmd = [sys.executable, str(bench_dir / "cli_child.py"), str(spans_file), *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ctx.workdir, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        end = time.perf_counter()
        if ctx.tracer is not None:
            from tracing import Span

            parent = ctx.tracer.add_span(f"cli.{sub}", start, end)
            ctx.tracer.spans[parent].counts["bytes_written"] = sum(
                p.stat().st_size for p in (ctx.workdir / out).rglob("*") if p.is_file())
            if spans_file.exists():
                child = json.loads(spans_file.read_text())
                ctx.tracer.adopt([Span.from_json(s) for s in child], parent)
                spans_file.unlink()
        return proc, end - start

    def check(result) -> Outcome:
        proc, _wall = result
        res = Outcome()
        try:
            if proc.returncode != 0:
                res.failures.append(f"{sub}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                return res
            manifest = json.loads((ctx.workdir / out / "manifest.json").read_text())
            res.expect(manifest.get("command") == sub, f"{sub}: manifest command")
            missing = [o for o in manifest.get("outputs", [])
                       if not (ctx.workdir / out / o).is_file()]
            res.expect(not missing, f"{sub}: manifest lists missing outputs {missing}")
            golden(out, res)
        except (OSError, ValueError, KeyError) as exc:
            res.failures.append(f"{sub}: unreadable output: {exc!r}")
        finally:
            shutil.rmtree(ctx.workdir / out, ignore_errors=True)
        return res

    return Op(sub, run, check)


# name -> (set-up of one pass, seconds one pass takes on the reference machine:
# 2 CPUs, numpy 2.4.6, scipy 1.17.1, one BLAS thread)
WORKLOADS: dict[str, tuple[Callable[..., list[Op]], float]] = {
    "spectral_corpus": (spectral_corpus, 5.0),
    "long_evolve": (long_evolve, 10.0),
    "symbol_algebra": (symbol_algebra, 0.75),
    "cli": (cli, 5.5),
}
