import csv
import hashlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from zqwalk import (
    DomainError,
    LimitMeasure,
    ModelWalkSpec,
    SpecFormatError,
    StateVector,
    SymbolMatrix,
    UnitarityError,
    apply_walk,
    are_conjugate,
    coined_walk,
    direct_sum,
    evolve,
    grover_walk_3,
    limit_measure,
    modified_coined_walk,
    position_distribution,
    refine_system,
    track_bands,
)
from support import (
    channel_vector,
    compared_moments,
    conjugated_coined_sum,
    coupled_coined_sum,
    loop_bands_csv,
    loop_comparison_csv,
    loop_distribution_csv,
    loop_generator_csv,
    loop_measure_csv,
    max_support,
    pinned_walks,
    poly_terms,
    random_local_state,
    recorded_grid_evals,
    symbols_close,
)
from zqwalk import io as zio
from zqwalk.cli import main
from zqwalk.limit import DEFAULT_BINS
from zqwalk.symbol import UNITARY_GRID


@pytest.fixture
def spec_dir(tmp_path):
    files = {
        "hadamard.json": zio.walk_to_json(coined_walk()),
        "modified_hadamard.json": zio.walk_to_json(modified_coined_walk()),
        "grover3.json": zio.walk_to_json(grover_walk_3()),
        "delta0_ch1.json": zio.state_to_json(StateVector.delta(0, 1, 2)),
        "grover_init.json": zio.state_to_json(
            channel_vector(0, [0.0, 1.0, 0.0])
        ),
        "shift_model.json": {
            "model": {"d": 1, "lambda_coeffs": [{"shift": 1, "re": 1.0, "im": 0.0}]}
        },
    }
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    return tmp_path


# -- parsing ---------------------------------------------------------------------


def test_parse_walk_fixture(spec_dir):
    walk = zio.parse_spec((spec_dir / "hadamard.json").read_text())
    assert isinstance(walk, SymbolMatrix)
    assert walk.n == 2 and walk.propagation_radius == 1
    assert symbols_close(walk, coined_walk())


def test_parse_model_form(spec_dir):
    spec = zio.parse_spec((spec_dir / "shift_model.json").read_text())
    assert isinstance(spec, ModelWalkSpec)
    assert spec.d == 1 and poly_terms(spec.lambda_coeffs) == {1: 1.0}


def test_parse_vector(spec_dir):
    xi = zio.parse_spec((spec_dir / "delta0_ch1.json").read_text())
    assert isinstance(xi, StateVector)
    assert xi.amplitudes == {(0, 1): 1.0}


def test_parse_malformed_json():
    with pytest.raises(SpecFormatError):
        zio.parse_spec("{not json")


def test_repeated_walk_entries_are_summed(tmp_path, capsys):
    # hadamard's (1, 1) term 1/sqrt 2 split over two entries, 0.5 first
    payload = json.loads((FIXTURES / "hadamard.json").read_text())
    first = payload["entries"][0]
    assert (first["row"], first["col"], first["terms"][0]["shift"]) == (1, 1, -1)
    first["terms"][0]["re"] = 0.5
    rest = {"row": 1, "col": 1, "terms": [{"shift": -1, "re": 0.20710678118654757, "im": 0.0}]}
    payload["entries"].insert(1, rest)
    assert symbols_close(zio.walk_from_json(payload), coined_walk(), 0.0)
    spec = tmp_path / "split.json"
    spec.write_text(json.dumps(payload))
    assert run_cli("check", spec, "--out", tmp_path / "check") == 0
    assert "unitarity pass" in capsys.readouterr().out
    assert run_cli("bands", spec, "--grid", 64, "--out", tmp_path / "bands") == 0


def test_parse_schema_diagnostics():
    with pytest.raises(SpecFormatError, match=r"entries\[0\]"):
        zio.parse_spec('{"n": 2, "entries": [{"row": 1}]}')
    with pytest.raises(SpecFormatError, match="row/col"):
        zio.parse_spec('{"n": 1, "entries": [{"row": 5, "col": 1, "terms": []}]}')


# -- round trips --------------------------------------------------------------------


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# sha256 of json.dumps(walk_to_json(walk)), recorded when every symbol was an
# n x n matrix of LaurentPoly entries composed entry by entry; the wire format
# and the composed coefficients must stay byte for byte the same
WALK_JSON_SHA256 = {
    "shift1_model": "9fcf7acd1826775d56260d1ea8635d598dacbffc39287b13a20e38379470ba40",
    "split_step_n2": "08976c7b9502227d52a529fba4bcffbafaa023f4f14a790c595fbcd6a92e1b51",
    "split_step_n3": "0e96c26002223f01e31f95708e655b9cc0181cdd72feb28ec8adb2078a53846b",
    "split_step_n4": "86f55005d46d3a61c24dbbcc14612f5c06b3324d947a8a92d8ee4d9a73bb2e37",
    "split_step_n5": "d769a134e3294a5ccfe5b3117a40bac7af76bb6ad7884be795ccb21b30557295",
    "split_step_n6": "d34972c2cf0f925546971733712e110a6b3bf97a86c5b812654e61ac64766e45",
    "split_step_n7": "3e26bec2851a1252690b066e1a8f30908a45ddc130bd4fbb00ae5dc598125e0d",
    "split_step_n8": "c9ccbdd101dfb800e3d24ba24f6d486f544034733b076e773c5d1d1fba286e76",
    "model_d1": "f63bfc414aa5c88a6160a58c185997348ed0a5929d593c7d993c0129f7657510",
    "model_d2": "a196e5a0715c97f83167338958d3e05a8b0d062990c3ec674397895634e2b8e2",
    "model_d3": "01151a34101b9e0b5c840e2d471db21ed84a278717fcd1c7c6f03dd014b25ba1",
    "model_d4": "f1bd6f308071343ba676448080c47bf8d9870dc1426865bff9a7b7e6d1f74641",
    "conjugated_coined_sum_5": "0e49c5dbb7c8c2e385aed9135c035c61af4932dea7cd0ae4483c783c64869524",
    "coined_plus_modified": "24061337cbfa7d06993d16b9e916e5ae5a7f074519d34562d8cf127c7b432ced",
}


def test_walk_json_round_trip():
    for name, (walk, fixture) in pinned_walks(FIXTURES).items():
        payload = zio.walk_to_json(walk)
        text = json.dumps(payload)
        if fixture is None:
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest == WALK_JSON_SHA256[name], name
        else:
            golden = json.loads((FIXTURES / f"{fixture}.json").read_text())
            assert text == json.dumps(golden), name
        again = zio.walk_from_json(json.loads(text))
        assert symbols_close(again, walk, 0.0), name
        for item in payload["entries"]:
            poly = again.entries[item["row"] - 1][item["col"] - 1]
            want = {t["shift"]: complex(t["re"], t["im"]) for t in item["terms"]}
            assert poly_terms(poly) == want, name


def test_far_shift_walk_parses_and_round_trips_in_bounded_memory():
    # diag(1, z^10^9) keeps its two terms, not its span of 10^9 + 1 shifts
    term = {"re": 1.0, "im": 0.0}
    text = json.dumps({"n": 2, "entries": [
        {"row": 1, "col": 1, "terms": [{"shift": 0, **term}]},
        {"row": 2, "col": 2, "terms": [{"shift": 10**9, **term}]},
    ]})
    tracemalloc.start()
    try:
        walk = zio.parse_spec(text)
        again = json.dumps(zio.walk_to_json(walk))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walk.shifts.tolist() == [0, 10**9] and walk.coeffs.shape == (2, 2, 2)
    assert again == text
    assert peak < 2**20, peak


# sha256 of json.dumps(state_to_json(xi)).  The five input states were recorded
# when every state was a (site, channel) dictionary: their wire bytes must not
# move.  The three evolved states were recorded when evolve squared on a grid
# that grows with the power; their last bits move with evolve's roundoff, and
# the test also holds them within 1e-12 of 400 exact steps
STATE_JSON_SHA256 = {
    "delta0_ch1": "4143afb1c294a16478aad9bf762ce5849081b61f04ed7b7aa984d9514817a677",
    "delta0_ch2_3state": "0c24f4742760a60af40d3e817f9ff18c456f7cc42333a67c77a935f4ca61e980",
    "random_local_n2": "c7f39a17dd149dd3f332e4de98458df89e5bf23d5b6432c5ddcbdd218918f32f",
    "random_local_n3": "bb87bf4dddb52eb2f9919abf9f80492e9bf083fe2b022c2a8e76392baca4d275",
    "random_local_n4": "3ee8262e6bd6e90f9126afb52709b61184e247b9c8cfd7fd84754a622dba603c",
    "evolve_coined_t400": "53a48d8e5151da69413c66c411c3de53174724472ffaa77e6ba681d9a3ad95dd",
    "evolve_modified_t400": "f35fce999de8f6c87b2823d5b4a30587f4d10f9528f29998cbe6dae594f39ce6",
    "evolve_grover3_t400": "020f71aa602b864df0110e2163e35cf1aa5494876d86b3fb5c111fd812722bbb",
}


# (name, walk fixture, initial state) of the evolved pinned states
EVOLVED_T400 = (("coined", "hadamard", "delta0_ch1"),
                ("modified", "modified_hadamard", "delta0_ch1"),
                ("grover3", "grover3", "delta0_ch2_3state"))


def _fixture(name: str):
    return zio.parse_spec((FIXTURES / f"{name}.json").read_text())


def _pinned_states() -> dict:
    states = {name: _fixture(name) for name in ("delta0_ch1", "delta0_ch2_3state")}
    for n in range(2, 5):
        states[f"random_local_n{n}"] = random_local_state(np.random.default_rng(500 + n), n)
    for name, fixture, init in EVOLVED_T400:
        states[f"evolve_{name}_t400"] = evolve(_fixture(fixture), states[init], 400)
    return states


def test_state_json_round_trip():
    xi = StateVector({(0, 1): 0.25 + 0.5j, (-3, 2): -1 / 3}, 2)
    again = zio.state_from_json(json.loads(json.dumps(zio.state_to_json(xi))))
    assert again.distance(xi) == 0.0
    states = _pinned_states()
    for name, xi in states.items():
        text = json.dumps(zio.state_to_json(xi))
        assert hashlib.sha256(text.encode()).hexdigest() == STATE_JSON_SHA256[name], name
        again = zio.state_from_json(json.loads(text))
        assert again.amplitudes == xi.amplitudes, name
    # beside their bits, the evolved pins hold an accuracy bound
    for name, fixture, init in EVOLVED_T400:
        walk, stepped = _fixture(fixture), states[init]
        for _ in range(400):
            stepped = apply_walk(walk, stepped)
        assert states[f"evolve_{name}_t400"].distance(stepped) <= 1e-12, name


def test_state_from_json_sums_repeated_entries():
    amps = [{"site": 2, "channel": 1, "re": 0.25, "im": 0.0},
            {"site": -1, "channel": 2, "re": 1.0, "im": 0.0},
            {"site": 2, "channel": 1, "re": 0.5, "im": 1.0},
            {"site": -1, "channel": 2, "re": -1.0, "im": 0.0}]
    xi = zio.state_from_json({"n": 2, "amps": amps})
    assert xi.amplitudes == {(2, 1): 0.75 + 1j}


def test_eigensystem_json_payload():
    system = refine_system(track_bands(grover_walk_3(), 64))
    payload = json.loads(json.dumps(zio.eigensystem_to_json(system)))
    assert payload["base_grid"] == system.base_grid == 64
    assert len(payload["bands"]) == len(system.bands)
    for item, band in zip(payload["bands"], system.bands):
        assert (item["d"], item["winding"], item["multiplicity"]) == (
            band.d, band.winding, band.multiplicity
        )
        samples = [complex(v["re"], v["im"]) for v in item["samples"]]
        assert samples == band.samples.tolist()


def test_measure_json_payload():
    walk = grover_walk_3()
    xi = channel_vector(0, [0.0, 1.0, 0.0])
    mu = limit_measure(walk, xi, refine_system(track_bands(walk, 256)))
    payload = json.loads(json.dumps(zio.measure_to_json(mu)))
    assert [(a["x"], a["mass"]) for a in payload["atoms"]] == list(mu.atoms)
    assert len(payload["bins"]) == DEFAULT_BINS
    assert max(abs(b["x"]) for b in payload["bins"]) <= max_support(mu)
    total = sum(item["mass"] for item in payload["atoms"] + payload["bins"])
    assert abs(total - mu.total_mass) <= 1e-12


# -- CSV writers ------------------------------------------------------------------


def _csv(writer, obj, **options) -> str:
    stream = io.StringIO()
    writer(obj, stream, **options)
    return stream.getvalue()


def test_csv_writers_match_row_loops():
    # the column writers give the bytes of the row-by-row reference
    cases = (("hadamard", "delta0_ch1"), ("modified_hadamard", "delta0_ch1"),
             ("grover3", "delta0_ch2_3state"))
    for walk_name, vector_name in cases:
        walk = zio.parse_spec((FIXTURES / f"{walk_name}.json").read_text())
        xi = zio.parse_spec((FIXTURES / f"{vector_name}.json").read_text())
        for grid in (64, 1024):
            system = track_bands(walk, grid)
            assert _csv(zio.write_bands_csv, system) == _csv(loop_bands_csv, system)
            for band in system.bands:
                assert _csv(zio.write_generator_csv, band) == _csv(loop_generator_csv, band)
            measure = limit_measure(walk, xi, system)
            assert _csv(zio.write_measure_csv, measure) == _csv(loop_measure_csv, measure)
            rows = compared_moments(walk, xi, system, [7, 400], 4)
            assert _csv(zio.write_comparison_csv, rows) == _csv(loop_comparison_csv, rows)
        for t in (0, 7, 400):
            dist = position_distribution(evolve(walk, xi, t), time=t)
            for rescaled in (False, True) if t else (False,):
                assert _csv(zio.write_distribution_csv, dist, rescaled=rescaled) == _csv(
                    loop_distribution_csv, dist, rescaled=rescaled
                ), (walk_name, t, rescaled)
    assert _csv(zio.write_comparison_csv, []) == "t,m,empirical,limit,deviation\n"
    # a shift walk's limit is one atom, and two atoms with no samples
    shift = SymbolMatrix.shift(1)
    atom = limit_measure(shift, StateVector.delta(0, 1, 1), track_bands(shift, 64))
    atoms = LimitMeasure(((-0.5, 0.25), (1 / 3, 0.75)), [], [])
    for measure in (atom, atoms):
        assert not len(measure.velocities)
        assert _csv(zio.write_measure_csv, measure) == _csv(loop_measure_csv, measure)
    assert _csv(zio.write_measure_csv, atoms) == (
        "kind,x,mass\natom,-0.5,0.25\natom,0.33333333333333331,0.75\n"
    )


# -- subcommands ---------------------------------------------------------------------


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_cli_decompose_grover(spec_dir, tmp_path, capsys):
    out = tmp_path / "run-decomp"
    code = run_cli(
        "decompose", spec_dir / "grover3.json", "--grid", 256, "--out", out
    )
    assert code == 0
    assert "decomposable" in capsys.readouterr().out
    report = json.loads((out / "decompose.json").read_text())
    assert sorted(report["artifacts"]) == ["decompose.json", "eigensystem.json"]
    assert report["decomposable"] is True
    assert report["ct_realizable"] is True
    assert sorted((b["d"], b["winding"]) for b in report["bands"]) == [(1, 0), (2, 0)]
    assert json.loads((out / "eigensystem.json").read_text())["base_grid"] == 256
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"eigensystem.json", "decompose.json"}


def test_cli_manifest_carries_the_tracking_record(tmp_path, capsys):
    out = tmp_path / "run-bands"
    assert run_cli("bands", FIXTURES / "hadamard.json", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    record = manifest["record"]
    assert record["grids"] == [1024] and record["points"] == 1024
    assert record["solves"] == [[1024, 0]] and float(record["bisect_s"]) > 0
    assert set(manifest["versions"]) == {"zqwalk", "numpy", "python"}


def test_cli_manifests_of_two_runs_have_the_same_bytes(tmp_path, capsys):
    # the bisection's wall time is written in fixed width, so two runs into one
    # --out write manifests that differ only in its digits
    out, written = tmp_path / "run-bands", []
    for _ in range(2):
        assert run_cli("bands", FIXTURES / "hadamard.json", "--out", out) == 0
        written.append((out / "manifest.json").read_text())
    assert len(written[0].encode()) == len(written[1].encode())
    timing = r'"bisect_s": "\d\.\d{6}e[-+]\d\d"'
    masked = [re.sub(timing, '"bisect_s": "x"', text) for text in written]
    assert masked[0] == masked[1] != written[0]


def test_cli_ct_check_modified(spec_dir, tmp_path, capsys):
    out = tmp_path / "run-ct"
    code = run_cli(
        "ct-check", spec_dir / "modified_hadamard.json", "--grid", 256, "--out", out
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "false" in printed and "winding" in printed
    payload = json.loads((out / "ct_check.json").read_text())
    assert payload == {"ct_realizable": False, "reason": "winding [1]"}


def test_cli_ct_check_writes_generators(spec_dir, tmp_path):
    out = tmp_path / "run-ct2"
    assert run_cli(
        "ct-check", spec_dir / "hadamard.json", "--grid", 256, "--out", out
    ) == 0
    generators = sorted(p.name for p in out.glob("generator_band*.csv"))
    assert generators == ["generator_band0.csv", "generator_band1.csv"]
    # each band's continuous phase: h = +-arccos(cos(theta) / sqrt 2), exp(i h) = lambda
    system = track_bands(coined_walk(), 256)
    signs = []
    for name, band in zip(generators, system.bands, strict=True):
        rows = list(csv.DictReader((out / name).read_text().splitlines()))
        theta = np.array([float(row["theta"]) for row in rows])
        h = np.array([float(row["h"]) for row in rows])
        assert np.array_equal(theta, 2.0 * np.pi * np.arange(256) / 256)
        signs.append(np.sign(h[0]))
        assert np.max(np.abs(h - signs[-1] * np.arccos(2**-0.5 * np.cos(theta)))) < 1e-12
        assert np.max(np.abs(np.exp(1j * h) - band.samples)) < 1e-12
    assert sorted(signs) == [-1, 1]


@pytest.mark.parametrize("grid", ["100", "32", "0", "65536", "131072"])
def test_cli_refuses_grid_outside_range(spec_dir, tmp_path, capsys, grid):
    # 65536 and above: a base grid must leave track_bands a doubling up to MAX_GRID
    out = tmp_path / "run"
    code = run_cli("bands", spec_dir / "hadamard.json", "--grid", grid, "--out", out)
    assert code == 2
    assert f"--grid must be a power of two in 64..32768, got {grid}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_winding_of_a_narrowly_avoided_crossing(tmp_path, capsys):
    # the coin's bands avoid each other by 6e-9: two winding-0 bands, exit 0
    spec = tmp_path / "coin.json"
    spec.write_text(json.dumps(zio.walk_to_json(coined_walk(np.sqrt(1 - 9e-18), 3e-9))))
    assert run_cli("winding", spec, "--out", tmp_path / "run") == 0
    assert "windings [0, 0]" in capsys.readouterr().out


def test_cli_refuses_unresolved_tracking(tmp_path, capsys):
    # the sum coupled at 1e-7 has avoided crossings narrower than any grid
    # step up to MAX_GRID: exit 4 with the grid, the narrowest gap and its bound
    spec = tmp_path / "coupled.json"
    spec.write_text(json.dumps(zio.walk_to_json(coupled_coined_sum(1e-7))))
    out = tmp_path / "run"
    assert run_cli("bands", spec, "--grid", "64", "--out", out) == 4
    err = capsys.readouterr().err
    assert "at grid 65536 (MAX_GRID)" in err
    assert re.search(r"narrowest gap between eigenvalue clusters is \S+e-07, against its bound 2 "
                     r"delta \S+e-04", err), err
    assert not out.exists()


def test_cli_check_sparse_far_shift(tmp_path, capsys):
    # diag(1, z^100000): the circle grids (2**19 points) touch its two live
    # coefficients only
    spec = tmp_path / "far_shift.json"
    walk = direct_sum(SymbolMatrix.identity(1), SymbolMatrix.shift(100000))
    spec.write_text(json.dumps(zio.walk_to_json(walk)))
    assert run_cli("check", spec, "--out", tmp_path / "run") == 0
    assert "unitarity pass" in capsys.readouterr().out
    report = json.loads((tmp_path / "run" / "check.json").read_text())
    assert report["cayley_hamilton_residual"] <= 1e-15


def test_cli_simulate_refuses_unallocatable_light_cone(spec_dir, tmp_path, capsys):
    init = tmp_path / "far.json"
    xi = StateVector({(0, 1): 0.6, (10**11, 1): 0.8}, 2)
    init.write_text(json.dumps(zio.state_to_json(xi)))
    code = run_cli(
        "simulate", spec_dir / "hadamard.json", "--init", init, "--t", "1",
        "--out", tmp_path / "run",
    )
    assert code == 5
    assert capsys.readouterr().err.startswith("error: light cone needs")


def test_cli_simulate_contract(spec_dir, tmp_path):
    out = tmp_path / "run-sim"
    code = run_cli(
        "simulate",
        spec_dir / "hadamard.json",
        "--init",
        spec_dir / "delta0_ch1.json",
        "--t",
        "100",
        "--out",
        out,
    )
    assert code == 0
    rows = list(csv.DictReader(open(out / "dist_t100.csv")))
    assert len(rows) == 101
    assert sum(float(r["prob"]) for r in rows) == pytest.approx(1.0, abs=1e-9)


def test_cli_limit_and_compare(spec_dir, tmp_path):
    out = tmp_path / "run-limit"
    assert run_cli(
        "limit",
        spec_dir / "grover3.json",
        "--init",
        spec_dir / "grover_init.json",
        "--grid",
        256,
        "--out",
        out,
    ) == 0
    atoms = json.loads((out / "measure.json").read_text())["atoms"]
    atom_mass = sum(a["mass"] for a in atoms if abs(a["x"]) <= 1e-9)
    assert atom_mass == pytest.approx(1.0 - 2.0 / np.sqrt(6.0), abs=1e-4)

    out2 = tmp_path / "run-compare"
    assert run_cli(
        "compare",
        spec_dir / "hadamard.json",
        "--init",
        spec_dir / "delta0_ch1.json",
        "--t",
        "20,80",
        "--mmax",
        "2",
        "--grid",
        256,
        "--out",
        out2,
    ) == 0
    rows = list(csv.DictReader(open(out2 / "moments.csv")))
    assert [(r["t"], r["m"]) for r in rows] == [
        ("20", "1"), ("20", "2"), ("80", "1"), ("80", "2")
    ]
    for row in rows:
        assert abs(float(row["empirical"]) - float(row["limit"])) == pytest.approx(
            float(row["deviation"]), abs=1e-15
        )


def test_cli_compare_builds_measure_once(spec_dir, tmp_path, monkeypatch):
    import zqwalk.cli

    calls = {"limit_measure": 0, "evolve": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(zqwalk.cli, name, counting(name, getattr(zqwalk.cli, name)))
    out = tmp_path / "run-compare"
    assert run_cli(
        "compare",
        spec_dir / "hadamard.json",
        "--init",
        spec_dir / "delta0_ch1.json",
        "--t",
        "20,80,160",
        "--mmax",
        "2",
        "--grid",
        256,
        "--out",
        out,
    ) == 0
    assert calls == {"limit_measure": 1, "evolve": 3}
    walk, xi = coined_walk(), StateVector.delta(0, 1, 2)
    system = refine_system(track_bands(walk, 256))
    want = io.StringIO()
    zio.write_comparison_csv(compared_moments(walk, xi, system, [20, 80, 160], 2), want)
    assert (out / "moments.csv").read_text() == want.getvalue()


def test_cli_conjugate(spec_dir, tmp_path, capsys):
    out = tmp_path / "run-conj"
    code = run_cli(
        "conjugate",
        spec_dir / "hadamard.json",
        spec_dir / "modified_hadamard.json",
        "--out",
        out,
    )
    assert code == 0
    assert "false" in capsys.readouterr().out
    assert json.loads((out / "conjugate.json").read_text()) == {"conjugate": False}


def test_cli_repeated_times_run_once(spec_dir, tmp_path, capsys):
    walk, init = spec_dir / "hadamard.json", spec_dir / "delta0_ch1.json"
    out = tmp_path / "run-sim"
    assert run_cli("simulate", walk, "--init", init, "--t", "20,5,20,5", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["dist_t20.csv", "dist_t5.csv"]
    assert "t = [20, 5]" in capsys.readouterr().out

    out2 = tmp_path / "run-compare"
    assert run_cli(
        "compare", walk, "--init", init, "--t", "20,20,10", "--mmax", "2",
        "--grid", 256, "--out", out2,
    ) == 0
    rows = list(csv.DictReader(open(out2 / "moments.csv")))
    assert [(r["t"], r["m"]) for r in rows] == [
        ("20", "1"), ("20", "2"), ("10", "1"), ("10", "2")
    ]
    assert capsys.readouterr().err.count("t=20:") == 1


@pytest.mark.parametrize(
    "option, value",
    [("--mmax", "0"), ("--mmax", "-1"), ("--t", "0"), ("--t", "20,0")],
    ids=["mmax_0", "mmax_negative", "t_0", "t_list_with_0"],
)
def test_cli_compare_refuses_no_moments_and_time_zero(
    spec_dir, tmp_path, capsys, option, value
):
    options = {"--t": "20", "--mmax": "2", option: value}
    out = tmp_path / "run"
    code = run_cli(
        "compare", spec_dir / "hadamard.json", "--init", spec_dir / "delta0_ch1.json",
        "--grid", 256, *[part for pair in options.items() for part in pair],
        "--out", out,
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_conjugate_refuses_tol_not_finite_and_positive(spec_dir, tmp_path, capsys, tol):
    out = tmp_path / "run"
    code = run_cli(
        "conjugate", spec_dir / "hadamard.json", spec_dir / "modified_hadamard.json",
        "--tol", tol, "--out", out,
    )
    assert code == 2
    assert "--tol must be finite and positive" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(DomainError, match="finite and positive"):
        are_conjugate(coined_walk(), modified_coined_walk(), float(tol))


def test_cli_bands_writes_refined_system(tmp_path, capsys):
    # the raw cycles of this direct sum change with the grid; the refined
    # system is certified at the first doubling
    spec = tmp_path / "coined_sum_conj.json"
    spec.write_text(json.dumps(zio.walk_to_json(conjugated_coined_sum(5))))
    out = tmp_path / "run-bands"
    assert run_cli("bands", spec, "--grid", 1024, "--out", out) == 0
    payload = json.loads((out / "eigensystem.json").read_text())
    assert payload["base_grid"] == 1024
    assert [(b["d"], b["multiplicity"]) for b in payload["bands"]] == [(1, 2), (1, 2)]
    assert "[(1, 2), (1, 2)] on grid 1024" in capsys.readouterr().out


def test_cli_check_reports_model_spec(spec_dir, tmp_path, capsys):
    out = tmp_path / "run-check"
    code = run_cli("check", spec_dir / "shift_model.json", "--out", out)
    assert code == 0
    report = json.loads((out / "check.json").read_text())
    assert report["unitarity_passed"] is True
    assert report["decay"] == {"kind": "finite_propagation", "radius": 1}


def test_cli_check_reports_decay_of_each_walk_fixture(tmp_path, capsys):
    # every walk fixture is nearest-neighbour
    for name in ("hadamard", "modified_hadamard", "grover3", "shift1_model"):
        out = tmp_path / name
        assert run_cli("check", FIXTURES / f"{name}.json", "--out", out) == 0
        report = json.loads((out / "check.json").read_text())
        assert report["decay"] == {"kind": "finite_propagation", "radius": 1}, name
    assert "decay finite_propagation" in capsys.readouterr().out


def _readme_script_lines():
    # the `zqwalk` lines of the README "Scripts" block, which replace the
    # former analysis and convergence scripts
    section = (FIXTURES.parent / "README.md").read_text().split("## Scripts")[1]
    block = section.split("```sh\n")[1].split("```")[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("zqwalk ")]


@pytest.mark.parametrize(
    "command, artifacts",
    [
        (
            "analysis",
            [f"{walk}-{kind}" for walk in ("hadamard", "modified_hadamard", "grover3")
             for kind in ("bands/bands.csv", "limit/measure.csv")],
        ),
        ("compare", ["hadamard-compare/moments.csv"]),
    ],
    ids=["analyze_reference_walks", "convergence_experiment"],
)
def test_script_runs(command, artifacts, tmp_path, monkeypatch, capsys):
    # the README's reference analysis (check, bands, decompose, limit of each
    # walk) and convergence table (compare), line for line, run from a
    # directory holding the fixtures and written under its runs/
    lines = _readme_script_lines()
    assert len(lines) == 13
    chosen = [argv for argv in lines if (argv[0] == "compare") == (command == "compare")]
    assert len(chosen) == (1 if command == "compare" else 12)
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    for argv in chosen:
        assert main(argv) == 0, argv
    capsys.readouterr()
    for artifact in artifacts:
        assert (tmp_path / "runs" / artifact).is_file(), artifact


BENCH_STAGES = {
    "grid_eval", "eig", "np_eig", "track_bands", "limit_measure_first",
    "limit_measure_repeat",
    "evolve_t400", "evolve_t1600", "evolve_t6400", "moments_t6400",
    "position_distribution_t6400", "cdf_distance_t6400", "verify_unitary_symbol",
    "char_poly", "verify_cayley_hamilton", "symbol_power_t64", "build_model_walk",
    "rearrangement_check",
}


def test_bench_script_writes_report(tmp_path):
    root = FIXTURES.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "bench.py"), "--repeats", "1", "--out", out],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert set(report["stages"]) == {"hadamard", "modified_hadamard", "grover3", "split_n6"}
    for name, stages in report["stages"].items():
        assert set(stages) == BENCH_STAGES
        assert all(0 < s["q25_s"] <= s["median_s"] <= s["q75_s"] for s in stages.values())
        # one eigendecomposition serves tracking and both vectors, with no
        # inverse and no general eigensolver; only grover3's crossing at
        # z = 1 leaves steps uncertified, and the grid point it sits on
        # explains them, so no other point is solved
        counts = dict(report["solve_counts"][name])
        retried = counts.pop("retried_rows")
        assert counts == {
            "unitary_eig_rows": [1024], "grids": [1024], "points": 1024,
            "crossings": [0.0] if name == "grover3" else [], "avoided_gap": None,
            "eig": 0, "eigvals": 0, "inv": 0,
        }, name
        assert len(retried) == 1 and 0 <= retried[0] < 1024, name
    assert report["bisection"]["grover3"]["median_s"] > 0
    accuracy = report["accuracy"]
    assert max(accuracy["coined_m1_err"], accuracy["coined_m2_err"]) < 1e-12
    assert accuracy["grover3_atom_err"] < 1e-12
    assert accuracy["grover3_ch1_m1_err"] < 1e-13
    assert accuracy["norm_drift_max"] < 1e-9
    assert accuracy["evolve_l2_t400_max"] < 1e-12
    assert accuracy["z100000_cayley_hamilton"] <= 1e-15
    assert accuracy["near_crossing_windings"] == [0, 0]
    assert report["environment"]["nproc"] >= 1
    assert report["environment"]["scipy"]  # the test support imports scipy
    laurent = dict(report["laurent"])
    assert laurent.pop("parse_diag_z1e6_peak_bytes") < 2**20  # the live terms, not the span
    assert set(laurent) == {"monomial", "symbol_matrix_n8", "call_43_shifts_128_points"}
    assert set(report["writers"]) == {
        "eigensystem_json_bands_csv", "measure_csv", "distribution_csv_t6400"
    }
    assert set(report["cli"]) == {
        "check", "bands", "decompose", "winding", "ct-check", "simulate", "limit",
        "compare", "conjugate",
    }
    for timing in [*laurent.values(), *report["writers"].values(), *report["cli"].values()]:
        assert 0 < timing["q25_s"] <= timing["median_s"] <= timing["q75_s"]
    assert {timing["runs"] for timing in report["cli"].values()} == {1}  # min(5, --repeats)


def test_bench_script_times_stages_against_a_checkout(tmp_path):
    # this checkout against itself, imported a second time under another name
    root = FIXTURES.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = tmp_path / "against.json"
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "bench.py"), "--repeats", "1",
         "--against", root, "--out", out],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert report["against"]["checkout"] == str(root.resolve())
    assert set(report) == {
        "environment", "grid", "against", "stages", "laurent", "writers", "cli",
        "solve_counts", "bisection", "accuracy",
    }
    assert set(report["cli"]) == {
        "check", "bands", "decompose", "winding", "ct-check", "simulate", "limit",
        "compare", "conjugate",
    }
    assert set(report["solve_counts"]) == set(report["bisection"]) == set(report["stages"])
    assert report["accuracy"]["grover3_ch1_m1_err"] < 1e-13
    assert set(report["stages"]) == {"hadamard", "modified_hadamard", "grover3", "split_n6"}
    for stages in report["stages"].values():
        assert set(stages) == BENCH_STAGES
        for s in stages.values():
            assert 0 < s["q25_s"] <= s["median_s"] <= s["q75_s"]
            assert 0 < s["against"]["median_s"]
            assert s["runs"] == s["against"]["runs"] == 1
            assert s["ratio"] == s["against"]["median_s"] / s["median_s"]


def test_cli_options_are_the_ones_each_command_reads(monkeypatch):
    import argparse

    from zqwalk.cli import build_parser

    want = {
        "check": {"--out"},
        "bands": {"--grid", "--out"},
        "decompose": {"--grid", "--out"},
        "winding": {"--grid", "--out"},
        "ct-check": {"--grid", "--out"},
        "simulate": {"--init", "--t", "--rescaled", "--out"},
        "limit": {"--grid", "--init", "--out"},
        "compare": {"--grid", "--init", "--t", "--mmax", "--out"},
        "conjugate": {"--tol", "--out"},
    }
    # no environment variable sets a default
    monkeypatch.setenv("ZQWALK_GRID", "64")
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {o for a in p._actions for o in a.option_strings if o != "-h" and o != "--help"}
        for name, p in sub.choices.items()
    }
    assert got == want
    assert parser.parse_args(["bands", "walk.json"]).grid == 1024


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "modified_hadamard.json", "--tol", "3"],
        ["compare", "hadamard.json", "--init", "delta0_ch1.json", "--t", "1600",
         "--mmax", "2", "--bins", "1"],
        ["simulate", "hadamard.json", "--init", "delta0_ch1.json", "--t", "1",
         "--grid", "256"],
    ],
    ids=["decompose_tol", "compare_bins", "simulate_grid"],
)
def test_cli_refuses_options_no_command_reads(argv, tmp_path, capsys):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exit_:
        run_cli(*argv, "--out", tmp_path / "run")
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_unitarity_check_does_not_alias(tmp_path, capsys):
    # u(z) = (z^-64 + i z^64) / sqrt(2) has |u|^2 - 1 = -sin(128 theta), which
    # vanishes at every point of a 256-point grid and reaches 1 between them
    coeff = 1 / np.sqrt(2)
    walk = SymbolMatrix.from_terms([-64, 64], np.array([coeff, 1j * coeff])[:, None, None])
    spec, init = tmp_path / "radius64.json", tmp_path / "delta.json"
    spec.write_text(json.dumps(zio.walk_to_json(walk)))
    init.write_text(json.dumps(zio.state_to_json(StateVector.delta(0, 1, 1))))
    assert run_cli("check", spec, "--out", tmp_path / "c") == 0
    assert "unitarity FAIL (deviation 1.000e+00)" in capsys.readouterr().out
    assert run_cli("bands", spec, "--out", tmp_path / "b") == 3
    assert f"{spec}: symbol not unitary" in capsys.readouterr().err
    assert run_cli("simulate", spec, "--init", init, "--t", "1", "--out", tmp_path / "s") == 3
    assert f"{spec}: symbol not unitary" in capsys.readouterr().err
    with pytest.raises(UnitarityError):
        track_bands(walk)


@pytest.mark.parametrize("case", ["missing_spec", "missing_init", "directory", "binary"])
def test_cli_unreadable_spec_exits_2(spec_dir, tmp_path, capsys, case):
    unreadable = {
        "missing_spec": tmp_path / "missing.json",
        "missing_init": tmp_path / "missing.json",
        "directory": spec_dir,
        "binary": tmp_path / "binary.json",
    }[case]
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe{")
    spec, init = spec_dir / "hadamard.json", spec_dir / "delta0_ch1.json"
    if case == "missing_init":
        init = unreadable
    else:
        spec = unreadable
    for argv in (["bands", spec], ["limit", spec, "--init", init, "--grid", 64]):
        if argv[0] == "bands" and case == "missing_init":
            continue
        out = tmp_path / f"run-{argv[0]}"
        assert run_cli(*argv, "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"error: {unreadable}: cannot read spec")
        assert not out.exists()


@pytest.mark.parametrize("command", ["limit", "compare"])
def test_cli_reads_init_before_tracking(spec_dir, tmp_path, capsys, monkeypatch, command):
    import zqwalk.cli

    tracked = []
    monkeypatch.setattr(
        zqwalk.cli, "track_bands", lambda *args: tracked.append(args) or track_bands(*args)
    )
    missing = tmp_path / "missing.json"
    argv = [command, spec_dir / "hadamard.json", "--init", missing, "--grid", 64]
    if command == "compare":
        argv += ["--t", "10"]
    assert run_cli(*argv, "--out", tmp_path / "run") == 2
    assert capsys.readouterr().err.startswith(f"error: {missing}: cannot read spec")
    assert tracked == []
    # both inputs bad: the vector's error is the one reported
    argv[1] = tmp_path / "also_missing.json"
    assert run_cli(*argv, "--out", tmp_path / "run") == 2
    assert capsys.readouterr().err.startswith(f"error: {missing}: cannot read spec")


def test_cli_bad_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_cli("check", bad, "--out", tmp_path / "x") == 2
    assert "error:" in capsys.readouterr().err


def test_parse_rejects_non_finite_numbers():
    specs = (
        '{"n": 2, "amps": [{"site": 0, "channel": 1, "re": NaN, "im": 0.0}]}',
        '{"n": 2, "amps": [{"site": 0, "channel": 1, "re": 1.0, "im": -Infinity}]}',
        '{"n": 1, "amps": [{"site": 0, "channel": 1, "re": 1%s, "im": 0}]}' % ("0" * 400),
        '{"n": 1, "entries": [{"row": 1, "col": 1, "terms": '
        '[{"shift": 0, "re": Infinity, "im": 0.0}]}]}',
        '{"model": {"d": 1, "lambda_coeffs": [{"shift": 1, "re": NaN, "im": 0.0}]}}',
    )
    for text in specs:
        with pytest.raises(SpecFormatError, match="finite"):
            zio.parse_spec(text)


@pytest.mark.parametrize("command", ["simulate", "limit", "compare"])
def test_cli_rejects_non_finite_and_far_vectors(spec_dir, tmp_path, capsys, command):
    entry = {"site": 0, "channel": 1, "re": 1.0, "im": 0.0}
    cases = (({**entry, "re": float("nan")}, 2), ({**entry, "im": float("inf")}, 2),
             ({**entry, "site": 10**20}, 5), ({**entry, "site": -(2**53) - 1}, 5))
    for idx, (item, code) in enumerate(cases):
        init = tmp_path / f"init{idx}.json"
        init.write_text(json.dumps({"n": 2, "amps": [item]}))
        argv = [command, spec_dir / "hadamard.json", "--init", init,
                "--out", tmp_path / f"out{idx}"]
        if command != "simulate":
            argv += ["--grid", 256]
        if command != "limit":
            argv += ["--t", 4]
        assert run_cli(*argv) == code, item
        assert "error:" in capsys.readouterr().err


def test_cli_far_shifts_exit_like_far_sites(tmp_path, capsys):
    # a shift beyond 2**53 in a walk or a model spec is refused as a far site is
    term = {"shift": 10**20, "re": 1.0, "im": 0.0}
    specs = {
        "walk": {"n": 1, "entries": [{"row": 1, "col": 1, "terms": [term]}]},
        "walk_low": {"n": 1, "entries": [
            {"row": 1, "col": 1, "terms": [{**term, "shift": -(2**53) - 1}]}]},
        "model": {"model": {"d": 1, "lambda_coeffs": [term]}},
    }
    for name, payload in specs.items():
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps(payload))
        assert run_cli("check", spec, "--out", tmp_path / name) == 5, name
        assert "outside -2**53..2**53" in capsys.readouterr().err, name
        assert not (tmp_path / name).exists(), name
    init = tmp_path / "vector.json"
    init.write_text(json.dumps({"n": 2, "amps": [
        {"site": 10**20, "channel": 1, "re": 1.0, "im": 0.0}]}))
    argv = ["simulate", FIXTURES / "hadamard.json", "--init", init, "--t", 1,
            "--out", tmp_path / "vector"]
    assert run_cli(*argv) == 5
    assert "site 100000000000000000000 outside -2**53..2**53" in capsys.readouterr().err
    # the bound itself is a shift a spec may hold
    edge = {"n": 1, "entries": [{"row": 1, "col": 1, "terms": [{**term, "shift": -(2**53)}]}]}
    assert zio.parse_spec(json.dumps(edge)).shifts.tolist() == [-(2**53)]


@pytest.mark.parametrize("n", [0, -3])
def test_cli_refuses_vector_of_no_channels(tmp_path, capsys, n):
    # a vector spec with n < 1 is malformed: exit 2, no traceback, no run directory
    init = tmp_path / "vector.json"
    init.write_text(json.dumps({"n": n, "amps": []}))
    for command, *rest in (("limit", "--grid", 256), ("simulate", "--t", 1)):
        out = tmp_path / command
        assert run_cli(command, FIXTURES / "hadamard.json", "--init", init, *rest, "--out", out) == 2
        err = capsys.readouterr().err
        assert "vector.n: must be positive" in err and "Traceback" not in err, command
        assert not out.exists(), command


def test_cli_refuses_unallocatable_circle_grid(tmp_path, capsys):
    # diag(1, z^10^9) parses as two terms, but its unitarity grid would hold
    # 2^32 points of 2 x 2 values
    spec = tmp_path / "diag_far.json"
    far = direct_sum(SymbolMatrix.identity(1), SymbolMatrix.shift(10**9))
    spec.write_text(json.dumps(zio.walk_to_json(far)))
    for command in ("check", "bands"):
        assert run_cli(command, spec, "--out", tmp_path / command) == 5, command
        assert "circle grid of 4294967296 points" in capsys.readouterr().err, command
        assert not (tmp_path / command).exists(), command


def test_cli_non_unitary_exit_code(tmp_path, capsys):
    spec = tmp_path / "nonunitary.json"
    spec.write_text(
        json.dumps(
            {
                "n": 1,
                "entries": [
                    {"row": 1, "col": 1, "terms": [{"shift": 0, "re": 2.0, "im": 0.0}]}
                ],
            }
        )
    )
    assert run_cli("bands", spec, "--out", tmp_path / "y") == 3
    assert f"{spec}: symbol not unitary" in capsys.readouterr().err


def test_cli_checks_unitarity_once_per_walk(spec_dir, tmp_path, capsys, monkeypatch):
    import zqwalk.cli

    # the loader and the library both ask for the verdict; the walk keeps it,
    # so each walk's unitarity grid is evaluated once per command
    evals = recorded_grid_evals(monkeypatch)
    conjugacy_calls = []

    def counting(*args):
        conjugacy_calls.append(args)
        return are_conjugate(*args)

    monkeypatch.setattr(zqwalk.cli, "are_conjugate", counting)

    def unitarity_grids():
        walks = [walk.n for walk, grid in evals if grid == UNITARY_GRID]
        evals.clear()
        return sorted(walks)

    hadamard, grover = spec_dir / "hadamard.json", spec_dir / "grover3.json"
    assert run_cli("bands", grover, "--grid", 64, "--out", tmp_path / "b") == 0
    assert unitarity_grids() == [3]
    assert run_cli("conjugate", hadamard, grover, "--out", tmp_path / "c") == 0
    assert unitarity_grids() == [2, 3]
    assert len(conjugacy_calls) == 1
    assert run_cli("simulate", hadamard, "--init", spec_dir / "delta0_ch1.json", "--t", "1",
                   "--out", tmp_path / "s") == 0
    assert unitarity_grids() == [2]
    capsys.readouterr()
    # a non-unitary walk still fails with its own path, in either position
    bad = tmp_path / "nonunitary.json"
    stretch = SymbolMatrix.from_constant([[1.0, 0.0], [0.0, 2.0]])
    bad.write_text(json.dumps(zio.walk_to_json(stretch)))
    for first, second in ((bad, hadamard), (hadamard, bad)):
        assert run_cli("conjugate", first, second, "--out", tmp_path / "d") == 3
        assert f"error: {bad}: symbol not unitary" in capsys.readouterr().err
    assert run_cli("simulate", bad, "--init", spec_dir / "delta0_ch1.json", "--t", "1",
                   "--out", tmp_path / "e") == 3
    assert f"error: {bad}: symbol not unitary" in capsys.readouterr().err


def test_import_loads_no_scipy(tmp_path):
    # neither the import nor any subcommand loads scipy: the library runs on numpy
    src = Path(zio.__file__).resolve().parent.parent
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import zqwalk, zqwalk.cli\n"
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print('scipy after import', loaded())\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    code = zqwalk.cli.main(argv)\n"
        "    print('scipy after', argv[0], code, loaded())\n"
    )
    walks = {name: str(FIXTURES / f"{name}.json")
             for name in ("hadamard", "modified_hadamard", "grover3")}
    delta1, delta2 = str(FIXTURES / "delta0_ch1.json"), str(FIXTURES / "delta0_ch2_3state.json")
    commands = [
        ["check", walks["grover3"]],
        ["bands", walks["grover3"]],
        ["decompose", walks["grover3"]],
        ["winding", walks["modified_hadamard"]],
        ["ct-check", walks["hadamard"]],
        ["simulate", walks["hadamard"], "--init", delta1, "--t", "100,400"],
        ["limit", walks["grover3"], "--init", delta2],
        ["compare", walks["hadamard"], "--init", delta1, "--t", "100,400"],
        ["conjugate", walks["hadamard"], walks["modified_hadamard"]],
    ]
    for argv in commands:
        argv += ["--out", str(tmp_path / argv[0])]
    out = subprocess.run(
        [sys.executable, "-c", code, str(src), json.dumps(commands)],
        capture_output=True, text=True, check=True,
    )
    reports = [line for line in out.stdout.splitlines() if line.startswith("scipy after")]
    assert reports == ["scipy after import []"] + [
        f"scipy after {argv[0]} 0 []" for argv in commands
    ]


def test_cli_vector_where_walk_expected(spec_dir, tmp_path, capsys):
    assert run_cli("bands", spec_dir / "delta0_ch1.json", "--out", tmp_path / "z") == 2
    capsys.readouterr()


def test_cli_csv_float_format(spec_dir, tmp_path):
    out = tmp_path / "run-bands"
    assert run_cli(
        "bands", spec_dir / "hadamard.json", "--grid", 64, "--out", out
    ) == 0
    header, first = open(out / "bands.csv").read().splitlines()[:2]
    assert header == "band_index,covering_angle,re,im,arg"
    value = first.split(",")[2]
    assert "," not in value and float(value) == float(value)
    # 17 significant digits round-trip the double exactly
    assert float(value) == float(format(float(value), ".17g"))
