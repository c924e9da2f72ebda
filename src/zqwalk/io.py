"""JSON and CSV wire formats.

JSON schemas
------------
walk spec        {"n": int, "entries": [{"row": int, "col": int,
                  "terms": [{"shift": int, "re": float, "im": float}]}]}
model spec       {"model": {"d": int, "lambda_coeffs": [{"shift", "re", "im"}]}}
initial vector   {"n": int, "amps": [{"site": int, "channel": int, "re", "im"}]}
eigen system     {"bands": [{"d", "winding", "multiplicity",
                  "samples": [{"re", "im"}]}], "base_grid": int}
limit measure    {"atoms": [{"x", "mass"}], "bins": [{"x", "mass"}]}

Walks, models and initial vectors are read and written.  Eigen systems and
limit measures are written only; the measure's "bins" are its
LimitMeasure.histogram() view, from which the samples cannot be rebuilt.
Rows and columns are 1-based; unspecified entries are zero, and a repeated
entry (row, col), shift or (site, channel) adds to the earlier ones in file
order.  CSV floats are written with 17 significant digits, '.' decimal
separator, no locale.
"""

from __future__ import annotations

import json
import sys
from typing import IO, Iterable

import numpy as np

from .errors import SpecFormatError
from .laurent import LaurentPoly
from .limit import LimitMeasure, MomentComparison
from .model import ModelWalkSpec
from .simulate import PositionDistribution, StateVector, _settle
from .spectral import Band, EigenSystem
from .symbol import SymbolMatrix


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _require(obj, key, kind, where):
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SpecFormatError(f"{where}: missing field '{key}'")
    value = obj[key]
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise SpecFormatError(f"{where}.{key}: expected an integer")
    elif kind is float:
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        # NaN, the infinities and integers beyond the float range fail the bound
        if not (numeric and abs(value) <= sys.float_info.max):
            raise SpecFormatError(f"{where}.{key}: expected a finite number")
        value = float(value)
    elif kind is list:
        if not isinstance(value, list):
            raise SpecFormatError(f"{where}.{key}: expected an array")
    return value


def _read_terms(terms, where, shifts: list, values: list) -> int:
    """Append each term's shift and coefficient, in file order; returns the count."""
    for idx, term in enumerate(terms):
        loc = f"{where}[{idx}]"
        shifts.append(_require(term, "shift", int, loc))
        re = _require(term, "re", float, loc)
        im = _require(term, "im", float, loc)
        values.append(complex(re, im))
    return len(terms)


def _summed(shifts: list, keys: tuple, values: list, shape: tuple):
    """(live shifts, coefficients): the values summed from zero in file order
    over their (shift, *keys); laurent.settle bounds the shifts."""
    live, at = np.unique(np.array(shifts, dtype=object), return_inverse=True)
    coeffs = np.zeros((len(live),) + shape, dtype=complex)
    np.add.at(coeffs, (at, *(np.asarray(k, dtype=np.intp) for k in keys)), values)
    return live, coeffs


# -- walks -------------------------------------------------------------------


def walk_to_json(walk: SymbolMatrix) -> dict:
    entries = []
    for i, j in np.ndindex(walk.n, walk.n):
        live = walk.coeffs[:, i, j] != 0
        if live.any():
            terms = zip(walk.shifts[live].tolist(), walk.coeffs[live, i, j].tolist())
            entries.append({
                "row": i + 1, "col": j + 1,
                "terms": [{"shift": s, "re": c.real, "im": c.imag} for s, c in terms],
            })
    return {"n": walk.n, "entries": entries}


def walk_from_json(data: dict) -> SymbolMatrix:
    n = _require(data, "n", int, "walk")
    if n < 1:
        raise SpecFormatError("walk.n: must be positive")
    shifts, rows, cols, values = [], [], [], []
    for idx, item in enumerate(_require(data, "entries", list, "walk")):
        where = f"walk.entries[{idx}]"
        row = _require(item, "row", int, where)
        col = _require(item, "col", int, where)
        if not (1 <= row <= n and 1 <= col <= n):
            raise SpecFormatError(f"{where}: row/col outside 1..{n}")
        terms = _require(item, "terms", list, where)
        count = _read_terms(terms, f"{where}.terms", shifts, values)
        rows += [row - 1] * count
        cols += [col - 1] * count
    return SymbolMatrix.from_terms(*_summed(shifts, (rows, cols), values, (n, n)))


def model_from_json(data: dict) -> ModelWalkSpec:
    inner = data["model"]
    d = _require(inner, "d", int, "model")
    terms = _require(inner, "lambda_coeffs", list, "model")
    shifts, values = [], []
    _read_terms(terms, "model.lambda_coeffs", shifts, values)
    return ModelWalkSpec(d, LaurentPoly.from_terms(*_summed(shifts, (), values, ())))


# -- state vectors -----------------------------------------------------------


def state_to_json(xi: StateVector) -> dict:
    amps = [
        {"site": s, "channel": k, "re": a.real, "im": a.imag}
        for s, k, a in zip(xi.sites.tolist(), xi.channels.tolist(), xi.values.tolist())
    ]
    return {"n": xi.n, "amps": amps}


def state_from_json(data: dict) -> StateVector:
    n = _require(data, "n", int, "vector")
    if n < 1:
        raise SpecFormatError("vector.n: must be positive")
    sites, chans, values = [], [], []
    for idx, item in enumerate(_require(data, "amps", list, "vector")):
        where = f"vector.amps[{idx}]"
        sites.append(_require(item, "site", int, where))
        chans.append(_require(item, "channel", int, where))
        if not 1 <= chans[-1] <= n:
            raise SpecFormatError(f"{where}.channel: outside 1..{n}")
        re = _require(item, "re", float, where)
        im = _require(item, "im", float, where)
        values.append(complex(re, im))
    return _settle(sites, chans, values, n)  # sums repeated entries in file order


def parse_spec(source: str | IO) -> SymbolMatrix | ModelWalkSpec | StateVector:
    """Parse a walk spec, model spec, or initial vector from JSON text/stream."""
    try:
        data = json.loads(source) if isinstance(source, str) else json.load(source)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecFormatError("top level must be a JSON object")
    if "model" in data:
        return model_from_json(data)
    if "amps" in data:
        return state_from_json(data)
    if "entries" in data:
        return walk_from_json(data)
    raise SpecFormatError(
        "unrecognized spec: expected 'entries' (walk), 'model', or 'amps' (vector)"
    )


# -- eigen systems -----------------------------------------------------------


def eigensystem_to_json(system: EigenSystem) -> dict:
    return {
        "bands": [
            {
                "d": band.d,
                "winding": band.winding,
                "multiplicity": band.multiplicity,
                "samples": [{"re": v.real, "im": v.imag} for v in band.samples],
            }
            for band in system.bands
        ],
        "base_grid": system.base_grid,
    }


# -- limit measures ----------------------------------------------------------


def measure_to_json(measure: LimitMeasure) -> dict:
    centers, cells = measure.histogram()
    return {
        "atoms": [{"x": x, "mass": mass} for x, mass in measure.atoms],
        "bins": [
            {"x": x, "mass": mass} for x, mass in zip(centers.tolist(), cells.tolist())
        ],
    }


# -- CSV emitters ------------------------------------------------------------


def _cells(column) -> list[str]:
    values = column.tolist() if isinstance(column, np.ndarray) else column
    return [_fmt(v) if isinstance(v, float) else str(v) for v in values]


def _write_rows(stream: IO, header: str, *columns) -> None:
    """The header line, then one line per row: floats through _fmt, the rest str."""
    lines = [header, *map(",".join, zip(*map(_cells, columns)))]
    stream.write("\n".join(lines) + "\n")


def _covering_angles(count: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(count) / count


def write_bands_csv(system: EigenSystem, stream: IO) -> None:
    """Columns: band_index, covering_angle, re, im, arg."""
    samples = [band.samples for band in system.bands]
    values = np.concatenate(samples)
    index = np.repeat(np.arange(len(samples)), [len(s) for s in samples])
    angles = np.concatenate([_covering_angles(len(s)) for s in samples])
    _write_rows(stream, "band_index,covering_angle,re,im,arg",
                index, angles, values.real, values.imag, np.angle(values))


def write_distribution_csv(
    dist: PositionDistribution, stream: IO, rescaled: bool = False
) -> None:
    """Columns: (site, prob), or (x, prob) with x = site/time when rescaled."""
    if rescaled and dist.time <= 0:
        raise SpecFormatError("rescaled output needs a positive time")
    if rescaled:
        _write_rows(stream, "x,prob", dist.sites / dist.time, dist.masses)
    else:
        _write_rows(stream, "site,prob", dist.sites, dist.masses)


def write_measure_csv(measure: LimitMeasure, stream: IO) -> None:
    """Columns: kind, x, mass (atoms first, then the histogram view's cells)."""
    centers, cells = measure.histogram()
    kinds = ["atom"] * len(measure.atoms) + ["bin"] * len(centers)
    xs = [x for x, _mass in measure.atoms] + centers.tolist()
    masses = [mass for _x, mass in measure.atoms] + cells.tolist()
    _write_rows(stream, "kind,x,mass", kinds, xs, masses)


def write_comparison_csv(rows: Iterable[MomentComparison], stream: IO) -> None:
    """Columns: t, m, empirical, limit, deviation."""
    table = [(row.t, row.m, row.empirical, row.limit, row.deviation) for row in rows]
    _write_rows(stream, "t,m,empirical,limit,deviation", *zip(*table))


def write_generator_csv(band: Band, stream: IO) -> None:
    """Columns: theta, h: the band's unwrapped phase at each covering point.

    exp(i h) = lambda, and at winding zero h is single-valued: the band's
    continuous-time generator.
    """
    thetas = _covering_angles(len(band.samples))
    _write_rows(stream, "theta,h", thetas, np.unwrap(np.angle(band.samples)))
