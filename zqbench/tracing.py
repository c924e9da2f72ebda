"""Span tracing for the traced benchmark run, from outside the library.

`Tracer.installed` wraps the public zqwalk functions listed in `TARGETS` in
every loaded ``zqwalk.*`` module namespace that holds them (methods are
wrapped on their class), so calls between library modules are traced too and
nested spans get a parent.  Each span records name, start, end, parent and op
id; spans stay in memory until the run writes them out.  Counters attached to
a target are computed from the call's inputs and result, never from timings,
so they repeat exactly between runs with the same seed.

Standard library only: the CLI child process (`cli_child.py`) imports this
module without numpy.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    op: str | None = None
    error: str | None = None
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "op": self.op, "error": self.error,
            "counts": self.counts,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Span":
        return cls(**data)


# -- counters (inputs and results only) ---------------------------------------


def _terms(symbol) -> int:
    """Nonzero Laurent coefficients in a symbol or characteristic polynomial."""
    if hasattr(symbol, "entries"):
        return sum(len(p.coeffs) for row in symbol.entries for p in row)
    return sum(len(c.coeffs) for c in symbol.coeffs)


def _count_points(span, args, result):
    span.counts["points"] = args["grid_size"]


def _count_terms(span, args, result):
    span.counts["result_terms"] = _terms(result)


def _count_track(span, args, result):
    requested = args["base_grid"]
    span.counts["requested_grid"] = requested
    if result is not None:
        span.counts["grid_doublings"] = round(math.log2(result.base_grid / requested))


def _count_projection_points(span, args, result):
    span.counts["points"] = args["system"].base_grid


def _count_site_steps(span, args, result):
    walk, xi, t = args["walk"], args["xi"], args["t"]
    sites = [s for (s, _k) in xi.amplitudes]
    if not sites or t <= 0:
        span.counts["site_steps"] = 0
        return
    width0 = max(sites) - min(sites) + 1
    radius = walk.propagation_radius
    # live window before step j is width0 + 2*radius*j sites, j = 0..t-1
    span.counts["site_steps"] = walk.n * (t * width0 + radius * t * (t - 1))


# (module, attribute, span name, counter); "Class.method" wraps on the class.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("zqwalk.symbol", "SymbolMatrix.grid_eval", "symbol.grid_eval", _count_points),
    ("zqwalk.symbol", "verify_unitary_symbol", "symbol.verify_unitary", None),
    ("zqwalk.symbol", "compose", "symbol.compose", _count_terms),
    ("zqwalk.symbol", "adjoint", "symbol.adjoint", _count_terms),
    ("zqwalk.symbol", "direct_sum", "symbol.direct_sum", _count_terms),
    ("zqwalk.symbol", "symbol_power", "symbol.symbol_power", _count_terms),
    ("zqwalk.symbol", "char_poly", "symbol.char_poly", _count_terms),
    ("zqwalk.symbol", "verify_cayley_hamilton", "symbol.cayley_hamilton", None),
    ("zqwalk.symbol", "classify_decay", "symbol.classify_decay", None),
    ("zqwalk.spectral", "track_bands", "spectral.track_bands", _count_track),
    ("zqwalk.spectral", "refine_system", "spectral.refine_system", None),
    ("zqwalk.spectral", "winding_numbers", "spectral.winding_numbers", None),
    ("zqwalk.spectral", "total_winding", "spectral.total_winding", None),
    ("zqwalk.spectral", "ct_realizable", "spectral.ct_realizable", None),
    ("zqwalk.spectral", "is_decomposable", "spectral.is_decomposable", None),
    ("zqwalk.spectral", "are_conjugate", "spectral.are_conjugate", None),
    ("zqwalk.spectral", "band_projections", "spectral.band_projections",
     _count_projection_points),
    ("zqwalk.limit", "group_velocities", "limit.group_velocities", None),
    ("zqwalk.limit", "limit_measure", "limit.limit_measure", None),
    ("zqwalk.limit", "limit_moments", "limit.limit_moments", None),
    ("zqwalk.limit", "cdf_distance", "limit.cdf_distance", None),
    ("zqwalk.limit", "compare_empirical", "limit.compare_empirical", None),
    ("zqwalk.simulate", "evolve", "simulate.evolve", _count_site_steps),
    ("zqwalk.simulate", "apply_walk", "simulate.apply_walk", None),
    ("zqwalk.simulate", "rescaled_moment", "simulate.rescaled_moment", None),
    ("zqwalk.simulate", "position_distribution", "simulate.position_distribution",
     None),
    ("zqwalk.simulate", "fourier_position_distribution",
     "simulate.fourier_position_distribution", None),
    ("zqwalk.model", "build_model_walk", "model.build_model_walk", None),
    ("zqwalk.model", "rearrangement_check", "model.rearrangement_check", None),
    ("zqwalk.io", "parse_spec", "io.parse_spec", None),
    ("zqwalk.io", "eigensystem_to_json", "io.eigensystem_to_json", None),
    ("zqwalk.io", "measure_to_json", "io.measure_to_json", None),
    ("zqwalk.io", "write_bands_csv", "io.write.bands_csv", None),
    ("zqwalk.io", "write_distribution_csv", "io.write.distribution_csv", None),
    ("zqwalk.io", "write_measure_csv", "io.write.measure_csv", None),
    ("zqwalk.io", "write_comparison_csv", "io.write.comparison_csv", None),
    ("zqwalk.io", "write_generator_csv", "io.write.generator_csv", None),
    ("zqwalk.cli", "Run.write_json", "io.write.json", None),
    ("zqwalk.cli", "Run.finish", "io.write.manifest", None),
    ("zqwalk.cli", "main", "cli.main", None),
)


class Tracer:
    """Collects spans from wrapped library calls while `active` is true."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.op: str | None = None
        self.missing: list[str] = []
        self.counter_errors = 0
        self._stack: list[int] = []

    # -- recording ------------------------------------------------------------

    def add_span(self, name: str, start: float, end: float,
                 parent: int | None = None) -> int:
        """Record a span measured by the caller (subprocesses, child imports)."""
        self.spans.append(Span(name, start, end, parent, self.op))
        return len(self.spans) - 1

    def adopt(self, spans: list[Span], parent: int) -> None:
        """Attach spans recorded in another process under span `parent`."""
        offset = len(self.spans)
        for span in spans:
            span.parent = parent if span.parent is None else span.parent + offset
            span.op = self.op
            self.spans.append(span)

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        signature = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), parent=parent, op=tracer.op)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if counter is not None:
                    tracer._count(counter, span, signature, args, kwargs, result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count(self, counter, span, signature, args, kwargs, result) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        try:
            counter(span, bound.arguments, result)
        except (AttributeError, KeyError, TypeError) as exc:
            # the library changed shape under a counter; keep tracing, say so
            self.counter_errors += 1
            print(f"trace: counter for {span.name} failed: {exc!r}", file=sys.stderr)

    # -- installation ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target in all loaded zqwalk namespaces; restore on exit."""
        restore: list[tuple[Any, str, Any]] = []
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "zqwalk" or k.startswith("zqwalk."))]
        self.missing = []
        try:
            for module_name, attr, span_name, counter in TARGETS:
                module = sys.modules.get(module_name)
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, method, None) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                wrapper = self._wrap(span_name, original, counter)
                if owner_name:
                    restore.append((owner, method, original))
                    setattr(owner, method, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    @contextlib.contextmanager
    def recording(self, op: str | None):
        """Trace calls made inside the block, attributed to op id `op`."""
        self.op, self.active = op, True
        try:
            yield self
        finally:
            self.active, self.op = False, None


# -- aggregation ----------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def outermost(spans: list[Span], predicate: Callable[[str], bool]) -> list[int]:
    """Indices of matching spans that have no matching ancestor."""
    keep = []
    for i, s in enumerate(spans):
        if not predicate(s.name):
            continue
        p = s.parent
        while p is not None and not predicate(spans[p].name):
            p = spans[p].parent
        if p is None:
            keep.append(i)
    return keep
