"""In-memory spans recorded from the benchmark's side of each layer boundary.

The program under test is not modified: public functions of the ``mbrwa``
modules are wrapped for the duration of a traced replay and restored after.
Hot leaf callables (the compiled right-hand sides, Jacobians and invariants,
called once per step or per state) are not given a span per call; their call
count and total time are aggregated onto the enclosing span instead.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "n", "leaves")

    def __init__(self, name: str, start: float, parent: int | None, rid, n: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.n = n
        self.leaves: dict[str, list] = {}  # leaf name -> [calls, seconds]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "rid": self.rid,
            "n": self.n,
            "leaves": self.leaves,
        }


class Tracer:
    """Spans (name, start, end, parent, request id) plus exact counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self.rid = None

    @contextlib.contextmanager
    def span(self, name: str, rid=None, n: int = 1):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        sp = Span(name, perf_counter(), parent, self.rid if rid is None else rid, n)
        self.spans.append(sp)
        self._stack.append(index)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_leaf(self, name: str, fn):
        """Time every call of ``fn`` onto the enclosing span's leaf totals."""

        def leaf(*args):
            t0 = perf_counter()
            out = fn(*args)
            dt = perf_counter() - t0
            if self._stack:
                acc = self.spans[self._stack[-1]].leaves.setdefault(name, [0, 0.0])
                acc[0] += 1
                acc[1] += dt
            return out

        return leaf

    def write(self, path, **header) -> None:
        with open(path, "w") as fh:
            json.dump(
                {**header, "counts": self.counts, "spans": [s.to_dict() for s in self.spans]},
                fh,
            )


def _rebind(original, replacement, package: str) -> list[tuple[object, str, object]]:
    """Point every module-level name in ``package`` bound to ``original`` at
    ``replacement``; returns what to undo."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


@contextlib.contextmanager
def instrumented(tracer: Tracer, spans: dict[str, object], factories: dict[str, object]):
    """Wrap functions for a traced replay.

    ``spans`` maps a span name ("layer.function") to the function to wrap.
    ``factories`` maps a leaf prefix to a cached factory of compiled
    callables (such as ``model.rhs_compiled``); the callables it returns are
    timed as leaves named "<prefix>.<argument value>".
    """
    undo = []
    try:
        for name, fn in spans.items():
            undo += _rebind(fn, tracer.wrap(name, fn), fn.__module__.split(".")[0])
        for prefix, factory in factories.items():
            undo += _rebind(factory, _leaf_factory(tracer, prefix, factory), factory.__module__.split(".")[0])
        yield
    finally:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)


def mbrwa_boundaries() -> tuple[dict, dict]:
    """The layer boundaries of mbrwa: (span functions, leaf factories)."""
    from mbrwa import cli, integrators, model, poisson, polyring, symmetry, verify

    spans = {
        "cli.main": cli.main,
        "cli.simulate": cli.cmd_simulate,
        "cli.invariants": cli.cmd_invariants,
        "cli.verify": cli.cmd_verify,
        "cli.solve_symmetries": cli.cmd_solve_symmetries,
        "integrators.integrate": integrators.integrate,
        "integrators.drift_report": integrators.drift_report,
        "verify.run_suite": verify.run_suite,
        **{f"verify.suite_{s}": getattr(verify, f"suite_{s}") for s in verify.SUITE_NAMES},
        "symmetry.solve_determining": symmetry.solve_determining,
        "symmetry.determining_residuals": symmetry.determining_residuals,
        "symmetry.spans_match": symmetry.spans_match,
        "symmetry.pushforward": symmetry.pushforward,
        "symmetry.dynamics_commutator": symmetry.dynamics_commutator,
        "poisson.all_jacobi_residuals": poisson.all_jacobi_residuals,
        "poisson.matrix_commutator_table": poisson.matrix_commutator_table,
        "poisson.iso_check_Phi": poisson.iso_check_Phi,
        "poisson.cocycle_check": poisson.cocycle_check,
        "polyring.matrix_rank": polyring.matrix_rank,
        "polyring.solve_nullspace": polyring.solve_nullspace,
    }
    leaves = {
        "model.rhs": model.rhs_compiled,
        "model.jac": model.rhs_jacobian_compiled,
        "model.invariant": model.invariant_compiled,
    }
    return spans, leaves


def _leaf_factory(tracer: Tracer, prefix: str, factory):
    @functools.lru_cache(maxsize=None)
    def make(key):
        label = getattr(key, "value", key)
        return tracer.wrap_leaf(f"{prefix}.{label}", factory(key))

    return make


def self_time(spans: list[Span], index: int) -> float:
    """Seconds of span ``index`` not covered by its child spans or leaves."""
    sp = spans[index]
    children = sum(s.duration for s in spans if s.parent == index)
    return sp.duration - children - sum(t for _, t in sp.leaves.values())


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name and per leaf: calls, total and self milliseconds.

    A span's self time is its duration minus its child spans and leaves.
    """
    child_time = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] += sp.duration
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
    for i, sp in enumerate(spans):
        leaf_time = sum(t for _, t in sp.leaves.values())
        row = table[sp.name]
        row["calls"] += 1
        row["total_ms"] += sp.duration * 1e3
        row["self_ms"] += (sp.duration - child_time[i] - leaf_time) * 1e3
        for leaf, (calls, seconds) in sp.leaves.items():
            lrow = table[leaf]
            lrow["calls"] += calls
            lrow["total_ms"] += seconds * 1e3
            lrow["self_ms"] += seconds * 1e3
    return dict(table)


def by_layer(table: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self milliseconds summed per layer (the span name's first component)."""
    out = defaultdict(float)
    for name, row in table.items():
        out[name.split(".")[0]] += row["self_ms"]
    return dict(out)
