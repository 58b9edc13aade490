"""Spans and counts recorded around calls into the package's modules.

Nothing in the package changes: :meth:`Tracer.install` wraps a function and
rebinds every name in the package's modules that refers to it (for example
``circuit_sharp.learning.forward``, which ``learning`` imported from
``evaluate``), then :meth:`Tracer.uninstall` restores the originals.  Spans
and counts stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import stats


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict[str, int] = field(default_factory=dict)


def _rows(batch) -> int:
    return int(np.atleast_2d(np.asarray(batch)).shape[0])


def _batch_counts(args) -> dict[str, int]:
    rows = _rows(args["batch"])
    return {"rows": rows, "edge_rows": rows * args["circuit"].num_sum_edges}


def _trace_counts(args) -> dict[str, int]:
    rows = int(args["trace"].log_p.shape[0])
    return {"rows": rows, "edge_rows": rows * args["circuit"].num_sum_edges}


# (module, attribute, counter): functions whose calls become spans named
# "<module>.<attribute>".  Methods are given as "Class.method".
TARGETS = (
    ("evaluate", "forward", _batch_counts),
    ("flows", "backward", _trace_counts),
    ("curvature", "trace_penalty_gradient", _batch_counts),
    ("curvature", "hessian_trace", None),
    ("curvature", "full_hessian_tree", _batch_counts),
    ("curvature", "top_eigenvalues", None),
    ("fd", "fd_hessian", None),
    ("diagnostics", "landscape", None),
    ("learning", "sgd_train", None),
    ("learning", "em_train", None),
    ("learning", "update_leaves", None),
    ("structure", "build_rat", None),
    ("structure", "build_hclt", None),
    ("structure", "build_layered_dag", None),
    ("structure", "chow_liu_tree", None),
    ("circuit", "Circuit.build", None),
    ("circuit", "Circuit.tree_index", None),
)

PACKAGE = "circuit_sharp"


class Tracer:
    """In-memory span recorder; spans nest by call order (single thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, counts: dict[str, int] | None = None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(sid, name, time.perf_counter(), float("nan"), parent, dict(counts or {}))
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = None
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                counts = counter(bound.arguments)
            with self.span(name, counts):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Rebind every package-level reference to each target function."""
        owners = {m: importlib.import_module(f"{PACKAGE}.{m}") for m, _, _ in TARGETS}
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for mod_name, attr, counter in TARGETS:
            name = f"{mod_name}.{attr}"
            owner = owners[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    self._rebind(cls, meth, raw, staticmethod(self._wrap(name, raw.__func__, counter)))
                else:
                    self._rebind(cls, meth, raw, self._wrap(name, raw, counter))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapped)

    def _rebind(self, holder, key: str, original, replacement) -> None:
        setattr(holder, key, replacement)
        self._restore.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- aggregation ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed counts, inclusive seconds, self seconds."""
        own = stats.self_times(self.spans)
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            agg = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += s.end - s.start
            agg["self_s"] += own[s.id]
            for key, value in s.counts.items():
                agg[key] = agg.get(key, 0) + value
        return out

    def dump(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent, **s.counts}
            for s in self.spans
        ]
