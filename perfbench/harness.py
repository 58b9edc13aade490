"""Timed sections, correctness checks and metric reports for one workload."""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import platform
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import stats
from tracer import Tracer
from workloads import FAILURES, all_finite, check_params

# Per-unit metrics of the traced run: span name -> reported fields.
LAYER_FIELDS = (
    ("evaluate.forward", ("calls", "rows", "edge_rows", "self_s", "ns_per_edge_row")),
    ("flows.backward", ("calls", "edge_rows", "self_s", "ns_per_edge_row")),
    ("curvature.trace_penalty_gradient", ("calls", "edge_rows", "self_s", "ns_per_edge_row")),
    ("curvature.hessian_trace", ("calls", "self_s")),
    ("curvature.full_hessian_tree", ("calls", "rows", "self_s", "ms_per_row")),
    ("curvature.top_eigenvalues", ("calls", "s")),
    ("fd.fd_hessian", ("calls", "self_s")),
    ("diagnostics.landscape", ("calls", "self_s")),
    ("learning.update_leaves", ("calls", "s")),
)
TRAINERS = ("learning.sgd_train", "learning.em_train")
BUILDERS = ("structure.build_rat", "structure.build_hclt", "structure.build_layered_dag")
INDEXING = ("circuit.Circuit.build", "circuit.Circuit.tree_index")
UNITS = {"calls": "count", "rows": "count", "edge_rows": "count", "ns_per_edge_row": "ns", "ms_per_row": "ms"}

# The reference block: fixed work of the kind the package does, a Python loop
# around small numpy gathers and reductions plus dict traffic, that no change
# to the package can alter.  The machine is a few cores of a shared host whose
# speed drifts by up to 1.6x over seconds to minutes with its neighbours'
# load; over ten runs the quartile spread of raw unit and step times reached
# 0.2-0.38 of their median, past any useful bound.  The timed section runs
# a block before and after every unit and reports unit and step times as
# multiples of the mean of the two blocks around them, which cancels the
# drift that both see.
_REF_RNG = np.random.default_rng(0)
_REF_TABLE = _REF_RNG.random((16, 4096))
_REF_INDEX = _REF_RNG.integers(0, 4096, 4096)
REFERENCE_ROUNDS = 800


@dataclass
class Report:
    tally: stats.Tally
    metrics: dict[str, tuple[float, str]]
    lines: list[str] = field(default_factory=list)

    def json_line(self) -> str:
        def number(v):
            return v if isinstance(v, int) or math.isfinite(v) else None

        return json.dumps(
            {
                "correct": self.tally.failed == 0,
                "attempted": self.tally.attempted,
                "failed": self.tally.failed,
                "metrics": {k: {"value": number(v), "unit": u} for k, (v, u) in self.metrics.items()},
            }
        )


@dataclass
class Section:
    attempts: int = 0
    unit_times: list[float] = field(default_factory=list)
    unit_refs: list[float] = field(default_factory=list)  # reference time around each unit
    step_times: list[float] = field(default_factory=list)
    step_refs: list[float] = field(default_factory=list)  # the unit's reference time, per step
    results: list = field(default_factory=list)


def reference_block() -> float:
    """Seconds taken by REFERENCE_ROUNDS rounds of the reference work."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REFERENCE_ROUNDS):
        acc += float(np.logaddexp.reduce(_REF_TABLE[i % 16, _REF_INDEX]))
        table = {j: j * acc for j in range(300)}
        acc = sum(table.values()) * 1e-9
    return time.perf_counter() - t0


def environment(blas_threads: int) -> dict[str, str]:
    def cpu_model() -> str:
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def cache(level: int) -> str:
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        try:
            for index in sorted(base.glob("index*")):
                if (index / "level").read_text().strip() == str(level):
                    return (index / "size").read_text().strip()
        except OSError:
            pass
        return "unknown"

    return {
        "nproc": str(os.cpu_count()),
        "cpu": json.dumps(cpu_model()),
        "l2": cache(2),
        "l3": cache(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": str(blas_threads),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed_section(workload, state, seconds: float, tally: stats.Tally, modes=(nullcontext,)) -> list[Section]:
    """Repeat whole units until `seconds` have passed, taking the context
    managers of `modes` in turn around successive units (entered and left
    outside the unit's timing), with a reference block before the first unit
    and after each; one Section per mode, each with at least one unit."""
    sections = [Section() for _ in modes]
    deadline = time.perf_counter() + seconds
    ref_before = reference_block()
    for i in itertools.count():
        section = sections[i % len(modes)]
        gc.collect()
        section.attempts += 1
        with modes[i % len(modes)]():
            t0 = time.perf_counter()
            try:
                result = workload.unit(state)
            except FAILURES:
                tally.step(False, workload.steps_per_unit)
                result = None
            elapsed = time.perf_counter() - t0
        ref_after = reference_block()
        ref = (ref_before + ref_after) / 2.0
        ref_before = ref_after
        if result is not None:
            section.unit_times.append(elapsed)
            section.unit_refs.append(ref)
            section.step_times.extend(result.step_times)
            section.step_refs.extend([ref] * len(result.step_times))
            section.results.append(result)
            tally.step(True, len(result.step_times))
            tally.step(False, result.failed_steps)
        if i + 1 >= len(modes) and time.perf_counter() >= deadline:
            return sections


def set_up(workload, seed: int, tally: stats.Tally, tracer=None):
    """Build the workload's inputs and make its warm-up call, which counts
    as a failed step if it raises."""
    state = workload.setup(seed, tracer)
    try:
        workload.warm_up(state)
    except FAILURES:
        tally.step(False)
    return state


def run_checks(workload, state, results: list, tally: stats.Tally, extra=()) -> list[str]:
    """Checks common to every workload, the workload's own, then `extra`; a
    check that raises one of FAILURES fails."""
    if results:
        first = results[0]
        checks = [
            ("outputs_finite", lambda: (all(all_finite([*r.outputs, r.test_nll, r.sharpness]) for r in results), "")),
            ("params_check", lambda: check_params(state.circuit, first.params)),
            ("units_repeat", lambda: (
                all((r.test_nll, r.sharpness) == (first.test_nll, first.sharpness) for r in results),
                f"{len(results)} units",
            )),
            *workload.checks(state, first),
        ]
    else:
        checks = [("unit_completed", lambda: (False, "every unit failed"))]

    lines = []
    for name, check in [*checks, *extra]:
        try:
            ok, detail = check()
        except FAILURES as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        tally.check(ok)
        lines.append(f"check {'ok  ' if ok else 'FAIL'} {name}  {detail}".rstrip())
    return lines


def _fmt(name: str, value, unit: str, note: str = "") -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"{name:<50} {shown:>14} {unit:<6} {note}".rstrip()


def measured_run(workload, seed: int, seconds: float, setup_repeats: int) -> Report:
    """End-to-end metrics with tracing off."""
    tally = stats.Tally()
    setup_times = []
    for _ in range(setup_repeats):
        gc.collect()
        t0 = time.perf_counter()
        state = set_up(workload, seed, tally)
        setup_times.append(time.perf_counter() - t0)
    (section,) = timed_section(workload, state, seconds, tally)
    peak = peak_rss_mib()
    check_lines = run_checks(workload, state, section.results, tally)

    nan = float("nan")
    steps = stats.summarize_steps(stats.ratios(section.step_times, section.step_refs)) if section.results else None
    first = section.results[0] if section.results else None
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_ref": (statistics.median(stats.ratios(section.unit_times, section.unit_refs)) if first else nan, "ref"),
        "step_ref_p50": (steps.p50 if steps else nan, "ref"),
        "step_ref_tail": (steps.tail if steps else nan, "ref"),
        "peak_rss_mb": (peak, "MiB"),
        "test_nll": (first.test_nll if first else nan, "nats"),
        "sharpness": (first.sharpness if first else nan, "1"),
    }
    notes = {
        "setup_s": f"median of {setup_repeats} set-ups",
        "wall_ref": f"median of {len(section.unit_times)} units",
        "step_ref_p50": f"{steps.count if steps else 0} steps",
        "step_ref_tail": f"p{steps.tail_pct} of {steps.count} steps" if steps else "no steps",
    }
    lines = [_fmt(k, v, u, notes.get(k, "")) for k, (v, u) in metrics.items()]
    lines.append(_fmt("fail_frac", tally.fail_frac, "ratio", f"{tally.failed} failed of {tally.attempted}"))
    # The same times in seconds, which follow the machine's speed.
    if first:
        raw = stats.summarize_steps(section.step_times)
        lines += [
            _fmt("wall_s", statistics.median(section.unit_times), "s", "raw"),
            _fmt("step_s_p50", raw.p50, "s", "raw"),
            _fmt("step_s_tail", raw.tail, "s", f"raw, p{raw.tail_pct}"),
            _fmt("reference_s", statistics.median(section.unit_refs), "s", f"{REFERENCE_ROUNDS} rounds"),
        ]
    return Report(tally, metrics, lines + check_lines)


def layer_metrics(unit_tracer: Tracer, units: int, setup_tracer: Tracer, overhead: float):
    """Per-unit layer metrics from the traced section, set-up layers from the
    traced set-up."""
    totals = unit_tracer.totals()
    metrics: dict[str, tuple[float, str]] = {}

    def per_unit(value):
        v = value / units
        return int(v) if isinstance(value, int) and v.is_integer() else v

    for name, fields in LAYER_FIELDS:
        agg = totals.get(name, {})
        for f in fields:
            if f == "ns_per_edge_row":
                value = 1e9 * agg["self_s"] / agg["edge_rows"] if agg.get("edge_rows") else 0.0
            elif f == "ms_per_row":
                value = 1e3 * agg["self_s"] / agg["rows"] if agg.get("rows") else 0.0
            else:
                value = per_unit(agg.get(f, 0 if f in UNITS else 0.0))
            metrics[f"{name}.{f}"] = (value, UNITS.get(f, "s"))
    metrics["learning.train.self_s"] = (sum(per_unit(totals.get(n, {}).get("self_s", 0.0)) for n in TRAINERS), "s")

    setup = setup_tracer.totals()

    def setup_sum(names, key):
        return float(sum(setup.get(n, {}).get(key, 0.0) for n in names))

    metrics["data.gen.s"] = (setup_sum(["data.gen"], "s"), "s")
    metrics["structure.build.s"] = (setup_sum(BUILDERS, "self_s"), "s")
    metrics["structure.chow_liu_tree.s"] = (setup_sum(["structure.chow_liu_tree"], "s"), "s")
    metrics["circuit.build.s"] = (setup_sum(INDEXING, "s"), "s")
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    return metrics


def traced_run(workload, seed: int, seconds: float, out_dir: Path, env: dict) -> Report:
    """Per-layer metrics: the same units untraced and traced in turn, so that
    a drift in machine speed hits both sets alike."""
    tally = stats.Tally()
    setup_tracer = Tracer()
    with setup_tracer.installed():
        state = set_up(workload, seed, tally, setup_tracer)
    unit_tracer = Tracer()
    plain, traced = timed_section(workload, state, seconds, tally, (nullcontext, unit_tracer.installed))

    def reproduces():
        same = bool(plain.results and traced.results) and all(
            (r.test_nll, r.sharpness) == (plain.results[0].test_nll, plain.results[0].sharpness)
            for r in traced.results
        )
        return same, "test_nll and sharpness, bit for bit"

    check_lines = run_checks(workload, state, plain.results, tally, [("traced_reproduces_untraced", reproduces)])

    if plain.unit_times and traced.unit_times:
        base = statistics.median(stats.ratios(plain.unit_times, plain.unit_refs))
        overhead = statistics.median(stats.ratios(traced.unit_times, traced.unit_refs)) / base - 1.0
    else:
        overhead = float("nan")
    metrics = layer_metrics(unit_tracer, traced.attempts, setup_tracer, overhead)

    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload.name}-seed{seed}.json"
    payload = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "env": env,
        "traced_units": traced.attempts,
        "setup_spans": setup_tracer.dump(),
        "unit_spans": unit_tracer.dump(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path.write_text(json.dumps(payload))

    lines = [_fmt(k, v, u) for k, (v, u) in metrics.items()]
    lines.append(f"per-unit values over {traced.attempts} traced units; spans in {path.relative_to(out_dir.parent)}")
    return Report(tally, metrics, lines + check_lines)
