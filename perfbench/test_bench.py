"""Tests of the benchmark's own arithmetic and harness: python3 -m pytest perfbench"""

import json
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import stats
from tracer import Span, Tracer


@pytest.mark.parametrize(
    "n, pct",
    [(11, 9), (20, 50), (24, 58), (30, 66), (40, 75), (100, 90), (120, 91), (1000, 99), (2000, 99)],
)
def test_tail_percentile_leaves_ten_steps_beyond(n, pct):
    assert stats.tail_percentile(n) == pct
    ordered = list(range(n))
    rank = ordered.index(stats.nearest_rank(ordered, pct)) + 1
    assert n - rank >= stats.TAIL_MIN_BEYOND
    # one percentile higher leaves fewer than ten beyond
    assert n - (ordered.index(stats.nearest_rank(ordered, pct + 1)) + 1) < stats.TAIL_MIN_BEYOND


@pytest.mark.parametrize("n", [1, 5, 10])
def test_too_few_steps_report_the_maximum(n):
    assert stats.tail_percentile(n) is None
    summary = stats.summarize_steps([float(i) for i in range(n)])
    assert (summary.tail, summary.tail_pct, summary.count) == (n - 1, 100, n)


def test_summary_of_constant_steps_with_one_slow_step():
    times = [1.0] * 29 + [9.0]
    summary = stats.summarize_steps(times)
    assert (summary.p50, summary.tail, summary.tail_pct) == (1.0, 1.0, 66)


def span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent)


def test_self_time_subtracts_back_to_back_children():
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 3.0, 0), span(2, 3.0, 6.0, 0)]
    own = stats.self_times(spans)
    assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 3.0})


def test_self_time_counts_nested_grandchildren_once():
    # 0 > 1 > 2: the grandchild lies inside the child and is not subtracted again
    spans = [span(0, 0.0, 10.0), span(1, 2.0, 8.0, 0), span(2, 3.0, 5.0, 1)]
    own = stats.self_times(spans)
    assert own == pytest.approx({0: 4.0, 1: 4.0, 2: 2.0})


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    assert stats.covered_length([(1.0, 4.0), (3.0, 5.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(5.0)


def test_fail_frac_counts_failed_steps_and_checks():
    tally = stats.Tally()
    tally.step(True, 8)
    tally.step(False, 2)  # a unit whose two steps failed together
    tally.check(True)
    tally.check(False)
    assert (tally.attempted, tally.failed) == (12, 3)
    assert tally.fail_frac == pytest.approx(3 / 12)


def test_fail_frac_is_zero_when_nothing_fails():
    tally = stats.Tally()
    tally.step(True, 5)
    tally.check(True)
    assert (tally.attempted, tally.failed, tally.fail_frac) == (6, 0, 0.0)


def test_quartile_spread():
    assert stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((1.5, 4.5, (4.5 - 1.5) / 3.0))


def test_ratios_divide_each_time_by_its_reference():
    assert stats.ratios([3.0, 1.0], [1.5, 4.0]) == [2.0, 0.25]
    with pytest.raises(ValueError):
        stats.ratios([1.0], [1.0, 2.0])


def test_tracer_nests_spans_and_sums_counts():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner", {"rows": 3}):
            pass
        with tracer.span("inner", {"rows": 4}):
            pass
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    totals = tracer.totals()
    assert (totals["inner"]["calls"], totals["inner"]["rows"]) == (2, 7)
    assert totals["outer"]["self_s"] == pytest.approx(totals["outer"]["s"] - totals["inner"]["s"])


def test_install_rebinds_imported_names_and_uninstall_restores():
    import circuit_sharp.evaluate as evaluate
    import circuit_sharp.learning as learning
    from circuit_sharp import Circuit, ParamSet, leaf_node, sum_node

    original = evaluate.forward
    assert learning.forward is original
    circuit = Circuit.build([leaf_node(0, "bern", [0.3]), leaf_node(0, "bern", [0.8]), sum_node(0, 1)], 2)
    params = ParamSet.uniform(circuit)
    tracer = Tracer()
    with tracer.installed():
        assert learning.forward is not original
        learning._mean_nll(circuit, params, np.ones((5, 1)))
    assert learning.forward is original and evaluate.forward is original
    (span,) = [s for s in tracer.spans if s.name == "evaluate.forward"]
    assert span.counts == {"rows": 5, "edge_rows": 10}


class FakeWorkload:
    """Two steps per unit; every third unit raises, one check fails."""

    name = "fake"
    steps_per_unit = 2

    def __init__(self):
        self.calls = 0

    def setup(self, seed, tracer=None):
        import circuit_sharp.structure as structure

        circuit, params = structure.build_layered_dag(3, 2, seed=seed)
        return type("State", (), {"circuit": circuit, "params": params})()

    def warm_up(self, state):
        pass

    def unit(self, state):
        from circuit_sharp.errors import NotConverged
        from workloads import UnitResult

        self.calls += 1
        if self.calls % 3 == 0:
            raise NotConverged("fake")
        return UnitResult([0.1, 0.2], 0, 1.5, 2.5, [np.ones(3)], state.params)

    def checks(self, state, result):
        return [("passes", lambda: (True, "")), ("fails", lambda: (False, ""))]


def test_measured_run_reports_every_end_to_end_metric_and_counts_failures():
    import harness

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    workload = FakeWorkload()
    report = harness.measured_run(workload, seed=1, seconds=0.0, setup_repeats=2)
    payload = json.loads(report.json_line())
    assert set(payload["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    # one unit of two steps, then five checks: finite, params, repeat, passes, fails
    assert (payload["attempted"], payload["failed"], payload["correct"]) == (7, 1, False)
    assert payload["metrics"]["test_nll"] == {"value": 1.5, "unit": "nats"}


def test_failed_unit_counts_all_its_steps():
    import harness

    workload = FakeWorkload()
    workload.calls = 2  # the next unit raises
    tally = stats.Tally()
    harness.timed_section(workload, workload.setup(1), 0.0, tally)
    assert (tally.steps, tally.failed_steps) == (2, 2)


def test_timed_section_alternates_modes_around_units():
    import harness
    from contextlib import contextmanager

    entered = []

    def mode(tag):
        @contextmanager
        def enter():
            entered.append(tag)
            yield

        return enter

    workload = FakeWorkload()
    sections = harness.timed_section(workload, workload.setup(1), 0.0, stats.Tally(), (mode("a"), mode("b")))
    assert entered == ["a", "b"]
    assert [s.attempts for s in sections] == [1, 1]


def test_each_unit_is_referred_to_the_blocks_before_and_after_it(monkeypatch):
    import harness

    blocks = iter([1.0, 2.0, 4.0])
    monkeypatch.setattr(harness, "reference_block", lambda: next(blocks))
    workload = FakeWorkload()
    modes = (nullcontext, nullcontext)
    first, second = harness.timed_section(workload, workload.setup(1), 0.0, stats.Tally(), modes)
    assert (first.unit_refs, second.unit_refs) == ([1.5], [3.0])
    assert (first.step_refs, second.step_refs) == ([1.5, 1.5], [3.0, 3.0])


def test_layer_metrics_match_the_per_layer_list():
    import harness

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    metrics = harness.layer_metrics(Tracer(), 1, Tracer(), 0.0)
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert {u for _, u in metrics.values()} <= {m["unit"] for m in spec["per_layer"]}
    assert all(metrics[m["name"]][1] == m["unit"] for m in spec["per_layer"])
