"""Tests for the benchmark's own helpers and a tiny run of each workload.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
from dataclasses import replace

import pytest

from perfbench import bench, tracing
from perfbench.metrics import tail, valid_name
from perfbench.workloads import WORKLOADS, Size

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _span(layer, start, end, parent, rows=None):
    return (layer, f"{layer}.call", start, end, parent, None, rows)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            _span("root", 0.0, 10.0, -1),   # 0
            _span("a", 1.0, 4.0, 0),        # 1
            _span("b", 2.0, 3.0, 1),        # 2: child of a
            _span("a", 5.0, 9.0, 0),        # 3
            _span("b", 6.0, 6.5, 3),        # 4
        ]
        assert tracing.self_times(spans) == pytest.approx(
            [3.0, 2.0, 1.0, 3.5, 0.5]
        )
        costs = tracing.ledger(spans)
        assert costs["root"].calls == 0  # the root span is not a call
        assert costs["a"].calls == 2
        assert costs["a"].self_s == pytest.approx(5.5)
        assert costs["b"].self_s == pytest.approx(1.5)
        total = sum(c.self_s for c in costs.values())
        assert total == pytest.approx(10.0)

    def test_same_layer_nesting_counts_each_call(self):
        spans = [
            _span("root", 0.0, 4.0, -1),
            _span("a", 0.0, 3.0, 0, rows=2),
            _span("a", 1.0, 2.0, 1, rows=1),
        ]
        costs = tracing.ledger(spans)
        assert costs["a"].calls == 2
        assert costs["a"].rows == 3
        assert costs["a"].self_s == pytest.approx(3.0)


class _Toy:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    @classmethod
    def make(cls):
        return cls()


_TOY_LAYERS = {
    "outer": (tracing.Entry(__name__, "_Toy", "outer"),),
    "inner": (tracing.Entry(__name__, "_Toy", "inner"),
              tracing.Entry(__name__, "_Toy", "make")),
}


class TestTracer:
    def test_wraps_nests_and_restores(self):
        original = _Toy.__dict__["outer"]
        tracer = tracing.Tracer()
        with tracing.traced(tracer, _TOY_LAYERS):
            with tracer.span("root", "run"):
                toy = _Toy.make()
                assert toy.outer(3) == 7
        assert _Toy.__dict__["outer"] is original
        assert isinstance(_Toy.__dict__["make"], classmethod)
        labels = [(s[0], s[1], s[4]) for s in tracer.spans]
        assert labels == [
            ("root", "run", -1),
            ("inner", "_Toy.make", 0),
            ("outer", "_Toy.outer", 0),
            ("inner", "_Toy.inner", 2),
        ]
        assert _Toy().outer(1) == 3  # unwrapped again

    def test_chrome_trace_events(self):
        spans = [
            ("root", "run", 1.0, 2.0, -1, None, None),
            ("core.slo", "SloGate.admit", 1.25, 1.5, 0, 42, None),
        ]
        doc = tracing.chrome_trace(spans, {"workload": "w"})
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert events[1]["ts"] == pytest.approx(250000.0)
        assert events[1]["dur"] == pytest.approx(250000.0)
        assert events[1]["args"] == {"request_id": 42}
        json.dumps(doc)  # serializable

    def test_declared_entry_points_exist(self):
        import importlib

        for entries in tracing.LAYERS.values():
            for entry in entries:
                cls = getattr(importlib.import_module(entry.module),
                              entry.cls)
                assert entry.method in cls.__dict__, entry.label


class TestTail:
    @pytest.mark.parametrize(
        "n, percentile, beyond",
        [
            (19, 50.0, 9),      # too few: median, count stated
            (20, 50.0, 10),
            (100, 90.0, 10),
            (199, 90.0, 19),
            (200, 95.0, 10),
            (999, 95.0, 49),
            (1000, 99.0, 10),
            (10_000, 99.9, 10),
            (99_999, 99.9, 99),
            (100_000, 99.99, 10),
        ],
    )
    def test_highest_percentile_with_ten_beyond(self, n, percentile, beyond):
        t = tail(list(range(n)))
        assert (t.percentile, t.n_beyond) == (percentile, beyond)

    def test_value_is_that_percentile(self):
        t = tail([float(i) for i in range(1, 1001)])
        assert t.percentile == 99.0
        assert t.value == pytest.approx(990.01)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tail([])


class TestNames:
    @pytest.mark.parametrize(
        "name", ["setup_s", "core.cache.self_pct", "sim.mean_k", "1x", "a-b"]
    )
    def test_valid(self, name):
        assert valid_name(name)

    @pytest.mark.parametrize(
        "name", ["", "_x", ".x", "a b", "a/b", "x" * 65, "é"]
    )
    def test_invalid(self, name):
        assert not valid_name(name)

    def test_benchmark_json_names(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"]]
        names += [m["name"] for m in spec["per_layer"]]
        assert len(names) == len(set(names))
        assert all(valid_name(n) for n in names)
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


class TestGitCommit:
    def test_outside_a_work_tree(self, tmp_path):
        assert bench.git_commit(str(tmp_path)) is None

    def test_loose_and_packed_refs(self, tmp_path):
        git = tmp_path / ".git"
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "packed-refs").write_text(
            "# pack-refs with: peeled\n" + "a" * 40 + " refs/heads/main\n"
        )
        assert bench.git_commit(str(tmp_path)) == "a" * 40
        (git / "refs" / "heads" / "main").write_text("b" * 40 + "\n")
        assert bench.git_commit(str(tmp_path)) == "b" * 40
        (git / "HEAD").write_text("c" * 40 + "\n")  # detached
        assert bench.git_commit(str(tmp_path)) == "c" * 40


def tiny(workload):
    """The same workload with a few hundred requests."""
    n_warm = min(workload.size.n_warm, 300)
    return replace(workload, size=Size(n_warm=n_warm, n_serve=200))


def _declared(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[key]}


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(name, trace, tmp_path):
    result = bench.run_workload(
        tiny(WORKLOADS[name]), seed=7, seconds=0.0, trace=trace,
        out_dir=str(tmp_path),
    )
    assert result.correct, result.notes
    assert result.failed == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: u for k, (_, u) in result.metrics.items()} == declared
    if trace:
        assert os.path.exists(result.record["ledger"]["chrome_trace"])
        self_sum = result.metrics["trace.self_sum_pct"][0]
        assert self_sum == pytest.approx(100.0, abs=5.0)
    else:
        assert result.metrics["ok_frac"][0] == 1.0
    # Work files (the tiered cold tier) are removed after the run.
    assert [p.name for p in tmp_path.iterdir()
            if p.name.startswith("work-")] == []


def test_digest_mismatch_fails_the_run(tmp_path):
    workload = tiny(WORKLOADS["hit-heavy"])
    calls = []

    def perturbed_run(system, inputs):
        outcome = workload.run(system, inputs)
        calls.append(1)
        if len(calls) == 2:  # the steady run of the first round
            record = outcome.records[0]
            record.completion_s = record.completion_s + 1.0
        return outcome

    result = bench.run_workload(
        replace(workload, run=perturbed_run), seed=7, seconds=0.0,
        trace=False, out_dir=str(tmp_path),
    )
    assert not result.correct
    assert result.failed >= 1
    assert result.metrics["ok_frac"][0] < 1.0
    assert any("digest" in note for note in result.notes)
