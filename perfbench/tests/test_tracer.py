import types

import numpy as np
import pytest

import stats
import workloads as wl
from tracer import Span, Tracer


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # outer [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 6]
    tracer = Tracer(clock=ScriptedClock([0, 1, 2, 3, 4, 5, 6, 10]))
    with tracer.span("outer"):
        with tracer.span("a"):
            with tracer.span("g"):
                pass
        with tracer.span("b"):
            pass
    assert tracer.self_times() == {"outer": 6, "a": 2, "g": 1, "b": 1}
    assert sum(tracer.self_times().values()) == tracer.root_time() == 10


def test_self_time_counts_overlapping_children_once():
    tracer = Tracer()
    tracer.spans = [Span("p", 0, 10, -1), Span("c", 2, 6, 0), Span("c", 4, 8, 0),
                    Span("c", 9, 12, 0)]
    # children cover [2, 8] and [9, 10] inside the parent
    assert tracer.self_times()["p"] == pytest.approx(3)


def test_same_name_accumulates_and_counts_calls():
    tracer = Tracer(clock=ScriptedClock([0, 1, 1, 3]))
    for _ in range(2):
        with tracer.span("x"):
            pass
    assert tracer.self_times() == {"x": 3}
    assert tracer.calls() == {"x": 2}


def test_calls_under_roots():
    tracer = Tracer()
    tracer.spans = [Span("r1", 0, 5, -1), Span("s", 1, 2, 0), Span("t", 1, 2, 1),
                    Span("r2", 6, 9, -1), Span("s", 7, 8, 3), Span("s", 8, 9, 3)]
    under = tracer.calls_under_roots()
    assert under[("r1", "s")] == 1 and under[("r1", "t")] == 1
    assert under[("r2", "s")] == 2


def test_wrap_traces_module_function_and_restores_it():
    mod = types.ModuleType("fake")
    mod.work = lambda x: x + 1
    original = mod.work
    tracer = Tracer()
    seen = []
    assert tracer.wrap(mod, "work", "fake.work", before=lambda a, k: seen.append(a[0]))
    assert mod.work(1) == 2
    assert tracer.calls() == {"fake.work": 1} and seen == [1]
    tracer.restore()
    assert mod.work is original


def test_wrap_instance_method_and_restore():
    class Net:
        def forward(self, x):
            return 2 * x

    net = Net()
    tracer = Tracer()
    tracer.wrap(net, "forward", "net.forward")
    assert net.forward(3) == 6
    tracer.restore()
    assert "forward" not in net.__dict__
    assert tracer.calls() == {"net.forward": 1}


def test_span_free_wrap_runs_hooks_only():
    mod = types.ModuleType("fake")
    mod.build = lambda: "built"
    tracer = Tracer()
    got = []
    tracer.wrap(mod, "build", "fake.build", after=lambda a, k, r: got.append(r), span=False)
    assert mod.build() == "built" and got == ["built"]
    assert tracer.spans == []


def test_missing_name_is_reported_absent_not_raised():
    mod = types.ModuleType("fake")
    tracer = Tracer()
    assert not tracer.wrap(mod, "merged_away", "fake.merged_away")
    assert tracer.absent == ["fake.merged_away"]
    tracer.restore()


def test_install_tracing_tolerates_renamed_functions(monkeypatch):
    from cvrec import predict

    monkeypatch.delattr(predict, "score_candidates")
    monkeypatch.delattr(predict, "rank")
    tracer = Tracer()
    try:
        wl.install_tracing(tracer, {"model": types.SimpleNamespace()})
    finally:
        tracer.restore()
    assert "predict.score_candidates" in tracer.absent
    assert "predict.rank" in tracer.absent
    # a model object without the networks: every network is absent
    assert all(f"model.{n}" in tracer.absent for n in wl.NETWORKS)
    metrics = wl.layer_metrics(tracer, wl.Outcome(ops=1), 0.0)
    assert set(metrics) == set(wl.PER_LAYER)
    assert metrics["predict.score_candidates.self_ms"][0] == 0.0
    assert metrics["trace.absent_layers"][0] >= 2 + len(wl.NETWORKS)


def test_tail_is_highest_sample_with_ten_beyond():
    assert stats.tail(range(1, 101)) == 90
    assert stats.tail(range(1, 20)) == 19  # too few samples: the maximum
    assert stats.median([3, 1, 2]) == 2


def test_ranks_recovered_from_hit_rates():
    ranks = [1, 3, 3, 7]
    ks = tuple(range(1, 9))
    report = types.SimpleNamespace(
        n_cases=len(ranks), hr={k: float(np.mean([r <= k for r in ranks])) for k in ks})
    assert wl.ranks_of(report, ks) == ranks
