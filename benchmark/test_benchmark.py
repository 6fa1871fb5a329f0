"""Tests of the benchmark's own code: span arithmetic, ratio metrics and
the restoration of the package after a traced pass.

    PYTHONPATH=src python -m pytest -q benchmark
"""

import pytest

import tracer as tr
import workload as wl


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and a [5, 6]
    t = tr.Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 6, 10]))
    t.begin("outer")
    t.begin("a")
    t.begin("b")
    t.end()
    t.end()
    t.begin("a")
    t.end()
    t.end()
    assert t.calls("a") == 2 and t.calls("outer") == 1
    assert t.total_s("outer") == 10 and t.self_s("outer") == 10 - 3 - 1
    assert t.total_s("a") == 3 + 1 and t.self_s("a") == 2 + 1
    assert t.total_s("b") == 1 and t.self_s("b") == 1
    assert t.self_s("never") == 0.0 and t.calls("never") == 0


def test_recursive_span_self_time_is_not_double_counted():
    # f [0, 8] calls f [2, 5]: self times add up to the outer duration
    t = tr.Tracer(clock=fake_clock([0, 2, 5, 8]))
    t.begin("f")
    t.begin("f")
    t.end()
    t.end()
    assert t.self_s("f") == 8
    assert t.total_s("f") == 8 + 3


def test_ratio_with_zero_base():
    assert tr.ratio(0, 0) == 0.0
    assert tr.ratio(5, 0) == 0.0
    assert tr.ratio(3, 4) == 0.75


def test_layer_ratios_on_an_empty_trace_are_zero():
    m = wl.layer_metrics(tr.Tracer())
    assert m["structure.selected_per_candidate"] == (0.0, "ratio")
    assert m["structure.added_per_selected"] == (0.0, "ratio")
    assert m["training.step_ms.samples"] == (0, "count")
    assert m["autodiff.rss_growth_mb_per_step"] == (0.0, "MB/step")


def test_layer_ratios_use_their_own_base():
    t = tr.Tracer()
    t.count("structure.candidates", 40)
    t.count("structure.selected", 10)
    t.count("structure.added_edges", 9)
    m = wl.layer_metrics(t)
    assert m["structure.selected_per_candidate"][0] == 0.25
    assert m["structure.added_per_selected"][0] == 0.9


def test_slope_and_percentile():
    assert tr.slope([]) == 0.0 and tr.slope([7.0]) == 0.0
    assert tr.slope([1.0, 3.0, 5.0]) == pytest.approx(2.0)
    assert tr.percentile([], 50) == 0.0
    assert tr.percentile([1, 2, 3, 4], 50) == 2.5
    assert tr.percentile([10, 20], 90) == pytest.approx(19.0)


TINY = dict(
    config=dict(wl.ACCEPT_MODEL, synth_users=30, synth_items=30,
                synth_events=600, max_epochs=1),
    calls=(("fit", dict(val_limit=50)),
           ("evaluate", dict(setting="transductive"))),
    trains=True)


def _bindings(tgsl):
    """Every function or method object the package binds, by location."""
    out = {}
    for mod in (tgsl, tgsl.graph, tgsl.encoder, tgsl.structure,
                tgsl.autodiff, tgsl.training, tgsl.cli, tgsl.verify):
        for key, val in vars(mod).items():
            out[(mod.__name__, key)] = val
            if isinstance(val, type):
                for k, v in vars(val).items():
                    out[(mod.__name__, key, k)] = v
    return out


def test_traced_pass_restores_the_package(monkeypatch):
    tgsl = wl.import_package()
    before = _bindings(tgsl)
    monkeypatch.setitem(wl.WORKLOADS, "tiny", TINY)
    out = wl.run_pass("tiny", seed=3, trace=1)
    assert out["failed"] == 0, out["errors"]
    layers = out["layers"]
    # wrapped at every binding: etgnn_forward is called through the name
    # `training` imported, visible_window as a global of `structure`
    assert layers["structure.etgnn_forward.self_s"][0] > 0
    assert layers["structure.window_events"][0] > 0
    assert layers["structure.propose.calls"][0] > 0
    assert layers["structure.added_edges"][0] > 0
    assert layers["training.step_ms.samples"][0] >= 1
    assert tr.wrapped_names() == []
    after = _bindings(tgsl)
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_restore_after_a_failing_call(monkeypatch):
    tgsl = wl.import_package()
    before = tgsl.structure.etgnn_forward

    def boom(*args, **kwargs):
        raise RuntimeError("boom")
    monkeypatch.setitem(wl.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(tgsl.training.Trainer, "train_epoch", boom)
    out = wl.run_pass("tiny", seed=3, trace=1)
    assert out["failed"] >= 1
    assert any("boom" in e for e in out["errors"])
    assert tr.wrapped_names() == []
    assert tgsl.structure.etgnn_forward is before
    assert tgsl.training.etgnn_forward is before
    assert tgsl.training.Trainer.train_epoch is boom


def test_patch_of_an_unbound_function_is_refused():
    import types
    mod = types.ModuleType("tgsl_not_imported")
    mod.f = lambda: None
    with pytest.raises(LookupError):
        tr.Patches().function(mod, "f", tr.Tracer(), "x")

