import types

import numpy as np
import pytest

import spans
from spans import Recorder, Span


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent)


def test_self_time_subtracts_direct_children_only():
    s = [
        _span("run", 0.0, 10.0),
        _span("step", 1.0, 5.0, parent=0),
        _span("fft", 2.0, 3.0, parent=1),
        _span("fft", 3.5, 4.0, parent=1),
        _span("step", 6.0, 9.0, parent=0),
    ]
    own = spans.self_times(s)
    assert own == pytest.approx([3.0, 2.5, 1.0, 0.5, 3.0])
    # self times partition the outermost span
    assert sum(own) == pytest.approx(10.0)


def test_layer_table_sums_calls_self_time_and_counts():
    s = [_span("a", 0.0, 4.0), _span("b", 1.0, 2.0, 0), _span("b", 2.5, 3.0, 0)]
    s[1].counts["fields"] = 3
    s[2].counts["fields"] = 4
    table = spans.layer_table(s)
    assert table["a"] == pytest.approx({"calls": 1, "total_s": 4.0, "self_s": 2.5})
    assert table["b"] == pytest.approx(
        {"calls": 2, "total_s": 1.5, "self_s": 1.5, "fields": 7})


def test_under_marks_every_descendant():
    s = [_span("run", 0, 9), _span("step", 1, 4, 0), _span("fft", 2, 3, 1),
         _span("fft", 5, 6, 0)]
    assert spans.under(s, "step") == [False, False, True, False]
    assert spans.under(s, "run") == [False, True, True, True]


def test_wrapped_calls_nest_and_patches_are_undone():
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    rec = Recorder(keep=("m.outer",))
    rec.patch_span(mod, "inner", "m.inner",
                   counter=lambda c, a, k, r: c.update(arg=a[0]))
    rec.patch_span(mod, "outer", "m.outer")
    assert mod.outer(3) == 8
    assert [(s.name, s.parent) for s in rec.spans] == [("m.outer", -1), ("m.inner", 0)]
    assert rec.spans[1].counts == {"arg": 3}
    assert rec.spans[1].result is None
    assert rec.take_results("m.outer") == [8] and rec.spans[0].result is None
    assert rec.spans[0].start <= rec.spans[1].start <= rec.spans[1].end <= rec.spans[0].end
    rec.remove()
    assert mod.inner is inner and mod.outer is outer


def test_counter_wrapper_adds_to_the_open_span():
    mod = types.SimpleNamespace(f=lambda n: n, g=None)
    rec = Recorder()
    rec.patch(mod, "f", lambda fn: rec.wrap_counter(
        fn, lambda c, a, k, r: c.update(n=c.get("n", 0) + r)))
    mod.g = rec.wrap("g", lambda: mod.f(2) + mod.f(5))
    assert mod.g() == 7
    assert len(rec.spans) == 1 and rec.spans[0].counts == {"n": 7}
    rec.remove()


def test_trace_covers_the_layers_and_restores_them():
    import qglab

    before = {(m.__name__, a): getattr(m, a)
              for m, a, _ in spans.layer_functions(qglab)}
    names = {n for _, _, n in spans.layer_functions(qglab)}
    for wanted in ("spectral.advect", "spectral.spectral_product",
                   "pe_solver.build_propagator", "qg_solver.qg_rhs",
                   "diagnostics.vorticity_residual", "sweep.export"):
        assert wanted in names
    grid = qglab.Grid(8)
    U = qglab.random_state(grid, np.random.default_rng(0))
    rec = Recorder()
    spans.install_trace(rec, qglab)
    qglab.advect(grid, U[:3], U)
    rec.remove()
    table = spans.layer_table(rec.spans)
    assert table["spectral.advect"]["calls"] == 1
    # 3 velocities and 12 gradients in, 4 products out
    assert table["spectral.fft"]["fields"] == 19
    assert {(m.__name__, a): getattr(m, a)
            for m, a, _ in spans.layer_functions(qglab)} == before


def test_write_rounds_keeps_spans_and_layer_tables(tmp_path):
    import json

    rounds = [[_span("run", 0.0, 2.0), _span("fft", 0.5, 1.0, 0)]]
    path = tmp_path / "spans.json"
    spans.write_rounds(path, rounds)
    doc = json.loads(path.read_text())
    assert doc["names"] == ["fft", "run"]
    assert doc["rounds"] == [[[1, 0.0, 2.0, -1], [0, 0.5, 1.0, 0]]]
    assert doc["layers"][0]["run"]["self_s"] == 1.5
