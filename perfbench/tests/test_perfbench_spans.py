"""Self-time arithmetic of the span recorder on nested spans."""

import sys
import types

import pytest

import spans
from spans import SpanRecorder, rebound


@pytest.fixture
def clock(monkeypatch):
    """A settable clock in place of perf_counter."""
    now = [0.0]
    monkeypatch.setattr(spans, "_clock", lambda: now[0])
    return now


def _at(clock, t, action, *args):
    clock[0] = t
    return action(*args)


def test_self_time_subtracts_direct_children_only(clock):
    rec = SpanRecorder()
    root = _at(clock, 0.0, rec.open, "root")
    a = _at(clock, 1.0, rec.open, "a")
    a1 = _at(clock, 2.0, rec.open, "a1")
    _at(clock, 3.0, rec.close, a1)
    _at(clock, 4.0, rec.close, a)
    b = _at(clock, 5.0, rec.open, "b")
    _at(clock, 9.0, rec.close, b)
    _at(clock, 10.0, rec.close, root)
    assert rec.parents == [-1, 0, 1, 0]
    assert rec.self_times() == [3.0, 2.0, 1.0, 4.0]
    # Self times of a nested tree add up to the root's duration.
    assert sum(rec.self_times()) == 10.0


def test_layer_totals_sum_calls_and_self_time(clock):
    rec = SpanRecorder()
    root = _at(clock, 0.0, rec.open, "cli")
    for start in (1.0, 3.0):
        leaf = _at(clock, start, rec.open, "leaf")
        inner = _at(clock, start, rec.open, "inner")
        _at(clock, start + 0.25, rec.close, inner)
        _at(clock, start + 1.0, rec.close, leaf)
    _at(clock, 6.0, rec.close, root)
    totals = rec.layer_totals()
    assert totals["cli"] == (1, 4.0)
    assert totals["leaf"] == (2, 1.5)
    assert totals["inner"] == (2, 0.5)


def test_wrappers_nest_and_see_results(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans, "_clock", lambda: float(next(ticks)))
    rec = SpanRecorder()
    seen = []
    inner = rec.wrap("inner", lambda x, y=0: x + y,
                     lambda result, args, kwargs: seen.append((result, args, kwargs)))
    outer = rec.wrap("outer", lambda x: inner(x, y=1) * 2)
    assert outer(1) == 4
    # outer opens at 0, inner spans 1..2, outer closes at 3.
    assert rec.names == ["outer", "inner"]
    assert rec.parents == [-1, 0]
    assert rec.self_times() == [2.0, 1.0]
    assert seen == [(2, (1,), {"y": 1})]


def test_wrapper_closes_span_when_call_raises():
    rec = SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    assert rec.ends[0] >= rec.starts[0]
    assert rec._stack == []


def test_closing_out_of_order_is_an_error():
    rec = SpanRecorder()
    a = rec.open("a")
    rec.open("b")
    with pytest.raises(RuntimeError):
        rec.close(a)


def test_rebound_restores_attributes_after_an_error(monkeypatch):
    module = types.ModuleType("perfbench_probe")
    module.f = "original"
    monkeypatch.setitem(sys.modules, "perfbench_probe", module)
    with pytest.raises(ValueError):
        with rebound([("perfbench_probe", "f", "wrapped")]):
            assert module.f == "wrapped"
            raise ValueError
    assert module.f == "original"


def test_write_emits_one_row_per_span(tmp_path, clock):
    rec = SpanRecorder("r1")
    root = _at(clock, 0.0, rec.open, "root")
    leaf = _at(clock, 0.5, rec.open, "leaf")
    _at(clock, 1.0, rec.close, leaf)
    _at(clock, 2.0, rec.close, root)
    path = tmp_path / "spans.csv"
    rec.write(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "run_id,span,parent,name,start,end"
    assert lines[2] == "r1,1,0,leaf,0.5,1.0"
