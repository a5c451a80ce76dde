"""Tests for repro.machine.trace."""

from __future__ import annotations

import copy
import operator
import pickle

import pytest

from repro.machine import AP1000, Machine
from repro.machine.topology import Hypercube
from repro.machine.trace import NO_DETAIL, Span, Trace, TraceEvent, frozendetail
from repro.scl import Scan
from repro.scl.compile import run_expression


def make_trace():
    t = Trace()
    t.record(0, "compute", 0.0, 1.0)
    t.record(0, "send", 1.0, 1.1, dst=1, nbytes=100)
    t.record(1, "recv", 0.0, 1.5, src=0, nbytes=100)
    t.record(1, "compute", 1.5, 2.0)
    return t


class TestTrace:
    def test_len_and_iter(self):
        t = make_trace()
        assert len(t) == 4
        assert all(isinstance(e, TraceEvent) for e in t)

    def test_filter_by_pid(self):
        assert len(make_trace().events(pid=0)) == 2

    def test_filter_by_kind(self):
        assert len(make_trace().events(kind="compute")) == 2

    def test_filter_combined(self):
        events = make_trace().events(pid=1, kind="recv")
        assert len(events) == 1 and events[0].detail["src"] == 0

    def test_kind_counts(self):
        counts = make_trace().kind_counts()
        assert counts == {"compute": 2, "send": 1, "recv": 1}

    def test_message_count_and_bytes(self):
        t = make_trace()
        assert t.message_count() == 1
        assert t.bytes_sent() == 100

    def test_event_duration(self):
        e = TraceEvent(0, "compute", 1.0, 3.5)
        assert e.duration == 2.5

    def test_busy_intervals_sorted(self):
        t = Trace()
        t.record(0, "compute", 5.0, 6.0)
        t.record(0, "compute", 1.0, 2.0)
        assert t.busy_intervals(0) == [(1.0, 2.0), (5.0, 6.0)]

    def test_zero_duration_events_not_busy(self):
        t = Trace()
        t.record(0, "send", 1.0, 1.0)
        assert t.busy_intervals(0) == []

    def test_gantt_renders_all_procs(self):
        g = make_trace().gantt(width=30)
        assert "p0" in g and "p1" in g
        assert "#" in g  # compute glyph

    def test_gantt_empty(self):
        assert "empty" in Trace().gantt()


class TestTraceEventIsATuple:
    def test_equal_to_the_plain_tuple_of_its_fields(self):
        e = TraceEvent(0, "send", 0.0, 1.0, {"dst": 1}, Span("p"))
        assert e == (0, "send", 0.0, 1.0, {"dst": 1}, Span("p"))
        assert e[:4] == (0, "send", 0.0, 1.0) and len(e) == 6
        assert e.span == Span("p")

    def test_no_detail_is_shared_and_empty(self):
        e = TraceEvent(3, "compute", 0.0, 1.0)
        assert e.detail is NO_DETAIL and e.detail == {} and e.span is None
        assert make_trace().events(kind="compute")[0].detail is NO_DETAIL

    def test_replace_and_make_freeze_detail(self):
        d = {"dst": 2}
        e = TraceEvent(0, "send", 0.0, 1.0)._replace(detail=d)
        f = TraceEvent._make((0, "send", 0.0, 1.0, d, None))
        d["dst"] = 99
        assert e == f == TraceEvent(0, "send", 0.0, 1.0, {"dst": 2})
        assert type(e) is type(f) is TraceEvent
        assert type(e.detail) is type(f.detail) is frozendetail
        with pytest.raises(ValueError):
            e._replace(bogus=1)

    def test_a_recorded_event_equals_the_constructed_one(self):
        t = Trace()
        t.record(0, "send", 1.0, 1.1, span=Span("p"), dst=1, nbytes=100)
        (e,) = t
        assert e == TraceEvent(0, "send", 1.0, 1.1, {"dst": 1, "nbytes": 100},
                               Span("p"))
        assert hash(e) == hash(TraceEvent(0, "send", 1.0, 1.1,
                                          {"nbytes": 100, "dst": 1},
                                          Span("p")))


def _traced_run():
    return run_expression(Scan(operator.add), [1.0, 2.0, 3.0, 4.0],
                          Machine(Hypercube(2), spec=AP1000,
                                  record_trace=True))[1]


def _assert_frozen(trace: Trace) -> None:
    for e in trace:
        assert type(e) is TraceEvent and type(e.detail) is frozendetail
        with pytest.raises(TypeError):
            e.detail["x"] = 1
        with pytest.raises(TypeError):
            e.detail.update(x=1)


ROUND_TRIPS = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}


@pytest.mark.parametrize("trip", ROUND_TRIPS)
class TestRoundTrips:
    """A traced result survives pickling (the way back from a process
    pool) and copying, and its copy is as frozen as the original."""

    def test_traced_run_result(self, trip):
        res = _traced_run()
        assert res.trace.message_count() > 0
        back = ROUND_TRIPS[trip](res)
        assert back == res and back.trace == res.trace
        _assert_frozen(back.trace)

    def test_bounded_trace(self, trip):
        t = Trace(max_events=3)
        for i in range(5):
            t.record(i, "send", float(i), float(i) + 0.5, dst=0, tag=(1, i))
        back = ROUND_TRIPS[trip](t)
        assert back == t and back.dropped == 2
        _assert_frozen(back)
        back.record(9, "compute", 9.0, 9.5)
        assert back.dropped == 3 and len(back) == 3

    def test_event(self, trip):
        e = TraceEvent(1, "recv", 0.0, 1.5, {"src": 0, "tag": (2, 3)},
                       Span("iter 0", iteration=0, parent=Span("p")))
        back = ROUND_TRIPS[trip](e)
        assert back == e and hash(back) == hash(e)
        assert type(back) is TraceEvent and type(back.detail) is frozendetail
        with pytest.raises(TypeError):
            back.detail.pop("src")
        with pytest.raises(TypeError):
            back.detail.clear()

    def test_empty_detail(self, trip):
        back = ROUND_TRIPS[trip](NO_DETAIL)
        assert back == {} and type(back) is frozendetail


def test_traces_differ_by_events_bound_and_dropped():
    assert Trace() == Trace() and make_trace() == make_trace()
    assert make_trace() != Trace()
    assert Trace(max_events=5) != Trace()
    shorter = Trace(max_events=1)
    longer = Trace(max_events=1)
    shorter.record(0, "compute", 1.0, 2.0)
    longer.record(0, "compute", 0.0, 1.0)
    longer.record(0, "compute", 1.0, 2.0)
    assert list(shorter) == list(longer) and shorter != longer
