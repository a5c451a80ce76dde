"""Tests for repro.machine.events."""

from __future__ import annotations

import pytest

from repro.errors import MachineError
from repro.machine import Machine, Ring
from repro.machine.events import ANY, Compute, Message, Recv, Send


class TestAny:
    def test_singleton(self):
        from repro.machine.events import _Any

        assert _Any() is ANY

    def test_repr(self):
        assert repr(ANY) == "ANY"


class TestCompute:
    def test_stores_seconds(self):
        assert Compute(1.5).seconds == 1.5

    def test_zero_allowed(self):
        Compute(0.0)

    def test_negative_rejected(self):
        with pytest.raises(MachineError):
            Compute(-0.1)

    def test_nan_rejected(self):
        with pytest.raises(MachineError):
            Compute(float("nan"))

    @pytest.mark.parametrize("engine", ["batched", "per-event", "lockstep"])
    @pytest.mark.parametrize("bad", ["negative-compute", "nan-work"])
    def test_invalid_charges_raise_machine_error_on_every_engine(
            self, engine, bad):
        """``compute(-1.0)`` and ``work(nan)`` are a :class:`MachineError`
        (an :class:`SclError`) whichever engine serves the run."""

        def program(env):
            if env.pid == 0:
                if bad == "negative-compute":
                    yield env.compute(-1.0)
                else:
                    yield env.work(float("nan"))
            yield env.work(1)

        def walk(timeline):
            if bad == "negative-compute":
                timeline.compute(0, -1.0)
            else:
                timeline.work(0, float("nan"))

        machine = Machine(2, batch=engine != "per-event")
        with pytest.raises(MachineError, match="non-negative"):
            machine.run(program, walk=walk if engine == "lockstep" else None)

    @pytest.mark.parametrize("ops,message", [
        (-1.0, "processor 3: ops must be non-negative, got -1.0"),
        (float("nan"), "processor 3: ops must be non-negative, got nan"),
    ], ids=["negative", "nan"])
    def test_bad_work_names_its_processor_on_every_engine(self, ops,
                                                          message):
        """Both event engines raise the timelines' error, naming the
        processor (``simulator.negative_error``)."""

        def program(env):
            if env.pid == 3:
                yield env.work(ops)
            yield env.work(1)

        def walk(timeline):
            timeline.work(3, ops)

        runs = {
            "batched": (Machine(4, batch=True), None),
            "per-event": (Machine(4, batch=False), None),
            "lockstep": (Machine(4), walk),
            "recorder": (Machine(4, single_port=True), walk),
        }
        for engine, (machine, walk_) in runs.items():
            with pytest.raises(MachineError) as err:
                machine.run(program, walk=walk_)
            assert str(err.value) == message, engine

    @pytest.mark.parametrize("seconds,message", [
        (-1.0, "processor 3: compute seconds must be non-negative, got -1.0"),
        (float("nan"),
         "processor 3: compute seconds must be non-negative, got nan"),
    ], ids=["negative", "nan"])
    def test_bad_compute_names_its_processor_on_every_engine(self, seconds,
                                                             message):
        """``env.compute`` raises the timelines' error on both event
        engines, as ``env.work`` does."""

        def program(env):
            if env.pid == 3:
                yield env.compute(seconds)
            yield env.compute(1.0)

        def walk(timeline):
            timeline.compute(3, seconds)

        runs = {
            "batched": (Machine(Ring(4), batch=True), None),
            "per-event": (Machine(Ring(4), batch=False), None),
            "lockstep": (Machine(Ring(4)), walk),
            "recorder": (Machine(Ring(4), single_port=True), walk),
        }
        for engine, (machine, walk_) in runs.items():
            with pytest.raises(MachineError) as err:
                machine.run(program, walk=walk_)
            assert str(err.value) == message, engine


class TestRecvMatching:
    def _msg(self, src=1, tag=5):
        return Message(src=src, dst=0, tag=tag, payload=None, nbytes=0,
                       sent_at=0.0, arrival=1.0, seq=1)

    def test_exact_match(self):
        assert Recv(src=1, tag=5).matches(self._msg())

    def test_src_mismatch(self):
        assert not Recv(src=2, tag=5).matches(self._msg())

    def test_tag_mismatch(self):
        assert not Recv(src=1, tag=6).matches(self._msg())

    def test_any_src(self):
        assert Recv(src=ANY, tag=5).matches(self._msg())

    def test_any_tag(self):
        assert Recv(src=1, tag=ANY).matches(self._msg())

    def test_any_any(self):
        assert Recv().matches(self._msg())


class TestDataclasses:
    def test_send_defaults(self):
        s = Send(dst=3, payload="x")
        assert s.tag == 0 and s.nbytes is None

    def test_message_repr_contains_route(self):
        m = Message(src=1, dst=2, tag=0, payload=None, nbytes=10,
                    sent_at=0.0, arrival=0.5, seq=7)
        assert "1->2" in repr(m)

    def test_requests_are_frozen(self):
        with pytest.raises(Exception):
            Compute(1.0).seconds = 2.0  # type: ignore[misc]
