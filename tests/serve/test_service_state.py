"""The service's lifecycle as a state machine: submit, drain, stop, restart.

Hypothesis drives a :class:`~repro.serve.Service` over two
:class:`~repro.serve.PyEndpoint` s, a :class:`~repro.serve.PlanEndpoint`
and a :class:`~repro.serve.StreamEndpoint` through random sequences of
submits, ``wait_idle``, ``stop(drain=True)``, ``stop(drain=False)`` and
restarts.  One Python endpoint returns at once; the other holds its
worker until a gate opens, so queues build up behind busy workers, a
worker that is let go takes the queued plan or stream requests as one
batch, and a stop without drain meets a full queue.  After every
step:

* every request id has at most one outcome — one completion record or
  one :class:`~repro.serve.service.Rejection` — and once the service is
  stopped, every id issued so far has exactly one, and its ticket is
  resolved accordingly;
* the admission queue never holds more than ``max_queue`` requests;
* ``stop`` returns, with or without draining (a stop without drain once
  hung with requests still queued behind busy workers);
* every ``ok`` outcome is its solo run — value types, ``events`` and
  virtual time included — and a batch a worker has taken is in flight,
  so it completes even under ``stop(drain=False)``.
"""

from __future__ import annotations

import collections
import operator
import threading
import time

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.scl import Scan
from repro.serve import (
    AdmissionError,
    PlanEndpoint,
    PyEndpoint,
    Service,
    StreamEndpoint,
)
from repro.stream.plan import Chunk, MapPlan

#: A stop (or a gated request) that takes longer than this is a hang.
HANG_S = 10.0


def _typed(value):
    """``value`` with the type of every element spelled out: ``==`` on
    these tells ``1`` from ``1.0``."""
    if isinstance(value, (list, tuple)):
        return type(value), [_typed(v) for v in value]
    return type(value), value


class ServiceLifecycle(RuleBasedStateMachine):
    @initialize()
    def start(self):
        self.gate = threading.Event()
        self.svc = Service(workers=2, max_queue=3,
                           tenants={"free": 1.0, "pro": 3.0})
        self.svc.register(PyEndpoint("fast", lambda x: x))
        self.svc.register(PyEndpoint("gated", self._held))
        self.plan = self.svc.register(
            PlanEndpoint("plan", Scan(operator.add), nprocs=2))
        self.stream = self.svc.register(
            StreamEndpoint("stream", (Chunk(2), MapPlan(Scan(operator.add)))))
        self.svc.start()
        self.running = True
        self.tickets = {}  # request id -> ticket
        self.shed_at_submit = set()

    def _held(self, x):
        assert self.gate.wait(HANG_S)
        return x

    # -- rules -------------------------------------------------------------

    @rule(endpoint=st.sampled_from(["fast", "gated", "plan", "stream",
                                    "missing"]),
          tenant=st.sampled_from(["free", "pro", "new"]),
          payload=st.integers())
    def submit(self, endpoint, tenant, payload):
        self._submit(endpoint, tenant, payload)

    @rule(endpoint=st.sampled_from(["plan", "stream"]),
          tenants=st.lists(st.sampled_from(["free", "pro"]), min_size=2,
                           max_size=3),
          payload=st.integers())
    def submit_batch(self, endpoint, tenants, payload):
        """Back-to-back plan or stream requests: behind busy workers they
        queue up and leave as one batch."""
        for i, tenant in enumerate(tenants):
            self._submit(endpoint, tenant, payload + i)

    def _submit(self, endpoint, tenant, payload):
        expected = (payload, 0, 0.0)
        if endpoint == "plan":
            # all int ranks, or an int rank and a float rank
            payload = [payload, payload / 2 if payload % 2 else payload]
            expected = self.plan.execute(payload, {})
        elif endpoint == "stream":
            # 0 to 4 items, int or float: a short last chunk, or none
            payload = [payload / 2 if (payload + k) % 3 else payload + k
                       for k in range(payload % 5)]
            expected = self.stream.execute(payload, {})
        try:
            ticket = self.svc.submit(endpoint, payload, tenant=tenant)
        except AdmissionError as exc:
            rejection = exc.rejection
            assert rejection.request_id not in self.tickets
            self.shed_at_submit.add(rejection.request_id)
            if not self.running:
                assert rejection.reason == "not-running"
            elif endpoint == "missing":
                assert rejection.reason == "unknown-endpoint"
            else:
                assert rejection.reason == "queue-full"
        else:
            assert self.running and endpoint != "missing"
            self.tickets[ticket.request_id] = (ticket, expected)

    @precondition(lambda self: self.running)
    @rule()
    def wait_idle(self):
        self.gate.set()
        assert self.svc.wait_idle(timeout=HANG_S)
        assert self.svc.queue_depth() == 0
        self.gate.clear()

    @precondition(lambda self: self.running)
    @rule(drain=st.booleans())
    def stop(self, drain):
        pending = [ticket for ticket, _ in self.tickets.values()
                   if not ticket.done()]
        if drain:
            self.gate.set()
        stopper = threading.Thread(target=self.svc.stop,
                                   kwargs={"drain": drain}, daemon=True)
        stopper.start()
        if not drain:
            # Let the stop shed the queue while the workers are still
            # busy, then let them finish what they hold.
            deadline = time.monotonic() + HANG_S
            while self.svc.queue_depth() and time.monotonic() < deadline:
                time.sleep(0.001)
            self.gate.set()
        stopper.join(HANG_S)
        assert not stopper.is_alive(), f"stop(drain={drain}) hung"
        self.gate.clear()
        self.running = False
        self.check_settled()
        if drain:
            assert all(t.record["status"] == "ok" for t in pending)

    @precondition(lambda self: not self.running)
    @rule()
    def restart(self):
        self.svc.start()
        self.running = True

    # -- invariants --------------------------------------------------------

    def outcomes(self):
        ids = [r["request_id"] for r in list(self.svc.completions)]
        ids += [r.request_id for r in list(self.svc.rejections)]
        return collections.Counter(ids)

    @invariant()
    def at_most_one_outcome_per_request(self):
        counts = self.outcomes()
        assert all(n == 1 for n in counts.values()), counts
        assert self.shed_at_submit <= set(counts)

    @invariant()
    def ok_outcomes_are_solo_runs(self):
        for ticket, expected in list(self.tickets.values()):
            if ticket.done() and ticket.record["status"] == "ok":
                self.check_solo(ticket, expected)

    @staticmethod
    def check_solo(ticket, expected):
        value, events, makespan = expected
        assert _typed(ticket.result(0)) == _typed(value)
        assert ticket.record["events"] == events
        assert ticket.record["virtual_seconds"] == makespan

    @invariant()
    def queue_within_bound(self):
        assert 0 <= self.svc.queue_depth() <= self.svc.max_queue

    def check_settled(self):
        """Once stopped, every request id issued has exactly one outcome,
        and each ticket says which."""
        counts = self.outcomes()
        issued = set(self.tickets) | self.shed_at_submit
        assert set(counts) == issued
        assert all(n == 1 for n in counts.values()), counts
        rejected = {r.request_id for r in self.svc.rejections}
        for request_id, (ticket, expected) in self.tickets.items():
            assert ticket.done()
            if request_id in rejected:
                assert ticket.record["status"] == "rejected"
                assert ticket.record["reason"] == "not-running"
                try:
                    ticket.result(0)
                except AdmissionError as exc:
                    assert exc.rejection.request_id == request_id
                else:
                    raise AssertionError("a shed ticket returned a value")
            else:
                assert ticket.record["status"] == "ok"
                self.check_solo(ticket, expected)

    def teardown(self):
        self.gate.set()
        if self.running:
            self.stop(drain=False)


ServiceLifecycle.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None)
TestServiceLifecycle = ServiceLifecycle.TestCase
