"""The SLO monitor as a state machine, checked against a list model.

Hypothesis drives a :class:`~repro.obs.metrics.SloMonitor` — and a
:class:`~repro.serve.Service` that sheds on it — through random sequences
of observations, submits and clock ticks on a synthetic, non-decreasing
clock, asking for a verdict and the rolling state after every step.  The model is the list of every
``(time, latency)`` observed: an entry is live while it is no older than
the window, and the rolling p99 is the nearest-rank quantile of the live
latencies.  After every step:

* a verdict needs ``min_samples`` live entries, and otherwise says
  whether the live p99 is over target;
* ``rolling(now)["breached"] == breached(now)``;
* ``breach_verdicts`` counts exactly the verdicts that answered True,
  the service's admission checks among them;
* a request the service sheds for the SLO gets exactly one
  ``Rejection(reason="slo-shed")`` and is counted once in
  ``summary()["slo"]["shed"]``.

The service's clock is the synthetic one, and its one endpoint fails, so
the requests it admits complete without feeding the monitor: every
observation in the window is one the model made.
"""

from __future__ import annotations

import collections
import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.serve import AdmissionError, PyEndpoint, Service, SloMonitor


def _fail(_payload):
    raise RuntimeError("an error completion is never observed")


class SloLifecycle(RuleBasedStateMachine):
    @initialize(p99=st.sampled_from([0.01, 0.05]),
                window=st.sampled_from([0.5, 1.0, 2.0]),
                min_samples=st.integers(1, 4))
    def start(self, p99, window, min_samples):
        self.target, self.window, self.min_samples = \
            p99, window, min_samples
        self.clock = 0.0
        self.seen: list[tuple[float, float]] = []
        self.true_verdicts = 0
        self.shed: list[int] = []
        self.monitor = SloMonitor(p99, window_s=window,
                                  min_samples=min_samples)
        self.svc = Service(workers=1, max_queue=10_000, slo=self.monitor)
        self.svc._now = lambda: self.clock  # the synthetic clock
        self.svc.register(PyEndpoint("fail", _fail))
        self.svc.start()

    def teardown(self):
        if hasattr(self, "svc"):
            self.svc.stop()

    # -- the model ---------------------------------------------------------

    def live(self) -> list[float]:
        horizon = self.clock - self.window
        return [lat for t, lat in self.seen if t >= horizon]

    def verdict(self) -> bool:
        lats = sorted(self.live())
        if len(lats) < self.min_samples:
            return False
        return lats[math.ceil(0.99 * len(lats)) - 1] > self.target

    # -- rules -------------------------------------------------------------

    @rule(dt=st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5]))
    def tick(self, dt):
        self.clock += dt

    @precondition(lambda self: self.live())
    @rule()
    def age_to_the_edge(self):
        """Advance the clock until the oldest live entry is exactly
        ``window_s`` old: it is still live."""
        horizon = self.clock - self.window
        self.clock = min(t for t, _ in self.seen if t >= horizon) \
            + self.window

    @rule(latency=st.sampled_from([0.001, 0.01, 0.05, 0.08]))
    def observe(self, latency):
        self.monitor.observe(latency, self.clock)
        self.seen.append((self.clock, latency))

    @rule()
    def submit(self):
        shed = self.verdict()
        try:
            self.svc.submit("fail")
        except AdmissionError as exc:
            assert exc.rejection.reason == "slo-shed"
            assert shed
            self.shed.append(exc.rejection.request_id)
        else:
            assert not shed
        self.true_verdicts += shed

    @rule()
    def submit_nowhere(self):
        """A request for no endpoint is shed before the SLO is asked."""
        try:
            self.svc.submit("missing")
        except AdmissionError as exc:
            assert exc.rejection.reason == "unknown-endpoint"
        else:
            raise AssertionError("an unknown endpoint was admitted")

    # -- invariants --------------------------------------------------------

    @invariant()
    def the_verdict_and_the_window_are_the_models(self):
        state = self.monitor.rolling(self.clock)
        lats = sorted(self.live())
        assert state["samples"] == len(lats)
        got = self.monitor.breached(self.clock)
        self.true_verdicts += got
        assert state["breached"] == got == self.verdict()
        if lats:
            assert state["p99_ms"] == round(
                lats[math.ceil(0.99 * len(lats)) - 1] * 1e3, 3)

    @invariant()
    def a_verdict_needs_min_samples(self):
        if len(self.live()) < self.min_samples:
            assert not self.monitor.breached(self.clock)
            assert not self.monitor.rolling(self.clock)["breached"]

    @invariant()
    def verdicts_are_counted_once(self):
        assert self.monitor.breach_verdicts == self.true_verdicts
        assert self.monitor.observed == len(self.seen)

    @invariant()
    def each_shed_request_is_rejected_and_counted_once(self):
        rejected = collections.Counter(
            r.request_id for r in self.svc.rejections
            if r.reason == "slo-shed")
        assert rejected == collections.Counter(self.shed)
        assert all(n == 1 for n in rejected.values())
        assert self.svc.summary()["slo"]["shed"] == len(self.shed)


SloLifecycle.TestCase.settings = settings(max_examples=40,
                                          stateful_step_count=40,
                                          deadline=None)
TestSloLifecycle = SloLifecycle.TestCase
