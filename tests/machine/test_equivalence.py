"""Equivalence of the optimised engine and the retained seed engine.

The O(log p) simulator core (heap scheduler, indexed mailboxes, cached
routing) must be an *observationally identical* replacement for the seed
O(p)-scan engine kept in :mod:`repro.machine._reference` — identical
per-processor return values, identical stats to the bit, identical
makespans and identical traces, on programs that exercise every matching
path: concrete FIFO receives, ANY-source/ANY-tag races where small
messages overtake big ones, direct hand-off, and the single-port
contention model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import AP1000, Machine, collectives, Comm
from repro.machine._reference import ReferenceMachine
from repro.machine.events import ANY
from repro.machine.topology import FullyConnected, Hypercube


def _values_equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_values_equal(x, y) for x, y in zip(a, b)))
    return a == b


def _assert_same_result(res_a, res_b, *, check_trace=True):
    assert res_a.makespan == res_b.makespan
    assert len(res_a.stats) == len(res_b.stats)
    for sa, sb in zip(res_a.stats, res_b.stats):
        assert sa == sb, f"stats diverge on pid {sa.pid}: {sa} != {sb}"
    assert len(res_a.values) == len(res_b.values)
    for pid, (va, vb) in enumerate(zip(res_a.values, res_b.values)):
        assert _values_equal(va, vb), f"values diverge on pid {pid}"
    if check_trace:
        ta = None if res_a.trace is None else list(res_a.trace)
        tb = None if res_b.trace is None else list(res_b.trace)
        assert ta == tb


class TestHyperquicksortEquivalence:
    def test_p32_end_to_end(self, monkeypatch):
        import repro.apps.sort as sort_mod

        values = np.random.default_rng(7).integers(0, 10_000, size=4_000)
        out_new, res_new = sort_mod.hyperquicksort_machine(
            values, 5, record_trace=True)

        monkeypatch.setattr(sort_mod, "Machine", ReferenceMachine)
        out_ref, res_ref = sort_mod.hyperquicksort_machine(
            values, 5, record_trace=True)

        assert np.array_equal(out_new, out_ref)
        _assert_same_result(res_new, res_ref)

    def test_p32_single_port(self, monkeypatch):
        import repro.apps.sort as sort_mod

        values = np.random.default_rng(11).integers(0, 10_000, size=2_000)
        out_new, res_new = sort_mod.hyperquicksort_machine(
            values, 5, single_port=True)
        monkeypatch.setattr(sort_mod, "Machine", ReferenceMachine)
        out_ref, res_ref = sort_mod.hyperquicksort_machine(
            values, 5, single_port=True)
        assert np.array_equal(out_new, out_ref)
        _assert_same_result(res_new, res_ref, check_trace=False)


def _fft_exchange_gather(x, d):
    """The binary-exchange FFT as a hand-written message-passing program
    on a ``d``-cube: partner exchanges of whole blocks, local butterfly
    stages, then a binomial ``collectives.gather`` of the blocks to
    processor 0, which puts them in natural order."""
    from repro.apps.fft import _butterfly_block, bit_reverse

    p = 1 << d
    n = x.size
    bits = n.bit_length() - 1
    m = n // p
    blocks = np.split(x, p)

    def program(env):
        comm = Comm.world(env)
        rank = comm.rank
        local = np.asarray(blocks[rank]).copy()
        for s in range(bits):
            h = n >> (s + 1)
            if h >= m and p > 1:
                dist = h // m
                partner = rank ^ dist
                yield comm.send(partner, local, tag=s,
                                nbytes=max(int(local.nbytes), 1))
                msg = yield comm.recv(partner, tag=s)
                yield env.work(14.0 * m)
                local = _butterfly_block(
                    local, rank * m, h, n, is_low=(rank // dist) % 2 == 0,
                    partner=np.asarray(msg.payload))
            else:
                yield env.work(14.0 * m)
                local = _butterfly_block(local, rank * m, h, n)
        parts = yield from collectives.gather(
            comm, local, root=0, nbytes=max(int(local.nbytes), 1))
        if rank == 0:
            yield env.work(2.0 * n)
            flat = np.concatenate(parts)
            out = np.empty_like(flat)
            for g in range(n):
                out[bit_reverse(g, bits)] = flat[g]
            return out
        return None

    return program


class TestFftEquivalence:
    def test_p16_end_to_end(self):
        x = np.random.default_rng(3).normal(size=512) \
            + 1j * np.random.default_rng(4).normal(size=512)
        program = _fft_exchange_gather(x, 4)
        res_new = Machine(Hypercube(4), spec=AP1000).run(program)
        res_ref = ReferenceMachine(Hypercube(4), spec=AP1000).run(program)
        assert np.allclose(res_new.values[0], np.fft.fft(x))
        _assert_same_result(res_new, res_ref)


def _wildcard_stress(env):
    """Many-to-one with mixed wildcard patterns and overtaking messages.

    Every non-zero processor sends three tagged messages whose sizes are
    chosen so later sends can arrive earlier (small message overtakes a
    big one on the wire).  Processor 0 drains the traffic through a mix of
    ``(ANY, tag)``, ``(src, ANY)``, ``(ANY, ANY)`` and concrete receives —
    every matching path of the mailbox.
    """
    p = env.nprocs
    if env.pid == 0:
        got = []
        for i in range(p - 1):
            msg = yield env.recv(ANY, tag=0)
            got.append((msg.src, msg.tag, msg.payload))
        for src in range(1, p):
            msg = yield env.recv(src, tag=ANY)
            got.append((msg.src, msg.tag, msg.payload))
        for i in range(p - 1):
            msg = yield env.recv(ANY, tag=ANY)
            got.append((msg.src, msg.tag, msg.payload))
        return got
    yield env.work(ops=100 * env.pid)
    # big first, then small: the small one overtakes on the wire
    yield env.send(0, ("big", env.pid), tag=0, nbytes=100_000)
    yield env.send(0, ("mid", env.pid), tag=env.pid % 3, nbytes=10)
    yield env.send(0, ("small", env.pid), tag=0, nbytes=1)
    return None


class TestWildcardStressEquivalence:
    @pytest.mark.parametrize("p", [4, 9, 16])
    def test_mixed_wildcards(self, p):
        res_new = Machine(FullyConnected(p), spec=AP1000,
                          record_trace=True).run(_wildcard_stress)
        res_ref = ReferenceMachine(FullyConnected(p), spec=AP1000,
                                   record_trace=True).run(_wildcard_stress)
        _assert_same_result(res_new, res_ref)

    def test_single_port_wildcards(self):
        res_new = Machine(FullyConnected(8), spec=AP1000,
                          single_port=True).run(_wildcard_stress)
        res_ref = ReferenceMachine(FullyConnected(8), spec=AP1000,
                                   single_port=True).run(_wildcard_stress)
        _assert_same_result(res_new, res_ref)


class TestCollectivesEquivalence:
    def test_allreduce_rounds(self):
        def program(env):
            comm = Comm.world(env)
            acc = float(env.pid)
            for _ in range(4):
                acc = yield from collectives.allreduce(
                    comm, acc, lambda a, b: a + b, nbytes=8)
            return acc

        topo = Hypercube(4)
        res_new = Machine(topo, spec=AP1000, record_trace=True).run(program)
        res_ref = ReferenceMachine(topo, spec=AP1000,
                                   record_trace=True).run(program)
        _assert_same_result(res_new, res_ref)

    def test_nonzero_root_bcast_and_scatter(self):
        def program(env):
            comm = Comm.world(env)
            v = yield from collectives.bcast(comm, env.pid * 10 or None, root=3)
            part = yield from collectives.scatter(
                comm, list(range(comm.size)) if comm.rank == 3 else None,
                root=3)
            return (v, part)

        topo = Hypercube(3)
        res_new = Machine(topo, spec=AP1000).run(program)
        res_ref = ReferenceMachine(topo, spec=AP1000).run(program)
        _assert_same_result(res_new, res_ref)


class TestBatchedEngineEquivalence:
    """Three-way equivalence: the batched drive-order engine against both
    the retained per-event engine and the seed O(p)-scan oracle.

    Tracing and single-port runs fall back to the per-event core, so the
    rows above never exercise :mod:`repro.machine.batch`; these untraced
    runs do.  Values, stats (virtual times to the bit) and makespans must
    agree across all three.
    """

    @pytest.mark.parametrize("p", [4, 9, 16])
    def test_mixed_wildcards_three_way(self, p):
        res_bat = Machine(FullyConnected(p), spec=AP1000).run(_wildcard_stress)
        res_evt = Machine(FullyConnected(p), spec=AP1000,
                          batch=False).run(_wildcard_stress)
        res_ref = ReferenceMachine(FullyConnected(p),
                                   spec=AP1000).run(_wildcard_stress)
        _assert_same_result(res_bat, res_evt)
        _assert_same_result(res_bat, res_ref)

    def test_hyperquicksort_batch_vs_reference(self, monkeypatch):
        import repro.apps.sort as sort_mod

        values = np.random.default_rng(13).integers(0, 10_000, size=2_000)
        out_bat, res_bat = sort_mod.hyperquicksort_machine(values, 4)
        monkeypatch.setattr(sort_mod, "Machine", ReferenceMachine)
        out_ref, res_ref = sort_mod.hyperquicksort_machine(values, 4)
        assert np.array_equal(out_bat, out_ref)
        _assert_same_result(res_bat, res_ref)

    def test_allreduce_batch_vs_reference(self):
        def program(env):
            comm = Comm.world(env)
            acc = float(env.pid)
            for _ in range(4):
                acc = yield from collectives.allreduce(
                    comm, acc, lambda a, b: a + b, nbytes=8)
            return acc

        topo = Hypercube(4)
        res_bat = Machine(topo, spec=AP1000).run(program)
        res_ref = ReferenceMachine(topo, spec=AP1000).run(program)
        _assert_same_result(res_bat, res_ref)


class TestErrorParity:
    def test_deadlock_detected_by_both(self):
        def program(env):
            yield env.recv(src=(env.pid + 1) % env.nprocs, tag=9)

        from repro.errors import DeadlockError

        for cls in (Machine, ReferenceMachine):
            with pytest.raises(DeadlockError):
                cls(FullyConnected(3), spec=AP1000).run(program)

    def test_unconsumed_mailbox_detected_by_both(self):
        def program(env):
            if env.pid == 0:
                yield env.send(1, "x", tag=1)
            else:
                yield env.work(ops=1)

        from repro.errors import MachineError

        for cls in (Machine, ReferenceMachine):
            with pytest.raises(MachineError, match="unconsumed"):
                cls(FullyConnected(2), spec=AP1000).run(program)

    def test_self_send_detected_by_both(self):
        def program(env):
            yield env.send(env.pid, "x")

        from repro.errors import MachineError

        for cls in (Machine, ReferenceMachine):
            with pytest.raises(MachineError, match="itself"):
                cls(FullyConnected(2), spec=AP1000).run(program)
