"""Tests for repro.machine.collectives — correctness on every group size.

Collectives are the machine-level counterparts of the elementary skeletons,
so correctness here underwrites the Table 1 experiment.  Each collective is
checked on power-of-two and odd sizes, with every possible root, and with
non-commutative operators where order matters.
"""

from __future__ import annotations

import operator
import types

import pytest

from repro.errors import MachineError
from repro.machine import collectives as C
from repro.machine.api import Comm
from repro.machine.cost import AP1000, PERFECT
from repro.machine.lockstep import wire
from repro.machine.simulator import Machine
from repro.machine.topology import Hypercube

SIZES = [1, 2, 3, 4, 5, 7, 8, 16]


def run_world(nprocs, body, spec=PERFECT):
    def prog(env):
        comm = Comm.world(env)
        result = yield from body(comm)
        return result

    return Machine(nprocs, spec=spec).run(prog)


class TestBcast:
    @pytest.mark.parametrize("n", SIZES)
    def test_all_receive_root_value(self, n):
        def body(comm):
            v = yield from C.bcast(comm, "payload" if comm.rank == 0 else None)
            return v

        assert run_world(n, body).values == ["payload"] * n

    @pytest.mark.parametrize("root", [0, 1, 2])
    def test_any_root(self, root):
        def body(comm):
            v = yield from C.bcast(comm, comm.rank if comm.rank == root else None,
                                   root=root)
            return v

        assert run_world(3, body).values == [root] * 3

    def test_bcast_message_count_is_p_minus_1(self):
        def body(comm):
            v = yield from C.bcast(comm, 1 if comm.rank == 0 else None)
            return v

        res = run_world(8, body)
        assert res.total_messages == 7

    def test_invalid_root_rejected(self):
        def body(comm):
            v = yield from C.bcast(comm, 1, root=9)
            return v

        with pytest.raises(MachineError):
            run_world(2, body)


class TestReduce:
    @pytest.mark.parametrize("n", SIZES)
    def test_sum(self, n):
        def body(comm):
            total = yield from C.reduce(comm, comm.rank + 1, operator.add)
            return total

        values = run_world(n, body).values
        assert values[0] == n * (n + 1) // 2
        assert all(v is None for v in values[1:])

    @pytest.mark.parametrize("n", SIZES)
    def test_non_commutative_op_combined_in_rank_order(self, n):
        def body(comm):
            s = yield from C.reduce(comm, f"<{comm.rank}>", operator.add)
            return s

        assert run_world(n, body).values[0] == "".join(f"<{r}>" for r in range(n))

    @pytest.mark.parametrize("root", [0, 1, 2, 4])
    def test_nonzero_root(self, root):
        def body(comm):
            s = yield from C.reduce(comm, [comm.rank], operator.add, root=root)
            return s

        values = run_world(5, body).values
        assert values[root] == [0, 1, 2, 3, 4]


class TestAllreduce:
    @pytest.mark.parametrize("n", SIZES)
    def test_everyone_gets_total(self, n):
        def body(comm):
            total = yield from C.allreduce(comm, comm.rank, operator.add)
            return total

        assert run_world(n, body).values == [n * (n - 1) // 2] * n

    def test_max_operator(self):
        def body(comm):
            m = yield from C.allreduce(comm, (comm.rank * 7) % 5, max)
            return m

        values = run_world(5, body).values
        assert all(v == 4 for v in values)


class TestScan:
    @pytest.mark.parametrize("n", SIZES)
    def test_inclusive_prefix_sums(self, n):
        def body(comm):
            s = yield from C.scan(comm, comm.rank + 1, operator.add)
            return s

        expected = [sum(range(1, r + 2)) for r in range(n)]
        assert run_world(n, body).values == expected

    @pytest.mark.parametrize("n", SIZES)
    def test_non_commutative_concat(self, n):
        def body(comm):
            s = yield from C.scan(comm, str(comm.rank), operator.add)
            return s

        expected = ["".join(str(i) for i in range(r + 1)) for r in range(n)]
        assert run_world(n, body).values == expected


class TestGatherScatter:
    @pytest.mark.parametrize("n", SIZES)
    def test_gather_rank_order(self, n):
        def body(comm):
            g = yield from C.gather(comm, comm.rank * 10)
            return g

        values = run_world(n, body).values
        assert values[0] == [r * 10 for r in range(n)]
        assert all(v is None for v in values[1:])

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("root", [0, 1])
    def test_scatter_delivers_per_rank(self, n, root):
        if root >= n:
            pytest.skip("root out of range for this size")

        def body(comm):
            data = [f"item{r}" for r in range(comm.size)] if comm.rank == root else None
            item = yield from C.scatter(comm, data, root=root)
            return item

        assert run_world(n, body).values == [f"item{r}" for r in range(n)]

    @pytest.mark.parametrize("n", SIZES)
    def test_scatter_gather_round_trip(self, n):
        def body(comm):
            data = list(range(100, 100 + comm.size)) if comm.rank == 0 else None
            item = yield from C.scatter(comm, data)
            g = yield from C.gather(comm, item)
            return g

        assert run_world(n, body).values[0] == list(range(100, 100 + n))

    def test_scatter_wrong_length_rejected(self):
        def body(comm):
            item = yield from C.scatter(comm, [1, 2, 3])  # size is 2
            return item

        with pytest.raises(MachineError, match="exactly"):
            run_world(2, body)


class TestAllgatherAlltoall:
    @pytest.mark.parametrize("n", SIZES)
    def test_allgather(self, n):
        def body(comm):
            g = yield from C.allgather(comm, comm.rank ** 2)
            return g

        expected = [r ** 2 for r in range(n)]
        assert run_world(n, body).values == [expected] * n

    @pytest.mark.parametrize("n", SIZES)
    def test_alltoall_transpose(self, n):
        def body(comm):
            out = yield from C.alltoall(
                comm, [(comm.rank, dst) for dst in range(comm.size)])
            return out

        values = run_world(n, body).values
        for r, got in enumerate(values):
            assert got == [(src, r) for src in range(n)]

    def test_alltoall_wrong_length_rejected(self):
        def body(comm):
            out = yield from C.alltoall(comm, [1])
            return out

        with pytest.raises(MachineError, match="needs"):
            run_world(3, body)


class TestBarrier:
    @pytest.mark.parametrize("n", SIZES)
    def test_no_process_leaves_before_all_enter(self, n):
        """Rank r computes r*10ms before the barrier; everyone must leave at
        a time >= the slowest entry."""

        def prog(env):
            comm = Comm.world(env)
            yield env.compute(0.01 * comm.rank)
            yield from C.barrier(comm)
            return env.now

        spec = PERFECT
        res = Machine(n, spec=spec).run(prog)
        slowest_entry = 0.01 * (n - 1)
        assert all(t >= slowest_entry - 1e-12 for t in res.values)

    def test_barrier_on_singleton_is_noop(self):
        def prog(env):
            comm = Comm.world(env)
            yield from C.barrier(comm)
            return env.now

        assert Machine(1, spec=PERFECT).run(prog).values == [0.0]


class TestSubgroupCollectives:
    def test_collectives_within_split_groups(self):
        """Even and odd ranks reduce independently."""

        def prog(env):
            comm = Comm.world(env)
            sub = comm.split(lambda r: r % 2)
            total = yield from C.allreduce(sub, comm.rank, operator.add)
            return total

        res = Machine(8, spec=PERFECT).run(prog)
        assert res.values == [0 + 2 + 4 + 6, 1 + 3 + 5 + 7] * 4

    def test_hypercube_subcube_bcast(self):
        """Broadcast within each half-cube, as hyperquicksort's pivot step."""

        def prog(env):
            comm = Comm.world(env)
            half = comm.size // 2
            cube = comm.split(lambda r: r // half)
            v = yield from C.bcast(cube, env.pid if cube.rank == 0 else None)
            return v

        res = Machine(Hypercube(3), spec=AP1000).run(prog)
        assert res.values == [0, 0, 0, 0, 4, 4, 4, 4]


class TestCollectiveCostScaling:
    def test_bcast_time_grows_logarithmically(self):
        """Binomial broadcast should cost ~log2(p) rounds, not p."""

        def body(comm):
            v = yield from C.bcast(comm, 1 if comm.rank == 0 else None, nbytes=8)
            return v

        t8 = run_world(8, body, spec=AP1000).makespan
        t64 = run_world(64, body, spec=AP1000).makespan
        # log2(64)/log2(8) = 2: allow generous slack but rule out linear (8x)
        assert t64 < t8 * 3.5

    def test_reduce_cheaper_than_sequential_collection(self):
        def tree(comm):
            v = yield from C.reduce(comm, 1, operator.add)
            return v

        def linear(comm):
            if comm.rank == 0:
                total = 1
                for src in range(1, comm.size):
                    msg = yield comm.recv(src)
                    total += msg.payload
                return total
            yield comm.send(0, 1)
            return None

        t_tree = run_world(32, tree, spec=AP1000).makespan
        t_linear = run_world(32, linear, spec=AP1000).makespan
        assert t_tree < t_linear


class _RecordingComm:
    """The slice of ``Comm`` a collective generator touches; a request is
    just its name, peer and tag."""

    def __init__(self, rank, size):
        self.rank, self.size = rank, size

    def send(self, dst, payload, *, tag=0, nbytes=None):
        return ("send", dst, tag)

    def recv(self, src, *, tag=0, timeout=None):
        return ("recv", src, tag)


def requests_of(collective, rank, size, **kwargs):
    """The ordered requests ``collective`` yields on ``rank``."""
    gen = collective(_RecordingComm(rank, size), (rank,), **kwargs)
    trace, resume = [], None
    while True:
        try:
            request = gen.send(resume)
        except StopIteration:
            return trace
        trace.append(request)
        resume = (types.SimpleNamespace(payload=("arrived",))
                  if request[0] == "recv" else None)


def requests_in(rounds, rank):
    """What the tables say ``rank`` does: per round its sends, then its
    receives, all on the round's tag."""
    return [request for rnd in rounds
            for request in ([("send", dst, rnd.tag) for dst in rnd.sends[rank]]
                            + [("recv", src, rnd.tag)
                               for src in rnd.recvs[rank]])]


class TestRoundTables:
    """A schedule has a second definition (the static tables a
    whole-machine walk follows) only because these tests tie it to the
    first (the generator every engine runs)."""

    SIZES = range(1, 34)

    @staticmethod
    def assert_tables_are_the_schedule(rounds, size, collective, **kwargs):
        for rank in range(size):
            assert requests_in(rounds, rank) \
                == requests_of(collective, rank, size, **kwargs), rank
        for rnd in rounds:
            assert rnd.slots is not None
            assert rnd.slots == wire(rnd.sends, rnd.recvs)

    @pytest.mark.parametrize("size", SIZES)
    def test_bcast_from_every_root(self, size):
        for root in range(size):
            self.assert_tables_are_the_schedule(
                C.bcast_rounds(size, root), size, C.bcast, root=root)

    @pytest.mark.parametrize("size", SIZES)
    def test_reduce(self, size):
        self.assert_tables_are_the_schedule(
            C.reduce_rounds(size), size, C.reduce, op=operator.add)

    @pytest.mark.parametrize("size", SIZES)
    def test_scan(self, size):
        self.assert_tables_are_the_schedule(
            C.scan_rounds(size), size, C.scan, op=operator.add)

    @pytest.mark.parametrize("size, root", [(4, 4), (4, -1), (1, 1)])
    def test_a_root_outside_the_group_is_the_generators_error(self, size,
                                                              root):
        with pytest.raises(MachineError) as table_err:
            C.bcast_rounds(size, root)
        with pytest.raises(MachineError) as generator_err:
            requests_of(C.bcast, 0, size, root=root)
        assert str(table_err.value) == str(generator_err.value)
