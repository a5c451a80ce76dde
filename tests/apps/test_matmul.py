"""Tests for repro.apps.matmul — Cannon's algorithm."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.matmul import blocked_matmul_seq, cannon_matmul
from repro.errors import SkeletonError


class TestCannon:
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 6, 12])
    def test_matches_numpy(self, rng, q):
        A = rng.standard_normal((12, 12))
        B = rng.standard_normal((12, 12))
        assert np.allclose(cannon_matmul(A, B, q), A @ B)

    def test_identity_times_matrix(self, rng):
        A = rng.standard_normal((8, 8))
        assert np.allclose(cannon_matmul(np.eye(8), A, 4), A)

    def test_matches_seq_baseline(self, rng):
        A = rng.standard_normal((6, 6))
        B = rng.standard_normal((6, 6))
        assert np.allclose(cannon_matmul(A, B, 3), blocked_matmul_seq(A, B))

    def test_non_commutative(self, rng):
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4))
        ab = cannon_matmul(A, B, 2)
        ba = cannon_matmul(B, A, 2)
        assert not np.allclose(ab, ba)
        assert np.allclose(ab, A @ B)
        assert np.allclose(ba, B @ A)

    def test_integer_matrices(self):
        A = np.arange(16).reshape(4, 4).astype(float)
        B = (np.arange(16)[::-1]).reshape(4, 4).astype(float)
        assert np.allclose(cannon_matmul(A, B, 2), A @ B)

    def test_indivisible_order_rejected(self, rng):
        with pytest.raises(SkeletonError, match="divisible"):
            cannon_matmul(rng.standard_normal((5, 5)),
                          rng.standard_normal((5, 5)), 2)

    def test_non_square_rejected(self, rng):
        with pytest.raises(SkeletonError, match="square"):
            cannon_matmul(rng.standard_normal((4, 6)),
                          rng.standard_normal((6, 4)), 2)

    def test_mismatched_orders_rejected(self, rng):
        with pytest.raises(SkeletonError):
            cannon_matmul(rng.standard_normal((4, 4)),
                          rng.standard_normal((6, 6)), 2)

    def test_zero_grid_rejected(self, rng):
        with pytest.raises(SkeletonError):
            cannon_matmul(rng.standard_normal((4, 4)),
                          rng.standard_normal((4, 4)), 0)

    def test_with_executor(self, rng, pool):
        A = rng.standard_normal((8, 8))
        B = rng.standard_normal((8, 8))
        assert np.allclose(cannon_matmul(A, B, 4, executor=pool), A @ B)

    @settings(max_examples=20)
    @given(st.integers(1, 4), st.integers(0, 10**6))
    def test_random_products_property(self, q, seed):
        r = np.random.default_rng(seed)
        n = q * r.integers(1, 4)
        A = r.standard_normal((n, n))
        B = r.standard_normal((n, n))
        assert np.allclose(cannon_matmul(A, B, q), A @ B, atol=1e-9)


class TestCannonMachine:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_matches_numpy(self, rng, q):
        from repro.apps.matmul import cannon_matmul_compiled

        n = q * 3
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        out, _res = cannon_matmul_compiled(A, B, q)
        assert np.allclose(out, A @ B)

    def test_runtime_decreases_with_grid_size(self, rng):
        from repro.apps.matmul import cannon_matmul_compiled

        n = 48
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        times = []
        for q in (1, 2, 4):
            _o, res = cannon_matmul_compiled(A, B, q)
            times.append(res.makespan)
        assert times[0] > times[1] > times[2]

    def test_nearest_neighbour_rounds(self, rng):
        """After the skew, every round is 2 messages per processor."""
        from repro.apps.matmul import cannon_matmul_compiled
        from repro.machine import PERFECT

        q, n = 3, 12
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        _o, res = cannon_matmul_compiled(A, B, q, spec=PERFECT)
        p = q * q
        rounds = 2 * p * (q - 1)
        skew_max = 2 * p
        assert rounds <= res.total_messages <= rounds + skew_max

    #: q -> messages and per-rank bytes sent of the hand-written torus
    #: program the expression replaced, on 64 x 64 matrices
    HANDWRITTEN = {
        1: (0, [0]),
        2: (12, [16384, 24576, 24576, 32768]),
        4: (120, [12288, 14336, 14336, 14336, 14336, 16384, 16384, 16384,
                  14336, 16384, 16384, 16384, 14336, 16384, 16384, 16384]),
    }

    @pytest.mark.parametrize("q", sorted(HANDWRITTEN))
    def test_messages_are_the_handwritten_programs(self, q):
        """Only the A and B blocks are on the wire, C stays put: the
        compiled expression sends what the hand-written program sent."""
        from repro.apps.matmul import cannon_matmul_compiled

        r = np.random.default_rng(11)
        A = r.standard_normal((64, 64))
        B = r.standard_normal((64, 64))
        out, res = cannon_matmul_compiled(A, B, q)
        assert np.allclose(out, A @ B)
        messages, bytes_sent = self.HANDWRITTEN[q]
        assert res.total_messages == messages
        assert [s.bytes_sent for s in res.stats] == bytes_sent

    def test_indivisible_rejected(self, rng):
        from repro.apps.matmul import cannon_matmul_compiled
        from repro.errors import SkeletonError

        with pytest.raises(SkeletonError):
            cannon_matmul_compiled(rng.standard_normal((5, 5)),
                                   rng.standard_normal((5, 5)), 2)

    def test_torus_beats_plain_mesh(self, rng):
        """Wrap-around shifts are 1 hop on a torus but q-1 hops on a mesh:
        with per-hop latency, the same expression runs faster on the
        torus."""
        from repro.apps.matmul import _initial_states, cannon_expression
        from repro.machine import AP1000, Machine
        from repro.machine.topology import Mesh2D
        from repro.scl import run_expression

        spec = AP1000.replace(per_hop_latency=5e-4)
        q, n = 4, 16
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        states = _initial_states(A, B, q)
        torus, mesh = (
            run_expression(cannon_expression(q), states,
                           Machine(Mesh2D(q, q, torus=wrap), spec=spec))[1]
            for wrap in (True, False))
        assert torus.total_messages == mesh.total_messages
        assert torus.makespan < mesh.makespan
