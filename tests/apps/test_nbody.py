"""Tests for repro.apps.nbody — the systolic ring all-pairs computation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.nbody import (
    forces_compiled,
    forces_parallel,
    forces_seq,
    nbody_expression,
    pairwise_forces,
)
from repro.errors import SkeletonError
from repro.machine import PERFECT


def cluster(rng, n):
    return rng.standard_normal((n, 3)), rng.uniform(0.5, 2.0, size=n)


class TestPairwiseForces:
    def test_two_bodies_attract(self):
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        mass = np.array([1.0, 1.0])
        f = pairwise_forces(pos, pos, mass)
        assert f[0, 0] > 0 and f[1, 0] < 0  # pulled toward each other

    def test_newtons_third_law(self, rng):
        pos, mass = cluster(rng, 2)
        f = pairwise_forces(pos, pos, mass)
        # with equal-mass normalisation F_ij = -F_ji only when masses equal
        pos2 = pos
        m_eq = np.array([1.0, 1.0])
        f = pairwise_forces(pos2, pos2, m_eq)
        assert np.allclose(f[0], -f[1], atol=1e-9)

    def test_self_interaction_softened_to_zero(self):
        pos = np.array([[1.0, 2.0, 3.0]])
        f = pairwise_forces(pos, pos, np.array([5.0]))
        assert np.allclose(f, 0.0)

    def test_symmetric_configuration_cancels(self):
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0]])
        mass = np.ones(3)
        f = pairwise_forces(pos, pos, mass)
        assert np.allclose(f[0], 0.0, atol=1e-9)

    def test_total_momentum_conserved(self, rng):
        pos, mass = cluster(rng, 20)
        f = forces_seq(pos, mass)
        # sum of m_i * a_i = sum of forces-with-mass-weighting: with our
        # normalisation (acceleration per unit target mass), weight by mass
        total = np.sum(f * mass[:, None], axis=0)
        assert np.allclose(total, 0.0, atol=1e-8)


class TestParallel:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8])
    def test_matches_sequential(self, rng, p):
        pos, mass = cluster(rng, 48)
        assert np.allclose(forces_parallel(pos, mass, p),
                           forces_seq(pos, mass), atol=1e-10)

    def test_uneven_block_sizes(self, rng):
        pos, mass = cluster(rng, 23)
        assert np.allclose(forces_parallel(pos, mass, 5),
                           forces_seq(pos, mass), atol=1e-10)

    def test_single_body_per_processor(self, rng):
        pos, mass = cluster(rng, 6)
        assert np.allclose(forces_parallel(pos, mass, 6),
                           forces_seq(pos, mass), atol=1e-10)

    def test_bad_shapes_rejected(self, rng):
        with pytest.raises(SkeletonError, match=r"\(n, 3\)"):
            forces_parallel(np.zeros((4, 2)), np.ones(4), 2)
        with pytest.raises(SkeletonError, match="masses"):
            forces_parallel(np.zeros((4, 3)), np.ones(3), 2)

    def test_too_many_processors_rejected(self, rng):
        pos, mass = cluster(rng, 3)
        with pytest.raises(SkeletonError):
            forces_parallel(pos, mass, 5)

    @settings(max_examples=15)
    @given(st.integers(1, 6), st.integers(0, 10**6))
    def test_any_processor_count_property(self, p, seed):
        r = np.random.default_rng(seed)
        n = p * int(r.integers(1, 5))
        pos, mass = cluster(r, n)
        assert np.allclose(forces_parallel(pos, mass, p),
                           forces_seq(pos, mass), atol=1e-9)


class TestMachine:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_matches_sequential(self, rng, p):
        pos, mass = cluster(rng, 40)
        out, _res = forces_compiled(pos, mass, p)
        assert np.allclose(out, forces_seq(pos, mass), atol=1e-10)

    def test_ring_message_pattern(self, rng):
        """p procs x (p - 1) rotation rounds, one message each."""
        p = 4
        pos, mass = cluster(rng, 16)
        _out, res = forces_compiled(pos, mass, p, spec=PERFECT)
        assert res.total_messages == p * (p - 1)

    def test_runtime_decreases_with_processors(self, rng):
        pos, mass = cluster(rng, 512)
        times = []
        for p in (1, 4, 16):
            _o, res = forces_compiled(pos, mass, p)
            times.append(res.makespan)
        assert times[0] > times[1] > times[2]

    def test_compute_is_perfectly_balanced_when_divisible(self, rng):
        from repro.machine.metrics import load_imbalance

        pos, mass = cluster(rng, 64)
        _o, res = forces_compiled(pos, mass, 8, spec=PERFECT)
        assert load_imbalance(res) == pytest.approx(1.0, abs=1e-6)

    #: (bodies, p) -> makespan, messages and per-rank bytes sent of the
    #: hand-written ring program the expression replaced, on this input
    HANDWRITTEN = {
        (40, 1): (0.012799999999999999, 0, [0]),
        (40, 2): (0.006575599999999999, 2, [640, 640]),
        (40, 3): (0.00481584, 6, [864, 832, 864]),
        (40, 4): (0.0036883999999999997, 12, [960] * 4),
        (40, 8): (0.0026948, 56, [1120] * 8),
        (512, 16): (0.13393639999999993, 240, [15360] * 16),
    }

    @pytest.mark.parametrize("n,p", sorted(HANDWRITTEN))
    def test_run_is_pinned(self, n, p):
        """Only the visiting block is on the wire: the compiled expression
        reproduces the hand-written message-passing program figure for
        figure."""
        makespan, messages, bytes_sent = self.HANDWRITTEN[n, p]
        pos, mass = cluster(np.random.default_rng(7), n)
        out, res = forces_compiled(pos, mass, p)
        assert np.allclose(out, forces_seq(pos, mass), atol=1e-10)
        assert res.makespan == makespan
        assert res.total_messages == messages
        assert [s.bytes_sent for s in res.stats] == bytes_sent

    @pytest.mark.parametrize("p", [3, 8])
    def test_interpreted_run_is_the_walked_run(self, p):
        from repro.core import ParArray
        from repro.apps.nbody import _initial_states
        from repro.machine import AP1000, Machine, Ring
        from repro.scl import run_expression

        pos, mass = cluster(np.random.default_rng(7), 40)
        states = ParArray(_initial_states(pos, mass, p))
        walked, interpreted = (
            run_expression(nbody_expression(p), states,
                           Machine(Ring(p), spec=AP1000, **kw))[1]
            for kw in ({}, {"batch": False}))
        assert walked.makespan == interpreted.makespan \
            == self.HANDWRITTEN[40, p][0]
        assert walked.stats == interpreted.stats


class TestExpression:
    def test_one_rotate_per_round_but_the_last(self):
        from repro.scl import Id, Map, Redistribute, Rotate, pretty

        expr = nbody_expression(4)
        assert expr.n == 4
        assert pretty(expr.body(0)) \
            == "redistribute [id, rotate 1, id] . map accumulate"
        assert isinstance(expr.body(3), Map)
        assert expr.body(0).steps[0] == Redistribute((Id(), Rotate(1), Id()))
