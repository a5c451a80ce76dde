"""Tests for repro.apps.fft — binary-exchange parallel FFT."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.fft import bit_reverse, fft_compiled, fft_parallel, fft_seq
from repro.errors import SkeletonError
from repro.machine import MODERN_CLUSTER, PERFECT


class TestBitReverse:
    def test_known_values(self):
        assert bit_reverse(0b001, 3) == 0b100
        assert bit_reverse(0b110, 3) == 0b011
        assert bit_reverse(0, 4) == 0

    def test_involution(self):
        for bits in range(1, 8):
            for i in range(1 << bits):
                assert bit_reverse(bit_reverse(i, bits), bits) == i

    @given(st.integers(1, 12), st.data())
    def test_is_permutation_property(self, bits, data):
        n = 1 << bits
        outputs = {bit_reverse(i, bits) for i in range(n)}
        assert outputs == set(range(n))


class TestSequential:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 512])
    def test_matches_numpy(self, rng, n):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.allclose(fft_seq(x), np.fft.fft(x))

    def test_real_input(self, rng):
        x = rng.standard_normal(32)
        assert np.allclose(fft_seq(x), np.fft.fft(x))

    def test_impulse(self):
        x = np.zeros(16, dtype=complex)
        x[0] = 1.0
        assert np.allclose(fft_seq(x), np.ones(16))

    def test_constant_signal(self):
        x = np.ones(8, dtype=complex)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 8.0
        assert np.allclose(fft_seq(x), expected)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(SkeletonError, match="power of two"):
            fft_seq(np.zeros(12))


class TestParallel:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
    def test_matches_numpy(self, rng, d):
        n = max(64, 1 << d)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.allclose(fft_parallel(x, d), np.fft.fft(x))

    def test_one_coefficient_per_processor(self, rng):
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.allclose(fft_parallel(x, 3), np.fft.fft(x))

    def test_matches_sequential(self, rng):
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        assert np.allclose(fft_parallel(x, 3), fft_seq(x))

    def test_too_few_coefficients_rejected(self, rng):
        with pytest.raises(SkeletonError, match="per processor"):
            fft_parallel(np.zeros(4, dtype=complex), 3)

    @settings(max_examples=15)
    @given(st.integers(0, 3), st.integers(3, 8), st.integers(0, 10**6))
    def test_random_signals_property(self, d, log_n, seed):
        if log_n < d:
            log_n = d
        r = np.random.default_rng(seed)
        x = r.standard_normal(1 << log_n) + 1j * r.standard_normal(1 << log_n)
        assert np.allclose(fft_parallel(x, d), np.fft.fft(x), atol=1e-8)


class TestMachine:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5])
    def test_matches_numpy(self, rng, d):
        n = max(128, 1 << d)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out, _res = fft_compiled(x, d)
        assert np.allclose(out, np.fft.fft(x))

    def test_cross_stage_message_count(self, rng):
        """d cross-processor stages, one full-block exchange each.  The
        blocks are collected off the machine, so the p - 1 messages of a
        final tree gather are not among them."""
        d, n = 3, 256
        p = 1 << d
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        _out, res = fft_compiled(x, d, spec=PERFECT)
        assert res.total_messages == d * p

    def test_runtime_decreases_with_processors(self, rng):
        x = rng.standard_normal(8192) + 1j * rng.standard_normal(8192)
        times = []
        for d in (0, 2, 4):
            _o, res = fft_compiled(x, d)
            times.append(res.makespan)
        assert times[0] > times[1] > times[2]

    def test_modern_cluster(self, rng):
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        out, res = fft_compiled(x, 3, spec=MODERN_CLUSTER)
        assert np.allclose(out, np.fft.fft(x))
        assert res.makespan < 0.01
