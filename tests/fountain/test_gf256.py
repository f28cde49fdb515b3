"""Tests for GF(256) arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FountainCodeError
from repro.fountain.gf256 import (
    gf2_matmul,
    gf_inverse,
    gf_matmul,
    gf_matmul_blocked,
    gf_multiply,
    gf_rank_batch,
    gf_scale_row,
    gf_solve,
)
from repro.obs import observed

from tests.reference.fountain import gf_matmul_reference, gf_rank


class TestMultiply:
    def test_zero_annihilates(self):
        a = np.arange(256, dtype=np.uint8)
        assert np.all(gf_multiply(a, np.zeros_like(a)) == 0)

    def test_one_is_identity(self):
        a = np.arange(256, dtype=np.uint8)
        np.testing.assert_array_equal(gf_multiply(a, np.ones_like(a)), a)

    def test_commutative(self, rng):
        a = rng.integers(0, 256, 100, dtype=np.uint8)
        b = rng.integers(0, 256, 100, dtype=np.uint8)
        np.testing.assert_array_equal(gf_multiply(a, b), gf_multiply(b, a))

    def test_associative(self, rng):
        a, b, c = (rng.integers(0, 256, 50, dtype=np.uint8) for _ in range(3))
        left = gf_multiply(gf_multiply(a, b), c)
        right = gf_multiply(a, gf_multiply(b, c))
        np.testing.assert_array_equal(left, right)

    def test_distributes_over_xor(self, rng):
        a, b, c = (rng.integers(0, 256, 50, dtype=np.uint8) for _ in range(3))
        left = gf_multiply(a, b ^ c)
        right = gf_multiply(a, b) ^ gf_multiply(a, c)
        np.testing.assert_array_equal(left, right)

    def test_known_value(self):
        # In GF(256) with 0x11D: 2 * 128 = 0x1D = 29.
        assert int(gf_multiply(np.uint8(2), np.uint8(128))) == 29


class TestInverse:
    def test_all_nonzero_elements_invert(self):
        for value in range(1, 256):
            inverse = gf_inverse(value)
            product = int(gf_multiply(np.uint8(value), np.uint8(inverse)))
            assert product == 1

    def test_zero_rejected(self):
        with pytest.raises(FountainCodeError):
            gf_inverse(0)


class TestScaleRow:
    def test_scale_by_zero(self, rng):
        row = rng.integers(0, 256, 16, dtype=np.uint8)
        assert np.all(gf_scale_row(row, 0) == 0)

    def test_scale_then_unscale(self, rng):
        row = rng.integers(0, 256, 16, dtype=np.uint8)
        scaled = gf_scale_row(row, 7)
        unscaled = gf_scale_row(scaled, gf_inverse(7))
        np.testing.assert_array_equal(unscaled, row)


class TestSolve:
    def test_identity_system(self, rng):
        rhs = rng.integers(0, 256, (4, 10), dtype=np.uint8)
        solution, _ = gf_solve(np.eye(4, dtype=np.uint8), rhs)
        np.testing.assert_array_equal(solution, rhs)

    def test_random_invertible_system(self, rng):
        k = 8
        x = rng.integers(0, 256, (k, 32), dtype=np.uint8)
        matrix = rng.integers(0, 256, (k, k), dtype=np.uint8)
        rhs = gf_matmul(matrix, x)
        result = gf_solve(matrix, rhs)
        if result is not None:  # random matrix is invertible w.h.p.
            np.testing.assert_array_equal(result[0], x)

    def test_overdetermined_consistent(self, rng):
        k = 5
        x = rng.integers(0, 256, (k, 8), dtype=np.uint8)
        matrix = rng.integers(0, 256, (k + 3, k), dtype=np.uint8)
        rhs = gf_matmul(matrix, x)
        result = gf_solve(matrix, rhs)
        assert result is not None
        np.testing.assert_array_equal(result[0], x)

    def test_rank_deficient_returns_none(self):
        matrix = np.array([[1, 2], [2, 4], [0, 0]], dtype=np.uint8)
        # Row 2 = 2 * row 1 in GF(256)? 2*[1,2] = [2,4] indeed.
        rhs = np.zeros((3, 4), dtype=np.uint8)
        assert gf_solve(matrix, rhs) is None

    def test_shape_mismatch_rejected(self):
        with pytest.raises(FountainCodeError):
            gf_solve(np.eye(3, dtype=np.uint8), np.zeros((2, 4), dtype=np.uint8))

    def test_matmul_shape_mismatch_rejected(self):
        with pytest.raises(FountainCodeError):
            gf_matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((4, 2), dtype=np.uint8))


class TestBlockedMatmul:
    """The table-blocked kernel pinned against reference accumulation."""

    @given(
        m=st.integers(min_value=0, max_value=40),
        k=st.integers(min_value=0, max_value=40),
        n=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(deadline=None, max_examples=60)
    def test_blocked_matches_reference(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, (m, k), dtype=np.uint8)
        b = rng.integers(0, 256, (k, n), dtype=np.uint8)
        np.testing.assert_array_equal(
            gf_matmul_blocked(a, b), gf_matmul_reference(a, b)
        )

    @given(
        m=st.integers(min_value=1, max_value=30),
        k=st.integers(min_value=1, max_value=20),
        n=st.integers(min_value=1, max_value=20),
        block_elems=st.integers(min_value=1, max_value=256),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(deadline=None, max_examples=60)
    def test_block_size_does_not_change_result(self, m, k, n, block_elems, seed):
        """Tiny block budgets force multi-block paths; output is invariant."""
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, (m, k), dtype=np.uint8)
        b = rng.integers(0, 256, (k, n), dtype=np.uint8)
        np.testing.assert_array_equal(
            gf_matmul_blocked(a, b, block_elems=block_elems),
            gf_matmul_reference(a, b),
        )

    @given(
        m=st.integers(min_value=2, max_value=30),
        k=st.integers(min_value=1, max_value=30),
        n=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(deadline=None, max_examples=60)
    def test_gf_matmul_multi_row_uses_blocked_result(self, m, k, n, seed):
        """The gf_matmul fallback is the blocked kernel, not a column loop."""
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, (m, k), dtype=np.uint8)
        b = rng.integers(0, 256, (k, n), dtype=np.uint8)
        np.testing.assert_array_equal(
            gf_matmul(a, b), gf_matmul_reference(a, b)
        )

    def test_single_row_fast_path_matches(self, rng):
        a = rng.integers(0, 256, (1, 50), dtype=np.uint8)
        b = rng.integers(0, 256, (50, 64), dtype=np.uint8)
        np.testing.assert_array_equal(
            gf_matmul(a, b), gf_matmul_reference(a, b)
        )


class TestRankBatch:
    """The stacked rank kernel equals the scalar oracle matrix by matrix."""

    @given(
        num=st.integers(min_value=0, max_value=6),
        m=st.integers(min_value=0, max_value=9),
        k=st.integers(min_value=0, max_value=9),
        density=st.sampled_from((0.1, 0.5, 1.0)),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(deadline=None, max_examples=120, derandomize=True)
    def test_matches_scalar_oracle(self, num, m, k, density, seed):
        rng = np.random.default_rng(seed)
        stack = rng.integers(1, 256, (num, m, k), dtype=np.uint8)
        stack[rng.random((num, m, k)) >= density] = 0
        for a in stack:
            if m >= 2:
                # Forced rank deficiency: a zeroed row, a duplicated row
                # and a scaled row, each drawn per matrix.
                i, j = rng.choice(m, size=2, replace=False)
                kind = rng.integers(0, 3)
                if kind == 0:
                    a[j] = 0
                elif kind == 1:
                    a[j] = a[i]
                else:
                    a[j] = gf_multiply(a[i], np.uint8(rng.integers(1, 256)))
            # Mixed zero padding: trailing rows and columns of random width.
            a[m - int(rng.integers(0, m + 1)):] = 0
            a[:, k - int(rng.integers(0, k + 1)):] = 0
        before = stack.copy()
        ranks = gf_rank_batch(stack)
        np.testing.assert_array_equal(stack, before)
        assert ranks.shape == (num,)
        assert ranks.tolist() == [gf_rank(a) for a in stack]

    @pytest.mark.parametrize("shape", [(0, 4, 4), (3, 0, 4), (3, 4, 0)])
    def test_empty_dimensions_have_rank_zero(self, shape):
        ranks = gf_rank_batch(np.zeros(shape, dtype=np.uint8))
        assert ranks.tolist() == [0] * shape[0]

    def test_rejects_non_stack(self):
        with pytest.raises(FountainCodeError):
            gf_rank_batch(np.eye(3, dtype=np.uint8))


class TestGF2Matmul:
    """Bit-sliced parity matmul pinned against reference XOR accumulation."""

    @given(
        m=st.integers(min_value=0, max_value=40),
        k=st.integers(min_value=1, max_value=40),
        n=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(deadline=None, max_examples=60)
    def test_matches_reference_accumulation(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        mask = rng.integers(0, 2, (m, k)).astype(bool)
        b = rng.integers(0, 256, (k, n), dtype=np.uint8)
        # A boolean mask is a GF(256) coefficient matrix of zeros and ones.
        expected = gf_matmul_reference(mask.astype(np.uint8), b)
        np.testing.assert_array_equal(gf2_matmul(mask, b), expected)

    def test_empty_selection_is_zero(self):
        mask = np.zeros((3, 5), dtype=bool)
        b = np.arange(5 * 4, dtype=np.uint8).reshape(5, 4)
        np.testing.assert_array_equal(
            gf2_matmul(mask, b), np.zeros((3, 4), dtype=np.uint8)
        )

    def test_full_selection_is_xor_of_all_rows(self, rng):
        b = rng.integers(0, 256, (7, 16), dtype=np.uint8)
        mask = np.ones((1, 7), dtype=bool)
        np.testing.assert_array_equal(
            gf2_matmul(mask, b)[0], np.bitwise_xor.reduce(b, axis=0)
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(FountainCodeError):
            gf2_matmul(np.ones((2, 3), dtype=bool), np.zeros((4, 2), dtype=np.uint8))


class TestSolveInstrumentation:
    """gf_solve reports elimination effort through obs counters."""

    def test_counters_emitted_inside_observed(self, rng):
        k = 6
        matrix = rng.integers(0, 256, (k, k), dtype=np.uint8)
        rhs = rng.integers(0, 256, (k, 8), dtype=np.uint8)
        with observed("counters") as registry:
            gf_solve(matrix, rhs)
        counters = registry.counters()
        assert counters.get("fountain.gf.solve_calls") == 1.0
        assert counters.get("fountain.gf.solve_row_ops", 0) > 0
        assert counters.get("fountain.gf.solve_elem_ops", 0) > 0

    def test_no_counters_outside_observed(self, rng):
        k = 4
        matrix = rng.integers(0, 256, (k, k), dtype=np.uint8)
        rhs = rng.integers(0, 256, (k, 4), dtype=np.uint8)
        with observed("counters") as registry:
            pass
        gf_solve(matrix, rhs)
        assert "fountain.gf.solve_calls" not in registry.counters()

    def test_singular_solve_still_counts(self):
        matrix = np.array([[1, 2], [2, 4]], dtype=np.uint8)
        rhs = np.zeros((2, 3), dtype=np.uint8)
        with observed("counters") as registry:
            assert gf_solve(matrix, rhs) is None
        assert registry.counters().get("fountain.gf.solve_calls") == 1.0
