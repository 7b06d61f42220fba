import numpy as np
import pytest
from hypothesis import given, strategies as st

from amrfem.quadrature import gauss_legendre, tensor_weights
from amrfem.restriction import (
    apply_restriction,
    build_restriction_1d,
    build_restriction_general,
    restriction_operator,
)
from restriction_reference import apply_restriction_reference, decode_morton

REFERENCE_Q1 = np.array(
    [
        [0.5915063509461096, 0.3415063509461096, 0.1584936490538904, -0.09150635094610965],
        [-0.09150635094610965, 0.1584936490538904, 0.3415063509461096, 0.5915063509461096],
    ]
)

REFERENCE_Q2 = np.array(
    [
        [0.614415278851, 0.424865556414, 0.041666666667, -0.031081945517, -0.091532223080, 0.041666666667],
        [-0.097551215948, 0.291666666667, 0.305884549282, 0.305884549282, 0.291666666667, -0.097551215948],
        [0.041666666667, -0.091532223080, -0.031081945517, 0.041666666667, 0.424865556414, 0.614415278851],
    ]
)


class TestDecodeMorton:
    def test_examples(self):
        assert decode_morton(3, 2) == (1, 1, 0)
        assert decode_morton(5, 3) == (1, 0, 1)
        assert decode_morton(0, 3) == (0, 0, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            decode_morton(4, 2)
        with pytest.raises(ValueError):
            decode_morton(8, 3)

    @given(st.sampled_from([2, 3]), st.integers(0, 7))
    def test_bits_reassemble_to_child_index(self, dim, child):
        if child >= 2**dim:
            with pytest.raises(ValueError):
                decode_morton(child, dim)
        else:
            cx, cy, cz = decode_morton(child, dim)
            assert cx | (cy << 1) | (cz << 2) == child


class TestBuild1D:
    def test_q1_matches_reference_matrix(self):
        op = build_restriction_1d(1, 2)
        assert np.abs(op.matrix - REFERENCE_Q1).max() <= 1e-9
        assert op.matrix[0, 0] == pytest.approx(0.5915063509461096, abs=1e-15)
        assert op.matrix[0, 3] == pytest.approx(-0.09150635094610965, abs=1e-15)

    def test_q2_matches_reference_matrix(self):
        op = build_restriction_1d(2, 3)
        assert np.abs(op.matrix - REFERENCE_Q2).max() <= 1e-9
        assert op.matrix[0, 0] == pytest.approx(0.614415278851, abs=1e-9)
        assert op.matrix[1, 1] == pytest.approx(0.291666666667, abs=1e-9)

    def test_constant_reproduction(self):
        op = build_restriction_1d(1)
        assert op.matrix @ np.ones(4) == pytest.approx([1.0, 1.0], abs=1e-13)

    @pytest.mark.parametrize("p", [1, 2])
    def test_row_sums_one(self, p):
        op = build_restriction_1d(p)
        assert np.abs(op.matrix.sum(axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("p", [1, 2])
    def test_weighted_column_sums(self, p):
        # testing with v=1 in the Galerkin condition gives the discrete
        # conservation identity sum_i w_i R[i,(c,q)] = w_q / 2
        op = build_restriction_1d(p)
        col = op.coarse_weights @ op.matrix
        expected = 0.5 * np.concatenate([op.fine_weights, op.fine_weights])
        assert np.abs(col - expected).max() <= 1e-12


class TestBuildGeneral:
    def test_reduces_to_diagonal_path(self):
        gen = build_restriction_general(1, 2, 2)
        assert np.abs(gen.matrix - build_restriction_1d(1).matrix).max() <= 1e-13

    def test_conservation_with_elevated_quadrature(self):
        op = build_restriction_general(1, 3, 3)
        col = op.coarse_weights @ op.matrix
        expected = 0.5 * np.concatenate([op.fine_weights, op.fine_weights])
        assert np.abs(col - expected).max() <= 1e-12

    def test_row_sums_p2_four_points(self):
        op = build_restriction_general(2, 4, 4)
        assert np.abs(op.matrix.sum(axis=1) - 1.0).max() <= 1e-12

    def test_mismatched_fine_coarse_counts(self):
        op = build_restriction_general(1, 3, 2)
        assert op.matrix.shape == (2, 6)
        col = op.coarse_weights @ op.matrix
        expected = 0.5 * np.concatenate([op.fine_weights, op.fine_weights])
        assert np.abs(col - expected).max() <= 1e-12

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            build_restriction_general(2, 2, 3)

    def test_build_1d_routes_nonstandard_to_general(self):
        a = build_restriction_1d(1, 3)
        b = build_restriction_general(1, 3, 3)
        assert np.array_equal(a.matrix, b.matrix)


def _child_gauss_points_1d(rule):
    return np.concatenate([0.5 * (rule.points - 1.0), 0.5 * (rule.points + 1.0)])


class TestApply:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2])
    def test_constant_field(self, dim, p):
        op = restriction_operator(p)
        fine = np.full(op.fine_block_size(dim), 7.3)
        coarse = apply_restriction(op, dim, fine)
        assert np.abs(coarse - 7.3).max() <= 1e-13

    def test_linear_function_1d_against_explicit_matrix(self):
        # L2 projection of x reproduces x; oracle is the plain 2x4 product
        op = build_restriction_1d(1)
        rule = gauss_legendre(2)
        fine = _child_gauss_points_1d(rule)
        coarse = apply_restriction(op, 1, fine)
        assert coarse == pytest.approx(list(rule.points), abs=1e-13)
        assert coarse == pytest.approx(list(op.matrix @ fine), abs=1e-15)

    @pytest.mark.parametrize("p", [1, 2])
    def test_polynomial_reproduction_2d(self, p):
        # Gauss samples of a tensor polynomial of per-axis degree <= p map to
        # the parent's own Gauss samples
        op = restriction_operator(p)
        rule = gauss_legendre(p + 1)
        n = p + 1

        def poly(x, y):
            return (1.2 + 0.7 * x + (0.3 * x**2 if p == 2 else 0)) * (
                0.5 - 1.1 * y + (0.9 * y**2 if p == 2 else 0)
            )

        fine = []
        for child in range(4):
            cx, cy, _ = decode_morton(child, 2)
            for qy in range(n):
                for qx in range(n):
                    x = 0.5 * (rule.points[qx] + 2 * cx - 1)
                    y = 0.5 * (rule.points[qy] + 2 * cy - 1)
                    fine.append(poly(x, y))
        coarse = apply_restriction(op, 2, np.asarray(fine))
        expected = [
            poly(rule.points[qx], rule.points[qy]) for qy in range(n) for qx in range(n)
        ]
        assert np.abs(coarse - expected).max() <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_kronecker_oracle(self, dim, p):
        # oracle: explicit Kronecker product acting on a reordered fine
        # vector (kron layout interleaves (child, point) per axis)
        op = restriction_operator(p)
        n = op.n_fine
        nc = op.n_coarse
        rng = np.random.default_rng(12345)
        fine = rng.standard_normal(op.fine_block_size(dim))

        full = op.matrix
        for _ in range(dim - 1):
            full = np.kron(op.matrix, full)
        perm = np.empty(op.fine_block_size(dim), dtype=int)
        for idx in range(len(perm)):
            child, point = divmod(idx, n**dim)
            cbits = decode_morton(child, dim)
            pts = [point % n, (point // n) % n, point // (n * n)][:dim]
            kron_axis = [cbits[d] * n + pts[d] for d in range(dim)]
            kron_idx = 0
            for d in reversed(range(dim)):
                kron_idx = kron_idx * (2 * n) + kron_axis[d]
            perm[idx] = kron_idx
        oracle = np.zeros(nc**dim)
        scattered = np.zeros(op.fine_block_size(dim))
        scattered[perm] = fine
        oracle = full @ scattered
        got = apply_restriction(op, dim, fine)
        assert np.abs(got - oracle).max() <= 1e-13

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2])
    def test_vectorised_path_matches_reference_loops(self, dim, p):
        op = restriction_operator(p)
        rng = np.random.default_rng(7)
        fine = rng.standard_normal(op.fine_block_size(dim))
        assert apply_restriction(op, dim, fine) == pytest.approx(
            list(apply_restriction_reference(op, dim, fine)), abs=1e-13
        )

    def test_conservation_identity_2d_example(self):
        # sum_k w_k^2D coarse_k = (1/4) sum w^2D_q v_q, brute force both sides
        op = restriction_operator(1)
        rng = np.random.default_rng(99)
        fine = rng.standard_normal(op.fine_block_size(2))
        coarse = apply_restriction(op, 2, fine)
        w2 = tensor_weights(gauss_legendre(2), 2)
        lhs = float(w2 @ coarse)
        rhs = 0.25 * float(np.tile(w2, 4) @ fine)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2])
    def test_conservation_identity_random(self, dim, p):
        op = restriction_operator(p)
        w = tensor_weights(gauss_legendre(p + 1), dim)
        rng = np.random.default_rng(31 * dim + p)
        fine = rng.standard_normal((50, op.fine_block_size(dim)))
        coarse = apply_restriction(op, dim, fine)
        lhs = coarse @ w
        rhs = fine @ np.tile(w, 2**dim) / 2**dim
        scale = np.maximum(np.abs(rhs), 1e-12)
        assert np.abs(lhs - rhs / 1.0).max() <= 1e-12 * scale.max() + 1e-13

    def test_length_mismatch_rejected(self):
        op = restriction_operator(1)
        with pytest.raises(ValueError):
            apply_restriction(op, 2, np.ones(15))

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            apply_restriction(restriction_operator(1), 4, np.ones(16))
