import numpy as np
import pytest
from hypothesis import given, strategies as st

from amrfem.quadrature import gauss_legendre, tensor_weights
from amrfem.restriction import apply_restriction, injection_matrix, restriction_matrix
from restriction_reference import (
    apply_restriction_branches,
    apply_restriction_reference,
    decode_morton,
    local_mass_restriction,
)

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


# float.hex of every entry of the n_q = p + 1 matrices: the diagonal
# Gauss-nodal formula, whose bits the restriction dump and the MMS error pin.
HEX_PINS = {
    1: [
        [
            "0x1.2ed9eba16132bp-1", "0x1.5db3d742c2656p-2",
            "0x1.4498517a7b355p-3", "-0x1.76cf5d0b09956p-4",
        ],
        [
            "-0x1.76cf5d0b09956p-4", "0x1.4498517a7b355p-3",
            "0x1.5db3d742c2656p-2", "0x1.2ed9eba16132bp-1",
        ],
    ],
    2: [
        [
            "0x1.3a94a3b1a6f9ep-1", "0x1.b30ff4d7fa184p-2", "0x1.5555555555554p-5",
            "-0x1.fd3f20df89e67p-6", "-0x1.76ea7e0a930bfp-4", "0x1.5555555555553p-5",
        ],
        [
            "-0x1.8f91dd22ed8c0p-4", "0x1.2aaaaaaaaaaabp-2", "0x1.3939cc9e10b86p-2",
            "0x1.3939cc9e10b86p-2", "0x1.2aaaaaaaaaaabp-2", "-0x1.8f91dd22ed8bfp-4",
        ],
        [
            "0x1.5555555555554p-5", "-0x1.76ea7e0a930bfp-4", "-0x1.fd3f20df89e67p-6",
            "0x1.5555555555554p-5", "0x1.b30ff4d7fa184p-2", "0x1.3a94a3b1a6f9dp-1",
        ],
    ],
}


def _weighted_column_sums(p):
    # testing with v=1 in the Galerkin condition gives the discrete
    # conservation identity sum_i w_i R[i,(c,q)] = w_q / 2
    w = gauss_legendre(p + 1).weights
    col = w @ restriction_matrix(p)
    return np.abs(col - 0.5 * np.concatenate([w, w])).max()


class TestBuild1D:
    def test_q1_matches_reference_matrix(self):
        mat = restriction_matrix(1)
        assert np.abs(mat - REFERENCE_Q1).max() <= 1e-9
        assert mat[0, 0] == pytest.approx(0.5915063509461096, abs=1e-15)
        assert mat[0, 3] == pytest.approx(-0.09150635094610965, abs=1e-15)

    def test_q2_matches_reference_matrix(self):
        mat = restriction_matrix(2)
        assert np.abs(mat - REFERENCE_Q2).max() <= 1e-9
        assert mat[0, 0] == pytest.approx(0.614415278851, abs=1e-9)
        assert mat[1, 1] == pytest.approx(0.291666666667, abs=1e-9)

    @pytest.mark.parametrize("p", [1, 2])
    def test_bits_pinned(self, p):
        got = [[float(v).hex() for v in row] for row in restriction_matrix(p)]
        assert got == HEX_PINS[p]

    def test_constant_reproduction(self):
        assert restriction_matrix(1) @ np.ones(4) == pytest.approx([1.0, 1.0], abs=1e-13)

    @pytest.mark.parametrize("p", [1, 2])
    def test_row_sums_one(self, p):
        assert np.abs(restriction_matrix(p).sum(axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("p", [1, 2])
    def test_weighted_column_sums(self, p):
        assert _weighted_column_sums(p) <= 1e-12

    def test_cached_and_read_only(self):
        mat = restriction_matrix(2)
        assert restriction_matrix(2) is mat
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0


class TestInjectionMatrix:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_one_coinciding_child_node_per_parent_node(self, p):
        # parent node a sits at -1 + 2a/p; child c's node q at c - 1 + q/p
        mat = injection_matrix(p)
        assert mat.shape == (p + 1, 2 * (p + 1))
        assert set(np.unique(mat)) == {0.0, 1.0} and np.array_equal(mat.sum(axis=1), np.ones(p + 1))
        for a, col in enumerate(np.argmax(mat, axis=1)):
            c, q = divmod(int(col), p + 1)
            assert 2 * a == c * p + q  # the same point, in child-node spacings
            assert c == 0 or 2 * a > p  # the first child that holds it

    def test_cached_and_read_only(self):
        mat = injection_matrix(2)
        assert injection_matrix(2) is mat
        with pytest.raises(ValueError):
            mat[0, 0] = 0.5


class TestBuildGeneral:
    def test_reduces_to_diagonal_path(self):
        # the local mass solve at n_q = p + 1 gives the diagonal formula
        for p in (1, 2):
            gen = local_mass_restriction(p, p + 1)
            assert np.abs(gen - restriction_matrix(p)).max() <= 1e-13


def _child_gauss_points_1d(rule):
    return np.concatenate([0.5 * (rule.points - 1.0), 0.5 * (rule.points + 1.0)])


def _block_size(dim, p):
    return 2**dim * (p + 1) ** dim


class TestApply:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2])
    def test_constant_field(self, dim, p):
        fine = np.full((1, _block_size(dim, p)), 7.3)
        coarse = apply_restriction(restriction_matrix(p), dim, fine)
        assert coarse.shape == (1, (p + 1) ** dim)
        assert np.abs(coarse - 7.3).max() <= 1e-13

    def test_linear_function_1d_against_explicit_matrix(self):
        # L2 projection of x reproduces x; oracle is the plain 2x4 product
        mat = restriction_matrix(1)
        rule = gauss_legendre(2)
        fine = _child_gauss_points_1d(rule)
        coarse = apply_restriction(mat, 1, fine[None, :])[0]
        assert coarse == pytest.approx(list(rule.points), abs=1e-13)
        assert coarse == pytest.approx(list(mat @ fine), abs=1e-15)

    @pytest.mark.parametrize("p", [1, 2])
    def test_polynomial_reproduction_2d(self, p):
        # Gauss samples of a tensor polynomial of per-axis degree <= p map to
        # the parent's own Gauss samples
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
        coarse = apply_restriction(restriction_matrix(p), 2, np.asarray([fine]))[0]
        expected = [
            poly(rule.points[qx], rule.points[qy]) for qy in range(n) for qx in range(n)
        ]
        assert np.abs(coarse - expected).max() <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_kronecker_oracle(self, dim, p):
        # oracle: explicit Kronecker product acting on a reordered fine
        # vector (kron layout interleaves (child, point) per axis)
        mat = restriction_matrix(p)
        n = p + 1
        rng = np.random.default_rng(12345)
        fine = rng.standard_normal(_block_size(dim, p))

        full = mat
        for _ in range(dim - 1):
            full = np.kron(mat, full)
        perm = np.empty(_block_size(dim, p), dtype=int)
        for idx in range(len(perm)):
            child, point = divmod(idx, n**dim)
            cbits = decode_morton(child, dim)
            pts = [point % n, (point // n) % n, point // (n * n)][:dim]
            kron_axis = [cbits[d] * n + pts[d] for d in range(dim)]
            kron_idx = 0
            for d in reversed(range(dim)):
                kron_idx = kron_idx * (2 * n) + kron_axis[d]
            perm[idx] = kron_idx
        scattered = np.zeros(_block_size(dim, p))
        scattered[perm] = fine
        oracle = full @ scattered
        got = apply_restriction(mat, dim, fine[None, :])[0]
        assert np.abs(got - oracle).max() <= 1e-13

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2])
    def test_vectorised_path_matches_reference_loops(self, dim, p):
        mat = restriction_matrix(p)
        rng = np.random.default_rng(7)
        fine = rng.standard_normal(_block_size(dim, p))
        assert apply_restriction(mat, dim, fine[None, :])[0] == pytest.approx(
            list(apply_restriction_reference(mat, dim, fine)), abs=1e-13
        )

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_einsum_branches_bitwise(self, dim, p, extra):
        # extra = 1: the wider (p + 2, 2 (p + 2)) table of a local mass solve
        n_q = p + 1 + extra
        mat = local_mass_restriction(p, n_q) if extra else restriction_matrix(p)
        rng = np.random.default_rng(100 * dim + 10 * p + extra)
        for m in (1, 7, 300):
            fine = rng.standard_normal((m, 2**dim * n_q**dim))
            got = apply_restriction(mat, dim, fine)
            assert np.array_equal(got, apply_restriction_branches(mat, dim, fine))

    @pytest.mark.parametrize("table", ["restriction", "elevated", "injection"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2])
    def test_block_reduces_like_its_columns(self, dim, p, table):
        # a trailing field axis: each column comes out bit for bit as it
        # would alone
        mat = {
            "restriction": restriction_matrix(p),
            "elevated": local_mass_restriction(p, p + 2),
            "injection": injection_matrix(p),
        }[table]
        n_f = mat.shape[1] // 2
        rng = np.random.default_rng(1000 * dim + 10 * p + len(table))
        for m in (1, 7, 300):
            block = rng.standard_normal((m, 2**dim * n_f**dim, 4))
            got = apply_restriction(mat, dim, block)
            assert got.shape == (m, mat.shape[0] ** dim, 4)
            for j in range(4):
                want = apply_restriction(mat, dim, block[:, :, j].copy())
                assert np.ascontiguousarray(got[:, :, j]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2])
    def test_injection_keeps_values_bit_for_bit(self, dim, p):
        # every product is x * 1 or x * 0, so each parent value is one of its
        # children's, whatever its magnitude; labels say which one
        mat = injection_matrix(p)
        labels = np.arange(_block_size(dim, p), dtype=float)[None, :]
        picked = apply_restriction(mat, dim, labels)[0].astype(int)
        assert len(set(picked.tolist())) == (p + 1) ** dim
        rng = np.random.default_rng(40 * dim + p)
        scale = 10.0 ** rng.integers(-300, 300, (50, 1))
        fine = rng.standard_normal((50, _block_size(dim, p))) * scale
        got = apply_restriction(mat, dim, fine)
        assert got.tobytes() == np.ascontiguousarray(fine[:, picked]).tobytes()

    def test_conservation_identity_2d_example(self):
        # sum_k w_k^2D coarse_k = (1/4) sum w^2D_q v_q, brute force both sides
        rng = np.random.default_rng(99)
        fine = rng.standard_normal(_block_size(2, 1))
        coarse = apply_restriction(restriction_matrix(1), 2, fine[None, :])[0]
        w2 = tensor_weights(gauss_legendre(2), 2)
        lhs = float(w2 @ coarse)
        rhs = 0.25 * float(np.tile(w2, 4) @ fine)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2])
    def test_conservation_identity_random(self, dim, p):
        w = tensor_weights(gauss_legendre(p + 1), dim)
        rng = np.random.default_rng(31 * dim + p)
        fine = rng.standard_normal((50, _block_size(dim, p)))
        coarse = apply_restriction(restriction_matrix(p), dim, fine)
        lhs = coarse @ w
        rhs = fine @ np.tile(w, 2**dim) / 2**dim
        scale = np.maximum(np.abs(rhs), 1e-12)
        assert np.abs(lhs - rhs / 1.0).max() <= 1e-12 * scale.max() + 1e-13

    def test_length_mismatch_rejected(self):
        mat = restriction_matrix(1)
        with pytest.raises(ValueError):
            apply_restriction(mat, 2, np.ones((1, 15)))
        with pytest.raises(ValueError):
            apply_restriction(mat, 2, np.ones(16))  # a batch, not a single block
        with pytest.raises(ValueError):
            apply_restriction(mat, 2, np.ones((1, 16, 2, 2)))  # at most one field axis

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            apply_restriction(restriction_matrix(1), 4, np.ones((1, 16)))
