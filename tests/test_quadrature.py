from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from amrfem.quadrature import (
    child_lattice_values,
    element_nodal_basis,
    gauss_legendre,
    quad_point_basis,
    tensor_weights,
)
from restriction_reference import tensor_index_map
from topology_reference import exact_basis_values


class TestGaussLegendre:
    def test_midpoint_rule(self):
        rule = gauss_legendre(1)
        assert rule.points == pytest.approx([0.0])
        assert rule.weights == pytest.approx([2.0])

    def test_two_point(self):
        rule = gauss_legendre(2)
        s = 0.5773502691896258
        assert rule.points == pytest.approx([-s, s], abs=1e-15)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_three_point(self):
        rule = gauss_legendre(3)
        s = 0.7745966692414834
        assert rule.points == pytest.approx([-s, 0.0, s], abs=1e-15)
        assert rule.weights == pytest.approx([5 / 9, 8 / 9, 5 / 9], abs=1e-15)

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_weights_sum_to_interval_length(self, n):
        assert gauss_legendre(n).weights.sum() == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_points_increasing_and_interior(self, n):
        pts = gauss_legendre(n).points
        assert np.all(np.diff(pts) > 0)
        assert np.all(pts > -1.0) and np.all(pts < 1.0)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_monomial_exactness(self, n):
        rule = gauss_legendre(n)
        for k in range(2 * n):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            approx = float(rule.weights @ rule.points**k)
            assert abs(approx - exact) <= 1e-13, (n, k)


class TestChildLatticeValues:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_bits_are_parent_basis_at_child_nodes(self, p):
        # the exact basis values, each rounded once; the barycentric
        # evaluation lands within an ulp of them
        table = child_lattice_values(p)
        assert table.shape == (2 * p + 1, p + 1)
        for k, row in enumerate(table.tolist()):
            want = exact_basis_values(p, Fraction(k, p) - 1)
            assert [v.hex() for v in row] == [v.hex() for v in want]
            near = element_nodal_basis(p).values_at(-1.0 + k / p)[:, 0]
            assert np.abs(np.array(row) - near).max() <= 2.0**-52

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_rows_mirror_and_sum_to_one_exactly(self, p):
        table = child_lattice_values(p)
        assert np.array_equal(table[::-1, ::-1], table)
        assert np.array_equal(table.sum(axis=1), np.ones(2 * p + 1))

    def test_p2_half_points_are_dyadic(self):
        table = child_lattice_values(2)
        assert table[1].tolist() == [3 / 8, 3 / 4, -1 / 8]
        assert table[3].tolist() == [-1 / 8, 3 / 4, 3 / 8]

    def test_cached_and_read_only(self):
        table = child_lattice_values(2)
        assert child_lattice_values(2) is table
        with pytest.raises(ValueError):
            table[0, 0] = 2.0


class TestLagrangeBasis:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_kronecker_property(self, p):
        basis = element_nodal_basis(p)
        table = basis.values_at(basis.nodes)
        assert np.abs(table - np.eye(p + 1)).max() <= 1e-14

    @pytest.mark.parametrize("p", [1, 2])
    def test_quad_point_basis_kronecker_at_gauss_points(self, p):
        basis = quad_point_basis(p)
        rule = gauss_legendre(p + 1)
        table = basis.values_at(rule.points)
        assert np.abs(table - np.eye(p + 1)).max() <= 1e-14

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_partition_of_unity_random_abscissae(self, p):
        basis = element_nodal_basis(p)
        rng = np.random.default_rng(42)
        x = rng.uniform(-1, 1, size=100)
        sums = basis.values_at(x).sum(axis=0)
        assert np.abs(sums - 1.0).max() <= 1e-13

    def test_q1_hat_midpoint(self):
        assert element_nodal_basis(1).values_at(0.0)[0, 0] == pytest.approx(0.5)

    def test_quad_point_basis_at_child_mapped_gauss_point(self):
        # Direct fraction oracle: N_0(x) = (x_1 - x) / (x_1 - x_0) on nodes
        # +-1/sqrt(3), evaluated at the left-child image of the left Gauss
        # point. Twice this value is the restriction matrix's first entry.
        basis = quad_point_basis(1)
        s = 1.0 / np.sqrt(3.0)
        x = 0.5 * (-s - 1.0)
        expected = (s - x) / (2.0 * s)
        got = float(basis.values_at(x)[0, 0])
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(1.1830127018922192, abs=1e-14)

    def test_partition_of_unity_at_fixed_point(self):
        for basis in (element_nodal_basis(1), element_nodal_basis(2), quad_point_basis(2)):
            assert basis.values_at(0.3).sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_derivatives_match_finite_differences(self, p):
        basis = element_nodal_basis(p)
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.95, 0.95, size=20)
        eps = 1e-6
        fd = (basis.values_at(x + eps) - basis.values_at(x - eps)) / (2 * eps)
        assert np.abs(basis.derivs_at(x) - fd).max() <= 1e-7

    def test_derivatives_at_nodes(self):
        # derivative rows at the nodes must agree with off-node limits
        basis = element_nodal_basis(2)
        at_node = basis.derivs_at(np.array([0.0]))[:, 0]
        near = basis.derivs_at(np.array([1e-9]))[:, 0]
        assert np.abs(at_node - near).max() <= 1e-6


class TestTensorIndexMap:
    def test_examples(self):
        assert tensor_index_map(3, 2, 2) == (1, 1, 0)
        assert tensor_index_map(7, 3, 2) == (1, 1, 1)
        assert tensor_index_map(5, 3, 3) == (2, 1, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            tensor_index_map(4, 2, 2)

    @given(st.integers(1, 5), st.sampled_from([2, 3]))
    def test_bijection(self, n, dim):
        seen = set()
        for lex in range(n**dim):
            trip = tensor_index_map(lex, dim, n)
            assert all(0 <= v < n for v in trip[:dim])
            seen.add(trip)
        assert len(seen) == n**dim

    def test_weights_tensorisation(self):
        rule = gauss_legendre(2)
        w2 = tensor_weights(rule, 2)
        assert w2.sum() == pytest.approx(4.0, abs=1e-14)
        # lexicographic: index q = qy*n + qx
        assert w2[1] == pytest.approx(rule.weights[0] * rule.weights[1])
