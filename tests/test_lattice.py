"""One tensor-lattice order: ``quadrature.lattice`` and ``tensor_kron`` reproduce
every per-module form of it (``lattice_reference``) bit for bit."""
import numpy as np
import pytest

import lattice_reference as reference
from amrfem.fem import _tables, gauss_point_coords
from amrfem.mesh import build_uniform, enumerate_nodes, execute_coarsen, execute_refine
from amrfem.quadrature import gauss_legendre, lattice, tensor_kron, tensor_weights
from amrfem.transfer import _child_interp


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def test_lattice_runs_x_fastest():
    assert lattice(3, 2)[:4].tolist() == [[0, 0], [1, 0], [2, 0], [0, 1]]
    assert lattice(2, 1).tolist() == [[0], [1]]


def test_tensor_kron_entry_is_the_product_at_the_lattice_point():
    u, v = np.array([2.0, 3.0, 5.0]), np.array([7.0, 11.0])
    got = tensor_kron([u, v])  # u along x, v along y
    assert got.tolist() == [u[i] * v[j] for i, j in lattice(3, 2)[:6].tolist()]


def adapted_meshes(dim, seed):
    """A uniform mesh, then random refinements and one coarsening."""
    rng = np.random.default_rng(seed)
    mesh = build_uniform(dim, 2 + (dim == 1))
    yield mesh
    for round_ in range(4):
        mask = np.zeros(mesh.n_leaves, dtype=bool)
        if round_ < 3:
            mask[rng.choice(mesh.n_leaves, size=max(1, mesh.n_leaves // 4), replace=False)] = True
            mesh, _ = execute_refine(mesh, mask)
        else:
            mask[rng.random(mesh.n_leaves) < 0.7] = True
            mesh, _ = execute_coarsen(mesh, mask)
        yield mesh


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("dim", [1, 2])
def test_tables_and_numberings_match_the_per_module_forms(dim, p):
    for n_q in range(p + 1, 6):
        got, want = _tables(dim, p, n_q), reference.tables(dim, p, n_q)
        same_bits(got[0], want[0])
        assert len(got[1]) == len(want[1]) == dim
        for g, w in zip(got[1], want[1]):
            same_bits(g, w)
        for g, w in zip(got[2:5], want[2:]):
            same_bits(g, w)
        rule = gauss_legendre(n_q)
        same_bits(tensor_weights(rule, dim), reference.tensor_weights(rule, dim))
    for child in range(2**dim):
        same_bits(_child_interp(dim, p, child), reference.child_interp(dim, p, child))
    for level in range(7):
        mesh = build_uniform(dim, level)
        levels, anchors = reference.uniform_leaves(dim, level)
        same_bits(mesh.levels, levels)
        same_bits(mesh.anchors, anchors)

    n_hanging = 0
    for seed in range(3):
        for mesh in adapted_meshes(dim, seed):
            for n_q in range(p + 1, 6):
                same_bits(gauss_point_coords(mesh, n_q), reference.gauss_point_coords(mesh, n_q))
            nn = enumerate_nodes(mesh, p)
            keys, elem_nodes, coords = reference.numbering(mesh, p)
            same_bits(nn.node_keys, keys)
            same_bits(nn.elem_nodes, elem_nodes)
            same_bits(nn.node_coords, coords)
            dof_of_node, t = reference.constraints(mesh, p, len(keys), elem_nodes)
            same_bits(nn.dof_of_node, dof_of_node)
            assert nn.constraint_matrix.shape == t.shape
            for attr in ("indptr", "indices", "data"):
                same_bits(getattr(nn.constraint_matrix, attr), getattr(t, attr))
            same_bits(nn.dissection_order, reference.dissection_order(keys, dof_of_node, dim))
            n_hanging += nn.n_nodes - nn.n_dofs
    assert dim == 1 or n_hanging > 0
