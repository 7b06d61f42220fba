"""Marking criteria and the refine-then-coarsen adaptation cycle.

A criterion answers two questions about a field, each with one bool per
leaf: ``refine(field)``, which leaves to split, and ``coarsen(field)``,
which leaves may merge with their siblings.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import _check_band, _check_positive, _check_unit
from .fem import NodalField, _element_rule, _square_sum, eval_at_gauss, eval_grad_at_gauss
from .mesh import execute_coarsen, execute_refine, sibling_families
from .transfer import (
    TransferMode,
    refine_leaf_field,
    transfer_coarsen_conservative,
    transfer_coarsen_injection,
)

__all__ = [
    "MmsCriterion",
    "InterfaceCriterion",
    "element_gradient_norms",
    "mark_mms",
    "mark_interface",
    "adapt_cycle",
    "CycleStats",
]


def element_gradient_norms(field: NodalField) -> np.ndarray:
    """Per-element L2 norm of the gradient, by Gauss quadrature.

    eta_e = sqrt(sum_q w_q |J| |grad phi(x_q)|^2), one value per leaf.
    """
    grads = eval_grad_at_gauss(field)
    w, jac = _element_rule(field.mesh, field.p, field.p + 1)
    sq = _square_sum(grads) @ w
    return np.sqrt(np.maximum(sq * jac, 0.0))


@dataclass
class MmsCriterion:
    """Coarsen-only criterion for the two-level manufactured-solution runs.

    Level-l leaves whose gradient indicator falls below tau are flagged, and
    so is the lowest-indicator 10% of all leaves (restricted to level l).
    Leaves already at l-1 never change.
    """

    tau: float
    fine_level: int
    fraction: float = 0.10

    def __post_init__(self):
        _check_positive(tau=self.tau)
        _check_unit(fraction=self.fraction)

    def refine(self, field: NodalField) -> np.ndarray:
        return np.zeros(field.mesh.n_leaves, dtype=bool)

    def coarsen(self, field: NodalField) -> np.ndarray:
        return mark_mms(field, self)


@dataclass
class InterfaceCriterion:
    """Two-level band criterion for phase-field runs.

    An element is interface when any nodal or Gauss value of the field lies
    in [band_lo, band_hi] (open interval when ``closed`` is False). Interface
    elements are pushed toward the fine level, everything else toward the
    bulk level, one level per cycle.
    """

    band_lo: float
    band_hi: float
    bulk_level: int
    interface_level: int
    closed: bool = True

    def __post_init__(self):
        if self.bulk_level >= self.interface_level:
            raise ValueError("bulk level must be below interface level")
        _check_band(self.band_lo, self.band_hi, self.closed)

    def refine(self, field: NodalField) -> np.ndarray:
        return mark_interface(field, self) & (field.mesh.levels < self.interface_level)

    def coarsen(self, field: NodalField) -> np.ndarray:
        return ~mark_interface(field, self) & (field.mesh.levels > self.bulk_level)


def mark_mms(field: NodalField, crit: MmsCriterion) -> np.ndarray:
    """Coarsen mask of the manufactured-solution criterion.

    Two clauses, combined by union. Threshold clause: level-l leaves with
    eta below tau. Fraction clause: the lowest-indicator complete level-l
    sibling families, taken in ascending order of their worst child, until
    10% of all leaves are spent. Flagging whole families is what guarantees
    the rule actually produces merges each cycle (stray single-leaf flags
    would be dropped at execution time); ties break by Morton position.
    A mesh with no leaf at level l gets the empty mask without computing eta.
    """
    mesh = field.mesh
    at_fine = mesh.levels == crit.fine_level
    coarsen = np.zeros(mesh.n_leaves, dtype=bool)
    if not at_fine.any():
        return coarsen
    eta = element_gradient_norms(field)
    coarsen[at_fine & (eta < crit.tau)] = True
    nchild = 2**mesh.dim
    budget = int(crit.fraction * mesh.n_leaves)
    if budget >= nchild:
        starts = sibling_families(mesh, at_fine)
        children = starts[:, None] + np.arange(nchild)
        ranked = np.lexsort((starts, eta[children].max(axis=1)))
        coarsen[children[ranked[: budget // nchild]]] = True
    return coarsen


def mark_interface(field: NodalField, crit: InterfaceCriterion) -> np.ndarray:
    """Interface mask of the band criterion: leaves with a nodal or Gauss value in the band."""
    samples = np.concatenate([field.element_values(), eval_at_gauss(field).values], axis=1)
    if crit.closed:
        in_band = (samples >= crit.band_lo) & (samples <= crit.band_hi)
    else:
        in_band = (samples > crit.band_lo) & (samples < crit.band_hi)
    return in_band.any(axis=1)


@dataclass
class CycleStats:
    n_refined: int = 0
    n_merged: int = 0
    delta_e: float = 0.0
    energy: float | None = None  # of the conserved field on the returned mesh, if computed


def _release_operators(mesh) -> None:
    for nn in mesh._numberings.values():
        nn.release_operators()


def adapt_cycle(
    fields: dict[str, NodalField],
    modes: dict[str, TransferMode],
    conserved: str,
    criterion,
    energy_fn=None,
    project_tol: float = 1e-12,
):
    """One adaptation cycle: refine stage, then coarsen stage.

    Marking is driven by the conserved field. Only the returned mesh gets a
    node numbering. The refine stage interpolates every field leaf by leaf
    onto the refined mesh (``refine_leaf_field``); marking and coarsening
    read those per-leaf values, and during coarsening each field uses its
    own TransferMode (injection if none); a block field, (n_dofs, k) values,
    crosses each stage as one array: refinement interpolates its k columns
    together, and injection reduces them together through
    ``apply_restriction`` with the 0/1 ``injection_matrix``. When nothing
    merges, the per-leaf values are scattered onto the refined mesh. When
    merges happen and an energy functional is supplied, the energy mismatch
    of the conserved field across the coarsening transfer is recorded,
    together with the energy after it.

    As soon as a stage returns a new mesh, every numbering of the mesh it
    replaces releases its operators (``NodeNumbering.release_operators``),
    before any transfer assembles on the new mesh: the transfers still read
    the old fields, but no old operator. A cycle that returns its input mesh
    releases nothing, so operators cached on a static mesh survive it.
    """
    mesh = fields[conserved].mesh
    stats = CycleStats()

    refine = criterion.refine(fields[conserved])
    if refine.any():
        new_mesh, record = execute_refine(mesh, refine)
        _release_operators(mesh)
        stats.n_refined = new_mesh.n_leaves - mesh.n_leaves
        fields = {k: refine_leaf_field(f, record) for k, f in fields.items()}
        mesh = new_mesh

    coarsen = criterion.coarsen(fields[conserved])
    if coarsen.any():
        new_mesh, record = execute_coarsen(mesh, coarsen)
        if len(record.merges):
            _release_operators(mesh)
            stats.n_merged = len(record.merges)
            before = fields[conserved]
            new_fields = {}
            for name, f in fields.items():
                if modes.get(name, TransferMode.INJECTION) is TransferMode.CONSERVATIVE:
                    new_fields[name] = transfer_coarsen_conservative(f, record, tol=project_tol)
                else:
                    new_fields[name] = transfer_coarsen_injection(f, record)
            if energy_fn is not None:
                stats.energy = float(energy_fn(new_fields[conserved]))
                stats.delta_e = abs(float(energy_fn(before)) - stats.energy)
            fields = new_fields
            mesh = new_mesh

    if stats.n_refined and not stats.n_merged:  # the refined mesh is the one returned
        fields = {k: f.nodal() for k, f in fields.items()}
    return mesh, fields, stats
