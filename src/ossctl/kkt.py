"""Subspace form of the optimality conditions: the nullspace basis Q of
[A B], its output-space projection R, and residual evaluation.

The controller drives Q' grad_f (equivalently R' grad_g) to zero; together
with the plant's equilibrium equation this is exactly the first-order
optimality system, with no dual variables materialized.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import KktError
from .objective import SteadyStateObjective
from .plant import EquilibriumPoint, LtiPlant, check_disturbance


@dataclass(frozen=True)
class KktGeometry:
    """Q: (n+m) x m orthonormal basis of null [A B]; R = blkdiag(C, I_m) Q.

    Note: Q is stored with basis vectors as columns, so that Q' grad_f is an
    m-vector.  (Some write-ups print the transposed shape for Q while still
    forming Q' grad_f; the column convention used here is the one consistent
    with that product.)
    """

    Q: np.ndarray
    R: np.ndarray

    @property
    def m(self) -> int:
        return self.Q.shape[1]


def build_kkt_geometry(plant: LtiPlant) -> KktGeometry:
    """Orthonormal nullspace basis of [A B] via SVD, plus the projection R."""
    AB = plant.stacked_AB()
    _, s, Vt = np.linalg.svd(AB)
    tol = max(AB.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.count_nonzero(s > tol))
    nullity = AB.shape[1] - rank
    if nullity != plant.m:
        raise KktError(
            f"nullspace dimension {nullity} != m={plant.m}; "
            "rank [A B] = n (stabilizability) violated"
        )
    Q = Vt[rank:].T
    blk = np.block(
        [
            [plant.C, np.zeros((plant.p, plant.m))],
            [np.zeros((plant.m, plant.n)), np.eye(plant.m)],
        ]
    )
    return KktGeometry(Q=Q, R=blk @ Q)


def kkt_residual(
    plant: LtiPlant,
    geometry: KktGeometry,
    objective: SteadyStateObjective,
    point: EquilibriumPoint,
    d: np.ndarray,
) -> tuple[float, float]:
    """(feasibility, gradient) residual norms of the optimality system.

    Both are zero exactly at a global optimizer of the steady-state program.
    """
    d = check_disturbance(plant, d)
    feas = np.linalg.norm(plant.A @ point.x_bar + plant.B @ point.u_bar + d)
    y = plant.C @ point.x_bar
    grad = np.linalg.norm(geometry.R.T @ objective.gradient(y, point.u_bar))
    return float(feas), float(grad)


def nullspace_equivalence(plant_a: LtiPlant, plant_b: LtiPlant, tol: float = 1e-8) -> bool:
    """True iff null [A B] coincides for the two plants (principal angles
    below tol)."""
    if (plant_a.n, plant_a.m) != (plant_b.n, plant_b.m):
        raise KktError("plants must share state and input dimensions")
    Qa = build_kkt_geometry(plant_a).Q
    Qb = build_kkt_geometry(plant_b).Q
    angles = scipy.linalg.subspace_angles(Qa, Qb)
    return bool(angles.size == 0 or angles.max() < tol)
