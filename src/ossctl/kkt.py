"""Subspace form of the optimality conditions: the nullspace basis Q of
[A B], its output-space projection R, and the one residual evaluation.

The controller drives Q' grad_f (equivalently R' grad_g) to zero; together
with the plant's equilibrium equation this is exactly the first-order
optimality system, with no dual variables materialized.
"""

from dataclasses import dataclass

import numpy as np

from .errors import KktError
from .objective import SteadyStateObjective
from .plant import LtiPlant, check_disturbance


@dataclass(frozen=True)
class KktGeometry:
    """Q: (n+m) x m orthonormal basis of null [A B]; R = blkdiag(C, I_m) Q;
    AB_pinv: the (n+m) x n pseudo-inverse of [A B] (full row rank).

    Note: Q is stored with basis vectors as columns, so that Q' grad_f is an
    m-vector.  (Some write-ups print the transposed shape for Q while still
    forming Q' grad_f; the column convention used here is the one consistent
    with that product.)
    """

    Q: np.ndarray
    R: np.ndarray
    AB_pinv: np.ndarray

    @property
    def m(self) -> int:
        return self.Q.shape[1]


def build_kkt_geometry(plant: LtiPlant) -> KktGeometry:
    """Nullspace basis Q, projection R and pseudo-inverse of [A B], from one SVD."""
    AB = plant.stacked_AB()
    U, s, Vt = np.linalg.svd(AB)
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
    return KktGeometry(Q=Q, R=blk @ Q, AB_pinv=Vt[:rank].T @ (U.T / s[:, None]))


def kkt_residual(
    plant: LtiPlant,
    geometry: KktGeometry,
    objective: SteadyStateObjective,
    x: np.ndarray,
    u: np.ndarray,
    d: np.ndarray,
) -> tuple[float, float]:
    """(feasibility, gradient) residual norms of the optimality system at
    the equilibrium (x, u): ||A x + B u + d|| and ||R' grad_g(C x, u)||.

    Both are zero exactly at a global optimizer of the steady-state program.
    """
    d = check_disturbance(plant, d)
    feas = np.linalg.norm(plant.A @ x + plant.B @ u + d)
    grad = np.linalg.norm(geometry.R.T @ objective.gradient(plant.C @ x, u))
    return float(feas), float(grad)
