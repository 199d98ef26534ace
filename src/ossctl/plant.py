"""LTI plant model, the disturbance-length check, and the standing
well-posedness checks (stabilizability, detectability, full row rank of
[A B])."""

from dataclasses import dataclass

import numpy as np

from ._linalg import numerical_rank
from .errors import PlantError

# PBH tests only need eigenvalues of A; the margin absorbs eigenvalue round-off
# so that marginally stable modes are still tested.
_PBH_REAL_PART_MARGIN = 1e-10


@dataclass(frozen=True)
class LtiPlant:
    """x' = A x + B u + d, y = C x (no direct feedthrough)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        n = A.shape[0]
        if A.shape != (n, n):
            raise PlantError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise PlantError(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise PlantError(f"C has {C.shape[1]} columns, expected {n}")
        if self.m > n or self.p > n:
            raise PlantError(
                f"require m <= n and p <= n, got n={n}, m={self.m}, p={self.p}"
            )

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def stacked_AB(self) -> np.ndarray:
        return np.hstack([self.A, self.B])


def check_disturbance(plant: LtiPlant, d: np.ndarray) -> np.ndarray:
    d = np.asarray(d, dtype=float).ravel()
    if d.shape != (plant.n,):
        raise PlantError(f"disturbance has length {d.size}, expected {plant.n}")
    return d


def _pbh_full_rank(A: np.ndarray, B: np.ndarray) -> bool:
    """PBH test: rank [A - lambda I, B] = n at every eigenvalue of A with
    nonnegative real part."""
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if lam.real < -_PBH_REAL_PART_MARGIN:
            continue
        M = np.hstack([A - lam * np.eye(n), B]).astype(complex)
        if numerical_rank(M) < n:
            return False
    return True


def check_stabilizable(plant: LtiPlant) -> bool:
    """(A, B) is stabilizable."""
    return _pbh_full_rank(plant.A, plant.B)


def check_detectable(plant: LtiPlant) -> bool:
    """(C, A) is detectable: (A', C') is stabilizable."""
    return _pbh_full_rank(plant.A.T, plant.C.T)


def check_full_row_rank_AB(plant: LtiPlant) -> bool:
    """rank [A B] = n; guarantees a forced equilibrium exists for every d."""
    return numerical_rank(plant.stacked_AB()) == plant.n
