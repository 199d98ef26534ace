"""Absolute-stability certificate for the PI-interconnected loop.

The gradient nonlinearity is treated as a sector-bounded uncertainty
(sector [kappa, L] from strong convexity and gradient Lipschitz-ness), and
a circle-criterion style matrix inequality is solved for a Lyapunov
certificate.  One deviation from the textbook statement is deliberate: the
Lyapunov matrix is constrained positive definite here, since with P left
free the inequality alone does not rule out unstable loops (a concrete
counterexample lives in the test suite).
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import smat, svec_dim
from .controller import PiGains
from .errors import LmiError
from .kkt import KktGeometry
from .plant import LtiPlant
from .sdp import AffineBlock, solve_feasibility

# default strict-feasibility shifts: O(1) on the main inequality (valid by
# homogeneity in (P, alpha)), small on P > 0 so the P block does not distort
# the geometry of the main one
_MARGIN_MAIN = 1.0
_MARGIN_P = 1e-4


@dataclass(frozen=True)
class RealizationH:
    """State-space data of the linear part seen by the gradient nonlinearity.

    States (x, eta); input the stacked gradient; outputs (y, K_I eta) plus a
    feedthrough copy of the input, matching the multiplier's signal layout.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class SectorMultiplier:
    """Quadratic form certifying the sector bound on the loop nonlinearity."""

    M: np.ndarray
    kappa: float
    lipschitz: float


@dataclass(frozen=True)
class LmiCertificate:
    P: np.ndarray
    alpha: float
    eig_S_max: float
    eig_P_min: float
    sweeps: int
    feasible: bool
    status: str


def build_realization(
    plant: LtiPlant, geometry: KktGeometry, gains: PiGains
) -> RealizationH:
    """Linear fractional form of plant + PI law with the cost gradient pulled
    out as an external nonlinearity."""
    n, m, p = plant.n, plant.m, plant.p
    RT = geometry.R.T
    A = np.block(
        [[plant.A, plant.B @ gains.K_I], [np.zeros((m, n + m))]]
    )
    B = np.vstack([plant.B @ gains.K_P @ RT, RT])
    C = np.block(
        [[plant.C, np.zeros((p, m))], [np.zeros((m, n)), gains.K_I]]
    )
    D = np.vstack([np.zeros((p, p + m)), gains.K_P @ RT])
    return RealizationH(A=A, B=B, C=C, D=D)


def build_multiplier(kappa: float, lipschitz: float, size: int) -> SectorMultiplier:
    """Sector multiplier for a gradient in sector [kappa, L] on R^size.

    For L = inf the quadratic form degenerates to the one-sided (monotone
    plus kappa) version.
    """
    if kappa < 0:
        raise LmiError("kappa must be nonnegative")
    if lipschitz <= 0:
        raise LmiError("lipschitz must be positive (possibly inf)")
    if np.isinf(lipschitz):
        core = np.array([[-2.0 * kappa, -1.0], [-1.0, 0.0]])
    else:
        if kappa > lipschitz:
            raise LmiError("kappa must not exceed lipschitz")
        core = np.array(
            [
                [-2.0 * kappa * lipschitz, -(kappa + lipschitz)],
                [-(kappa + lipschitz), -2.0],
            ]
        )
    return SectorMultiplier(
        M=np.kron(core, np.eye(size)), kappa=kappa, lipschitz=lipschitz
    )


def assemble_lmi(
    realization: RealizationH, multiplier: SectorMultiplier
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Selector matrices (N1, N2, N3) of the inequality

        N1' P N2 + N2' P N1 + alpha N3' M N3 < 0.
    """
    nm = realization.n_states
    pm = realization.n_inputs
    N1 = np.hstack([np.eye(nm), np.zeros((nm, pm))])
    N2 = np.hstack([realization.A, realization.B])
    N3 = np.vstack(
        [
            np.hstack([realization.C, realization.D]),
            np.hstack([np.zeros((pm, nm)), np.eye(pm)]),
        ]
    )
    return N1, N2, N3


def verify_stability(
    plant: LtiPlant,
    geometry: KktGeometry,
    gains: PiGains,
    kappa: float,
    lipschitz: float,
    max_sweeps: int = 4000,
) -> LmiCertificate:
    """Search for a Lyapunov certificate (P > 0, alpha >= 0) of the sector
    inequality; the returned certificate is validated by eigenvalue checks on
    the actual matrices, independently of the solver's internal state."""
    realization = build_realization(plant, geometry, gains)
    nm = realization.n_states
    pm = realization.n_inputs
    multiplier = build_multiplier(kappa, lipschitz, pm)
    N1, N2, N3 = assemble_lmi(realization, multiplier)
    with np.errstate(over="ignore", invalid="ignore"):
        MM = N3.T @ multiplier.M @ N3
    if not (np.isfinite(N2).all() and np.isfinite(MM).all()):
        raise LmiError("sector-LMI data overflows: a gain or sector bound is too large")
    dP = svec_dim(nm)
    q = dP + 1  # svec(P) plus alpha

    def S_main(v):
        P = smat(v[:dP], nm)
        S = N1.T @ P @ N2 + N2.T @ P @ N1 + v[dP] * MM
        return 0.5 * (S + S.T)

    def S_pos(v):
        return -smat(v[:dP], nm)

    def certificate(v):
        P = smat(v[:dP], nm)
        S = S_main(v)
        eig_S = float(np.linalg.eigvalsh(S).max())
        eig_P = float(np.linalg.eigvalsh(P).min())
        s_scale = max(np.linalg.norm(S, "fro"), 1e-30)
        p_scale = max(np.linalg.norm(P, "fro"), 1e-30)
        ok = (
            eig_S < -1e-8 * s_scale
            and eig_P > 1e-10 * p_scale
            and v[dP] >= 0.0
        )
        return ok, (eig_S, eig_P)

    result = solve_feasibility(
        [AffineBlock(nm + pm, S_main), AffineBlock(nm, S_pos)],
        q,
        nonneg=(dP,),
        margins=[_MARGIN_MAIN, _MARGIN_P],
        max_sweeps=max_sweeps,
        certificate=certificate,
    )
    eig_S, eig_P = result.certificate_info
    return LmiCertificate(
        P=smat(result.v[:dP], nm),
        alpha=float(result.v[dP]),
        eig_S_max=eig_S,
        eig_P_min=eig_P,
        sweeps=result.sweeps,
        feasible=result.feasible,
        status=result.status,
    )


def gain_grid_search(
    plant: LtiPlant,
    geometry: KktGeometry,
    kp_values,
    ki_values,
    kappa: float,
    lipschitz: float,
    max_sweeps: int = 4000,
) -> list[dict]:
    """Certify every (k_p, k_i) scalar-gain pair on a grid.

    Returns one record per pair with the certification outcome; rows are
    ordered with k_p as the outer loop.
    """
    records = []
    for kp in kp_values:
        for ki in ki_values:
            gains = PiGains.from_scalars(float(kp), float(ki), plant.m)
            cert = verify_stability(
                plant, geometry, gains, kappa, lipschitz, max_sweeps=max_sweeps
            )
            records.append(
                {
                    "k_p": float(kp),
                    "k_i": float(ki),
                    "certified": cert.feasible,
                    "status": cert.status,
                    "eig_S_max": cert.eig_S_max,
                    "eig_P_min": cert.eig_P_min,
                    "sweeps": cert.sweeps,
                }
            )
    return records
