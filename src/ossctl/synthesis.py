"""Dynamic stabilizer synthesis for plants where no PI gain certifies, and
the one plant-with-controller interconnection, closed_loop, that the LMI,
synthesis and simulation layers all read.

The gradient nonlinearity in sector [kappa, L] is loop-shifted to the
symmetric sector [-1, 1] (center c = (L+kappa)/2, radius r = (L-kappa)/2)
and absorbed into a generalized plant whose measurement channel is
sigma = (y, eta, e).  An output-feedback controller holding the L2 gain of
the transformed channel below 0.99 is the central H-infinity controller of
two Riccati equations (Doyle, Glover, Khargonekar & Francis, IEEE TAC
1989), on the plant regularized by eps = 1e-2 and with A shifted to
A + rho I; gain below one certifies the nonlinear loop by small gain, and
the shifted loop's gain below one certifies its decay at rate rho.
"""

from dataclasses import dataclass, replace

import numpy as np

from ._linalg import _kyp_hamiltonian, _stabilizing_solution, hinf_norm
from .controller import DynamicStabilizer
from .errors import SynthesisError
from .kkt import KktGeometry
from .plant import LtiPlant

#: the one gain level solved for; any certified level below one suffices
_GAMMA = 0.99

#: weight of the regularizing noise on every state and measurement, and of
#: the state output added to z: the problem as posed is singular
_EPS = 1e-2

#: the decay-rate shifts rho tried in turn: 2 halving down to 2^-9, then 0
_RATES = tuple(2.0**-k for k in range(-1, 10)) + (0.0,)

# perfbench/tracing.py, written when a splitting SDP solver solved the
# synthesis LMI, still wraps this name and lmi's re-import of it; nothing
# in the program calls it
solve_feasibility = None


@dataclass(frozen=True)
class AugmentedPlant:
    """Generalized plant: open_loop, or its sector shift by loop_transform.

    Channels: w (the nonlinearity output, dimension p+m: grad_g, or its
    shifted form w_tilde), z (its input), y_meas = sigma = (y, eta, e),
    u (control).  State is (x, eta).
    """

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C1: np.ndarray
    D12: np.ndarray
    C2: np.ndarray
    D21: np.ndarray
    D22: np.ndarray
    p: int
    m: int


@dataclass(frozen=True)
class SynthesisResult:
    stabilizer: DynamicStabilizer
    gamma: float
    rate: float  # the certified decay rate rho
    hinf_achieved: float


def open_loop(plant: LtiPlant, geometry: KktGeometry) -> AugmentedPlant:
    """The generalized plant of the loop before any sector shift: inputs
    w = grad_g and u, outputs z = (y, u) and sigma = (y, eta, e) with
    e = -R' w, state (x, eta).  Every closed loop is this plant closed by a
    stabilizer (closed_loop_system)."""
    n, m, p = plant.n, plant.m, plant.p
    RT = geometry.R.T
    ng = n + m
    nw = p + m
    return AugmentedPlant(
        A=np.block([[plant.A, np.zeros((n, m))], [np.zeros((m, ng))]]),
        B1=np.vstack([np.zeros((n, nw)), -RT]),
        B2=np.vstack([plant.B, np.zeros((m, m))]),
        C1=np.block([[plant.C, np.zeros((p, m))], [np.zeros((m, ng))]]),
        D12=np.vstack([np.zeros((p, m)), np.eye(m)]),
        C2=np.block(
            [
                [plant.C, np.zeros((p, m))],
                [np.zeros((m, n)), np.eye(m)],
                [np.zeros((m, ng))],
            ]
        ),
        D21=np.vstack([np.zeros((p, nw)), np.zeros((m, nw)), -RT]),
        D22=np.zeros((p + 2 * m, m)),
        p=p,
        m=m,
    )


def loop_transform(
    plant: LtiPlant, geometry: KktGeometry, kappa: float, lipschitz: float
) -> AugmentedPlant:
    """The open loop with the sector-[kappa, L] gradient replaced by a
    sector-[-1, 1] uncertainty via w = c z + r w_tilde.

    kappa = L (zero radius) is the degenerate linear case: the uncertainty
    channel carries zero gain and synthesis reduces to plain stabilization.
    """
    if not (0 < kappa <= lipschitz):
        raise SynthesisError("need 0 < kappa <= L")
    if not np.isfinite(lipschitz):
        raise SynthesisError("loop transformation requires a finite Lipschitz bound")
    c = 0.5 * (lipschitz + kappa)
    r = 0.5 * (lipschitz - kappa)
    o = open_loop(plant, geometry)
    return replace(
        o,
        A=o.A + c * (o.B1 @ o.C1),
        B1=r * o.B1,
        B2=o.B2 + c * (o.B1 @ o.D12),
        C2=o.C2 + c * (o.D21 @ o.C1),
        D21=r * o.D21,
        D22=c * (o.D21 @ o.D12),
    )


def _central_controller(aug: AugmentedPlant, rho: float) -> DynamicStabilizer | None:
    """The central controller holding gain 0.99 on aug with A shifted to
    A + rho I, written for aug itself, or None where the Riccati conditions
    fail (Zhou, Doyle & Glover, Robust and Optimal Control, 1996, the form
    with D12'C1 != 0 and B1 D21' != 0).

    D21 has rank at most m, so the plant is regularized by _EPS: noise on
    every state and measurement, and the state as a further output.  aug's
    channel is a sub-block of the regularized one, so it keeps the bound.
    After D21 D21' = I is normalized by a Cholesky factor, X and Y solve
    the two Riccati equations, and X, Y >= 0 with rho(XY) < gamma^2 gives
    the controller.  It is strictly proper and fed sigma0 = sigma - D22 u,
    the measurement without its feedthrough."""
    n = aug.A.shape[0]
    ny, nu = aug.D21.shape[0], aug.D12.shape[1]
    g2 = _GAMMA * _GAMMA
    A = aug.A + rho * np.eye(n)
    B1 = np.hstack([aug.B1, _EPS * np.eye(n), np.zeros((n, ny))])
    C1 = np.vstack([aug.C1, _EPS * np.eye(n)])
    D12 = np.vstack([aug.D12, np.zeros((n, nu))])
    D21 = np.hstack([aug.D21, np.zeros((ny, n)), _EPS * np.eye(ny)])
    # D12'D12 = I already: open_loop's D12 is [0; I], and the rows the
    # regularization adds are zero, so only the measurement is normalized
    Sy = np.linalg.inv(np.linalg.cholesky(D21 @ D21.T))  # y~ = Sy sigma0
    B2 = aug.B2
    C2, D21 = Sy @ aug.C2, Sy @ D21

    def riccati(A, B, C, D, nd):
        """Stabilizing P of the KYP form |C x + D v|^2 - gamma^2 |v_1|^2 on
        x' = A x + B v, v_1 the first nd inputs."""
        N = np.hstack([C, D])
        MM = N.T @ N
        MM[n : n + nd, n : n + nd] -= g2 * np.eye(nd)
        return _stabilizing_solution(_kyp_hamiltonian(A, B, MM))

    nd, nz = B1.shape[1], C1.shape[0]
    X = riccati(A, np.hstack([B1, B2]), C1, np.hstack([np.zeros((nz, nd)), D12]), nd)
    if X is None or np.linalg.eigvalsh(X)[0] < 0:
        return None
    # Y is X of the dual plant
    Y = riccati(
        A.T, np.hstack([C1.T, C2.T]), B1.T, np.hstack([np.zeros((nd, nz)), D21.T]), nz
    )
    if Y is None or np.linalg.eigvalsh(Y)[0] < 0:
        return None
    if np.abs(np.linalg.eigvals(X @ Y)).max() >= g2:
        return None
    F = -(B2.T @ X + D12.T @ C1)
    L = -(Y @ C2.T + B1 @ D21.T)
    ZL = np.linalg.solve(np.eye(n) - Y @ X / g2, L)
    # designed for A + rho I; the controller of aug has A_s shifted back
    A_s = aug.A + B1 @ B1.T @ X / g2 + B2 @ F + ZL @ (C2 + D21 @ B1.T @ X / g2)
    return DynamicStabilizer(
        A_s=A_s,
        B_s=-ZL @ Sy,
        C_s=F,
        D_s=np.zeros((nu, ny)),
        p=aug.p,
        m=aug.m,
    )


def closed_loop_system(aug: AugmentedPlant, stab):
    """(A, B, C, D) of the w -> z channel of aug with the stabilizer in
    feedback on sigma = C2 x + D21 w + D22 u, on the state (aug's state,
    x_s).  D22 is zero on open_loop; on a loop_transform plant it is the
    sector shift's path from u through e.  stab is a DynamicStabilizer, or
    any object with its four matrices stacked along a leading axis, which
    the loops then carry too (lmi.gain_grid_search closes a grid that way).
    With T = (I - D_s D22)^-1 the controller fed sigma is (A_s + B_s D22 T
    C_s, B_s (I + D22 T D_s), T C_s, T D_s), ill-posed where I - D_s D22 has
    s_min <= 1e-12 (1 + s_max) (its cond is 1 at m = 1)."""
    D22 = aug.D22
    well = np.eye(D22.shape[-1]) - stab.D_s @ D22
    s = np.linalg.svd(well, compute_uv=False)
    if (s[..., -1] <= 1e-12 * (1.0 + s[..., 0])).any():
        raise SynthesisError("controller/measurement feedthrough loop ill-posed")
    T = np.linalg.inv(well)
    C_s, D_s = T @ stab.C_s, T @ stab.D_s
    A_s = stab.A_s + stab.B_s @ D22 @ C_s
    B_s = stab.B_s @ (np.eye(D22.shape[0]) + D22 @ D_s)
    Acl = np.concatenate(
        [
            np.concatenate([aug.A + aug.B2 @ D_s @ aug.C2, aug.B2 @ C_s], axis=-1),
            np.concatenate([B_s @ aug.C2, A_s], axis=-1),
        ],
        axis=-2,
    )
    Bcl = np.concatenate([aug.B1 + aug.B2 @ D_s @ aug.D21, B_s @ aug.D21], axis=-2)
    Ccl = np.concatenate([aug.C1 + aug.D12 @ D_s @ aug.C2, aug.D12 @ C_s], axis=-1)
    Dcl = aug.D12 @ D_s @ aug.D21
    return Acl, Bcl, Ccl, Dcl


def closed_loop(plant: LtiPlant, geometry: KktGeometry, controller: DynamicStabilizer):
    """(A, B, C, D) of the loop the controller closes on the plant: input
    w = grad_g, output z = (y, u), state (x, eta, x_s)."""
    return closed_loop_system(open_loop(plant, geometry), controller)


def synthesize_stabilizer(
    plant: LtiPlant,
    geometry: KktGeometry,
    kappa: float,
    lipschitz: float,
) -> SynthesisResult:
    """The central controller of the loop-shifted plant (loop_transform) at
    gamma = 0.99, with a certified decay rate.

    The shifts rho of _RATES are tried from the largest down; the controller
    is designed one rung below the first that passes, off the edge where its
    gains blow up.  It is re-validated independently: the closed loop must be
    Hurwitz, its actual H-infinity norm must not exceed gamma, and so must
    that of the loop with A shifted by rho, which certifies decay at rate
    rho by small gain.
    """
    aug = loop_transform(plant, geometry, kappa, lipschitz)
    for i, rate in enumerate(_RATES):
        if _central_controller(aug, rate) is not None:
            break
    else:
        raise SynthesisError(
            f"no controller found at gamma = {_GAMMA:g}: the regularized "
            "Riccati conditions fail at every decay-rate shift down to 0"
        )
    rate = _RATES[min(i + 1, len(_RATES) - 1)]
    designed = _central_controller(aug, rate)
    if designed is None:
        raise SynthesisError(
            f"no controller found at gamma = {_GAMMA:g} and rate {rate:g}, "
            "one rung below a shift that passed"
        )
    # the design is fed sigma - D22 u; the stabilizer that runs is fed
    # sigma, and closing it on aug (which reads D22) gives the loop it runs;
    # with D_s = 0 that changes A_s alone
    stab = replace(designed, A_s=designed.A_s - designed.B_s @ aug.D22 @ designed.C_s)
    Acl, Bcl, Ccl, Dcl = closed_loop_system(aug, stab)
    achieved = hinf_norm(Acl, Bcl, Ccl, Dcl)
    if achieved == np.inf:
        raise SynthesisError("synthesized closed loop is not Hurwitz")
    if achieved > _GAMMA * (1.0 + 1e-6):
        raise SynthesisError(
            f"independent gain check failed: H-inf norm {achieved:.4g} exceeds "
            f"certified gamma {_GAMMA:.4g}"
        )
    shifted = hinf_norm(Acl + rate * np.eye(Acl.shape[0]), Bcl, Ccl, Dcl)
    if shifted > _GAMMA:
        raise SynthesisError(
            f"independent rate check failed: the loop shifted by {rate:g} has "
            f"H-inf norm {shifted:.4g} above gamma {_GAMMA:.4g}"
        )
    return SynthesisResult(
        stabilizer=stab,
        gamma=_GAMMA,
        rate=rate,
        hinf_achieved=achieved,
    )
