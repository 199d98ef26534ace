"""Dynamic stabilizer synthesis for plants where no PI gain certifies, and
the one plant-with-controller interconnection, closed_loop, that the LMI,
synthesis and simulation layers all read.

The gradient nonlinearity in sector [kappa, L] is loop-shifted to the
symmetric sector [-1, 1] (center c = (L+kappa)/2, radius r = (L-kappa)/2)
and absorbed into a generalized plant whose measurement channel is
sigma = (y, eta, e).  An output-feedback controller holding the L2 gain of
the transformed channel below 0.99 is then computed by the
variable-transformation LMI method; gain below one certifies the nonlinear
loop by small gain.
"""

from dataclasses import dataclass, replace

import numpy as np

from ._linalg import hinf_norm, is_hurwitz, smat, svec_dim
from .controller import DynamicStabilizer
from .errors import SynthesisError
from .kkt import KktGeometry
from .plant import LtiPlant
from .sdp import solve_feasibility

#: the one gain level solved for; any certified level below one suffices
_GAMMA = 0.99

#: sweep cap of the bounded-real LMI's DR solve
_MAX_SWEEPS = 6000


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
    D11: np.ndarray
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
    hinf_achieved: float
    loop_margin: float


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
        D11=np.zeros((nw, nw)),
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


def _bounded_real_feasible(aug: AugmentedPlant, gamma: float):
    """Solve the output-feedback synthesis LMI at a fixed gain level.

    Decision variables: symmetric (X, Y) plus the transformed controller
    parameters (Ah, Bh, Ch, Dh); feasibility of the two blocks (synthesis
    inequality, coupling [X I; I Y] > 0) at this gamma implies a controller
    achieving closed-loop gain below gamma exists.
    """
    Ap, B1, B2 = aug.A, aug.B1, aug.B2
    C1, D11, D12 = aug.C1, aug.D11, aug.D12
    C2, D21 = aug.C2, aug.D21
    ng, nw = B1.shape
    nz, nu = D12.shape
    ny = C2.shape[0]
    dS = svec_dim(ng)
    q = 2 * dS + ng * ng + ng * ny + nu * ng + nu * ny

    def unpack(v):
        o = 0
        X = smat(v[o : o + dS], ng)
        o += dS
        Y = smat(v[o : o + dS], ng)
        o += dS
        Ah = v[o : o + ng * ng].reshape(ng, ng)
        o += ng * ng
        Bh = v[o : o + ng * ny].reshape(ng, ny)
        o += ng * ny
        Ch = v[o : o + nu * ng].reshape(nu, ng)
        o += nu * ng
        Dh = v[o : o + nu * ny].reshape(nu, ny)
        return X, Y, Ah, Bh, Ch, Dh

    def S_synth(v):
        X, Y, Ah, Bh, Ch, Dh = unpack(v)
        b11 = Ap @ Y + Y @ Ap.T + B2 @ Ch + Ch.T @ B2.T
        b12 = Ah.T + (Ap + B2 @ Dh @ C2)
        b13 = B1 + B2 @ Dh @ D21
        b14 = Y @ C1.T + Ch.T @ D12.T
        b22 = X @ Ap + Ap.T @ X + Bh @ C2 + C2.T @ Bh.T
        b23 = X @ B1 + Bh @ D21
        b24 = C1.T + C2.T @ Dh.T @ D12.T
        b33 = -gamma * np.eye(nw)
        b34 = D11.T + D21.T @ Dh.T @ D12.T
        b44 = -gamma * np.eye(nz)
        S = np.block(
            [
                [b11, b12, b13, b14],
                [b12.T, b22, b23, b24],
                [b13.T, b23.T, b33, b34],
                [b14.T, b24.T, b34.T, b44],
            ]
        )
        return 0.5 * (S + S.T)

    def S_couple(v):
        X, Y, _, _, _, _ = unpack(v)
        return -np.block([[X, np.eye(ng)], [np.eye(ng), Y]])

    def certificate(v):
        Sb = S_synth(v)
        Sc = S_couple(v)
        l_synth = float(np.linalg.eigvalsh(Sb).max())
        l_couple = float(np.linalg.eigvalsh(Sc).max())
        ok = (
            l_synth < -1e-8 * max(np.linalg.norm(Sb), 1.0) and l_couple < -1e-9
        )
        return ok, (l_synth, l_couple)

    result = solve_feasibility(
        [S_synth, S_couple],
        q,
        margins=[1e-3, 1e-3],
        max_sweeps=_MAX_SWEEPS,
        check_every=25,
        certificate=certificate,
    )
    return result, unpack(result.v)


def _reconstruct(aug: AugmentedPlant, X, Y, Ah, Bh, Ch, Dh) -> DynamicStabilizer:
    """Invert the synthesis change of variables (factor I - XY = M N').

    The result K0 is the controller the LMI designed: it is fed
    sigma0 = sigma - D22 u, the measurement without its feedthrough."""
    ng = aug.A.shape[0]
    U, s, Vt = np.linalg.svd(np.eye(ng) - X @ Y)
    if s.min() < 1e-12 * s.max():
        raise SynthesisError("controller reconstruction singular (I - XY)")
    M = U * np.sqrt(s)
    N = Vt.T * np.sqrt(s)
    Mi = np.linalg.inv(M)
    NTi = np.linalg.inv(N.T)
    Dk = Dh
    Ck = (Ch - Dk @ aug.C2 @ Y) @ NTi
    Bk = Mi @ (Bh - X @ aug.B2 @ Dk)
    Ak = Mi @ (
        Ah - X @ (aug.A + aug.B2 @ Dk @ aug.C2) @ Y - M @ Bk @ aug.C2 @ Y
        - X @ aug.B2 @ Ck @ N.T
    ) @ NTi
    return DynamicStabilizer(A_s=Ak, B_s=Bk, C_s=Ck, D_s=Dk, p=aug.p, m=aug.m)


def _close_feedthrough(stab: DynamicStabilizer, D: np.ndarray) -> DynamicStabilizer:
    """stab fed sigma + D u, written as a controller fed sigma.

    With T = (I - D_s D)^-1 the input is u = T (C_s x_s + D_s sigma), so the
    controller is (A_s + B_s D C2, B_s (I + D D2), C2, D2) with C2 = T C_s
    and D2 = T D_s.  Passing -D undoes a feedthrough D."""
    well = np.eye(stab.m) - stab.D_s @ D
    if np.linalg.cond(well) > 1e12:
        raise SynthesisError("controller/measurement feedthrough loop ill-posed")
    T = np.linalg.inv(well)
    C2 = T @ stab.C_s
    D2 = T @ stab.D_s
    return DynamicStabilizer(
        A_s=stab.A_s + stab.B_s @ D @ C2,
        B_s=stab.B_s @ (np.eye(D.shape[0]) + D @ D2),
        C_s=C2,
        D_s=D2,
        p=stab.p,
        m=stab.m,
    )


def closed_loop_system(aug: AugmentedPlant, stab: DynamicStabilizer):
    """(A, B, C, D) of the w -> z channel of aug with the stabilizer in
    feedback on sigma = C2 x + D21 w + D22 u, on the state (aug's state,
    x_s).  D22 is zero on open_loop; on a loop_transform plant it is the
    sector shift's path from u through e."""
    stab = _close_feedthrough(stab, aug.D22)
    Acl = np.block(
        [
            [aug.A + aug.B2 @ stab.D_s @ aug.C2, aug.B2 @ stab.C_s],
            [stab.B_s @ aug.C2, stab.A_s],
        ]
    )
    Bcl = np.vstack([aug.B1 + aug.B2 @ stab.D_s @ aug.D21, stab.B_s @ aug.D21])
    Ccl = np.hstack([aug.C1 + aug.D12 @ stab.D_s @ aug.C2, aug.D12 @ stab.C_s])
    Dcl = aug.D11 + aug.D12 @ stab.D_s @ aug.D21
    return Acl, Bcl, Ccl, Dcl


def closed_loop(plant: LtiPlant, geometry: KktGeometry, controller: DynamicStabilizer):
    """(A, B, C, D) of the loop the controller closes on the plant: input
    w = grad_g, output z = (y, u), state (x, eta, x_s)."""
    return closed_loop_system(open_loop(plant, geometry), controller)


def _loop_margin(stab: DynamicStabilizer, geometry: KktGeometry, lipschitz: float) -> float:
    """Positive iff the e-channel algebraic loop is provably well-posed for
    every gradient in the sector: ||D_e|| L ||R||^2 < 1 is sufficient since
    the loop Jacobian is I + D_e R' H_u with ||R' H_u|| <= L ||R||."""
    de = np.linalg.norm(stab.D_s_e, 2)
    rn = np.linalg.norm(geometry.R, 2)
    return 1.0 - de * lipschitz * rn


def synthesize_stabilizer(
    plant: LtiPlant,
    geometry: KktGeometry,
    kappa: float,
    lipschitz: float,
) -> SynthesisResult:
    """Solve the bounded-real LMI of the loop-shifted plant
    (loop_transform) once, at gamma = 0.99.

    Feasibility is monotone in gamma and only a level below one certifies
    the loop by small gain, so one solve decides.  The reconstructed
    controller is re-validated independently: the closed loop must be
    Hurwitz, its actual H-infinity norm must not exceed gamma, and the
    e-channel algebraic loop must stay well posed over the whole sector.
    """
    aug = loop_transform(plant, geometry, kappa, lipschitz)
    result, (X, Y, Ah, Bh, Ch, Dh) = _bounded_real_feasible(aug, _GAMMA)
    if not result.feasible:
        raise SynthesisError(
            f"bounded-real LMI {result.status} at gamma = {_GAMMA:g} "
            f"({result.sweeps} sweeps)"
        )
    # the LMI designed K0 for sigma - D22 u; the stabilizer that runs is fed
    # sigma, and closing it on aug (which reads D22) gives the loop it runs
    stab = _close_feedthrough(_reconstruct(aug, X, Y, Ah, Bh, Ch, Dh), -aug.D22)
    Acl, Bcl, Ccl, Dcl = closed_loop_system(aug, stab)
    if not is_hurwitz(Acl):
        raise SynthesisError("reconstructed closed loop is not Hurwitz")
    achieved = hinf_norm(Acl, Bcl, Ccl, Dcl)
    if achieved > _GAMMA * (1.0 + 1e-6):
        raise SynthesisError(
            f"independent gain check failed: H-inf norm {achieved:.4g} exceeds "
            f"certified gamma {_GAMMA:.4g}"
        )
    return SynthesisResult(
        stabilizer=stab,
        gamma=_GAMMA,
        hinf_achieved=achieved,
        loop_margin=_loop_margin(stab, geometry, lipschitz),
    )

