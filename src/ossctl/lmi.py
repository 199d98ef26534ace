"""Absolute-stability certificate for the loop closed by a dynamic
stabilizer (a PI law is its zero-order case).

The gradient nonlinearity is treated as a sector-bounded uncertainty
(sector [kappa, L] from strong convexity and gradient Lipschitz-ness), and
the circle-criterion style matrix inequality

    S(P, alpha) = [[A'P + PA, PB], [B'P, 0]] + alpha MM < 0,   P > 0

is decided for a Lyapunov certificate.  (A, B, C, D) is synthesis.closed_loop,
with its input read as w = +grad_g(z) and its output z = (y, u), the same
sign as in every other layer; MM is the sector form (z, w)' M (z, w) >= 0 on
(x, w).  The inequality is homogeneous in (P, alpha), and alpha = 0 leaves
its w-w block 0, so alpha = 1 is fixed.  It is a KYP inequality (Willems,
IEEE TAC 1971; Rantzer, "On the Kalman-Yakubovich-Popov lemma", SCL 1996),
decided in four steps with no iterative solver:

1. omega = inf.  The w-w block of S is alpha times that of MM; if the latter
   is not negative definite, the pair is "infeasible".
2. Shift to the lower sector edge.  w = kappa z + w~ is a congruence on
   (x, w), so it keeps P and alpha.  The loop becomes
   A_k = A + kappa B (I - kappa D)^-1 C, and the shifted form MM_k has an x-x
   block of exactly 0, so S < 0 needs A_k'P + P A_k < 0.  If A_k is not
   Hurwitz, the linear member w = kappa z destabilizes the loop and the pair
   is "infeasible"; if it is, P > 0 follows from S < 0.
3. Hamiltonian test.  The frequency form xi* MM_k xi, with
   xi(w) = [(jwI - A_k)^-1 B_k; I], is negative at omega = inf and can only
   turn nonnegative through a frequency where it is singular, which is an
   imaginary-axis eigenvalue of the inequality's Riccati Hamiltonian.  The
   unshifted form xi* MM xi, congruent to it at every omega > 0 that is not
   a pole of A, is evaluated between consecutive crossings (at a crossing
   itself its largest eigenvalue is 0); a positive eigenvalue there makes
   the pair "infeasible".
4. Riccati certificate.  Otherwise the Riccati equation with its constant
   term raised by eps ||MM_k|| I, for eps = 1e-1, 1e-2, ..., 1e-8 in turn,
   gives candidate P's: its stabilizing solution, read off the stable
   invariant subspace of the same Hamiltonian (Laub, IEEE TAC 1979).  The
   first P that passes the eigenvalue check on the unshifted inequality
   makes the pair "feasible".  If none does, and a rung's P failed the check
   just below a rung whose Hamiltonian has imaginary-axis eigenvalues (no
   stabilizing solution), eps is bisected between the two; a P that passes
   there makes the pair "feasible", and otherwise it is "undecided".

So "feasible" rests only on the eigenvalue check of S(P, 1) and P, and
"infeasible" only on a witness the caller can re-evaluate: a frequency at
which the sector form has a positive eigenvalue (on xi the P terms of S
vanish for every symmetric P, so xi* S xi = alpha xi* MM xi), or a linear
member of the sector whose loop is not Hurwitz.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from ._linalg import (
    _crossing_midpoints,
    _form_max,
    _kyp_hamiltonian,
    _stabilizing_solution,
    _xi,
)
from .controller import DynamicStabilizer
from .errors import LmiError
from .kkt import KktGeometry
from .plant import LtiPlant
from .synthesis import closed_loop, solve_feasibility  # noqa: F401  (see synthesis)

# a frequency witness's eigenvalue must exceed this fraction of ||xi* MM xi||_F
_WITNESS_RTOL = 1e-8
# the Riccati constant-term shifts eps, relative to ||MM_k||, tried in turn
_RICCATI_SHIFTS = 10.0 ** -np.arange(1.0, 9.0)
# geometric bisection steps between two rungs when every rung fails
_BISECTIONS = 20


@dataclass(frozen=True)
class LmiCertificate:
    P: np.ndarray
    alpha: float
    eig_S_max: float
    eig_P_min: float
    status: str
    # behind an "infeasible" status: ("frequency", omega, lambda_max of the
    # sector form there) or ("member", kappa, max Re eig of the kappa-loop)
    witness: tuple[str, float, float] | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def build_multiplier(kappa: float, lipschitz: float, size: int) -> np.ndarray:
    """Sector multiplier M for a gradient w = grad_g(z) in sector [kappa, L]
    on R^size: (z, w)' M (z, w) = 2 (w - kappa z)' (L z - w) >= 0.

    For L = inf the quadratic form degenerates to the one-sided (monotone
    plus kappa) version, 2 (w - kappa z)' z >= 0.
    """
    if kappa < 0:
        raise LmiError("kappa must be nonnegative")
    if lipschitz <= 0:
        raise LmiError("lipschitz must be positive (possibly inf)")
    if np.isinf(lipschitz):
        core = np.array([[-2.0 * kappa, 1.0], [1.0, 0.0]])
    else:
        if kappa > lipschitz:
            raise LmiError("kappa must not exceed lipschitz")
        core = np.array(
            [
                [-2.0 * kappa * lipschitz, kappa + lipschitz],
                [kappa + lipschitz, -2.0],
            ]
        )
    return np.kron(core, np.eye(size))


def verify_stability(
    plant: LtiPlant,
    geometry: KktGeometry,
    controller: DynamicStabilizer,
    kappa: float,
    lipschitz: float,
) -> LmiCertificate:
    """Decide the sector inequality for (P > 0, alpha = 1).

    Statuses: "feasible" (a certificate validated by eigenvalue checks on
    the actual matrices), "infeasible" (a frequency or member witness rules
    out every (P, alpha); P and alpha are reported as 0), "undecided" (no
    witness, and no Riccati candidate passed the check).
    """
    A, B, C, D = closed_loop(plant, geometry, controller)
    nm, pm = B.shape
    zw = np.block([[C, D], [np.zeros((pm, nm)), np.eye(pm)]])  # (x, w) -> (z, w)
    with np.errstate(over="ignore", invalid="ignore"):
        MM = zw.T @ build_multiplier(kappa, lipschitz, pm) @ zw
    if not (np.isfinite(A).all() and np.isfinite(B).all() and np.isfinite(MM).all()):
        raise LmiError("sector-LMI data overflows: a gain or sector bound is too large")

    def ruled_out(kind, at, value):
        return LmiCertificate(
            np.zeros((nm, nm)), 0.0, 0.0, 0.0, "infeasible", (kind, float(at), float(value))
        )

    # 1. omega = inf
    lam = np.linalg.eigvalsh(MM[nm:, nm:])[-1]
    if not lam < 0:
        return ruled_out("frequency", np.inf, lam)

    # 2. the loop shifted to its lower sector edge; I - kappa D is invertible
    # here, since on w = kappa z the form is 0, and MM's w-w block is < 0
    W = np.linalg.inv(np.eye(pm) - kappa * D)
    T = np.block([[np.eye(nm), np.zeros((nm, pm))], [kappa * W @ C, W]])
    Ak, Bk = A + kappa * B @ W @ C, B @ W
    MMk = T.T @ MM @ T
    MMk = 0.5 * (MMk + MMk.T)
    growth = np.linalg.eigvals(Ak).real.max()
    if growth >= 0:
        return ruled_out("member", kappa, growth)

    # 3. crossings of the frequency form: imaginary-axis eigenvalues of the
    # Hamiltonian of its Riccati equation
    H = _kyp_hamiltonian(Ak, Bk, MMk)
    omegas = _crossing_midpoints(H)
    if omegas.size:  # the witness is evaluated on the loop itself
        lam, scale = _form_max(_xi(A, B, omegas), MM)
        hits = np.flatnonzero(lam > _WITNESS_RTOL * scale)
        if hits.size:
            i = hits[np.argmax(lam[hits])]
            return ruled_out("frequency", omegas[i], lam[i])

    # 4. Riccati candidates: with Q~ raised by eps ||MM_k|| I, the
    # stabilizing solution P = U2 U1^-1, from the stable invariant subspace
    # [U1; U2] of H, makes the Schur complement of S(P, 1) -eps ||MM_k|| I;
    # each P is checked on the unshifted inequality.  P is read off step 3's
    # Hamiltonian by _stabilizing_solution, so no Riccati solver is needed
    N2 = np.hstack([A, B])
    shift = np.linalg.norm(MMk) * np.eye(nm)
    Q0 = H[nm:, :nm].copy()

    def candidate(eps):
        """The checked certificate at eps, or None without a stabilizing P."""
        H[nm:, :nm] = Q0 - eps * shift
        P = _stabilizing_solution(H)
        if P is None:
            return None
        PN = np.vstack([P @ N2, np.zeros((pm, nm + pm))])
        Sm = PN + PN.T + MM
        Sm = 0.5 * (Sm + Sm.T)
        eig_S = float(np.linalg.eigvalsh(Sm)[-1])
        eig_P = float(np.linalg.eigvalsh(P)[0])
        S_ok = eig_S < -1e-8 * max(np.linalg.norm(Sm), 1e-30)
        ok = S_ok and eig_P > 1e-10 * max(np.linalg.norm(P), 1e-30)
        return LmiCertificate(P, 1.0, eig_S, eig_P, "feasible" if ok else "undecided")

    # the ladder; then, if the first rung with a stabilizing P failed the
    # check, bisection between it and the rung above, which has none: with
    # no crossing the frequency inequality is strict, so a P exists
    lo = hi = None
    for eps in _RICCATI_SHIFTS:
        cert = candidate(eps)
        if cert is not None and cert.feasible:
            return cert
        if lo is None and cert is None:
            hi = eps
        elif lo is None:
            lo = eps
    if lo is not None and hi is not None:
        for _ in range(_BISECTIONS):
            eps = np.sqrt(lo * hi)
            cert = candidate(eps)
            if cert is None:
                hi = eps
            elif cert.feasible:
                return cert
            else:
                lo = eps
    return LmiCertificate(np.zeros((nm, nm)), 0.0, 0.0, 0.0, "undecided")


def gain_grid_search(
    plant: LtiPlant,
    geometry: KktGeometry,
    kp_values,
    ki_values,
    kappa: float,
    lipschitz: float,
) -> list[dict]:
    """Certify every (k_P, k_I) scalar-gain pair on a grid, k_P the outer
    loop.  Each row is one line of tune.csv: k_P, k_I, certified, status and
    margin = -eig_S_max of the pair's verify_stability."""
    I = np.eye(plant.m)
    rows = []
    for kp, ki in itertools.product(kp_values, ki_values):
        pi = DynamicStabilizer.pi(float(kp) * I, float(ki) * I, plant.p)
        cert = verify_stability(plant, geometry, pi, kappa, lipschitz)
        rows.append(
            {
                "k_P": float(kp),
                "k_I": float(ki),
                "certified": cert.feasible,
                "status": cert.status,
                "margin": -cert.eig_S_max,
            }
        )
    return rows
