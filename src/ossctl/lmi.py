"""Absolute-stability certificate for the loop closed by a dynamic
stabilizer (a PI law is its zero-order case).

The gradient nonlinearity is treated as a sector-bounded uncertainty
(sector [kappa, L] from strong convexity and gradient Lipschitz-ness), and
a circle-criterion style matrix inequality is solved for a Lyapunov
certificate.  The loop is synthesis.closed_loop, with its input read as
w = +grad_g(z) and its output z = (y, u), the same sign as in every other
layer; on the sector's members (z, w)' M (z, w) >= 0.  One deviation from
the textbook statement is deliberate: the Lyapunov matrix is constrained
positive definite here, since with P left free the inequality alone does
not rule out unstable loops (a concrete counterexample lives in the test
suite).

A pair is decided both ways.  "feasible" rests on an eigenvalue-checked
certificate (P, alpha) from the splitting solver.  "infeasible" rests on a
frequency-domain witness found before the solver runs: a frequency w at
which T(w)* M T(w) has a positive eigenvalue, with T(w) the frequency
response of the linear part stacked over the identity (the KYP argument of
Rantzer, "On the Kalman-Yakubovich-Popov lemma", SCL 1996).  Pairs neither
rules out end "stalled" or "undecided" as the solver reports.

A grid search warm-starts each pair's solve from the final iterate of the
last pair the solver certified, in grid order.  Neighbouring gains pose
nearly the same inequality, so this about halves the sweeps on a grid.  A
pair's sweep count therefore depends on the pairs before it, while
"feasible" still rests on the pair's own certificate and "infeasible" on
its own witness.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import smat, svec_dim
from .controller import DynamicStabilizer
from .errors import LmiError
from .kkt import KktGeometry
from .plant import LtiPlant
from .sdp import FeasibilityResult, solve_feasibility
from .synthesis import closed_loop

# default strict-feasibility shifts: O(1) on the main inequality (valid by
# homogeneity in (P, alpha)), small on P > 0 so the P block does not distort
# the geometry of the main one
_MARGIN_MAIN = 1.0
_MARGIN_P = 1e-4

# frequencies (rad/s) screened for an infeasibility witness, besides w = inf;
# the realization is real, so T(-w) is the conjugate of T(w) and w >= 0 suffices
_WITNESS_OMEGAS = np.logspace(-3, 3, 60)
# a witness eigenvalue must exceed this fraction of ||T* M T||_F
_WITNESS_RTOL = 1e-8


@dataclass(frozen=True)
class LmiCertificate:
    P: np.ndarray
    alpha: float
    eig_S_max: float
    eig_P_min: float
    sweeps: int
    feasible: bool
    status: str
    # (omega, lambda) of the frequency witness behind an "infeasible" status
    witness: tuple[float, float] | None = None


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


def _sector_form_max(xi: np.ndarray, MM: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue and Frobenius norm of xi* MM xi, over a stack of xi."""
    H = np.conj(np.swapaxes(xi, -1, -2)) @ MM @ xi
    return np.linalg.eigvalsh(H)[..., -1], np.linalg.norm(H, axis=(-2, -1))


def _xi(A: np.ndarray, B: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """Stacked xi(w) = [(jwI - A)^-1 B; I]; w = inf gives [0; I]."""
    nm, pm = B.shape
    xi = np.zeros((omegas.size, nm + pm, pm), dtype=complex)
    xi[:, nm:] = np.eye(pm)
    finite = np.isfinite(omegas)
    jw = 1j * omegas[finite, None, None] * np.eye(nm)
    xi[finite, :nm] = np.linalg.solve(jw - A, np.broadcast_to(B, (jw.shape[0], nm, pm)))
    return xi


def frequency_witness(
    A: np.ndarray, B: np.ndarray, MM: np.ndarray
) -> tuple[float, float] | None:
    """A frequency w at which the sector inequality has no solution, as
    (w, lambda_max(xi* MM xi)), or None if the screened grid shows none.

    On xi(w) = [(jwI - A)^-1 B; I] the P terms N1' P N2 + N2' P N1 vanish for
    every symmetric P (A X + B = jw X), so xi* S xi = alpha xi* MM xi, and
    xi* MM xi = T* M T with T = [C (jwI - A)^-1 B + D; I].  A positive
    eigenvalue there rules out every alpha > 0; alpha = 0 is ruled out anyway,
    because the w-w block of S is then 0.  The grid is screened in one
    batched solve, and the strongest hit is recomputed on its own.
    """
    omegas = np.append(_WITNESS_OMEGAS, np.inf)
    with np.errstate(all="ignore"):
        try:
            lam, scale = _sector_form_max(_xi(A, B, omegas), MM)
        except np.linalg.LinAlgError:  # jw is an eigenvalue of A
            return None
        hits = np.flatnonzero(lam > _WITNESS_RTOL * scale)
        if hits.size == 0:
            return None
        omega = omegas[hits[np.argmax(lam[hits])]]
        lam, scale = _sector_form_max(_xi(A, B, np.array([omega]))[0], MM)
    if not lam > _WITNESS_RTOL * scale:
        return None
    return float(omega), float(lam)


def verify_stability(
    plant: LtiPlant,
    geometry: KktGeometry,
    controller: DynamicStabilizer,
    kappa: float,
    lipschitz: float,
    max_sweeps: int = 4000,
) -> LmiCertificate:
    """Decide the sector inequality for (P > 0, alpha >= 0).

    Statuses: "infeasible" (a frequency witness rules out every (P, alpha);
    no solver sweeps run), "feasible" (a certificate validated by eigenvalue
    checks on the actual matrices, independently of the solver's internal
    state), "stalled" or "undecided" (the solver's fixed point or sweep cap,
    with no certificate and no witness).
    """
    return _decide(plant, geometry, controller, kappa, lipschitz, max_sweeps, None)[0]


def _decide(
    plant: LtiPlant,
    geometry: KktGeometry,
    controller: DynamicStabilizer,
    kappa: float,
    lipschitz: float,
    max_sweeps: int,
    start: np.ndarray | None,
) -> tuple[LmiCertificate, np.ndarray | None]:
    """verify_stability with the solver started from ``start``; also returns
    the solver's final iterate (None when the witness decided)."""
    A, B, C, D = closed_loop(plant, geometry, controller)
    nm, pm = B.shape
    M = build_multiplier(kappa, lipschitz, pm)
    # selector matrices of N1' P N2 + N2' P N1 + alpha N3' M N3 < 0 on (x, w)
    N1 = np.hstack([np.eye(nm), np.zeros((nm, pm))])
    N2 = np.hstack([A, B])
    N3 = np.vstack([np.hstack([C, D]), np.hstack([np.zeros((pm, nm)), np.eye(pm)])])
    with np.errstate(over="ignore", invalid="ignore"):
        MM = N3.T @ M @ N3
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

    witness = frequency_witness(A, B, MM)
    if witness is not None:
        # no candidate is searched for; report the trivial one, (P, alpha) = 0
        v0 = np.zeros(q)
        result = FeasibilityResult("infeasible", v0, 0, certificate(v0)[1])
    else:
        result = solve_feasibility(
            [S_main, S_pos],
            q,
            nonneg=(dP,),
            margins=[_MARGIN_MAIN, _MARGIN_P],
            max_sweeps=max_sweeps,
            certificate=certificate,
            start=start,
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
        witness=witness,
    ), result.iterate


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
    ordered with k_p as the outer loop.  Each pair's solve starts from the
    final iterate of the last pair the solver certified before it (cold for
    the first); pairs ruled out by the witness, stalled or undecided pass
    nothing on.
    """
    records = []
    start = None
    I = np.eye(plant.m)
    for kp in kp_values:
        for ki in ki_values:
            pi = DynamicStabilizer.pi(float(kp) * I, float(ki) * I, plant.p)
            cert, iterate = _decide(
                plant, geometry, pi, kappa, lipschitz, max_sweeps, start
            )
            if cert.feasible:
                start = iterate
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
