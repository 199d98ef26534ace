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
4. Riccati certificate.  Otherwise the unshifted form is raised to
   MM + delta I, for delta = eps |lambda_max| of MM's w-w block and
   eps = 1e-1, 1e-2, ..., 1e-8 in turn; its w-w block stays negative
   definite.  The stabilizing solution of its Riccati equation, read off the
   stable invariant subspace of its Hamiltonian (Laub, IEEE TAC 1979), makes
   S(P, 1) <= -delta I.  The first P that passes the eigenvalue check on
   the unshifted inequality makes the pair "feasible"; if none does, it is
   "undecided".

So "feasible" rests only on the eigenvalue check of S(P, 1) and P, and
"infeasible" only on a witness the caller can re-evaluate: a frequency at
which the sector form has a positive eigenvalue (on xi the P terms of S
vanish for every symmetric P, so xi* S xi = alpha xi* MM xi), or a linear
member of the sector whose loop is not Hurwitz.

A gain grid is decided as one stack (gain_grid_search): its loops carry a
leading pair axis, and each step is one stacked LAPACK call on the pairs
still pending (each Riccati rung one eig and one solve), with each
frequency witness evaluated on its own pair's crossings.  verify_stability
is the stack of one.  A stacked eig, eigvalsh, inv or solve gives each
matrix the bits of the same call on it alone, and every Frobenius norm is
taken pair by pair, so each grid row is exactly its pair's own decision.
"""

import itertools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ._linalg import (
    _crossing_midpoints,
    _form_max,
    _kyp_hamiltonian,
    _on_axis,
    _stabilizing_solutions,
    _t,
    _xi,
)
from .controller import DynamicStabilizer
from .errors import LmiError
from .kkt import KktGeometry
from .plant import LtiPlant
from .synthesis import (  # noqa: F401  (solve_feasibility: see synthesis)
    closed_loop,
    closed_loop_system,
    open_loop,
    solve_feasibility,
)

# a frequency witness's eigenvalue must exceed this fraction of ||xi* MM xi||_F
_WITNESS_RTOL = 1e-8
# the whole-form shifts eps, relative to |lambda_max| of MM's w-w block,
# tried in turn
_RICCATI_SHIFTS = 10.0 ** -np.arange(1.0, 9.0)


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
    loop = closed_loop(plant, geometry, controller)
    return _decide([M[None] for M in loop], kappa, lipschitz)[0]


def _decide(loops, kappa: float, lipschitz: float) -> list[LmiCertificate]:
    """verify_stability's decision on each of a stack of loops (A, B, C, D),
    each matrix with a leading loop axis.  Every step runs once on the loops
    still pending; a loop's arithmetic is the one it gets on its own."""
    A, B, C, D = loops
    k, nm, pm = B.shape
    below = np.broadcast_to(np.hstack([np.zeros((pm, nm)), np.eye(pm)]), (k, pm, nm + pm))
    zw = np.concatenate([np.concatenate([C, D], axis=-1), below], axis=-2)  # (x, w) -> (z, w)
    with np.errstate(over="ignore", invalid="ignore"):
        MM = _t(zw) @ build_multiplier(kappa, lipschitz, pm) @ zw
    if not (np.isfinite(A).all() and np.isfinite(B).all() and np.isfinite(MM).all()):
        raise LmiError("sector-LMI data overflows: a gain or sector bound is too large")
    certs = [None] * k

    def rule_out(i, kind, at, value):
        certs[i] = LmiCertificate(
            np.zeros((nm, nm)), 0.0, 0.0, 0.0, "infeasible", (kind, float(at), float(value))
        )

    # 1. omega = inf
    ww = np.linalg.eigvalsh(MM[:, nm:, nm:])[:, -1]
    live = ww < 0
    for i in np.flatnonzero(~live):
        rule_out(i, "frequency", np.inf, ww[i])
    live = np.flatnonzero(live)

    # 2. the loop shifted to its lower sector edge; I - kappa D is invertible
    # here, since on w = kappa z the form is 0, and MM's w-w block is < 0
    Al, Bl, Cl = A[live], B[live], C[live]
    W = np.linalg.inv(np.eye(pm) - kappa * D[live])
    above = np.broadcast_to(np.hstack([np.eye(nm), np.zeros((nm, pm))]), (live.size, nm, nm + pm))
    T = np.concatenate([above, np.concatenate([kappa * W @ Cl, W], axis=-1)], axis=-2)
    Ak, Bk = Al + kappa * Bl @ W @ Cl, Bl @ W
    MMk = _t(T) @ MM[live] @ T
    MMk = 0.5 * (MMk + _t(MMk))
    growth = np.linalg.eigvals(Ak).real.max(axis=-1)
    for j in np.flatnonzero(growth >= 0):
        rule_out(live[j], "member", kappa, growth[j])
    keep = np.flatnonzero(~(growth >= 0))

    # 3. crossings of the frequency form: imaginary-axis eigenvalues of the
    # Hamiltonian of its Riccati equation
    H = _kyp_hamiltonian(Ak[keep], Bk[keep], MMk[keep])
    ev = np.linalg.eigvals(H)
    crossed = np.zeros(keep.size, dtype=bool)
    for j in np.flatnonzero(_on_axis(ev).any(axis=-1)):
        omegas = _crossing_midpoints(ev[j])
        if omegas.size:  # the witness is evaluated on the loop itself
            i = live[keep[j]]
            lam, scale = _form_max(_xi(A[i], B[i], omegas), MM[i])
            hits = np.flatnonzero(lam > _WITNESS_RTOL * scale)
            if hits.size:
                h = hits[np.argmax(lam[hits])]
                rule_out(i, "frequency", omegas[h], lam[h])
                crossed[j] = True
    rest = keep[~crossed]
    idx = live[rest]
    Ak, Bk, MMk, T = Ak[rest], Bk[rest], MMk[rest], T[rest]
    del zw, Al, Bl, Cl, W, H, ev  # freed before step 4's peak

    # 4. Riccati candidates: MM + delta I is MM_k + delta T'T in step 2's
    # coordinates.  The stabilizing solution P = U2 U1^-1 of its Riccati
    # equation, from the stable invariant subspace [U1; U2] of its
    # Hamiltonian, zeroes the Schur complement of S(P, 1) + delta I, whose
    # w-w block is < 0; each P is checked on the unshifted inequality
    N2, MMr = np.concatenate([A[idx], B[idx]], axis=-1), MM[idx]
    TtT = -ww[idx][:, None, None] * (_t(T) @ T)
    js = np.arange(idx.size)
    for eps in _RICCATI_SHIFTS:
        if not js.size:
            break
        H = _kyp_hamiltonian(Ak[js], Bk[js], MMk[js] + eps * TtT[js])
        P, has_P = _stabilizing_solutions(H)
        ok = np.flatnonzero(has_P)
        P = P[ok]
        PN = np.concatenate([P @ N2[js[ok]], np.zeros((ok.size, pm, nm + pm))], axis=-2)
        Sm = PN + _t(PN) + MMr[js[ok]]
        Sm = 0.5 * (Sm + _t(Sm))
        eig_S = np.linalg.eigvalsh(Sm)[:, -1]
        eig_P = np.linalg.eigvalsh(P)[:, 0]
        passed = np.zeros(js.size, dtype=bool)
        for o, j in enumerate(ok):
            S_ok = eig_S[o] < -1e-8 * max(np.linalg.norm(Sm[o]), 1e-30)
            if S_ok and eig_P[o] > 1e-10 * max(np.linalg.norm(P[o]), 1e-30):
                passed[j] = True
                certs[idx[js[j]]] = LmiCertificate(
                    P[o], 1.0, float(eig_S[o]), float(eig_P[o]), "feasible"
                )
        js = js[~passed]
    return [
        LmiCertificate(np.zeros((nm, nm)), 0.0, 0.0, 0.0, "undecided") if c is None else c
        for c in certs
    ]


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
    margin = -eig_S_max of the pair's verify_stability.

    The grid is decided as one stack: closed_loop_system closes the stacked
    PI laws D_s = [0, K_I, K_P] on the plant at once, and _decide gives each
    pair the decision verify_stability gives it alone."""
    gains = np.array(list(itertools.product(kp_values, ki_values)), dtype=float).reshape(-1, 2)
    m, p = plant.m, plant.p
    K_P, K_I = (g[:, None, None] * np.eye(m) for g in gains.T)
    D_s = np.concatenate([np.zeros((len(gains), m, p)), K_I, K_P], axis=-1)
    # a pair whose law DynamicStabilizer.pi rejects raises that error, after
    # the pairs before it are decided, as a loop over the pairs would; the
    # condition number is taken only of finite gains (NaN fails the SVD)
    bad = ~np.isfinite(D_s).all(axis=(-2, -1))
    bad[~bad] = np.linalg.cond(K_I[~bad]) > 1e12
    bad = np.flatnonzero(bad)
    stop = bad[0] if bad.size else len(gains)
    certs = []
    if stop:
        laws = SimpleNamespace(
            A_s=np.zeros((0, 0)),
            B_s=np.zeros((0, p + 2 * m)),
            C_s=np.zeros((m, 0)),
            D_s=D_s[:stop],
        )
        certs = _decide(closed_loop_system(open_loop(plant, geometry), laws), kappa, lipschitz)
    if bad.size:
        DynamicStabilizer.pi(K_P[stop], K_I[stop], p)
    return [
        {
            "k_P": float(kp),
            "k_I": float(ki),
            "certified": cert.feasible,
            "status": cert.status,
            "margin": -cert.eig_S_max,
        }
        for (kp, ki), cert in zip(gains, certs)
    ]
