"""Independent steady-state optimizer computation.

Used as ground truth for closed-loop behaviour.  The forced equilibria
z = (x, u) for disturbance d are z_p + Q w, with z_p the minimum-norm
solution of A x + B u + d = 0 and Q the nullspace basis of the given
KktGeometry; in the cost's variables that is zeta = (y, u) = zeta_p + R w,
with zeta_p = blkdiag(C, I) z_p.  The program becomes an unconstrained
m-dimensional minimization of g(zeta_p + R w), with reduced gradient
R' grad_g, solved by damped Newton.  A direct KKT linear solve is provided
for quadratic costs as an independent reference.
"""

from dataclasses import dataclass

import numpy as np

from .errors import OracleError
from .kkt import KktGeometry, kkt_residual
from .objective import SteadyStateObjective, quadratic_objective
from .plant import LtiPlant, check_disturbance


@dataclass(frozen=True)
class OptimizerResult:
    x_star: np.ndarray
    y_star: np.ndarray
    u_star: np.ndarray
    objective_value: float
    kkt_feas: float
    kkt_grad: float
    iterations: int

    def yu(self) -> np.ndarray:
        return np.concatenate([self.y_star, self.u_star])


def _result(plant, geometry, objective, z, d, iters) -> OptimizerResult:
    x = z[: plant.n]
    u = z[plant.n :]
    y = plant.C @ x
    feas, grad = kkt_residual(plant, geometry, objective, x, u, d)
    return OptimizerResult(
        x_star=x,
        y_star=y,
        u_star=u,
        objective_value=float(objective.value(y, u)),
        kkt_feas=feas,
        kkt_grad=grad,
        iterations=iters,
    )


def solve_steady_state(
    plant: LtiPlant,
    geometry: KktGeometry,
    objective: SteadyStateObjective,
    d: np.ndarray,
    max_iter: int = 10_000,
    tol: float = 1e-9,
    w0: np.ndarray | None = None,
) -> OptimizerResult:
    """Minimize g(Cx, u) over the forced equilibria for disturbance d.

    Newton on the reduced variable w of zeta = zeta_p + R w (Hessian by
    forward differences of the reduced gradient R' grad_g), Armijo
    backtracking, gradient-descent fallback when the Hessian estimate is not
    positive definite.
    """
    d = check_disturbance(plant, d)
    z_p = -np.linalg.pinv(plant.stacked_AB()) @ d
    zeta_p = np.concatenate([plant.C @ z_p[: plant.n], z_p[plant.n :]])
    R = geometry.R
    m = geometry.m

    def phi(w):
        try:
            return objective.value_stacked(zeta_p + R @ w)
        except OverflowError:  # math.cosh and kin: a trial step too long
            return np.inf

    def grad(w):
        try:
            return R.T @ objective.grad_stacked(zeta_p + R @ w)
        except OverflowError as exc:
            raise OracleError("cost gradient overflow at this disturbance") from exc

    w = np.zeros(m) if w0 is None else np.asarray(w0, dtype=float).copy()
    g = grad(w)
    fw = phi(w)
    for it in range(1, max_iter + 1):
        gnorm = np.linalg.norm(g)
        if gnorm <= tol * (1.0 + abs(fw)):
            break
        if fw < -1e12:
            raise OracleError(
                "objective unbounded below on the feasible set; "
                "no steady-state optimizer exists"
            )
        # forward-difference Hessian of the reduced problem
        h = 1e-6 * (1.0 + np.linalg.norm(w))
        H = np.empty((m, m))
        for j in range(m):
            e = np.zeros(m)
            e[j] = h
            H[:, j] = (grad(w + e) - g) / h
        H = 0.5 * (H + H.T)
        try:
            ev_min = np.linalg.eigvalsh(H).min()
            if ev_min <= 1e-12:
                raise np.linalg.LinAlgError
            step = -np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            step = -g
        # Armijo backtracking
        t = 1.0
        accepted = False
        for _ in range(60):
            w_new = w + t * step
            f_new = phi(w_new)
            if f_new <= fw + 1e-4 * t * (g @ step):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        w, fw = w_new, f_new
        g = grad(w)
    else:
        it = max_iter

    res = _result(plant, geometry, objective, z_p + geometry.Q @ w, d, it)
    grad_scale = 1.0 + np.linalg.norm(objective.gradient(res.y_star, res.u_star))
    if res.kkt_feas > 1e-8 * (1 + np.linalg.norm(d)) or res.kkt_grad > 1e-8 * grad_scale:
        raise OracleError(
            f"oracle non-convergence: feas={res.kkt_feas:.3e}, grad={res.kkt_grad:.3e}"
        )
    return res


def solve_quadratic_closed_form(
    plant: LtiPlant,
    geometry: KktGeometry,
    H: np.ndarray,
    q: np.ndarray,
    d: np.ndarray,
) -> OptimizerResult:
    """Exact optimizer of a quadratic steady-state cost by solving the
    stacked first-order linear system in (x, u, multipliers); the multiplier
    block is discarded, and the residuals are evaluated on geometry."""
    d = check_disturbance(plant, d)
    n, m, p = plant.n, plant.m, plant.p
    H = np.atleast_2d(np.asarray(H, dtype=float))
    q = np.asarray(q, dtype=float).ravel()
    Cb = np.block(
        [[plant.C, np.zeros((p, m))], [np.zeros((m, n)), np.eye(m)]]
    )
    Hf = Cb.T @ H @ Cb
    qf = Cb.T @ q
    AB = plant.stacked_AB()
    K = np.block([[Hf, AB.T], [AB, np.zeros((n, n))]])
    rhs = np.concatenate([-qf, -d])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        raise OracleError(
            "singular KKT system: optimizer not unique "
            "(strict convexity on the feasible set fails)"
        ) from exc
    cond = np.linalg.cond(K)
    if cond > 1e12:
        raise OracleError(
            f"ill-conditioned KKT system (cond={cond:.2e}): optimizer not unique"
        )
    obj = quadratic_objective(H, q, p)
    return _result(plant, geometry, obj, sol[: n + m], d, 0)
