"""Independent steady-state optimizer computation.

Used as ground truth for closed-loop behaviour.  The forced equilibria
z = (x, u) for disturbance d are z_p + Q w, with z_p the minimum-norm
solution of A x + B u + d = 0 and Q the nullspace basis of the given
KktGeometry; in the cost's variables that is zeta = (y, u) = zeta_p + R w,
with zeta_p = blkdiag(C, I) z_p.  The program becomes an unconstrained
m-dimensional minimization of g(zeta_p + R w), with reduced gradient
R' grad_g and reduced Hessian R' hess_g R, solved by damped Newton with the
cost's exact Hessian.  A direct KKT linear solve is provided for quadratic
costs as an independent reference.
"""

from dataclasses import dataclass

import numpy as np

from .errors import OracleError
from .kkt import KktGeometry, kkt_residual
from .objective import SteadyStateObjective
from .plant import LtiPlant, check_disturbance

MAX_ITER = 10_000
TOL = 1e-9


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
    w0: np.ndarray | None = None,
) -> OptimizerResult:
    """Minimize g(Cx, u) over the forced equilibria for disturbance d.

    Newton on the reduced variable w of zeta = zeta_p + R w, with the exact
    reduced Hessian R' hess_g R and Armijo backtracking; a gradient step,
    doubled while Armijo holds, replaces Newton where that Hessian is not
    positive definite.  Reaching MAX_ITER or a failed line search before the
    stop rule holds raises OracleError.
    """
    d = check_disturbance(plant, d)
    z_p = -geometry.AB_pinv @ d
    zeta_p = np.concatenate([plant.C @ z_p[: plant.n], z_p[plant.n :]])
    R = geometry.R

    def phi(w):
        try:
            return objective.value_stacked(zeta_p + R @ w)
        except OverflowError:  # math.cosh and kin: a trial step too long
            return np.inf

    def derivative(fn, w):
        try:
            return fn(*np.split(zeta_p + R @ w, [objective.p]))
        except OverflowError as exc:
            raise OracleError("cost derivative overflow at this disturbance") from exc

    w = np.zeros(geometry.m) if w0 is None else np.asarray(w0, dtype=float).copy()
    g = R.T @ derivative(objective.gradient, w)
    fw = phi(w)
    for it in range(1, MAX_ITER + 2):  # the last pass only tests the stop rule
        # tested first: the stop rule's tolerance scales with |fw|, so a
        # value far below zero would pass it
        if fw < -1e12:
            raise OracleError(
                "objective unbounded below on the feasible set; "
                "no steady-state optimizer exists"
            )
        gnorm = np.linalg.norm(g)
        if gnorm <= TOL * (1.0 + abs(fw)):
            break
        if it > MAX_ITER:
            raise OracleError(
                f"oracle reached {MAX_ITER} iterations at gradient norm {gnorm:.3e}"
            )
        H = R.T @ derivative(objective.hessian, w) @ R
        newton = True
        try:
            if np.linalg.eigvalsh(H).min() <= 1e-12:
                raise np.linalg.LinAlgError
            step = -np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            step = -g
            newton = False
        # Armijo backtracking
        t = 1.0
        for _ in range(60):
            w_new = w + t * step
            f_new = phi(w_new)
            if f_new <= fw + 1e-4 * t * (g @ step):
                break
            t *= 0.5
        else:
            raise OracleError(f"oracle line search failed at gradient norm {gnorm:.3e}")
        # a gradient step has no natural length: double it while Armijo
        # holds, so that a cost unbounded along it reaches the check above
        if not newton and t == 1.0:
            for _ in range(60):
                w_try = w + 2 * t * step
                f_try = phi(w_try)
                if not f_try <= fw + 1e-4 * (2 * t) * (g @ step):
                    break
                t *= 2
                w_new, f_new = w_try, f_try
        w, fw = w_new, f_new
        g = R.T @ derivative(objective.gradient, w)

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
    objective: SteadyStateObjective,
    d: np.ndarray,
) -> OptimizerResult:
    """Exact optimizer of a quadratic steady-state cost by solving the
    stacked first-order linear system in (x, u, multipliers).  H and q are
    read from the quadratic objective as its Hessian and gradient at 0; the
    multiplier block is discarded, and the residuals are evaluated on
    geometry."""
    if not objective.is_quadratic:
        raise OracleError("the closed form needs a quadratic cost")
    d = check_disturbance(plant, d)
    n, m, p = plant.n, plant.m, plant.p
    H = objective.hessian(np.zeros(p), np.zeros(m))
    q = objective.gradient(np.zeros(p), np.zeros(m))
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
    return _result(plant, geometry, objective, sol[: n + m], d, 0)
