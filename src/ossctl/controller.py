"""Feedback laws: the dynamic stabilizer, with a PI law as its zero-order
case (DynamicStabilizer.pi), and the evaluation of the closed loop at one
state.

Every loop is synthesis.closed_loop(plant, geometry, controller):
s' = A s + B w + E d on s = (x, eta, x_s), with w = grad_g(z) and
z = (y, u) = C s + D w.  A direct term from e to u (the proportional gain
of a PI law, or in general the e-columns of D_s) makes the input implicit;
it is solved by damped Newton whatever the cost, in one loop (_newton)
with one stop rule, line search and set of errors.  The loop's evaluator
(_loop_dynamics) is built once per loop and cost, binding its matrices and
the input solver; sim.simulate calls it at every RK4 stage, and
stabilizer_dynamics is that evaluator applied once.  With one
input (every bundled scenario) the solve runs on Python floats, each step a
division; with several inputs it runs on arrays, each step
np.linalg.solve.  A quadratic cost makes the whole loop affine:
sim._affine_closed_loop then closes the gradient's affine map on the same
loop, and no Newton solve runs."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlgebraicLoopError, DivergenceError
from .objective import SteadyStateObjective

# Newton on the implicit input equation u = offset + D_u grad_g(y, u)
MAX_ITER = 100
TOL = 1e-10


@dataclass(frozen=True)
class DynamicStabilizer:
    """u is generated by a linear system driven by sigma = (y, eta, e)."""

    A_s: np.ndarray
    B_s: np.ndarray
    C_s: np.ndarray
    D_s: np.ndarray
    p: int
    m: int

    def __post_init__(self):
        for name in ("A_s", "B_s", "C_s", "D_s"):
            value = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        ns = self.A_s.shape[0]
        nsig = self.p + 2 * self.m
        if self.A_s.shape != (ns, ns):
            raise ValueError("A_s must be square")
        if self.B_s.shape != (ns, nsig):
            raise ValueError(f"B_s must be {ns}x{nsig} (sigma = (y, eta, e))")
        if self.C_s.shape != (self.m, ns):
            raise ValueError(f"C_s must be {self.m}x{ns}")
        if self.D_s.shape != (self.m, nsig):
            raise ValueError(f"D_s must be {self.m}x{nsig}")

    @classmethod
    def pi(cls, K_P, K_I, p: int) -> "DynamicStabilizer":
        """The PI law u = K_I eta + K_P e as the zero-order stabilizer with
        D_s = [0, K_I, K_P].  K_P and K_I are finite and m x m, and K_I must
        be invertible (condition number at most 1e12)."""
        KP = np.atleast_2d(np.asarray(K_P, dtype=float))
        KI = np.atleast_2d(np.asarray(K_I, dtype=float))
        m = KI.shape[0]
        if KI.shape != (m, m) or KP.shape != (m, m):
            raise ValueError("K_P and K_I must be square of equal size")
        law = cls(
            A_s=np.zeros((0, 0)),
            B_s=np.zeros((0, p + 2 * m)),
            C_s=np.zeros((m, 0)),
            D_s=np.hstack([np.zeros((m, p)), KI, KP]),
            p=p,
            m=m,
        )
        if np.linalg.cond(KI) > 1e12:
            raise ValueError("K_I must be invertible (condition number < 1e12)")
        return law

    @property
    def order(self) -> int:
        return self.A_s.shape[0]


def _newton(u, y, offset, residual, step, size) -> tuple[np.ndarray, np.ndarray]:
    """(u, w) at the root of a residual, by damped Newton from u.

    residual(u, y, offset) is (F, |F|, u as an array, w), step(F, u_arr, y)
    the Newton step at u, and size(u) the norm of u in the stop rule
    |F| <= TOL (1 + size(u)).  y and offset are passed through, so one
    residual and step serve every solve on a loop.  A step is halved until
    |F| falls, at most 40 times.  An infinite tolerance, which any residual
    meets, never stops a solve."""
    F, nF, u_arr, w = residual(u, y, offset)
    for _ in range(MAX_ITER):
        tol = TOL * (1.0 + size(u))
        if nF <= tol:
            if tol == math.inf:
                raise AlgebraicLoopError(
                    "algebraic loop not well-posed at this state "
                    "(input too large for the stop rule)"
                )
            return u_arr, w
        direction = step(F, u_arr, y)
        t = 1.0
        for _ in range(40):
            u_new = u + t * direction
            F_new, nF_new, a_new, w_new = residual(u_new, y, offset)
            if nF_new < nF:
                break
            t *= 0.5
        else:
            raise AlgebraicLoopError(
                "algebraic loop not well-posed at this state (Newton stagnated)"
            )
        u, F, nF, u_arr, w = u_new, F_new, nF_new, a_new, w_new
    raise AlgebraicLoopError(
        "algebraic loop not well-posed at this state (iteration limit)"
    )


def _input_solver(D_u: np.ndarray, objective: SteadyStateObjective):
    """solve(offset, y, u0) -> (u, grad_g(y, u)) with u solving
    u = offset + D_u grad_g(y, u), built once for D_u and the cost.

    grad_g depends on u, so this is an implicit equation whenever D_u is
    nonzero.  It is solved by _newton from u0, with the exact Jacobian
    I - D_u hess_g[:, p:].  With one input (D_u has one row) offset and u0
    are floats and the solve runs on Python floats: each step divides by
    the Jacobian, d.w and d.hess[:, p] stay numpy dot products, and a
    1-element array is made only for the cost.  With several inputs they
    are arrays, and each step is np.linalg.solve, or -F where J is singular.
    """
    p = objective.p
    gradient, hessian = objective.gradient, objective.hessian
    if D_u.shape[0] == 1:
        d = D_u[0]

        def residual(u, y, offset):
            u_arr = np.array([u])
            w = gradient(y, u_arr)
            F = u - offset - float(d.dot(w))
            return F, math.sqrt(F * F), u_arr, w

        def step(F, u_arr, y):
            j = 1.0 - float(d.dot(hessian(y, u_arr)[:, p]))
            # a Python division by 0.0 raises, where numpy's would warn
            return -F / j if j != 0.0 else -F

        def solve(offset, y, u0):
            # abs(u) is sqrt(u * u) wherever u * u does not overflow
            return _newton(u0, y, offset, residual, step, abs)

        return solve

    def residual(u, y, offset):
        w = gradient(y, u)
        F = u - offset - D_u.dot(w)
        return F, math.sqrt(F.dot(F)), u, w

    def step(F, u, y):
        J = -(D_u @ hessian(y, u)[:, p:])
        J.flat[:: u.size + 1] += 1.0
        try:
            return np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return -F

    def size(u):
        return math.sqrt(u.dot(u))

    def solve(offset, y, u0):
        return _newton(u0.copy(), y, offset, residual, step, size)

    return solve


def _loop_dynamics(loop: tuple, objective: SteadyStateObjective):
    """dynamics(s, drift, u_prev=None) -> (s_dot, u), stabilizer_dynamics on
    one loop and cost: the loop's matrices, its input rows and the input
    solver are bound once here, and each call does only the state's work."""
    A, B, C, D = loop
    p = objective.p
    solve = _input_solver(D[p:], objective)
    one_input = D.shape[0] == p + 1

    def dynamics(s, drift, u_prev=None):
        z = C.dot(s)
        if one_input:  # the solve takes floats
            offset = z.item(p)
            u0 = offset if u_prev is None else float(u_prev[0])
        else:
            offset = z[p:]
            u0 = offset if u_prev is None else np.asarray(u_prev, dtype=float)
        try:
            u, w = solve(offset, z[:p], u0)
        except OverflowError as exc:  # math.cosh and kin, past a double's range
            raise DivergenceError("the cost overflows along the trajectory") from exc
        return A.dot(s) + B.dot(w) + drift, u

    return dynamics


def stabilizer_dynamics(
    loop: tuple,
    objective: SteadyStateObjective,
    s: np.ndarray,
    drift: np.ndarray,
    u_prev: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(s_dot, u) of the closed loop s' = A s + B w + drift at the state s.

    loop = (A, B, C, D) is synthesis.closed_loop(plant, geometry,
    controller), and drift = E d the disturbance on the x rows.  Only the u rows
    of D are nonzero on open_loop, so y = C_y s and u solves
    u = C_u s + D_u grad_g(y, u), from u_prev when given.  The eta rows of
    s_dot are e = -R' grad_g(y, u).  A cost whose derivatives overflow at a
    trial input (OverflowError from math.cosh and kin) raises
    DivergenceError("the cost overflows along the trajectory").

    This is the loop's evaluator applied once; sim.simulate builds it once
    per run (_loop_dynamics) and calls it at every RK4 stage.
    """
    return _loop_dynamics(loop, objective)(s, drift, u_prev)
