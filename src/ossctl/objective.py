"""Steady-state cost functions g(y, u) with their exact derivatives and
convexity moduli, and a finite-difference check of a declared gradient.

Every consumer evaluates g on (y, u) = (C x, u) directly; the KKT geometry's
R = blkdiag(C, I) Q carries the map from the state space."""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ObjectiveError


@dataclass(frozen=True)
class SteadyStateObjective:
    """Differentiable convex cost over (y, u).

    gradient returns the stacked (d/dy, d/du) vector and hessian the
    (p+m) x (p+m) matrix of second derivatives in the same order.  kappa is
    the strong-convexity modulus, lipschitz the gradient Lipschitz modulus
    (may be inf).  is_quadratic marks a constant Hessian, which lets callers
    read H and q at 0 and use exact linear algebra instead of iteration.
    """

    value: Callable[[np.ndarray, np.ndarray], float]
    gradient: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    p: int
    m: int
    kappa: float
    lipschitz: float
    name: str = "objective"
    is_quadratic: bool = False

    def __post_init__(self):
        if self.kappa < 0:
            raise ObjectiveError("kappa must be nonnegative")
        if np.isfinite(self.lipschitz) and self.kappa > self.lipschitz + 1e-12:
            raise ObjectiveError("kappa must not exceed lipschitz")

    def grad_stacked(self, z: np.ndarray) -> np.ndarray:
        return self.gradient(z[: self.p], z[self.p :])

    def value_stacked(self, z: np.ndarray) -> float:
        return self.value(z[: self.p], z[self.p :])


def quadratic_objective(H: np.ndarray, q: np.ndarray, p: int, name: str = "quadratic") -> SteadyStateObjective:
    """g(z) = 0.5 z' H z + q' z with z = (y, u); H symmetric PSD."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    q = np.asarray(q, dtype=float).ravel()
    d = H.shape[0]
    if H.shape != (d, d) or q.shape != (d,):
        raise ObjectiveError("H must be square and q of matching length")
    if not (0 < p < d):
        raise ObjectiveError("need 0 < p < p + m")
    if np.linalg.norm(H - H.T) > 1e-10 * max(np.linalg.norm(H), 1.0):
        raise ObjectiveError("H must be symmetric")
    ev = np.linalg.eigvalsh(0.5 * (H + H.T))
    if ev[0] < -1e-10 * max(abs(ev[-1]), 1.0):
        raise ObjectiveError("H must be positive semidefinite")
    H = 0.5 * (H + H.T)
    H.flags.writeable = False  # hessian() hands this one array to every caller
    m = d - p

    def value(y, u):
        z = np.concatenate([np.atleast_1d(y), np.atleast_1d(u)])
        return 0.5 * z @ H @ z + q @ z

    def gradient(y, u):
        z = np.concatenate([np.atleast_1d(y), np.atleast_1d(u)])
        return H @ z + q

    return SteadyStateObjective(
        value=value,
        gradient=gradient,
        hessian=lambda y, u: H,
        p=p,
        m=m,
        kappa=float(max(ev[0], 0.0)),
        lipschitz=float(ev[-1]),
        name=name,
        is_quadratic=True,
    )


def cosh_example_objective() -> SteadyStateObjective:
    """g(y1, y2, u) = cosh(y1/2) + cosh(y2/3) + u^2; strongly convex with
    modulus 1/9, gradient not globally Lipschitz."""
    from math import cosh, sinh

    def value(y, u):
        return cosh(y[0] / 2.0) + cosh(y[1] / 3.0) + float(u[0]) ** 2

    def gradient(y, u):
        return np.array(
            [0.5 * sinh(y[0] / 2.0), sinh(y[1] / 3.0) / 3.0, 2.0 * u[0]]
        )

    def hessian(y, u):
        h = np.zeros((3, 3))
        h[0, 0] = cosh(y[0] / 2.0) / 4.0
        h[1, 1] = cosh(y[1] / 3.0) / 9.0
        h[2, 2] = 2.0
        return h

    return SteadyStateObjective(
        value=value,
        gradient=gradient,
        hessian=hessian,
        p=2,
        m=1,
        kappa=1.0 / 9.0,
        lipschitz=np.inf,
        name="cosh_example",
    )


def check_gradient_fd(obj: SteadyStateObjective, points: np.ndarray) -> float:
    """Max relative error between the declared gradient and central finite
    differences of step h = 1e-5 over the given sample points (rows are
    stacked (y, u))."""
    h = 1e-5
    points = np.atleast_2d(np.asarray(points, dtype=float))
    worst = 0.0
    d = obj.p + obj.m
    for z in points:
        g = obj.grad_stacked(z)
        fd = np.empty(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            fd[i] = (obj.value_stacked(z + e) - obj.value_stacked(z - e)) / (2 * h)
        denom = max(np.linalg.norm(g), 1.0)
        worst = max(worst, np.linalg.norm(g - fd) / denom)
    return worst
