"""Closed-loop time simulation under piecewise-constant disturbances.

Fixed-step classical Runge-Kutta; the implicit input equation is re-solved
at every stage.  For quadratic costs the loop is affine and the integrator
reduces to a precomputed one-step linear map, which is exact for the RK4
discretization and orders of magnitude faster.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .controller import (
    ControllerState,
    DynamicStabilizer,
    PiGains,
    pi_dynamics,
    stabilizer_dynamics,
)
from .kkt import KktGeometry
from .objective import SteadyStateObjective
from .oracle import OptimizerResult, solve_steady_state
from .plant import LtiPlant, check_disturbance


class SimulationError(RuntimeError):
    pass


class DivergenceError(SimulationError):
    """The state norm exceeded the divergence threshold."""


@dataclass(frozen=True)
class DisturbanceSchedule:
    """Piecewise-constant disturbance: values[i] applies on
    [times[i], times[i+1]); times[0] must be 0."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).ravel()
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if t.size != v.shape[0]:
            raise SimulationError("one disturbance value per switching time")
        if t.size == 0 or t[0] != 0.0:
            raise SimulationError("schedule must start at t = 0")
        if np.any(np.diff(t) <= 0):
            raise SimulationError("switching times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, d: np.ndarray) -> "DisturbanceSchedule":
        return cls(times=np.array([0.0]), values=np.atleast_2d(d))

    @property
    def n_segments(self) -> int:
        return self.times.size

    def value_at(self, t: float) -> np.ndarray:
        i = int(np.searchsorted(self.times, t, side="right") - 1)
        return self.values[max(i, 0)]

    def segments(self, t_final: float):
        """(t_start, t_end, d) triples covering [0, t_final]."""
        if t_final <= self.times[0]:
            raise SimulationError("t_final must be positive")
        for i, t0 in enumerate(self.times):
            if t0 >= t_final:
                break
            t1 = self.times[i + 1] if i + 1 < self.times.size else t_final
            yield t0, min(t1, t_final), self.values[i]


@dataclass
class Trace:
    t: np.ndarray
    x: np.ndarray
    eta: np.ndarray
    y: np.ndarray
    u: np.ndarray
    e: np.ndarray
    y_star: np.ndarray
    u_star: np.ndarray
    x_s: np.ndarray | None = None
    segment_starts: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    references: list = field(default_factory=list)

    def tracking_error(self) -> np.ndarray:
        """||(y, u) - (y*, u*)|| at each sample."""
        dy = self.y - self.y_star
        du = self.u - self.u_star
        return np.linalg.norm(np.hstack([dy, du]), axis=1)

    def to_csv(self, path: str) -> None:
        n = self.x.shape[1]
        m = self.u.shape[1]
        p = self.y.shape[1]
        header = (
            ["t"]
            + [f"x{i+1}" for i in range(n)]
            + [f"eta{i+1}" for i in range(m)]
            + [f"y{i+1}" for i in range(p)]
            + [f"u{i+1}" for i in range(m)]
            + [f"e{i+1}" for i in range(m)]
            + [f"ystar{i+1}" for i in range(p)]
            + [f"ustar{i+1}" for i in range(m)]
        )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k in range(self.t.size):
                row = np.concatenate(
                    [
                        [self.t[k]],
                        self.x[k],
                        self.eta[k],
                        self.y[k],
                        self.u[k],
                        self.e[k],
                        self.y_star[k],
                        self.u_star[k],
                    ]
                )
                writer.writerow([f"{v:.12g}" for v in row])


def _affine_closed_loop(plant, geometry, objective, controller):
    """(F, c0, state splits) of the affine closed loop s' = F s + c0 + E d,
    valid when the cost is quadratic.  E injects d into the x block."""
    n, m, p = plant.n, plant.m, plant.p
    H = objective.hessian
    q = objective.linear_term
    RT = geometry.R.T
    Gy = RT @ H[:, :p]
    Gu = RT @ H[:, p:]
    g0 = RT @ q
    GyC = Gy @ plant.C
    if isinstance(controller, PiGains):
        L = np.eye(m) + controller.K_P @ Gu
        Li = np.linalg.inv(L)
        Ux = -Li @ controller.K_P @ GyC
        Ue = Li @ controller.K_I
        u0 = -Li @ controller.K_P @ g0
        Ex = -(GyC + Gu @ Ux)
        Ee = -Gu @ Ue
        e0 = -(Gu @ u0 + g0)
        F = np.block([[plant.A + plant.B @ Ux, plant.B @ Ue], [Ex, Ee]])
        c0 = np.concatenate([plant.B @ u0, e0])
        return F, c0, (n, 0, m)
    stab = controller
    ns = stab.order
    L = np.eye(m) + stab.D_s_e @ Gu
    Li = np.linalg.inv(L)
    # u = Ux x + Us x_s + Ue eta + u0
    Ux = Li @ ((stab.D_s_y - stab.D_s_e @ Gy) @ plant.C)
    Us = Li @ stab.C_s
    Ue = Li @ stab.D_s_eta
    u0 = -Li @ stab.D_s_e @ g0
    Ex = -(GyC + Gu @ Ux)
    Es = -Gu @ Us
    Ee = -Gu @ Ue
    e0 = -(Gu @ u0 + g0)
    By = stab.B_s[:, :p]
    Beta = stab.B_s[:, p : p + m]
    Be = stab.B_s[:, p + m :]
    F = np.block(
        [
            [plant.A + plant.B @ Ux, plant.B @ Us, plant.B @ Ue],
            [By @ plant.C + Be @ Ex, stab.A_s + Be @ Es, Beta + Be @ Ee],
            [Ex, Es, Ee],
        ]
    )
    c0 = np.concatenate([plant.B @ u0, Be @ e0, e0])
    return F, c0, (n, ns, m)


def _rk4_one_step_maps(F: np.ndarray, dt: float):
    """Exact RK4 update maps: s+ = Phi s + G c for s' = F s + c."""
    d = F.shape[0]
    I = np.eye(d)
    F2 = F @ F
    F3 = F2 @ F
    Phi = I + dt * F + (dt**2 / 2) * F2 + (dt**3 / 6) * F3 + (dt**4 / 24) * F3 @ F
    G = dt * I + (dt**2 / 2) * F + (dt**3 / 6) * F2 + (dt**4 / 24) * F3
    return Phi, G


def _segment_steps(t0: float, t1: float, dt: float) -> tuple[int, float]:
    """Split a segment into equal steps of size as close to dt as possible so
    disturbance switches always land on step boundaries."""
    duration = t1 - t0
    n_steps = max(1, int(round(duration / dt)))
    return n_steps, duration / n_steps


def simulate(
    plant: LtiPlant,
    geometry: KktGeometry,
    objective: SteadyStateObjective,
    controller,
    schedule: DisturbanceSchedule,
    t_final: float,
    dt: float = 1e-3,
    x0: np.ndarray | None = None,
    eta0: np.ndarray | None = None,
    xs0: np.ndarray | None = None,
    divergence_threshold: float = 1e9,
    compute_references: bool = True,
) -> Trace:
    """Integrate the closed loop and (optionally) attach per-segment optimizer
    references computed by the independent oracle.

    controller is either PiGains or a DynamicStabilizer.
    """
    if dt <= 0:
        raise SimulationError("dt must be positive")
    n, m, p = plant.n, plant.m, plant.p
    is_stab = isinstance(controller, DynamicStabilizer)
    ns = controller.order if is_stab else 0
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    eta = np.zeros(m) if eta0 is None else np.asarray(eta0, dtype=float).copy()
    xs = np.zeros(ns) if xs0 is None else np.asarray(xs0, dtype=float).copy()
    if x.shape != (n,) or eta.shape != (m,) or xs.shape != (ns,):
        raise SimulationError("initial condition dimensions do not match")

    affine = objective.is_quadratic
    if affine:
        F, c0, _ = _affine_closed_loop(plant, geometry, objective, controller)

    segs = list(schedule.segments(t_final))
    references: list[OptimizerResult | None] = []
    if compute_references:
        w_warm = None
        for _, _, d in segs:
            ref = solve_steady_state(plant, geometry, objective, d, w0=w_warm)
            w_warm = geometry.Q.T @ np.concatenate([ref.x_star, ref.u_star])
            references.append(ref)
    else:
        references = [None] * len(segs)

    ts = [0.0]
    xs_hist = [x.copy()]
    eta_hist = [eta.copy()]
    stab_hist = [xs.copy()] if is_stab else None
    ref_idx = [0]
    u_prev = None

    def pi_state_derivative(x_, eta_, d_, u_guess):
        y_ = plant.C @ x_
        e_, u_ = pi_dynamics(
            controller, geometry, objective, ControllerState(eta_), y_, u_guess
        )
        return plant.A @ x_ + plant.B @ u_ + d_, e_, u_

    def stab_state_derivative(x_, xs_, eta_, d_, u_guess):
        y_ = plant.C @ x_
        xs_dot, e_, u_ = stabilizer_dynamics(
            controller, geometry, objective, xs_, eta_, y_, u_guess
        )
        return plant.A @ x_ + plant.B @ u_ + d_, xs_dot, e_, u_

    for seg_i, (t0, t1, d) in enumerate(segs):
        # the row at the switching time belongs to the segment it starts
        ref_idx[-1] = seg_i
        d = check_disturbance(plant, d)
        n_steps, h = _segment_steps(t0, t1, dt)
        if affine:
            Phi, G = _rk4_one_step_maps(F, h)
            Ed = np.zeros(F.shape[0])
            Ed[:n] = d
            psi = G @ (c0 + Ed)
            s = (
                np.concatenate([x, xs, eta]) if is_stab else np.concatenate([x, eta])
            )
            for k in range(n_steps):
                s = Phi @ s + psi
                if not np.all(np.isfinite(s)) or np.linalg.norm(s) > divergence_threshold:
                    raise DivergenceError(
                        f"state diverged at t = {t0 + (k + 1) * h:.6g}"
                    )
                x = s[:n]
                if is_stab:
                    xs = s[n : n + ns]
                    eta = s[n + ns :]
                    stab_hist.append(xs.copy())
                else:
                    eta = s[n:]
                ts.append(t0 + (k + 1) * h)
                xs_hist.append(x.copy())
                eta_hist.append(eta.copy())
                ref_idx.append(seg_i)
            continue
        for k in range(n_steps):
            if is_stab:
                k1x, k1s, k1e, u1 = stab_state_derivative(x, xs, eta, d, u_prev)
                k2x, k2s, k2e, u2 = stab_state_derivative(
                    x + 0.5 * h * k1x, xs + 0.5 * h * k1s, eta + 0.5 * h * k1e, d, u1
                )
                k3x, k3s, k3e, u3 = stab_state_derivative(
                    x + 0.5 * h * k2x, xs + 0.5 * h * k2s, eta + 0.5 * h * k2e, d, u2
                )
                k4x, k4s, k4e, u4 = stab_state_derivative(
                    x + h * k3x, xs + h * k3s, eta + h * k3e, d, u3
                )
                x = x + (h / 6) * (k1x + 2 * k2x + 2 * k3x + k4x)
                xs = xs + (h / 6) * (k1s + 2 * k2s + 2 * k3s + k4s)
                eta = eta + (h / 6) * (k1e + 2 * k2e + 2 * k3e + k4e)
                stab_hist.append(xs.copy())
                u_prev = u4
            else:
                k1e, u1 = None, None
                f1, e1, u1 = pi_state_derivative(x, eta, d, u_prev)
                f2, e2, u2 = pi_state_derivative(
                    x + 0.5 * h * f1, eta + 0.5 * h * e1, d, u1
                )
                f3, e3, u3 = pi_state_derivative(
                    x + 0.5 * h * f2, eta + 0.5 * h * e2, d, u2
                )
                f4, e4, u4 = pi_state_derivative(x + h * f3, eta + h * e3, d, u3)
                x = x + (h / 6) * (f1 + 2 * f2 + 2 * f3 + f4)
                eta = eta + (h / 6) * (e1 + 2 * e2 + 2 * e3 + e4)
                u_prev = u4
            if (
                not (np.all(np.isfinite(x)) and np.all(np.isfinite(eta)))
                or max(np.linalg.norm(x), np.linalg.norm(eta)) > divergence_threshold
            ):
                raise DivergenceError(f"state diverged at t = {t0 + (k + 1) * h:.6g}")
            ts.append(t0 + (k + 1) * h)
            xs_hist.append(x.copy())
            eta_hist.append(eta.copy())
            ref_idx.append(seg_i)

    t_arr = np.array(ts)
    x_arr = np.array(xs_hist)
    eta_arr = np.array(eta_hist)
    y_arr = x_arr @ plant.C.T
    # recover u and e pointwise from the stored states
    u_arr = np.empty((t_arr.size, m))
    e_arr = np.empty((t_arr.size, m))
    if affine:
        H = objective.hessian
        q = objective.linear_term
        RT = geometry.R.T
        Gy = RT @ H[:, :p]
        Gu = RT @ H[:, p:]
        g0 = RT @ q
        if is_stab:
            L = np.linalg.inv(np.eye(m) + controller.D_s_e @ Gu)
            stab_arr = np.array(stab_hist)
            pre = (
                y_arr @ (controller.D_s_y - controller.D_s_e @ Gy).T
                + stab_arr @ controller.C_s.T
                + eta_arr @ controller.D_s_eta.T
                - g0 @ controller.D_s_e.T
            )
            u_arr = pre @ L.T
        else:
            L = np.linalg.inv(np.eye(m) + controller.K_P @ Gu)
            pre = eta_arr @ controller.K_I.T - (y_arr @ Gy.T + g0) @ controller.K_P.T
            u_arr = pre @ L.T
        e_arr = -(y_arr @ Gy.T + u_arr @ Gu.T + g0)
    else:
        guess = None
        for k in range(t_arr.size):
            if is_stab:
                _, e_k, u_k = stabilizer_dynamics(
                    controller,
                    geometry,
                    objective,
                    np.array(stab_hist[k]),
                    eta_arr[k],
                    y_arr[k],
                    guess,
                )
            else:
                e_k, u_k = pi_dynamics(
                    controller,
                    geometry,
                    objective,
                    ControllerState(eta_arr[k]),
                    y_arr[k],
                    guess,
                )
            u_arr[k] = u_k
            e_arr[k] = e_k
            guess = u_k

    ystar = np.zeros((t_arr.size, p))
    ustar = np.zeros((t_arr.size, m))
    if compute_references:
        for k, i in enumerate(ref_idx):
            ystar[k] = references[i].y_star
            ustar[k] = references[i].u_star

    return Trace(
        t=t_arr,
        x=x_arr,
        eta=eta_arr,
        y=y_arr,
        u=u_arr,
        e=e_arr,
        y_star=ystar,
        u_star=ustar,
        x_s=np.array(stab_hist) if is_stab else None,
        segment_starts=np.array([s[0] for s in segs]),
        references=references,
    )


def convergence_metrics(trace: Trace) -> list[dict]:
    """Per-segment tracking metrics against the optimizer reference.

    settling_time is the first time (relative to the segment start) after
    which the error stays below 2% of the error at the segment start; None if
    that never happens within the segment.
    """
    err = trace.tracking_error()
    out = []
    starts = list(trace.segment_starts) + [trace.t[-1] + 1.0]
    for i in range(len(trace.segment_starts)):
        mask = (trace.t >= starts[i] - 1e-12) & (trace.t < starts[i + 1] - 1e-12)
        idx = np.where(mask)[0]
        if i == len(trace.segment_starts) - 1:
            idx = np.where(trace.t >= starts[i] - 1e-12)[0]
        seg_err = err[idx]
        seg_t = trace.t[idx]
        initial = seg_err[0]
        terminal = seg_err[-1]
        band = 0.02 * max(initial, 1e-300)
        settling = None
        above = np.where(seg_err > band)[0]
        if above.size == 0:
            settling = 0.0
        elif above[-1] + 1 < seg_err.size:
            settling = float(seg_t[above[-1] + 1] - seg_t[0])
        out.append(
            {
                "segment": i,
                "t_start": float(seg_t[0]),
                "t_end": float(seg_t[-1]),
                "initial_error": float(initial),
                "terminal_error": float(terminal),
                "peak_error": float(seg_err.max()),
                "settling_time": settling,
            }
        )
    return out
