"""Closed-loop time simulation under piecewise-constant disturbances.

Fixed-step classical Runge-Kutta on one loop, built once per call: the
loop the controller closes on the plant (synthesis.closed_loop), with the
state s = (x, eta, x_s).  In general each stage evaluates that loop with
controller.stabilizer_dynamics, which re-solves the implicit input equation.
For quadratic costs the loop is affine, and the RK4 step
reduces to one affine map s+ = Phi s + psi.  Each segment then advances in
blocks of J = _BLOCK steps: the stacked powers Phi^1..Phi^J and their offsets
give a whole block of rows from its first state in one matrix product, with
one divergence test per block.  This is the same RK4 discretization, so the
trace agrees with stepping the map one row at a time to rounding.

Trace.to_csv formats chunks of _CSV_ROWS rows with _trace_csv.csv_bytes
(digits from integer tables where float64 proves them correctly rounded,
Python's formatter for the rest) and writes them in binary mode: the file is
byte-for-byte what np.savetxt writes with fmt="%.12g", delimiter="," and
newline="\r\n", without a copy of the whole trace.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._trace_csv import csv_bytes
from .controller import stabilizer_dynamics
from .errors import AlgebraicLoopError, DivergenceError, SimulationError
from .kkt import KktGeometry
from .objective import SteadyStateObjective
from .oracle import OptimizerResult, solve_steady_state
from .plant import LtiPlant, check_disturbance
from .synthesis import closed_loop

#: steps advanced by one matrix product on the affine path
_BLOCK = 256

#: trace rows formatted and written per call in Trace.to_csv; the kernel's
#: temporaries, about 280 bytes per value, peak near 1.3 MB at 18 columns
_CSV_ROWS = 256

#: trace rows per block in Trace.tracking_error
_NORM_ROWS = 4096

#: a state whose norm exceeds this (or is not finite) has diverged
_DIVERGENCE_NORM = 1e9

# nothing here calls this name: only perfbench/tracing.py looks it up, and
# it goes when the benchmark traces stabilizer_dynamics (ROADMAP item 5)
pi_dynamics = stabilizer_dynamics


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
    x_s: np.ndarray
    #: the first row of each segment; the row at a switch starts the new one
    segment_rows: np.ndarray = field(default_factory=lambda: np.array([0]))
    references: list[OptimizerResult] = field(default_factory=list)

    def tracking_error(self) -> np.ndarray:
        """||(y, u) - (y*, u*)|| at each sample.  Evaluated in blocks of
        _NORM_ROWS rows, so no temporary spans the trace; each row's norm is
        the one np.linalg.norm(..., axis=1) gives on the whole trace."""
        err = np.empty(self.t.size)
        for start in range(0, self.t.size, _NORM_ROWS):
            rows = slice(start, start + _NORM_ROWS)
            d = np.hstack([self.y[rows] - self.y_star[rows], self.u[rows] - self.u_star[rows]])
            err[rows] = np.linalg.norm(d, axis=1)
        return err

    def to_csv(self, path: str) -> None:
        """One row per sample, 12 significant digits, CRLF line endings; the
        header names each column by its block and 1-based index (t, x1..,
        xs1.., eta1.., y1.., u1.., e1.., ystar1.., ustar1..).

        The rows are formatted by csv_bytes in chunks of _CSV_ROWS, so no
        copy of the whole trace is made, and written in binary mode: the
        file is byte-for-byte the one np.savetxt writes with fmt="%.12g",
        delimiter="," and newline="\r\n", on every platform."""
        blocks = [
            ("t", self.t[:, None]),
            ("x", self.x),
            ("xs", self.x_s),
            ("eta", self.eta),
            ("y", self.y),
            ("u", self.u),
            ("e", self.e),
            ("ystar", self.y_star),
            ("ustar", self.u_star),
        ]
        header = ",".join(
            name if name == "t" else f"{name}{i + 1}"
            for name, block in blocks
            for i in range(block.shape[1])
        )
        with open(path, "wb") as fh:
            fh.write(header.encode() + b"\r\n")
            for start in range(0, self.t.size, _CSV_ROWS):
                rows = slice(start, start + _CSV_ROWS)
                chunk = np.hstack([block[rows] for _, block in blocks], dtype=float)
                fh.write(csv_bytes(chunk))


def _affine_closed_loop(loop, geometry, objective):
    """(F, c0, M, m0) of the affine closed loop s' = F s + c0 + E d on
    s = (x, eta, x_s), valid when the cost is quadratic.  E injects d into
    the x block, and the outputs are (u, e) = M s + m0.  The loop (A, B, C,
    D) of synthesis.closed_loop is closed once more by the gradient
    w = H z + q, with H and q the cost's Hessian and gradient at 0; that
    algebraic loop is taken as well-posed when I - H D is finite and its
    condition number is at most 1e12."""
    A, B, C, D = loop
    p, m = objective.p, objective.m
    H = objective.hessian(np.zeros(p), np.zeros(m))
    q = objective.gradient(np.zeros(p), np.zeros(m))
    L = np.eye(p + m) - H @ D
    # cond raises on a non-finite L, which an overflowing gain gives
    if not np.isfinite(L).all() or np.linalg.cond(L) > 1e12:
        raise AlgebraicLoopError(
            "algebraic loop ill-posed for this quadratic cost"
            " (I - H D is not finite or its condition number is above 1e12)"
        )
    Li = np.linalg.inv(L)
    # the gradient w = Ws s + w0, and e = -R' w
    Ws = Li @ H @ C
    w0 = Li @ q
    RT = geometry.R.T
    M = np.vstack([(C + D @ Ws)[p:], -RT @ Ws])
    m0 = np.concatenate([(D @ w0)[p:], -RT @ w0])
    return A + B @ Ws, B @ w0, M, m0


def _rk4_one_step_maps(F: np.ndarray, dt: float):
    """Exact RK4 update maps: s+ = Phi s + G c for s' = F s + c."""
    d = F.shape[0]
    I = np.eye(d)
    F2 = F @ F
    F3 = F2 @ F
    Phi = I + dt * F + (dt**2 / 2) * F2 + (dt**3 / 6) * F3 + (dt**4 / 24) * F3 @ F
    G = dt * I + (dt**2 / 2) * F + (dt**3 / 6) * F2 + (dt**4 / 24) * F3
    return Phi, G


def _advance_affine(hist, row, n_steps, Phi, psi, t):
    """Fill hist[row+1 : row+1+n_steps] by the map s+ = Phi s + psi from
    hist[row], one block of rows per matrix product.

    A block with a row whose norm is above _DIVERGENCE_NORM (or not finite) is
    replayed one step at a time from its first state, so DivergenceError
    names the first row that crosses.  If none does (a power of Phi can
    overflow while the state stays 0), the replayed rows are kept."""
    with np.errstate(over="ignore", invalid="ignore"):
        # j+1 steps from s land on P[j] @ s + o[j]
        J = min(_BLOCK, n_steps)
        P = np.empty((J,) + Phi.shape)
        o = np.empty((J, psi.size))
        P[0], o[0] = Phi, psi
        for j in range(1, J):
            P[j] = Phi @ P[j - 1]
            o[j] = Phi @ o[j - 1] + psi
        s = hist[row]
        end = row + n_steps
        while row < end:
            k = min(J, end - row)
            blk = hist[row + 1 : row + 1 + k]
            blk[:] = P[:k] @ s + o[:k]
            if not np.all(np.linalg.norm(blk, axis=1) <= _DIVERGENCE_NORM):
                for i in range(k):
                    s = Phi @ s + psi
                    if not np.linalg.norm(s) <= _DIVERGENCE_NORM:
                        raise DivergenceError(
                            f"state diverged at t = {t[row + 1 + i]:.6g}"
                        )
                    blk[i] = s
            s = blk[-1]
            row += k
    return row


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
) -> Trace:
    """Integrate the closed loop and attach per-segment optimizer references
    computed by the independent oracle.

    The state is s = (x, eta, x_s), the order of synthesis.closed_loop; a
    PI law is a zero-order stabilizer, with no x_s.
    """
    if not 0 < dt < np.inf:
        raise SimulationError("dt must be positive and finite")
    n, m = plant.n, plant.m
    loop = closed_loop(plant, geometry, controller)
    ns = loop[0].shape[0] - n - m
    s = []
    for name, v, size in (("x0", x0, n), ("eta0", eta0, m), ("xs0", xs0, ns)):
        v = np.zeros(size) if v is None else np.asarray(v, dtype=float)
        if v.shape != (size,):
            got = f"length {v.size}" if v.ndim == 1 else f"shape {v.shape}"
            raise SimulationError(f"{name} has {got}, expected length {size}")
        s.append(v)
    s = np.concatenate(s)

    segs = list(schedule.segments(t_final))
    references = []
    w_warm = None
    for _, _, d in segs:
        ref = solve_steady_state(plant, geometry, objective, d, w0=w_warm)
        w_warm = geometry.Q.T @ np.concatenate([ref.x_star, ref.u_star])
        references.append(ref)

    try:
        steps = [_segment_steps(t0, t1, dt) for t0, t1, _ in segs]
        t_arr = np.concatenate(
            [[0.0]]
            + [t0 + h * np.arange(1, k + 1) for (t0, _, _), (k, h) in zip(segs, steps)]
        )
        # the row at a switching time belongs to the segment it starts
        ref_idx = np.concatenate(
            [np.full(k, i) for i, (k, _) in enumerate(steps)] + [[len(segs) - 1]]
        )
        hist = np.empty((t_arr.size, s.size))
    except (MemoryError, OverflowError, ValueError) as exc:
        raise SimulationError(
            f"cannot build a time grid of {t_final / dt:.4g} steps: {exc}"
        ) from exc

    affine = objective.is_quadratic
    if affine:
        F, c0, M, m0 = _affine_closed_loop(loop, geometry, objective)
    else:
        u_rec = np.empty((t_arr.size, m))
        e_rec = np.empty((t_arr.size, m))

    hist[0] = s
    row = 0
    u = None
    for (_, _, d), (n_steps, h) in zip(segs, steps):
        drift = np.concatenate([check_disturbance(plant, d), np.zeros(m + ns)])
        if affine:
            Phi, G = _rk4_one_step_maps(F, h)
            row = _advance_affine(hist, row, n_steps, Phi, G @ (c0 + drift), t_arr)
            continue
        half = 0.5 * h
        for _ in range(n_steps):
            # the first stage is evaluated at the stored state, so its u and
            # e (the eta rows of the derivative) are that row's
            k1, u = stabilizer_dynamics(loop, objective, s, drift, u)
            u_rec[row], e_rec[row] = u, k1[n : n + m]
            k2, u = stabilizer_dynamics(loop, objective, s + half * k1, drift, u)
            k3, u = stabilizer_dynamics(loop, objective, s + half * k2, drift, u)
            k4, u = stabilizer_dynamics(loop, objective, s + h * k3, drift, u)
            s = s + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            row += 1
            # np.linalg.norm of a real vector, to the bit; also catches inf
            # and nan
            if not math.sqrt(s @ s) <= _DIVERGENCE_NORM:
                raise DivergenceError(f"state diverged at t = {t_arr[row]:.6g}")
            hist[row] = s

    if affine:
        ue = hist @ M.T + m0
        u_rec, e_rec = ue[:, :m], ue[:, m:]
    else:
        k1, u_rec[-1] = stabilizer_dynamics(loop, objective, s, drift, u)
        e_rec[-1] = k1[n : n + m]

    x_arr = hist[:, :n]
    return Trace(
        t=t_arr,
        x=x_arr,
        eta=hist[:, n : n + m],
        y=x_arr @ plant.C.T,
        u=u_rec,
        e=e_rec,
        y_star=np.array([r.y_star for r in references])[ref_idx],
        u_star=np.array([r.u_star for r in references])[ref_idx],
        x_s=hist[:, n + m :],
        segment_rows=np.cumsum([0] + [k for k, _ in steps[:-1]]),
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
    bounds = list(trace.segment_rows) + [trace.t.size]
    for i in range(len(trace.segment_rows)):
        rows = slice(bounds[i], bounds[i + 1])
        seg_err = err[rows]
        seg_t = trace.t[rows]
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
