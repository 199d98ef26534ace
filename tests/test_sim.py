import dataclasses
import math
import tracemalloc
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ossctl as oc
from ossctl._trace_csv import csv_bytes
from ossctl.scenario import load_scenario
from ossctl.sim import (
    _CSV_ROWS,
    _DIVERGENCE_NORM,
    _NORM_ROWS,
    DisturbanceSchedule,
    SimulationError,
    Trace,
    _affine_closed_loop,
    _rk4_one_step_maps,
    _segment_steps,
)
from tests.conftest import A_STABLE, C_ROWS, D_SEGMENTS, scalar_pi


def _written_out(plant, geometry, obj, stab, s, d, u):
    """The loop written out at the state s = (x, eta, x_s) and the input u:
    (s', e, the law's u) from x' = Ax + Bu + d, eta' = e and
    x_s' = A_s x_s + B_s sigma, with u = C_s x_s + D_s sigma,
    sigma = (y, eta, e) and e = -R' grad_g(y, u)."""
    n, m = plant.n, plant.m
    x, eta, x_s = s[:n], s[n : n + m], s[n + m :]
    y = plant.C @ x
    e = -geometry.R.T @ obj.gradient(y, u)
    sigma = np.concatenate([y, eta, e])
    s_dot = np.concatenate(
        [plant.A @ x + plant.B @ u + d, e, stab.A_s @ x_s + stab.B_s @ sigma]
    )
    return s_dot, e, stab.C_s @ x_s + stab.D_s @ sigma


def test_schedule_validation():
    with pytest.raises(SimulationError):
        DisturbanceSchedule(times=[1.0], values=[[0.0]])  # must start at 0
    with pytest.raises(SimulationError):
        DisturbanceSchedule(times=[0.0, 0.0], values=[[0.0], [0.0]])


def test_schedule_lookup():
    sched = DisturbanceSchedule(times=[0.0, 5.0], values=[[1.0], [2.0]])
    segs = list(sched.segments(7.0))
    assert segs[0][:2] == (0.0, 5.0)
    assert segs[1][:2] == (5.0, 7.0)
    assert [seg[2][0] for seg in segs] == [1.0, 2.0]


def test_rk4_map_matches_exact_exponential():
    rng = np.random.default_rng(13)
    F = rng.normal(size=(3, 3)) - 2 * np.eye(3)
    dt = 1e-3
    Phi, G = _rk4_one_step_maps(F, dt)
    from scipy.linalg import expm

    assert np.linalg.norm(Phi - expm(F * dt)) < 1e-13


def _filtered_pi(k_p, k_i):
    """A second-order stabilizer for plant_stable: the PI law plus two stable
    filter states, one driven by e and one by y1."""
    return oc.DynamicStabilizer(
        A_s=np.diag([-4.0, -6.0]),
        B_s=[[0.0, 0.0, 0.0, 1.0], [0.5, 0.0, 0.0, 0.0]],
        C_s=[[0.5, -0.2]],
        D_s=[[0.0, 0.0, k_i, k_p]],
        p=2,
        m=1,
    )


def test_affine_and_generic_paths_agree(plant_stable, geometry_stable, quadratic_obj):
    sched = DisturbanceSchedule(times=[0.0, 1.0], values=D_SEGMENTS[:2].tolist())
    # the same cost with is_quadratic left False takes the generic path
    hidden = oc.SteadyStateObjective(
        value=quadratic_obj.value,
        gradient=quadratic_obj.gradient,
        hessian=quadratic_obj.hessian,
        p=2,
        m=1,
        kappa=quadratic_obj.kappa,
        lipschitz=quadratic_obj.lipschitz,
    )
    # PI (no stabilizer state) and a second-order stabilizer
    controllers = (scalar_pi(2.0, 2.0), _filtered_pi(2.0, 2.0))
    for controller, ns in zip(controllers, (0, 2)):
        fast, slow = (
            oc.simulate(
                plant_stable, geometry_stable, obj, controller, sched, 2.0,
                dt=1e-3,
            )
            for obj in (quadratic_obj, hidden)
        )
        assert fast.x_s.shape == slow.x_s.shape == (fast.t.size, ns)
        for name in ("x", "x_s", "u", "e"):
            gap = np.abs(getattr(fast, name) - getattr(slow, name))
            assert np.max(gap, initial=0.0) < 1e-7


@pytest.mark.parametrize("kind", ["pi", "synthesized"])
def test_affine_map_is_the_generic_derivative(
    kind, plant_unstable, geometry_unstable, synthesis_result
):
    # at random states of s = (x, eta, x_s), the affine path's F s + c0 + E d
    # and (u, e) = M s + m0 are the loop written out, with u the solution of
    # its law, which is affine in u for a quadratic cost
    plant, geometry = plant_unstable, geometry_unstable
    n, m = plant.n, plant.m
    rng = np.random.default_rng(32)
    G = rng.normal(size=(3, 3))
    obj = oc.quadratic_objective(G @ G.T + np.eye(3), rng.normal(size=3), p=2)
    if kind == "pi":
        stab = scalar_pi(2.0, 1.5)
    else:
        stab = synthesis_result[1].stabilizer
    loop = oc.closed_loop(plant, geometry, stab)
    F, c0, M, m0 = _affine_closed_loop(loop, geometry, obj)
    assert F.shape == (n + m + stab.order,) * 2
    for _ in range(20):
        s = rng.normal(size=F.shape[0])
        d = rng.normal(size=n)

        def law(u):
            return _written_out(plant, geometry, obj, stab, s, d, u)[2]

        law0 = law(np.zeros(m))
        J = np.column_stack([law(col) - law0 for col in np.eye(m)])
        u = np.linalg.solve(np.eye(m) - J, law0)
        generic, e, _ = _written_out(plant, geometry, obj, stab, s, d, u)
        affine = F @ s + c0 + np.concatenate([d, np.zeros(m + stab.order)])
        assert np.linalg.norm(affine - generic) <= 1e-10 * np.linalg.norm(generic)
        ue = np.concatenate([u, e])
        assert np.linalg.norm(M @ s + m0 - ue) <= 1e-10 * np.linalg.norm(ue)


@pytest.mark.parametrize("kind", ["pi", "filtered"])
def test_stabilizer_dynamics_is_the_written_out_loop(
    kind, plant_stable, geometry_stable, cosh_obj
):
    # the nonlinear path's per-stage evaluation on the closed_loop
    # realization, at random states, is the plant, integrator and stabilizer
    # written out, and its u solves the implicit law
    plant, geometry = plant_stable, geometry_stable
    n, m = plant.n, plant.m
    if kind == "pi":
        stab = scalar_pi(10.0, 5.0)
    else:
        stab = _filtered_pi(2.0, 2.0)
    assert np.any(stab.D_s[:, plant.p + m :])
    loop = oc.closed_loop(plant, geometry, stab)
    rng = np.random.default_rng(34)
    u_prev = None
    for _ in range(20):
        s = rng.normal(size=n + m + stab.order)
        d = rng.normal(size=n)
        drift = np.concatenate([d, np.zeros(m + stab.order)])
        s_dot, u = oc.stabilizer_dynamics(loop, cosh_obj, s, drift, u_prev)
        want, _, law = _written_out(plant, geometry, cosh_obj, stab, s, d, u)
        assert np.linalg.norm(s_dot - want) <= 1e-10 * np.linalg.norm(want)
        assert np.all(np.abs(u - law) <= 1e-9 * (1.0 + np.abs(law)))
        u_prev = u


def test_recorded_input_satisfies_pi_law_cosh(
    plant_stable, geometry_stable, cosh_obj
):
    # every row's (u, e), including the switching row and the final one, is
    # the solution of the implicit input equation at that row's state
    K_P, K_I = 2.0 * np.eye(1), 2.0 * np.eye(1)
    pi = oc.DynamicStabilizer.pi(K_P, K_I, 2)
    sched = DisturbanceSchedule(times=[0.0, 0.1], values=D_SEGMENTS[:2].tolist())
    trace = oc.simulate(
        plant_stable, geometry_stable, cosh_obj, pi, sched, 0.2,
        dt=1e-2,
    )
    assert np.min(np.abs(trace.t - 0.1)) < 1e-12
    law = trace.eta @ K_I.T + trace.e @ K_P.T
    assert np.all(np.abs(trace.u - law) <= 1e-9 * (1.0 + np.abs(law)))
    grad = np.array(
        [cosh_obj.gradient(y, u) for y, u in zip(trace.y, trace.u)]
    )
    e = -grad @ geometry_stable.R
    assert np.all(np.abs(trace.e - e) <= 1e-9 * (1.0 + np.abs(e)))


def _example_vb():
    return load_scenario(
        str(resources.files("ossctl").joinpath("scenarios/example_vb.json"))
    )


def _two_input_cosh_objective():
    """g = cosh(y1/2) + cosh(y2/3) + u1^2 + u2^2 + u1 u2 / 2 + cosh(u1 - u2) / 4
    on p = 2 outputs and m = 2 inputs: strongly convex, with a gradient
    nonlinear in u, so the several-input solve takes Newton steps."""

    def value(y, u):
        return (
            math.cosh(y[0] / 2.0) + math.cosh(y[1] / 3.0)
            + u[0] ** 2 + u[1] ** 2 + 0.5 * u[0] * u[1]
            + 0.25 * math.cosh(u[0] - u[1])
        )

    def gradient(y, u):
        c = 0.25 * math.sinh(u[0] - u[1])
        return np.array(
            [
                0.5 * math.sinh(y[0] / 2.0),
                math.sinh(y[1] / 3.0) / 3.0,
                2.0 * u[0] + 0.5 * u[1] + c,
                2.0 * u[1] + 0.5 * u[0] - c,
            ]
        )

    def hessian(y, u):
        c = 0.25 * math.cosh(u[0] - u[1])
        h = np.zeros((4, 4))
        h[0, 0] = math.cosh(y[0] / 2.0) / 4.0
        h[1, 1] = math.cosh(y[1] / 3.0) / 9.0
        h[2:, 2:] = [[2.0 + c, 0.5 - c], [0.5 - c, 2.0 + c]]
        return h

    return oc.SteadyStateObjective(
        value=value, gradient=gradient, hessian=hessian, p=2, m=2,
        kappa=1.0 / 9.0, lipschitz=np.inf,
    )


def _rk4_by_stabilizer_dynamics(plant, geometry, objective, controller, schedule, t_final, dt):
    """(states, u, e) rows of classical RK4 on oc.closed_loop with
    oc.stabilizer_dynamics at each of the four stages, each stage's solve
    starting from the previous stage's u, and one more evaluation at the
    final state: the loop simulate runs, from s = 0."""
    loop = oc.closed_loop(plant, geometry, controller)
    n, m = plant.n, plant.m
    s = np.zeros(loop[0].shape[0])
    states, us, es = [s], [], []
    u = None
    for t0, t1, d in schedule.segments(t_final):
        n_steps, h = _segment_steps(t0, t1, dt)
        half = 0.5 * h
        drift = np.concatenate([d, np.zeros(s.size - n)])
        for _ in range(n_steps):
            k1, u = oc.stabilizer_dynamics(loop, objective, s, drift, u)
            us.append(u)
            es.append(k1[n : n + m])
            k2, u = oc.stabilizer_dynamics(loop, objective, s + half * k1, drift, u)
            k3, u = oc.stabilizer_dynamics(loop, objective, s + half * k2, drift, u)
            k4, u = oc.stabilizer_dynamics(loop, objective, s + h * k3, drift, u)
            s = s + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            states.append(s)
    k1, u = oc.stabilizer_dynamics(loop, objective, s, drift, u)
    us.append(u)
    es.append(k1[n : n + m])
    return np.array(states), np.array(us), np.array(es)


@pytest.mark.parametrize("case", ["example_vb", "filtered", "two_inputs"])
def test_simulate_is_the_rk4_of_stabilizer_dynamics(
    case, plant_stable, geometry_stable, cosh_obj
):
    # simulate evaluates the nonlinear loop through an evaluator it builds
    # once; every row it records is, to the bit, the one RK4 gives with
    # stabilizer_dynamics called afresh at each stage.  Each case spans a
    # disturbance switch
    values = D_SEGMENTS[:2].tolist()
    if case == "example_vb":
        scn = _example_vb()
        plant, objective, controller = scn.plant, scn.objective, scn.controller
        values = scn.schedule.values[:2]
    elif case == "filtered":
        plant, objective = plant_stable, cosh_obj
        controller = _filtered_pi(2.0, 2.0)
    else:
        B = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        plant = oc.LtiPlant(A=A_STABLE, B=B, C=C_ROWS)
        objective = _two_input_cosh_objective()
        controller = oc.DynamicStabilizer.pi(2.0 * np.eye(2), 2.0 * np.eye(2), 2)
    geometry = oc.build_kkt_geometry(plant)
    sched = DisturbanceSchedule(times=[0.0, 0.15], values=values)
    trace = oc.simulate(plant, geometry, objective, controller, sched, 0.3, dt=1e-3)
    states, u, e = _rk4_by_stabilizer_dynamics(
        plant, geometry, objective, controller, sched, 0.3, 1e-3
    )
    n, m = plant.n, plant.m
    assert trace.t.size == states.shape[0] == 301
    assert states.shape[1] == n + m + controller.order
    assert np.array_equal(trace.x, states[:, :n])
    assert np.array_equal(trace.eta, states[:, n : n + m])
    assert np.array_equal(trace.x_s, states[:, n + m :])
    assert np.array_equal(trace.u, u)
    assert np.array_equal(trace.e, e)


def test_newton_work_on_example_vb_is_pinned():
    # the number of cost evaluations on a short example_vb run: 1,201 RK4
    # stages (300 steps and the final row) and the two segments' oracle
    # solves.  Building the stage evaluator once saves bookkeeping, not
    # solves: these are the counts the per-stage evaluation made
    scn = _example_vb()
    calls = {"gradient": 0, "hessian": 0}

    def counted(name):
        fn = getattr(scn.objective, name)

        def wrapper(y, u):
            calls[name] += 1
            return fn(y, u)

        return wrapper

    objective = dataclasses.replace(
        scn.objective, gradient=counted("gradient"), hessian=counted("hessian")
    )
    sched = DisturbanceSchedule(times=[0.0, 0.15], values=scn.schedule.values[:2])
    geometry = oc.build_kkt_geometry(scn.plant)
    trace = oc.simulate(scn.plant, geometry, objective, scn.controller, sched, 0.3, dt=1e-3)
    assert trace.t.size == 301
    assert calls == {"gradient": 2413, "hessian": 1206}


def test_segment_boundaries_on_step_grid(plant_stable, geometry_stable, quadratic_obj):
    pi = scalar_pi(2.0, 2.0)
    sched = DisturbanceSchedule(
        times=[0.0, 0.5, 1.25], values=D_SEGMENTS.tolist()
    )
    trace = oc.simulate(
        plant_stable, geometry_stable, quadratic_obj, pi, sched, 2.0,
        dt=1e-2,
    )
    for t_switch in (0.5, 1.25):
        assert np.min(np.abs(trace.t - t_switch)) < 1e-12


def test_tracking_converges_quadratic(plant_stable, geometry_stable, quadratic_obj):
    pi = scalar_pi(2.0, 2.0)
    sched = DisturbanceSchedule.constant(D_SEGMENTS[0])
    trace = oc.simulate(
        plant_stable, geometry_stable, quadratic_obj, pi, sched, 20.0, dt=1e-3
    )
    assert trace.tracking_error()[-1] < 1e-6
    metrics = oc.convergence_metrics(trace)
    assert metrics[0]["terminal_error"] < 1e-6
    assert metrics[0]["settling_time"] is not None


def test_switch_row_belongs_to_new_segment(plant_stable, geometry_stable, quadratic_obj):
    # (switch time, t_final, dt); at the long horizon one ulp of t is larger
    # than 1e-12, so only the row index tells which segment a row is in
    cases = [(5.0, 10.0, 1e-2), (20005.549999999985, 20015.549999999985, 0.25)]
    pi = scalar_pi(2.0, 2.0)
    for t_switch, t_final, dt in cases:
        sched = DisturbanceSchedule(
            times=[0.0, t_switch], values=D_SEGMENTS[:2].tolist()
        )
        trace = oc.simulate(
            plant_stable, geometry_stable, quadratic_obj, pi, sched, t_final, dt=dt
        )
        k = int(np.argmin(np.abs(trace.t - t_switch)))
        refs = trace.references
        assert np.array_equal(trace.y_star[k], refs[1].y_star)
        assert np.array_equal(trace.y_star[k - 1], refs[0].y_star)

        def error(row, ref):
            return np.linalg.norm(
                np.concatenate([trace.y[row] - ref.y_star, trace.u[row] - ref.u_star])
            )

        metrics = oc.convergence_metrics(trace)
        assert metrics[0]["t_end"] == trace.t[k - 1]
        terminal, initial = error(k - 1, refs[0]), error(k, refs[1])
        assert metrics[0]["terminal_error"] == pytest.approx(terminal, rel=1e-12)
        assert metrics[0]["settling_time"] is not None
        assert metrics[1]["t_start"] == trace.t[k] == pytest.approx(t_switch)
        assert metrics[1]["initial_error"] == pytest.approx(initial, rel=1e-12)
        assert metrics[1]["settling_time"] is not None


def _stepwise(plant, geometry, obj, stab, schedule, t_final, dt, s0):
    """(t, states, (u, e)) of the affine loop stepped one RK4 map at a time."""
    loop = oc.closed_loop(plant, geometry, stab)
    F, c0, M, m0 = _affine_closed_loop(loop, geometry, obj)
    t, rows, s = [0.0], [s0], s0
    for t0, t1, d in schedule.segments(t_final):
        k = max(1, int(round((t1 - t0) / dt)))
        h = (t1 - t0) / k
        Phi, G = _rk4_one_step_maps(F, h)
        psi = G @ (c0 + np.concatenate([d, np.zeros(F.shape[0] - d.size)]))
        t.extend(t0 + h * np.arange(1, k + 1))
        for _ in range(k):
            s = Phi @ s + psi
            rows.append(s)
    rows = np.array(rows)
    return np.array(t), rows, rows @ M.T + m0


@pytest.mark.parametrize("kind", ["pi", "synthesized"])
def test_block_map_matches_stepwise_map(
    kind, plant_stable, geometry_stable, plant_unstable, geometry_unstable,
    quadratic_obj, synthesis_result,
):
    # segments of 1, 255, 256, 257 and 1,000 steps: shorter than a block,
    # one block less and more a step, and several blocks
    if kind == "pi":
        plant, geometry = plant_stable, geometry_stable
        stab = scalar_pi(2.0, 2.0)
    else:
        plant, geometry = plant_unstable, geometry_unstable
        stab = synthesis_result[1].stabilizer
    dt = 1e-2
    times = dt * np.cumsum([0, 1, 255, 256, 257])
    sched = DisturbanceSchedule(
        times=times, values=np.vstack([D_SEGMENTS, -D_SEGMENTS[:2]])
    )
    t_final = times[-1] + 1000 * dt
    rng = np.random.default_rng(33)
    x0, eta0, xs0 = (rng.normal(size=k) for k in (plant.n, plant.m, stab.order))
    trace = oc.simulate(
        plant, geometry, quadratic_obj, stab, sched, t_final, dt=dt,
        x0=x0, eta0=eta0, xs0=xs0,
    )
    t, rows, ue = _stepwise(
        plant, geometry, quadratic_obj, stab, sched, t_final, dt,
        np.concatenate([x0, eta0, xs0]),
    )
    assert t.size == 1 + 1 + 255 + 256 + 257 + 1000
    assert np.array_equal(trace.t, t)
    n, m = plant.n, plant.m
    pairs = (
        (trace.x, rows[:, :n]),
        (trace.eta, rows[:, n : n + m]),
        (trace.x_s, rows[:, n + m :]),
        (trace.y, rows[:, :n] @ plant.C.T),
        (trace.u, ue[:, :m]),
        (trace.e, ue[:, m:]),
    )
    for got, want in pairs:
        assert got.shape == want.shape
        scale = np.max(np.abs(want), axis=0, initial=0.0)
        assert np.all(np.abs(got - want) <= 1e-11 * scale)


def _first_row_past_bound(plant, geometry, objective, pi, d, dt):
    """The first row whose state norm exceeds _DIVERGENCE_NORM, by stepping
    the loop's exact RK4 map from rest."""
    F, c0, _, _ = _affine_closed_loop(oc.closed_loop(plant, geometry, pi), geometry, objective)
    Phi, G = _rk4_one_step_maps(F, dt)
    psi = G @ (c0 + np.concatenate([d, np.zeros(1)]))
    s, step = np.zeros(F.shape[0]), 0
    while np.linalg.norm(s) <= _DIVERGENCE_NORM:
        s = Phi @ s + psi
        step += 1
    return step


@pytest.mark.filterwarnings("error")
def test_divergence_detected(plant_unstable, geometry_unstable, quadratic_obj):
    # zero-gain-like controller cannot stabilize the unstable plant; the
    # reported time is the first step whose state norm crosses the threshold
    pi = scalar_pi(0.0, 1e-9)
    d = D_SEGMENTS[0]
    step = _first_row_past_bound(plant_unstable, geometry_unstable, quadratic_obj, pi, d, 1e-3)
    sched = DisturbanceSchedule.constant(d)
    with pytest.raises(oc.DivergenceError, match=rf"at t = {step * 1e-3:.6g}$"):
        oc.simulate(
            plant_unstable, geometry_unstable, quadratic_obj, pi, sched,
            60.0, dt=1e-3,
        )


@pytest.mark.filterwarnings("error")
def test_nonlinear_divergence_detected(plant_unstable, geometry_unstable, quadratic_obj):
    # the quadratic cost marked non-quadratic runs the Newton RK4 loop, whose
    # states are the affine map's to rounding; the reported time is the row
    # where the map first passes the bound, and the trace that stops one row
    # short of it stays within the bound
    obj = dataclasses.replace(quadratic_obj, is_quadratic=False)
    pi = scalar_pi(0.0, 1e-9)
    d, dt = D_SEGMENTS[0], 1e-2
    step = _first_row_past_bound(plant_unstable, geometry_unstable, quadratic_obj, pi, d, dt)
    sched = DisturbanceSchedule.constant(d)
    with pytest.raises(oc.DivergenceError, match=rf"^state diverged at t = {step * dt:.6g}$"):
        oc.simulate(plant_unstable, geometry_unstable, obj, pi, sched, 60.0, dt=dt)
    trace = oc.simulate(
        plant_unstable, geometry_unstable, obj, pi, sched, (step - 1) * dt, dt=dt
    )
    norms = np.linalg.norm(np.hstack([trace.x, trace.eta]), axis=1)
    assert norms.size == step and norms.max() <= _DIVERGENCE_NORM


@pytest.mark.parametrize("call", ["simulate", "stabilizer_dynamics"])
def test_cost_overflow_is_divergence(call, plant_stable, geometry_stable, cosh_obj):
    # cosh(y1 / 2) overflows a double beyond |y1| ~ 1420; y1 = 1e4 here
    pi = scalar_pi(10.0, 5.0)
    x0 = np.array([1e4, 0.0, 0.0, 0.0])
    with pytest.raises(
        oc.DivergenceError, match="^the cost overflows along the trajectory$"
    ) as info:
        if call == "simulate":
            sched = DisturbanceSchedule.constant(D_SEGMENTS[0])
            oc.simulate(plant_stable, geometry_stable, cosh_obj, pi, sched, 1.0, x0=x0)
        else:
            loop = oc.closed_loop(plant_stable, geometry_stable, pi)
            s = np.append(x0, 0.0)
            oc.stabilizer_dynamics(loop, cosh_obj, s, np.zeros(s.size))
    assert isinstance(info.value.__cause__, OverflowError)


def test_overflowing_block_keeps_a_resting_state(
    plant_unstable, geometry_unstable, quadratic_obj
):
    # at dt = 10 the powers of the unstable loop's map overflow within one
    # block, while the loop at rest with d = 0 and q = 0 stays at 0: the
    # flagged block is replayed step by step and no divergence is reported
    pi = scalar_pi(0.0, 1e-9)
    sched = DisturbanceSchedule.constant(np.zeros(plant_unstable.n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = oc.simulate(
            plant_unstable, geometry_unstable, quadratic_obj, pi, sched,
            3000.0, dt=10.0,
        )
    assert trace.t.size == 301
    assert not trace.x.any() and not trace.eta.any()


def _savetxt_bytes(trace, path):
    """The reference bytes for trace.csv: np.savetxt over the whole trace,
    with the format, delimiter, line ending and header that to_csv keeps."""
    blocks = [
        ("t", trace.t[:, None]), ("x", trace.x), ("xs", trace.x_s),
        ("eta", trace.eta), ("y", trace.y), ("u", trace.u), ("e", trace.e),
        ("ystar", trace.y_star), ("ustar", trace.u_star),
    ]
    header = ",".join(
        name if name == "t" else f"{name}{i + 1}"
        for name, block in blocks
        for i in range(block.shape[1])
    )
    np.savetxt(
        path, np.hstack([block for _, block in blocks]), fmt="%.12g",
        delimiter=",", newline="\r\n", header=header, comments="",
    )
    return path.read_bytes()


def _special_trace(rows, ns):
    """A trace of the given length whose columns hold the values that
    formatting can get wrong: -0.0 beside 0.0, nan, +-inf, 1e+-300, a
    subnormal, and constant columns, one of which changes value mid-chunk."""
    rng = np.random.default_rng(rows)
    t = 1e-3 * np.arange(rows)
    x = rng.standard_normal((rows, 4))
    x[:, 0] = np.where(np.arange(rows) % 3 == 0, -0.0, 0.0)
    x[:, 1] = np.nan
    x[:, 2] = np.resize([np.inf, -np.inf, 1e300, -1e-300, 5e-324, 1.0 / 3], rows)
    x[: rows // 2, 3] = -0.0  # a constant -0.0 that ends mid-trace
    y_star = np.tile([-2.36154, 1e-300], (rows, 1))
    y_star[_CSV_ROWS // 2 + 3 :] = [0.1, -0.0]
    return Trace(
        t=t, x=x, eta=rng.standard_normal((rows, 1)) * 1e8,
        y=x[:, :2] @ np.eye(2), u=np.full((rows, 1), np.pi),
        e=rng.standard_normal((rows, 1)) * 1e-12, y_star=y_star,
        u_star=np.full((rows, 1), -0.0), x_s=rng.standard_normal((rows, ns)),
    )


def test_csv_roundtrip(tmp_path, plant_stable, geometry_stable, quadratic_obj):
    pi = scalar_pi(2.0, 2.0)
    sched = DisturbanceSchedule.constant(D_SEGMENTS[0])
    trace = oc.simulate(
        plant_stable, geometry_stable, quadratic_obj, pi, sched, 0.1, dt=1e-2
    )
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    assert path.read_bytes() == _savetxt_bytes(trace, tmp_path / "ref.csv")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert header == [
        "t", "x1", "x2", "x3", "x4", "eta1", "y1", "y2", "u1", "e1",
        "ystar1", "ystar2", "ustar1",
    ]
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (trace.t.size, len(header))
    assert np.allclose(data[:, 0], trace.t)

    stab = oc.simulate(
        plant_stable, geometry_stable, quadratic_obj, _filtered_pi(2.0, 2.0),
        sched, 0.1, dt=1e-2, x0=np.ones(4), xs0=np.array([1.0, -2.0]),
    )
    stab.to_csv(str(path))
    assert path.read_bytes() == _savetxt_bytes(stab, tmp_path / "ref.csv")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert header[:8] == ["t", "x1", "x2", "x3", "x4", "xs1", "xs2", "eta1"]
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (stab.t.size, len(header))
    assert np.allclose(data[:, 5:7], stab.x_s, rtol=1e-11, atol=0.0)
    assert np.allclose(data[:, header.index("u1")], stab.u[:, 0], rtol=1e-11)


@pytest.mark.parametrize("ns", [0, 2])
@pytest.mark.parametrize(
    # one row, both sides of one and two chunk boundaries, and the same
    # counts around 1024 rows whatever the chunk size is
    "rows",
    sorted({
        1, _CSV_ROWS - 1, _CSV_ROWS, _CSV_ROWS + 1, 2 * _CSV_ROWS + 1,
        1023, 1024, 1025, 2049,
    }),
)
def test_csv_bytes_equal_savetxt(tmp_path, rows, ns):
    trace = _special_trace(rows, ns)
    trace.to_csv(str(tmp_path / "trace.csv"))
    written = (tmp_path / "trace.csv").read_bytes()
    assert written == _savetxt_bytes(trace, tmp_path / "ref.csv")
    lines = written.split(b"\r\n")
    assert len(lines) == rows + 2 and lines[-1] == b""
    x1 = [line.split(b",")[1] for line in lines[1:-1]]
    assert x1 == [b"-0" if i % 3 == 0 else b"0" for i in range(rows)]


def test_csv_writes_without_a_whole_trace_copy(tmp_path):
    # 50,000 rows x 18 columns are 7.2 MB as one float array; the chunked
    # writer must stay far below that
    rows = 50_000
    rng = np.random.default_rng(0)
    trace = Trace(
        t=1e-3 * np.arange(rows), x=rng.standard_normal((rows, 4)),
        eta=rng.standard_normal((rows, 1)), y=rng.standard_normal((rows, 2)),
        u=rng.standard_normal((rows, 1)), e=rng.standard_normal((rows, 1)),
        y_star=np.full((rows, 2), 0.5), u_star=np.full((rows, 1), -1.0),
        x_s=rng.standard_normal((rows, 5)),
    )
    full = rows * 18 * 8
    tracemalloc.start()
    try:
        trace.to_csv(str(tmp_path / "trace.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full / 4, f"to_csv peaked at {peak} bytes"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("xs0", np.zeros(3), "xs0 has length 3, expected length 2"),
        ("x0", np.zeros(5), "x0 has length 5, expected length 4"),
        ("eta0", np.zeros((1, 1)), r"eta0 has shape \(1, 1\), expected length 1"),
    ],
)
def test_initial_condition_length_is_named(
    plant_stable, geometry_stable, quadratic_obj, field, value, message
):
    sched = DisturbanceSchedule.constant(D_SEGMENTS[0])
    with pytest.raises(SimulationError, match=message):
        oc.simulate(
            plant_stable, geometry_stable, quadratic_obj, _filtered_pi(2.0, 2.0),
            sched, 0.1, dt=1e-2, **{field: value},
        )


def test_settling_time_is_zero_on_a_settled_segment():
    # segment 0 sits on its reference, so no sample leaves the band and it
    # settles at once; segment 1 leaves the band at its last sample
    rows = 6
    trace = _random_trace(np.random.default_rng(35), rows, 2, 1)
    trace.y[:3], trace.u[:3] = trace.y_star[:3], trace.u_star[:3]
    trace.y[-1] = trace.y_star[-1] + 1e3
    trace = dataclasses.replace(trace, segment_rows=np.array([0, 3]))
    first, second = oc.convergence_metrics(trace)
    assert first["initial_error"] == first["peak_error"] == 0.0
    assert first["settling_time"] == 0.0
    assert second["settling_time"] is None


def _random_trace(rng, rows, p, m):
    """A trace of random y, u, y* and u* (p and m columns); the other
    blocks are zeros."""
    return Trace(
        t=np.arange(rows, dtype=float), x=np.zeros((rows, 1)),
        eta=np.zeros((rows, m)), y=rng.standard_normal((rows, p)),
        u=rng.standard_normal((rows, m)), e=np.zeros((rows, m)),
        y_star=rng.standard_normal((rows, p)), u_star=rng.standard_normal((rows, m)),
        x_s=np.zeros((rows, 0)),
    )


def test_tracking_error_is_the_whole_trace_norm_in_blocks():
    # random traces of widths p + m = 1..12, on row counts around the block
    # size: bit for bit the norm of the whole (y - y*, u - u*) array
    rng = np.random.default_rng(28)
    for width in range(1, 13):
        p = (width + 1) // 2
        for rows in (1, _NORM_ROWS - 1, _NORM_ROWS, 3 * _NORM_ROWS + 5):
            trace = _random_trace(rng, rows, p, width - p)
            want = np.linalg.norm(
                np.hstack([trace.y - trace.y_star, trace.u - trace.u_star]), axis=1
            )
            assert np.array_equal(trace.tracking_error(), want), (width, rows)
    # 50,000 rows x 12 columns are 4.8 MB as one float array, and the whole
    # trace formula makes four of them; the blocked one stays below half one
    rows = 50_000
    trace = _random_trace(rng, rows, 6, 6)
    tracemalloc.start()
    try:
        trace.tracking_error()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows * 12 * 8 / 2, f"tracking_error peaked at {peak} bytes"


def _python_format(chunk):
    """The reference bytes for one chunk: Python's own '%.12g' of each value."""
    return "".join(
        ",".join("%.12g" % v for v in row) + "\r\n" for row in chunk.tolist()
    ).encode()


def _edge_values():
    """Where a float formatter goes wrong: every power of ten from 1e-310 to
    1e308 and both its neighbours, the %g switch points, 999999999999.5
    (which rounds up to 1e12), 13th-digit ties (k + 0.5) 10^(X - 11), -0.0
    and nan with its sign bit set, each with both signs."""
    powers = np.array([float(f"1e{k}") for k in range(-310, 309)])
    switches = [1e-5, 1e-4, np.nextafter(1e-4, 0), 1e11, np.nextafter(1e12, 0)]
    rng = np.random.default_rng(25)
    X = np.repeat(np.arange(-300, 297), 3)
    ties = (rng.integers(10**11, 10**12, X.size) + 0.5) * 10.0 ** (X - 11)
    values = np.concatenate([
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), switches,
        [999999999999.5, -0.0, -np.nan], ties,
    ])
    return np.concatenate([values, -values])


_EDGE = _edge_values()
_BITS = st.integers(-(2**63), 2**63 - 1).map(
    lambda b: float(np.array([b], np.int64).view(np.float64)[0])
)
_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    _BITS,
    st.sampled_from(_EDGE.tolist()),
)


@st.composite
def _chunks(draw):
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    values = draw(st.lists(_VALUES, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=float).reshape(rows, cols)


@settings(max_examples=200, deadline=None)
@given(_chunks())
def test_csv_kernel_matches_python_format(chunk):
    assert csv_bytes(chunk).tobytes() == _python_format(chunk)


def test_csv_kernel_edge_values():
    chunk = np.resize(_EDGE, (-(-_EDGE.size // 7), 7))
    assert csv_bytes(chunk).tobytes() == _python_format(chunk)


def test_equilibrium_is_invariant(plant_stable, geometry_stable, quadratic_obj):
    # starting at (x*, eta* = K_I^{-1} u*) the loop stays put
    K_I = 2.0 * np.eye(1)
    pi = oc.DynamicStabilizer.pi(2.0 * np.eye(1), K_I, 2)
    d = D_SEGMENTS[0]
    ref = oc.solve_quadratic_closed_form(
        plant_stable, geometry_stable, quadratic_obj, d
    )
    eta0 = np.linalg.solve(K_I, ref.u_star)
    sched = DisturbanceSchedule.constant(d)
    trace = oc.simulate(
        plant_stable, geometry_stable, quadratic_obj, pi, sched, 1.0,
        dt=1e-3, x0=ref.x_star, eta0=eta0,
    )
    assert np.linalg.norm(trace.x[-1] - ref.x_star) < 1e-8
    assert np.linalg.norm(trace.eta[-1] - eta0) < 1e-8
