import numpy as np
import pytest

import ossctl as oc
from ossctl.sim import (
    DisturbanceSchedule,
    SimulationError,
    _affine_closed_loop,
    _rk4_one_step_maps,
)
from tests.conftest import D_SEGMENTS


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
    controllers = (oc.PiGains.from_scalars(2.0, 2.0, 1), _filtered_pi(2.0, 2.0))
    for controller, ns in zip(controllers, (0, 2)):
        fast, slow = (
            oc.simulate(
                plant_stable, geometry_stable, obj, controller, sched, 2.0,
                dt=1e-3, compute_references=False,
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
    # and (u, e) = M s + m0 are the plant plus stabilizer_dynamics, which is
    # what the generic path integrates
    plant, geometry = plant_unstable, geometry_unstable
    n, m = plant.n, plant.m
    rng = np.random.default_rng(32)
    G = rng.normal(size=(3, 3))
    obj = oc.quadratic_objective(G @ G.T + np.eye(3), rng.normal(size=3), p=2)
    if kind == "pi":
        stab = oc.pi_as_stabilizer(oc.PiGains.from_scalars(2.0, 1.5, m), plant.p)
    else:
        stab = synthesis_result[1].stabilizer
    F, c0, M, m0 = _affine_closed_loop(plant, geometry, obj, stab)
    assert F.shape == (n + m + stab.order,) * 2
    for _ in range(20):
        s = rng.normal(size=F.shape[0])
        d = rng.normal(size=n)
        xs_dot, e, u = oc.stabilizer_dynamics(
            stab, geometry, obj, s[n + m :], s[n : n + m], plant.C @ s[:n]
        )
        generic = np.concatenate([plant.A @ s[:n] + plant.B @ u + d, e, xs_dot])
        affine = F @ s + c0 + np.concatenate([d, np.zeros(m + stab.order)])
        assert np.linalg.norm(affine - generic) <= 1e-10 * np.linalg.norm(generic)
        ue = np.concatenate([u, e])
        assert np.linalg.norm(M @ s + m0 - ue) <= 1e-10 * np.linalg.norm(ue)


def test_recorded_input_satisfies_pi_law_cosh(
    plant_stable, geometry_stable, cosh_obj
):
    # every row's (u, e), including the switching row and the final one, is
    # the solution of the implicit input equation at that row's state
    gains = oc.PiGains.from_scalars(2.0, 2.0, 1)
    sched = DisturbanceSchedule(times=[0.0, 0.1], values=D_SEGMENTS[:2].tolist())
    trace = oc.simulate(
        plant_stable, geometry_stable, cosh_obj, gains, sched, 0.2,
        dt=1e-2, compute_references=False,
    )
    assert np.min(np.abs(trace.t - 0.1)) < 1e-12
    law = trace.eta @ gains.K_I.T + trace.e @ gains.K_P.T
    assert np.all(np.abs(trace.u - law) <= 1e-9 * (1.0 + np.abs(law)))
    grad = np.array(
        [cosh_obj.gradient(y, u) for y, u in zip(trace.y, trace.u)]
    )
    e = -grad @ geometry_stable.R
    assert np.all(np.abs(trace.e - e) <= 1e-9 * (1.0 + np.abs(e)))


def test_segment_boundaries_on_step_grid(plant_stable, geometry_stable, quadratic_obj):
    gains = oc.PiGains.from_scalars(2.0, 2.0, 1)
    sched = DisturbanceSchedule(
        times=[0.0, 0.5, 1.25], values=D_SEGMENTS.tolist()
    )
    trace = oc.simulate(
        plant_stable, geometry_stable, quadratic_obj, gains, sched, 2.0,
        dt=1e-2, compute_references=False,
    )
    for t_switch in (0.5, 1.25):
        assert np.min(np.abs(trace.t - t_switch)) < 1e-12


def test_tracking_converges_quadratic(plant_stable, geometry_stable, quadratic_obj):
    gains = oc.PiGains.from_scalars(2.0, 2.0, 1)
    sched = DisturbanceSchedule.constant(D_SEGMENTS[0])
    trace = oc.simulate(
        plant_stable, geometry_stable, quadratic_obj, gains, sched, 20.0, dt=1e-3
    )
    assert trace.tracking_error()[-1] < 1e-6
    metrics = oc.convergence_metrics(trace)
    assert metrics[0]["terminal_error"] < 1e-6
    assert metrics[0]["settling_time"] is not None


def test_switch_row_belongs_to_new_segment(plant_stable, geometry_stable, quadratic_obj):
    gains = oc.PiGains.from_scalars(2.0, 2.0, 1)
    sched = DisturbanceSchedule(times=[0.0, 5.0], values=D_SEGMENTS[:2].tolist())
    trace = oc.simulate(
        plant_stable, geometry_stable, quadratic_obj, gains, sched, 10.0, dt=1e-2
    )
    k = int(np.argmin(np.abs(trace.t - 5.0)))
    ref = trace.references[1]
    assert np.array_equal(trace.y_star[k], ref.y_star)
    switch_error = np.linalg.norm(
        np.concatenate([trace.y[k] - ref.y_star, trace.u[k] - ref.u_star])
    )
    metrics = oc.convergence_metrics(trace)
    assert metrics[1]["t_start"] == pytest.approx(5.0)
    assert metrics[1]["initial_error"] == pytest.approx(switch_error, rel=1e-12)
    assert metrics[1]["settling_time"] is not None


def test_divergence_detected(plant_unstable, geometry_unstable, quadratic_obj):
    # zero-gain-like controller cannot stabilize the unstable plant
    gains = oc.PiGains(K_P=np.zeros((1, 1)), K_I=1e-9 * np.eye(1))
    sched = DisturbanceSchedule.constant(D_SEGMENTS[0])
    with pytest.raises(oc.DivergenceError):
        oc.simulate(
            plant_unstable, geometry_unstable, quadratic_obj, gains, sched,
            60.0, dt=1e-3, compute_references=False,
            divergence_threshold=1e6,
        )


def test_csv_roundtrip(tmp_path, plant_stable, geometry_stable, quadratic_obj):
    gains = oc.PiGains.from_scalars(2.0, 2.0, 1)
    sched = DisturbanceSchedule.constant(D_SEGMENTS[0])
    trace = oc.simulate(
        plant_stable, geometry_stable, quadratic_obj, gains, sched, 0.1, dt=1e-2
    )
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
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
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert header[:8] == ["t", "x1", "x2", "x3", "x4", "xs1", "xs2", "eta1"]
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (stab.t.size, len(header))
    assert np.allclose(data[:, 5:7], stab.x_s, rtol=1e-11, atol=0.0)
    assert np.allclose(data[:, header.index("u1")], stab.u[:, 0], rtol=1e-11)


def test_equilibrium_is_invariant(plant_stable, geometry_stable, quadratic_obj):
    # starting at (x*, eta* = K_I^{-1} u*) the loop stays put
    gains = oc.PiGains.from_scalars(2.0, 2.0, 1)
    d = D_SEGMENTS[0]
    ref = oc.solve_quadratic_closed_form(
        plant_stable, geometry_stable, quadratic_obj, d
    )
    eta0 = np.linalg.solve(gains.K_I, ref.u_star)
    sched = DisturbanceSchedule.constant(d)
    trace = oc.simulate(
        plant_stable, geometry_stable, quadratic_obj, gains, sched, 1.0,
        dt=1e-3, x0=ref.x_star, eta0=eta0, compute_references=False,
    )
    assert np.linalg.norm(trace.x[-1] - ref.x_star) < 1e-8
    assert np.linalg.norm(trace.eta[-1] - eta0) < 1e-8
