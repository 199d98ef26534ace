from dataclasses import replace

import numpy as np
import pytest

import ossctl as oc
import ossctl.synthesis as synthesis
from ossctl.synthesis import SynthesisError, closed_loop_system, loop_transform
from tests.conftest import D_SEGMENTS, random_quadratic_instance

KAPPA_C, L_C = 1.0, 2.0
# the sector's center and radius: w = c z + r w_tilde
C_C, R_C = 0.5 * (L_C + KAPPA_C), 0.5 * (L_C - KAPPA_C)


def test_loop_transform_parameters(plant_unstable, geometry_unstable):
    # [1, 2] shifts by the center 1.5 and scales the uncertainty by 0.5
    aug = loop_transform(plant_unstable, geometry_unstable, KAPPA_C, L_C)
    ol = synthesis.open_loop(plant_unstable, geometry_unstable)
    assert (C_C, R_C) == (1.5, 0.5)
    assert np.array_equal(aug.A, ol.A + 1.5 * (ol.B1 @ ol.C1))
    assert np.array_equal(aug.B1, 0.5 * ol.B1)
    assert np.array_equal(aug.D21, 0.5 * ol.D21)


def test_loop_transform_is_the_shifted_open_loop(plant_unstable, geometry_unstable):
    # on random signals, the transformed plant driven by (w_tilde, u) is the
    # open loop driven by (w = c z + r w_tilde, u)
    aug = loop_transform(plant_unstable, geometry_unstable, KAPPA_C, L_C)
    ol = synthesis.open_loop(plant_unstable, geometry_unstable)
    assert not ol.D22.any()
    c, r = C_C, R_C
    rng = np.random.default_rng(31)
    for _ in range(10):
        x = rng.normal(size=aug.A.shape[0])
        wt = rng.normal(size=aug.B1.shape[1])
        u = rng.normal(size=aug.B2.shape[1])
        z = ol.C1 @ x + ol.D12 @ u
        w = c * z + r * wt
        pairs = (
            (aug.A @ x + aug.B1 @ wt + aug.B2 @ u, ol.A @ x + ol.B1 @ w + ol.B2 @ u),
            (aug.C1 @ x + aug.D12 @ u, z),
            (aug.C2 @ x + aug.D21 @ wt + aug.D22 @ u, ol.C2 @ x + ol.D21 @ w),
        )
        for shifted, direct in pairs:
            assert np.linalg.norm(shifted - direct) <= 1e-12 * np.linalg.norm(direct)


def test_loop_transform_rejects_infinite_sector(plant_unstable, geometry_unstable):
    with pytest.raises(SynthesisError):
        loop_transform(plant_unstable, geometry_unstable, 1.0 / 9.0, np.inf)


def test_sector_edge_maps_to_edge():
    # phi(v) = kappa v maps to exactly -v after the transformation
    c, r = C_C, R_C
    v = np.linspace(-3, 3, 7)
    assert np.allclose((KAPPA_C * v - c * v) / r, -v)
    assert np.allclose((L_C * v - c * v) / r, v)


def test_transformed_gradient_is_contractive(quadratic_obj):
    # sampled incremental bound: ||phi~(a) - phi~(b)|| <= ||a - b||
    c, r = C_C, R_C
    rng = np.random.default_rng(14)

    def phi(z):
        return quadratic_obj.grad_stacked(z)

    for _ in range(1000):
        a = rng.normal(size=3, scale=3.0)
        b = rng.normal(size=3, scale=3.0)
        lhs = np.linalg.norm((phi(a) - c * a - (phi(b) - c * b)) / r)
        assert lhs <= np.linalg.norm(a - b) * (1 + 1e-12)


def test_synthesis_gamma_below_one(synthesis_result):
    _, result = synthesis_result
    assert 0 < result.gamma < 1.0
    assert result.hinf_achieved <= result.gamma
    assert result.loop_margin > 0


def test_synthesized_closed_loop_is_hurwitz(synthesis_result):
    aug, result = synthesis_result
    Acl, _, _, _ = closed_loop_system(aug, result.stabilizer)
    assert np.linalg.eigvals(Acl).real.max() < 0


def test_running_loop_is_the_designed_loop(
    plant_unstable, geometry_unstable, monkeypatch
):
    # the central controller is designed for sigma - D22 u.  The loop
    # simulate runs is open_loop closed by the synthesized stabilizer, then
    # shifted by w = c z + r w_tilde; it must be the designed loop
    designed = []
    central = synthesis._central_controller

    def recorded(*args):
        designed.append(central(*args))
        return designed[-1]

    monkeypatch.setattr(synthesis, "_central_controller", recorded)
    stab = oc.synthesize_stabilizer(
        plant_unstable, geometry_unstable, KAPPA_C, L_C
    ).stabilizer
    A, B, C, D = oc.closed_loop(plant_unstable, geometry_unstable, stab)
    aug = loop_transform(plant_unstable, geometry_unstable, KAPPA_C, L_C)
    c, r = C_C, R_C
    L = np.linalg.inv(np.eye(D.shape[0]) - c * D)
    running = (A + c * B @ L @ C, r * B @ L, L @ C, r * L @ D)
    design = closed_loop_system(
        replace(aug, D22=np.zeros_like(aug.D22)), designed[-1]
    )
    for got, want in zip(running, design):
        assert np.max(np.abs(got - want)) <= 1e-10


def test_certified_gamma_bounds_empirical_gain(synthesis_result):
    # gain of the transformed channel under random sinusoidal probes
    aug, result = synthesis_result
    Acl, Bcl, Ccl, Dcl = closed_loop_system(aug, result.stabilizer)
    rng = np.random.default_rng(15)
    nw = Bcl.shape[1]
    for _ in range(100):
        omega = rng.uniform(0.0, 50.0)
        direction = rng.normal(size=nw) + 1j * rng.normal(size=nw)
        direction /= np.linalg.norm(direction)
        T = Ccl @ np.linalg.solve(
            1j * omega * np.eye(Acl.shape[0]) - Acl, Bcl
        ) + Dcl
        assert np.linalg.norm(T @ direction) <= result.gamma * (1 + 1e-3)


def test_validation_tracks_oracle(
    plant_unstable, geometry_unstable, quadratic_obj, synthesis_result
):
    _, result = synthesis_result
    sched = oc.DisturbanceSchedule.constant(D_SEGMENTS[0])
    trace = oc.simulate(
        plant_unstable, geometry_unstable, quadratic_obj,
        result.stabilizer, sched, 150.0, dt=1e-3,
    )
    metrics = oc.convergence_metrics(trace)
    assert metrics[0]["terminal_error"] < 1e-2


def test_stabilizer_equilibrium_matches_oracle(
    plant_unstable, geometry_unstable, quadratic_obj, synthesis_result
):
    # the architecture keeps eta' = e, so equilibria coincide with KKT points
    _, result = synthesis_result
    for d in D_SEGMENTS:
        ref = oc.solve_quadratic_closed_form(
            plant_unstable, geometry_unstable, quadratic_obj, d
        )
        sched = oc.DisturbanceSchedule.constant(d)
        trace = oc.simulate(
            plant_unstable, geometry_unstable, quadratic_obj,
            result.stabilizer, sched, 200.0, dt=1e-3,
        )
        final = np.concatenate([trace.y[-1], trace.u[-1]])
        assert np.linalg.norm(final - ref.yu()) < 1e-3


def test_pi_stabilizer_small_gain(plant_stable, geometry_stable):
    # a certified PI loop on the stable plant passes the small-gain analysis
    gamma = oc.hinf_norm(*closed_loop_system(
        loop_transform(plant_stable, geometry_stable, 1.0 / 9.0, 1.0),
        oc.DynamicStabilizer.pi(0.2 * np.eye(1), 0.2 * np.eye(1), plant_stable.p),
    ))
    assert gamma < 1.0


def test_near_linear_sector_synthesis():
    # trivial stable plant with a nearly degenerate sector
    plant = oc.LtiPlant(A=np.array([[-1.0]]), B=np.array([[1.0]]), C=np.array([[1.0]]))
    geometry = oc.build_kkt_geometry(plant)
    result = oc.synthesize_stabilizer(plant, geometry, 1.0 - 1e-3, 1.0)
    assert result.gamma < 1.0
    assert result.hinf_achieved < 0.1


def test_synthesis_makes_one_solve(plant_unstable, geometry_unstable, monkeypatch):
    # example_vc's plant and sector: the ladder stops at the first rung that
    # passes, and one more Riccati design, one rung below it, makes the
    # controller
    rungs = []
    central = synthesis._central_controller

    def counted(aug, rate):
        designed = central(aug, rate)
        rungs.append((rate, designed is not None))
        return designed

    monkeypatch.setattr(synthesis, "_central_controller", counted)
    result = oc.synthesize_stabilizer(plant_unstable, geometry_unstable, KAPPA_C, L_C)
    first = [passed for _, passed in rungs].index(True)
    assert len(rungs) == first + 2
    assert [rate for rate, _ in rungs] == list(synthesis._RATES[: first + 2])
    assert rungs[-1] == (result.rate, True)
    assert result.gamma < 1.0


def test_undecided_solve_raises_with_status(
    plant_unstable, geometry_unstable, monkeypatch
):
    # a design that fails one rung below a shift that passed is reported
    # with gamma and the rate it was tried at
    central = synthesis._central_controller

    def only_top_rung(aug, rate):
        return central(aug, rate) if rate == synthesis._RATES[0] else None

    monkeypatch.setattr(synthesis, "_central_controller", only_top_rung)
    monkeypatch.setattr(synthesis, "_RATES", (0.0, 0.5))
    with pytest.raises(
        SynthesisError,
        match=r"no controller found at gamma = 0.99 and rate 0.5, one rung below",
    ):
        oc.synthesize_stabilizer(plant_unstable, geometry_unstable, KAPPA_C, L_C)


def test_synthesized_loop_decays_at_its_rate(synthesis_result):
    # example_vc: the shifted loop's gain below gamma certifies decay at the
    # rate, so every closed-loop pole lies left of -rate
    aug, result = synthesis_result
    Acl, Bcl, Ccl, Dcl = closed_loop_system(aug, result.stabilizer)
    assert result.rate > 0
    assert not result.stabilizer.D_s.any()
    assert result.loop_margin == 1.0
    shifted = Acl + result.rate * np.eye(Acl.shape[0])
    assert oc.hinf_norm(shifted, Bcl, Ccl, Dcl) <= result.gamma
    assert np.linalg.eigvals(Acl).real.max() < -result.rate


def _random_loop(rng, draw):
    """One of the random synthesis loops: random_validation's plant, with A
    shifted right by U(0.5, 2) on every odd draw, and the sector
    [kappa, kappa U(1.05, 11)] with kappa ~ U(0.1, 1)."""
    plant, geometry, _ = random_quadratic_instance(rng)
    if draw % 2:
        shift = rng.uniform(0.5, 2.0)
        plant = oc.LtiPlant(plant.A + shift * np.eye(plant.n), plant.B, plant.C)
        geometry = oc.build_kkt_geometry(plant)
    kappa = rng.uniform(0.1, 1.0)
    return plant, geometry, kappa, kappa * rng.uniform(1.05, 11.0)


def test_random_loops_synthesize_and_validate():
    # each loop either fails with SynthesisError or yields a stabilizer
    # re-checked here: Hurwitz, gain at most gamma, and the rate-shifted
    # loop's gain at most gamma.  The splitting SDP solver that synthesis
    # used before the Riccati path synthesized 111 of these 120 loops
    rng = np.random.default_rng(7)
    synthesized = 0
    for draw in range(120):
        plant, geometry, kappa, lipschitz = _random_loop(rng, draw)
        try:
            result = oc.synthesize_stabilizer(plant, geometry, kappa, lipschitz)
        except SynthesisError:
            continue
        aug = loop_transform(plant, geometry, kappa, lipschitz)
        Acl, Bcl, Ccl, Dcl = closed_loop_system(aug, result.stabilizer)
        assert np.linalg.eigvals(Acl).real.max() < 0, draw
        assert oc.hinf_norm(Acl, Bcl, Ccl, Dcl) <= result.gamma, draw
        shifted = Acl + result.rate * np.eye(Acl.shape[0])
        assert oc.hinf_norm(shifted, Bcl, Ccl, Dcl) <= result.gamma, draw
        synthesized += 1
    assert synthesized >= 111
