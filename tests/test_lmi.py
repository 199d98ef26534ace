from importlib import resources

import numpy as np
import pytest

import ossctl as oc
import ossctl.lmi as lmi
from ossctl.cli import main
from ossctl.lmi import LmiError, build_multiplier, frequency_witness
from tests.conftest import sector_lmi

KAPPA_A, L_A = 1.0 / 9.0, 1.0


def test_realization_shapes(plant_stable, geometry_stable):
    gains = oc.PiGains.from_scalars(2.0, 2.0, 1)
    A, B, C, D = oc.closed_loop(plant_stable, geometry_stable, gains)
    assert A.shape == (5, 5)
    assert B.shape == (5, 3)
    assert C.shape == (3, 5)
    assert D.shape == (3, 3)
    # integrator rows of the state matrix are zero
    assert np.allclose(A[4:, :], 0.0)


def test_pi_realization_is_its_stabilizer_realization(plant_stable, geometry_stable):
    # a PI law and its zero-order stabilizer close the same loop, bit for bit,
    # over example_va's grid; and that loop is the PI loop written out, with
    # input w = grad_g: x' = A x + B u, eta' = e, u = k_i eta + k_p e, and
    # e = -R' w
    grid = [round(0.2 * k, 1) for k in range(1, 11)]
    RT = geometry_stable.R.T
    A, B, C = plant_stable.A, plant_stable.B, plant_stable.C
    for kp in grid:
        for ki in grid:
            gains = oc.PiGains.from_scalars(kp, ki, 1)
            pi = oc.closed_loop(plant_stable, geometry_stable, gains)
            stab = oc.closed_loop(
                plant_stable, geometry_stable, oc.pi_as_stabilizer(gains, 2)
            )
            for got, want in zip(pi, stab):
                assert got.tobytes() == want.tobytes()
            written = (
                np.block([[A, B * ki], [np.zeros((1, 5))]]),
                np.vstack([-kp * B @ RT, -RT]),
                np.block([[C, np.zeros((2, 1))], [np.zeros((1, 4)), ki * np.eye(1)]]),
                np.vstack([np.zeros((2, 3)), -kp * RT]),
            )
            for got, want in zip(pi, written):
                assert np.allclose(got, want, rtol=1e-15, atol=1e-15)


def _sector_form(M, s):
    """(z, w)' M (z, w) on the linear gradient w = s z, at z = (1, 1, 1)."""
    z = np.ones(3)
    zw = np.concatenate([z, s * z])
    return zw @ M @ zw


def test_multiplier_finite_sector():
    M = build_multiplier(KAPPA_A, L_A, 3)
    assert M.shape == (6, 6)
    assert np.allclose(M, M.T)
    # the form is nonnegative on the sector's linear members w = s z, zero
    # at both of its ends, and negative outside it
    for s in np.linspace(KAPPA_A, L_A, 9):
        assert _sector_form(M, s) >= -1e-12
    for s in (KAPPA_A, L_A):
        assert _sector_form(M, s) == pytest.approx(0.0, abs=1e-12)
    for s in (KAPPA_A / 2, 2 * L_A):
        assert _sector_form(M, s) < -1e-3


def test_multiplier_infinite_sector():
    M = build_multiplier(KAPPA_A, np.inf, 3)
    for s in (KAPPA_A, 0.5, 1.0, 100.0, 1e6):
        assert _sector_form(M, s) >= -1e-12
    assert _sector_form(M, KAPPA_A) == pytest.approx(0.0, abs=1e-12)
    for s in (0.0, KAPPA_A / 2, 0.9 * KAPPA_A):
        assert _sector_form(M, s) < -1e-3


def test_multiplier_validation():
    with pytest.raises(LmiError):
        build_multiplier(-0.1, 1.0, 2)
    with pytest.raises(LmiError):
        build_multiplier(2.0, 1.0, 2)


def test_lmi_affinity_and_symmetry(plant_stable, geometry_stable):
    # S(P, alpha) must be symmetric and affine in (P, alpha) to 1e-12
    gains = oc.PiGains.from_scalars(1.0, 1.0, 1)
    _, _, _, S = sector_lmi(plant_stable, geometry_stable, gains, KAPPA_A, L_A)
    rng = np.random.default_rng(12)
    P1 = rng.normal(size=(5, 5))
    P1 = P1 + P1.T
    P2 = rng.normal(size=(5, 5))
    P2 = P2 + P2.T
    a1, a2 = 0.7, 1.3
    lhs = S(0.25 * P1 + 0.75 * P2, 0.25 * a1 + 0.75 * a2)
    rhs = 0.25 * S(P1, a1) + 0.75 * S(P2, a2)
    assert np.linalg.norm(lhs - rhs) < 1e-12
    assert np.linalg.norm(S(P1, a1) - S(P1, a1).T) < 1e-12


def test_verify_certifies_example_gain(plant_stable, geometry_stable):
    cert = oc.verify_stability(
        plant_stable,
        geometry_stable,
        oc.PiGains.from_scalars(2.0, 2.0, 1),
        KAPPA_A,
        L_A,
    )
    assert cert.feasible
    # certificate re-validates by eigenvalue check
    assert cert.eig_S_max < 0
    assert cert.eig_P_min > 0
    assert cert.alpha >= 0


def test_certificate_eigenvalue_revalidation(plant_stable, geometry_stable):
    gains = oc.PiGains.from_scalars(1.0, 1.0, 1)
    cert = oc.verify_stability(plant_stable, geometry_stable, gains, KAPPA_A, L_A)
    assert cert.feasible
    _, _, _, S_of = sector_lmi(plant_stable, geometry_stable, gains, KAPPA_A, L_A)
    S = S_of(cert.P, cert.alpha)
    S = 0.5 * (S + S.T)
    assert np.linalg.eigvalsh(S).max() < 0
    assert np.linalg.eigvalsh(cert.P).min() > 0


def test_unstable_loop_not_certified(plant_unstable, geometry_unstable):
    # this loop has a closed-loop eigenvalue in the right half plane; any
    # sound certificate search must fail on it
    gains = oc.PiGains.from_scalars(1.0, 1.0, 1)
    cert = oc.verify_stability(
        plant_unstable, geometry_unstable, gains, 1.0, 2.0, max_sweeps=1500
    )
    assert not cert.feasible


def test_grid_search_records(plant_stable, geometry_stable):
    records = oc.gain_grid_search(
        plant_stable, geometry_stable, [0.5, 1.0], [0.5, 1.0], KAPPA_A, L_A
    )
    assert len(records) == 4
    assert all(r["certified"] for r in records)
    assert {tuple(sorted(r.keys())) for r in records} == {
        ("certified", "eig_P_min", "eig_S_max", "k_i", "k_p", "status", "sweeps")
    }


def _lmi_data(plant, geometry, kp, ki):
    return sector_lmi(plant, geometry, oc.PiGains.from_scalars(kp, ki, 1), KAPPA_A, L_A)


def test_p_terms_vanish_on_frequency_direction(plant_stable, geometry_stable):
    # on xi = [(jwI - A)^-1 B w; w] the P terms cancel for every symmetric P,
    # which is what makes a positive xi* MM xi a witness
    A, B, _, S = _lmi_data(plant_stable, geometry_stable, 0.2, 1.8)
    rng = np.random.default_rng(21)
    nm, pm = B.shape
    for omega in (1e-3, 0.7, 1.8, 40.0):
        P = rng.normal(size=(nm, nm))
        P = P + P.T
        w = rng.normal(size=pm) + 1j * rng.normal(size=pm)
        x = np.linalg.solve(1j * omega * np.eye(nm) - A, B @ w)
        xi = np.concatenate([x, w])
        L0 = S(P, 0.0)
        assert abs(xi.conj() @ L0 @ xi) < 1e-12 * np.linalg.norm(L0) * (xi.conj() @ xi).real


def test_witness_fires_on_no_dr_certified_pair(plant_stable, geometry_stable, monkeypatch):
    kp_values = [0.2, 2.0]
    ki_values = [round(0.2 * k, 1) for k in range(1, 11)]
    # decide by the solver alone first
    monkeypatch.setattr(lmi, "frequency_witness", lambda *args: None)
    records = oc.gain_grid_search(
        plant_stable, geometry_stable, kp_values, ki_values, KAPPA_A, L_A
    )
    monkeypatch.undo()
    not_certified = []
    for r in records:
        A, B, MM, _ = _lmi_data(plant_stable, geometry_stable, r["k_p"], r["k_i"])
        witness = frequency_witness(A, B, MM)
        if r["certified"]:
            assert witness is None, (r["k_p"], r["k_i"], witness)
        else:
            assert r["status"] == "undecided"
            assert witness is not None and witness[1] > 0
            not_certified.append((r["k_p"], r["k_i"]))
    assert not_certified == [(0.2, 1.8), (0.2, 2.0)]


def test_infeasible_pair_carries_witness(plant_stable, geometry_stable):
    cert = oc.verify_stability(
        plant_stable, geometry_stable, oc.PiGains.from_scalars(0.2, 2.0, 1), KAPPA_A, L_A
    )
    assert cert.status == "infeasible"
    assert not cert.feasible
    assert cert.sweeps == 0
    omega, lam = cert.witness
    assert 1.0 < omega < 3.0
    assert lam > 0
    # the witness matches a direct evaluation at its frequency
    A, B, MM, _ = _lmi_data(plant_stable, geometry_stable, 0.2, 2.0)
    x = np.linalg.solve(1j * omega * np.eye(A.shape[0]) - A, B)
    xi = np.vstack([x, np.eye(B.shape[1])])
    assert np.linalg.eigvalsh(xi.conj().T @ MM @ xi).max() == pytest.approx(lam, rel=1e-9)


VA_GRID = [round(0.2 * k, 1) for k in range(1, 11)]


def test_warm_grid_certifies_the_cold_pairs_in_fewer_sweeps(plant_stable, geometry_stable):
    # on example_va's grid, warm starts change sweep counts but no decision
    records = oc.gain_grid_search(
        plant_stable, geometry_stable, VA_GRID, VA_GRID, KAPPA_A, L_A
    )
    cold = [
        oc.verify_stability(
            plant_stable, geometry_stable, oc.PiGains.from_scalars(kp, ki, 1), KAPPA_A, L_A
        )
        for kp in VA_GRID
        for ki in VA_GRID
    ]
    assert [r["status"] for r in records] == [c.status for c in cold]
    assert sum(r["certified"] for r in records) == 98
    warm_sweeps = sum(r["sweeps"] for r in records)
    cold_sweeps = sum(c.sweeps for c in cold)
    assert warm_sweeps < cold_sweeps


def test_grid_starts_only_from_certified_iterates(plant_stable, geometry_stable, monkeypatch):
    # with the witness off and a 400-sweep cap, (0.2, 1.6..2.0) end undecided;
    # the pairs after them must still start from (0.2, 1.4)'s iterate
    calls = []
    solve = lmi.solve_feasibility

    def recording(*args, **kwargs):
        result = solve(*args, **kwargs)
        calls.append((kwargs["start"], result))
        return result

    monkeypatch.setattr(lmi, "solve_feasibility", recording)
    monkeypatch.setattr(lmi, "frequency_witness", lambda *args: None)
    oc.gain_grid_search(
        plant_stable, geometry_stable, [0.2, 0.4], [1.2, 1.4, 1.6, 1.8, 2.0],
        KAPPA_A, L_A, max_sweeps=400,
    )
    assert len(calls) == 10
    assert calls[0][0] is None
    statuses = [result.status for _, result in calls]
    assert statuses[:5] == ["feasible", "feasible", "undecided", "undecided", "undecided"]
    last_certified = None
    for start, result in calls:
        assert start is last_certified
        if result.feasible:
            last_certified = result.iterate
    assert calls[-1][0] is not None


@pytest.mark.parametrize("kp, ki", [(0.2, 1.6), (0.4, 2.0)])
def test_restart_from_own_iterate_certifies_at_first_check(
    plant_stable, geometry_stable, kp, ki
):
    # the iterate is returned unscaled and rescaled on entry: a pair started
    # from its own final iterate is certified at the first check (20 sweeps)
    gains = oc.PiGains.from_scalars(kp, ki, 1)
    cold, iterate = lmi._decide(plant_stable, geometry_stable, gains, KAPPA_A, L_A, 4000, None)
    assert cold.feasible and cold.sweeps > 20
    warm, _ = lmi._decide(plant_stable, geometry_stable, gains, KAPPA_A, L_A, 4000, iterate)
    assert warm.feasible and warm.sweeps == 20


def test_mis_shaped_start_rejected(plant_stable, geometry_stable):
    gains = oc.PiGains.from_scalars(1.0, 1.0, 1)
    cert, iterate = lmi._decide(plant_stable, geometry_stable, gains, KAPPA_A, L_A, 4000, None)
    assert cert.feasible
    for bad in (iterate[:-1], np.append(iterate, 0.0), iterate[:, None]):
        with pytest.raises(ValueError, match="start has shape"):
            lmi._decide(plant_stable, geometry_stable, gains, KAPPA_A, L_A, 4000, bad)


def test_tune_csv_repeats_byte_for_byte(tmp_path):
    scenario = str(resources.files("ossctl").joinpath("scenarios/example_va.json"))
    texts = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["tune", "--scenario", scenario, "--out", str(out)]) == 0
        texts.append((out / "tune.csv").read_bytes())
    assert texts[0] == texts[1]
