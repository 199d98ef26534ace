import numpy as np
import pytest

import ossctl as oc
from ossctl.plant import PlantError, check_disturbance


def test_dimensions(plant_stable):
    assert (plant_stable.n, plant_stable.m, plant_stable.p) == (4, 1, 2)


def test_rejects_nonsquare_A():
    with pytest.raises(PlantError):
        oc.LtiPlant(A=np.zeros((2, 3)), B=np.zeros((2, 1)), C=np.eye(2))


def test_rejects_mismatched_B():
    with pytest.raises(PlantError):
        oc.LtiPlant(A=np.eye(3), B=np.zeros((2, 1)), C=np.eye(3))


def test_rejects_wide_input():
    with pytest.raises(PlantError):
        oc.LtiPlant(A=np.eye(2), B=np.zeros((2, 3)), C=np.eye(2))


def test_example_plants_satisfy_assumptions(plant_stable, plant_unstable):
    for plant in (plant_stable, plant_unstable):
        assert oc.check_stabilizable(plant)
        assert oc.check_detectable(plant)
        assert oc.check_full_row_rank_AB(plant)


def test_unstable_plant_eigenvalues(plant_unstable):
    ev = np.linalg.eigvals(plant_unstable.A)
    for expected in (-2.0, -2 + 2j, -2 - 2j, 1.0):
        assert np.min(np.abs(ev - expected)) < 1e-8


def test_stabilizability_failure_detected():
    # integrator with no input authority
    plant = oc.LtiPlant(A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2))
    assert not oc.check_stabilizable(plant)


def test_detectability_failure_detected():
    plant = oc.LtiPlant(
        A=np.diag([1.0, -1.0]), B=np.ones((2, 1)), C=np.array([[0.0, 1.0]])
    )
    assert not oc.check_detectable(plant)


def test_disturbance_length_checked(plant_stable):
    with pytest.raises(PlantError):
        check_disturbance(plant_stable, np.ones(3))
