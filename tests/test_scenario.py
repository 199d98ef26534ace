import json

import numpy as np
import pytest
from importlib import resources

import ossctl as oc
from ossctl.scenario import (
    ScenarioError,
    matrix_from_json,
    matrix_to_json,
    scenario_from_dict,
)


def bundled(name):
    return str(resources.files("ossctl").joinpath(f"scenarios/{name}"))


def test_matrix_roundtrip_bitwise():
    rng = np.random.default_rng(16)
    M = rng.normal(size=(3, 5))
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(M))))
    assert np.array_equal(M, back)  # bitwise


def test_matrix_shape_validated():
    with pytest.raises(ScenarioError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [1, 2, 3]})


def test_bundled_scenarios_load():
    for name in ("example_va.json", "example_vb.json", "example_vc.json"):
        scn = oc.load_scenario(bundled(name))
        assert scn.plant.n == 4
        assert scn.schedule.values.shape[1] == 4


def test_va_scenario_contents():
    scn = oc.load_scenario(bundled("example_va.json"))
    assert isinstance(scn.controller, oc.DynamicStabilizer)
    assert scn.controller.order == 0
    assert scn.objective.kappa == pytest.approx(1.0 / 9.0)
    assert scn.objective.lipschitz == pytest.approx(1.0)
    assert len(scn.verification.kp_grid) == 10


def test_vb_scenario_contents():
    scn = oc.load_scenario(bundled("example_vb.json"))
    assert not scn.objective.is_quadratic
    assert np.isinf(scn.objective.lipschitz)
    # D_s = [0, K_I, K_P] on sigma = (y, eta, e)
    assert np.allclose(scn.controller.D_s, [[0.0, 0.0, 5.0, 10.0]])
    assert np.allclose(scn.schedule.times, [0.0, 5.0, 10.0])


def test_vc_scenario_contents():
    scn = oc.load_scenario(bundled("example_vc.json"))
    assert scn.controller == "synthesize"
    assert scn.objective.kappa == pytest.approx(1.0)
    assert scn.objective.lipschitz == pytest.approx(2.0)
    assert np.linalg.eigvals(scn.plant.A).real.max() == pytest.approx(1.0)


def test_dimension_mismatch_rejected():
    with open(bundled("example_va.json")) as fh:
        scn = json.load(fh)
    scn["disturbance"]["values"] = [[1.0, 2.0]]
    with pytest.raises(ScenarioError):
        scenario_from_dict(scn)


def test_unknown_objective_rejected():
    with open(bundled("example_va.json")) as fh:
        data = json.load(fh)
    data["objective"] = {"name": "mystery"}
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)


@pytest.mark.parametrize(
    "field, value",
    [("rows", 2.5), ("cols", 0.5), ("rows", -1)],
)
def test_matrix_dimensions_must_be_whole(field, value):
    obj = {"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0, 4.0]}
    obj[field] = value
    with pytest.raises(ScenarioError, match=rf"matrix\.{field}: expected a whole"):
        matrix_from_json(obj)


@pytest.mark.parametrize(
    "field, value",
    [("rows", True), ("cols", False), ("data", [1.0, True]), ("data", [[1.0], [False]])],
)
def test_matrix_booleans_rejected(field, value):
    # JSON true/false would otherwise read as 1/0
    obj = {"rows": 1, "cols": 2, "data": [1.0, 2.0]}
    obj[field] = value
    with pytest.raises(ScenarioError, match=rf"matrix\.{field}: expected numbers"):
        matrix_from_json(obj)
