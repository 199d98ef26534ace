import importlib.util
from pathlib import Path

import numpy as np
import pytest

import ossctl as oc

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

A_STABLE = np.array(
    [
        [-1.0, -4.0, -1.0, 3.0],
        [1.0, -4.0, -1.0, -3.0],
        [-1.0, 4.0, -1.0, -9.0],
        [0.0, 0.0, 0.0, -4.0],
    ]
)
A_UNSTABLE = A_STABLE.copy()
A_UNSTABLE[3, 3] = 1.0
B_COL = np.array([[0.0], [1.0], [0.0], [1.0]])
C_ROWS = np.array([[1.0, -1.0, 0.0, -4.0], [1.0, 0.0, 2.0, 0.0]])

D_SEGMENTS = np.array(
    [[-1.0, 3.0, 1.0, 2.0], [2.0, -3.0, 0.0, 0.0], [1.0, 0.0, 0.0, -1.0]]
)


@pytest.fixture(scope="session")
def plant_stable():
    return oc.LtiPlant(A=A_STABLE, B=B_COL, C=C_ROWS)


@pytest.fixture(scope="session")
def plant_unstable():
    return oc.LtiPlant(A=A_UNSTABLE, B=B_COL, C=C_ROWS)


@pytest.fixture(scope="session")
def geometry_stable(plant_stable):
    return oc.build_kkt_geometry(plant_stable)


@pytest.fixture(scope="session")
def geometry_unstable(plant_unstable):
    return oc.build_kkt_geometry(plant_unstable)


@pytest.fixture(scope="session")
def quadratic_obj():
    # g = y1^2 + 0.5 y2^2 + 0.5 u^2
    return oc.quadratic_objective(np.diag([2.0, 1.0, 1.0]), np.zeros(3), p=2)


@pytest.fixture(scope="session")
def cosh_obj():
    return oc.cosh_example_objective()


def load_script(name):
    """A module of scripts/, imported from its file."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# random stabilizable/detectable plant plus strictly convex quadratic; the
# script's own generator, so the tests see the instances the script checks
random_quadratic_instance = load_script("random_validation").random_instance
