import importlib.util
from pathlib import Path

import numpy as np
import pytest

import ossctl as oc
import ossctl.synthesis as synthesis

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
def synthesis_result(plant_unstable, geometry_unstable):
    """(loop-transformed plant, synthesis result) of example_vc: plant_unstable
    and the sector [1, 2]."""
    aug = synthesis.loop_transform(plant_unstable, geometry_unstable, 1.0, 2.0)
    return aug, oc.synthesize_stabilizer(plant_unstable, geometry_unstable, 1.0, 2.0)


@pytest.fixture(scope="session")
def quadratic_obj():
    # g = y1^2 + 0.5 y2^2 + 0.5 u^2
    return oc.quadratic_objective(np.diag([2.0, 1.0, 1.0]), np.zeros(3), p=2)


@pytest.fixture(scope="session")
def cosh_obj():
    return oc.cosh_example_objective()


def sector_lmi(plant, geometry, controller, kappa, lipschitz):
    """(A, B, MM, S) of the sector LMI on the loop oc.closed_loop builds:
    its (A, B), the sector form MM on (x, w), and S(P, alpha), the form
    2 x' P (A x + B w) + alpha (x, w)' MM (x, w) as a matrix.  S < 0 with
    P > 0 and alpha >= 0 certifies the loop."""
    A, B, C, D = oc.closed_loop(plant, geometry, controller)
    nm, pm = B.shape
    zw = np.block([[C, D], [np.zeros((pm, nm)), np.eye(pm)]])  # (x, w) -> (z, w)
    MM = zw.T @ oc.build_multiplier(kappa, lipschitz, pm) @ zw

    def S(P, alpha):
        PAB = np.vstack([P @ np.hstack([A, B]), np.zeros((pm, nm + pm))])
        return PAB + PAB.T + alpha * MM

    return A, B, MM, S


def load_script(name):
    """A module of scripts/, imported from its file."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# random stabilizable/detectable plant plus strictly convex quadratic; the
# script's own generator, so the tests see the instances the script checks
random_quadratic_instance = load_script("random_validation").random_instance
