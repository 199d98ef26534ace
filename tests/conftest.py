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


def scalar_pi(k_p, k_i):
    """The PI law u = k_i eta + k_p e for the test plants (p = 2, m = 1)."""
    return oc.DynamicStabilizer.pi(k_p * np.eye(1), k_i * np.eye(1), p=2)


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


def sector_form_max(plant, R, kp, ki, kappa, lipschitz, omega):
    """lambda_max(T* M T) at one frequency, from the plant's transfer function.

    The gradient w drives u = (k_p + k_i / s) R' w, and the loop feeds
    z = (y, u) back to it, with y = C (sI - A)^-1 B u; T = [z-map; I].
    """
    if np.isfinite(omega):
        s = 1j * omega
        G = (kp + ki / s) * R.T
        Y = plant.C @ np.linalg.solve(s * np.eye(plant.n) - plant.A, plant.B @ G)
    else:
        G = kp * R.T
        Y = np.zeros((plant.p, R.shape[0]))
    T = np.vstack([Y, G, np.eye(R.shape[0])])
    if np.isinf(lipschitz):
        core = [[-2.0 * kappa, -1.0], [-1.0, 0.0]]
    else:
        core = [[-2.0 * kappa * lipschitz, -(kappa + lipschitz)],
                [-(kappa + lipschitz), -2.0]]
    M = np.kron(core, np.eye(R.shape[0]))
    return np.linalg.eigvalsh(T.conj().T @ M @ T).max()


def member_growth(plant, geometry, controller, kappa):
    """Largest real part of the eigenvalues of the loop closed by the sector's
    linear member w = kappa z: A + kappa B (I - kappa D)^-1 C, on the loop
    oc.closed_loop builds."""
    A, B, C, D = oc.closed_loop(plant, geometry, controller)
    Ak = A + kappa * B @ np.linalg.solve(np.eye(D.shape[0]) - kappa * D, C)
    return np.linalg.eigvals(Ak).real.max()


def witness_value(plant, geometry, kp, ki, kappa, lipschitz, witness):
    """The scalar PI pair's witness evaluated by the tests' own code: the
    member loop's growth rate, or lambda_max(T* M T) at the frequency; it
    must equal the value the witness reports.  Positive means the witness
    rules the pair out."""
    kind, at, reported = witness
    if kind == "member":
        assert at == kappa
        pi = oc.DynamicStabilizer.pi(kp * np.eye(plant.m), ki * np.eye(plant.m), plant.p)
        value = member_growth(plant, geometry, pi, kappa)
    else:
        assert kind == "frequency"
        value = sector_form_max(plant, geometry.R, kp, ki, kappa, lipschitz, at)
    assert value == pytest.approx(reported, rel=1e-9)
    return value


def load_script(name):
    """A module of scripts/, imported from its file."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# random stabilizable/detectable plant plus strictly convex quadratic; the
# script's own generator, so the tests see the instances the script checks
random_quadratic_instance = load_script("random_validation").random_instance
