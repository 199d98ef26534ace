"""Scenario files: JSON descriptions of a plant + objective + controller +
disturbance schedule + run settings, with cross-field dimension checks.

Matrices are stored row-major with explicit "rows"/"cols" so files are
language neutral and diff friendly.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from .controller import DynamicStabilizer
from .errors import ScenarioError
from .objective import SteadyStateObjective, cosh_example_objective, quadratic_objective
from .plant import LtiPlant
from .sim import DisturbanceSchedule


def matrix_to_json(M: np.ndarray) -> dict:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return {"rows": M.shape[0], "cols": M.shape[1], "data": M.ravel().tolist()}


def _has_bool(value) -> bool:
    if isinstance(value, list):
        return any(_has_bool(v) for v in value)
    return isinstance(value, bool)


def _floats(value, name: str, max_ndim: int = 0, inf_ok: bool = False):
    """A JSON number (max_ndim 0) or list of numbers as float(s); anything
    else (true and false included), NaN, and inf unless inf_ok, is a
    ScenarioError naming the field."""
    if _has_bool(value):
        raise ScenarioError(f"{name}: expected numbers, got true/false")
    try:
        x = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{name}: {exc}") from exc
    if x.ndim > max_ndim:
        raise ScenarioError(f"{name}: expected at most {max_ndim} dimensions")
    if np.isnan(x).any() or not (inf_ok or np.isfinite(x).all()):
        raise ScenarioError(f"{name}: expected finite numbers")
    return float(x) if max_ndim == 0 else x


def _count(value, name: str) -> int:
    """value as an int when it is a whole JSON number >= 0; anything else
    is a ScenarioError naming the field."""
    x = _floats(value, name)
    if x != int(x) or x < 0:
        raise ScenarioError(f"{name}: expected a whole number >= 0")
    return int(x)


def matrix_from_json(obj: dict, name: str = "matrix") -> np.ndarray:
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"{name}: expected rows/cols/data object") from exc
    rows = _count(rows, f"{name}.rows")
    cols = _count(cols, f"{name}.cols")
    data = _floats(data, f"{name}.data", 1)
    if data.size != rows * cols:
        raise ScenarioError(
            f"{name}: data has {data.size} entries, expected {rows} x {cols}"
        )
    return data.reshape(rows, cols)


@dataclass(frozen=True)
class SimulationSettings:
    t_final: float
    dt: float = 1e-3
    x0: np.ndarray | None = None
    eta0: np.ndarray | None = None
    xs0: np.ndarray | None = None


@dataclass(frozen=True)
class VerificationSettings:
    kp_grid: tuple = ()
    ki_grid: tuple = ()


@dataclass(frozen=True)
class Scenario:
    name: str
    plant: LtiPlant
    objective: SteadyStateObjective
    controller: object  # DynamicStabilizer | "synthesize"
    schedule: DisturbanceSchedule
    simulation: SimulationSettings
    verification: VerificationSettings


def _build_objective(obj: dict, p: int, m: int) -> SteadyStateObjective:
    name = obj.get("name")
    if name == "quadratic":
        H = matrix_from_json(obj["H"], "objective.H")
        q = _floats(obj.get("q", np.zeros(H.shape[0])), "objective.q", 1)
        built = quadratic_objective(H, q, p)
    elif name == "cosh_example":
        built = cosh_example_objective()
    else:
        raise ScenarioError(f"unknown objective '{name}'")
    if (built.p, built.m) != (p, m):
        raise ScenarioError(
            f"objective dimensions ({built.p}, {built.m}) do not match plant "
            f"({p}, {m})"
        )
    # declared moduli override the inferred ones (e.g. a tighter sector)
    kappa = _floats(obj.get("kappa", built.kappa), "objective.kappa")
    lipschitz = _floats(
        obj.get("lipschitz", built.lipschitz), "objective.lipschitz", inf_ok=True
    )
    return replace(built, kappa=kappa, lipschitz=lipschitz)


def _build_controller(obj: dict, p: int, m: int):
    kind = obj.get("type")
    if kind == "pi":
        if "K_P" in obj:
            return DynamicStabilizer.pi(
                matrix_from_json(obj["K_P"], "controller.K_P"),
                matrix_from_json(obj["K_I"], "controller.K_I"),
                p,
            )
        k_p = _floats(obj["k_p"], "controller.k_p")
        k_i = _floats(obj["k_i"], "controller.k_i")
        return DynamicStabilizer.pi(k_p * np.eye(m), k_i * np.eye(m), p)
    if kind == "stabilizer":
        return DynamicStabilizer(
            A_s=matrix_from_json(obj["A_s"], "controller.A_s"),
            B_s=matrix_from_json(obj["B_s"], "controller.B_s"),
            C_s=matrix_from_json(obj["C_s"], "controller.C_s"),
            D_s=matrix_from_json(obj["D_s"], "controller.D_s"),
            p=p,
            m=m,
        )
    if kind == "synthesize":
        return "synthesize"
    raise ScenarioError(f"unknown controller type '{kind}'")


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario.  A missing or malformed field is a ScenarioError; a value
    the plant, objective or schedule rejects raises that module's error (exit 1)."""
    try:
        return _scenario_from_dict(data)
    except KeyError as exc:
        raise ScenarioError(f"missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc


def _scenario_from_dict(data: dict) -> Scenario:
    plant = LtiPlant(
        A=matrix_from_json(data["plant"]["A"], "plant.A"),
        B=matrix_from_json(data["plant"]["B"], "plant.B"),
        C=matrix_from_json(data["plant"]["C"], "plant.C"),
    )
    objective = _build_objective(data.get("objective", {}), plant.p, plant.m)
    controller = _build_controller(
        data.get("controller", {"type": "synthesize"}), plant.p, plant.m
    )
    dist = data.get("disturbance", {})
    times = _floats(dist.get("times", [0.0]), "disturbance.times", 1)
    values = np.atleast_2d(
        _floats(dist.get("values", [[0.0] * plant.n]), "disturbance.values", 2)
    )
    if values.shape[1] != plant.n:
        raise ScenarioError(
            f"disturbance vectors have length {values.shape[1]}, expected {plant.n}"
        )
    schedule = DisturbanceSchedule(times=times, values=values)
    sim = data.get("simulation", {})

    def _vec(key, length):
        if sim.get(key) is None:
            return None
        v = _floats(sim[key], f"simulation.{key}", 1)
        if v.shape != (length,):
            raise ScenarioError(f"simulation.{key} must have length {length}")
        return v

    ns = controller.order if isinstance(controller, DynamicStabilizer) else 0
    settings = SimulationSettings(
        t_final=_floats(sim.get("t_final", 10.0), "simulation.t_final"),
        dt=_floats(sim.get("dt", 1e-3), "simulation.dt"),
        x0=_vec("x0", plant.n),
        eta0=_vec("eta0", plant.m),
        xs0=_vec("xs0", ns),
    )
    ver = data.get("verification", {})
    kp_grid, ki_grid = (
        tuple(_floats(ver.get(key, ()), f"verification.{key}", 1).tolist())
        for key in ("kp_grid", "ki_grid")
    )
    if 0.0 in ki_grid:
        raise ScenarioError("verification.ki_grid: K_I = 0 is not invertible")
    return Scenario(
        name=str(data.get("name", "scenario")),
        plant=plant,
        objective=objective,
        controller=controller,
        schedule=schedule,
        simulation=settings,
        verification=VerificationSettings(kp_grid=kp_grid, ki_grid=ki_grid),
    )


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc
    return scenario_from_dict(data)
