"""Scenario files: JSON descriptions of a plant + objective + controller +
disturbance schedule + run settings, with cross-field dimension checks.

Matrices are stored row-major with explicit "rows"/"cols" so files are
language neutral and diff friendly.
"""

import json
from dataclasses import dataclass

import numpy as np

from .controller import DynamicStabilizer, PiGains
from .objective import SteadyStateObjective, cosh_example_objective, quadratic_objective
from .plant import LtiPlant
from .sim import DisturbanceSchedule, SimulationError


class ScenarioError(ValueError):
    pass


def matrix_to_json(M: np.ndarray) -> dict:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return {"rows": M.shape[0], "cols": M.shape[1], "data": M.ravel().tolist()}


def matrix_from_json(obj: dict, name: str = "matrix") -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        data = np.asarray(obj["data"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"{name}: expected rows/cols/data object") from exc
    if data.size != rows * cols:
        raise ScenarioError(
            f"{name}: data has {data.size} entries, expected {rows * cols}"
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
    max_sweeps: int = 4000


@dataclass(frozen=True)
class Scenario:
    name: str
    plant: LtiPlant
    objective: SteadyStateObjective
    controller: object  # PiGains | DynamicStabilizer | "synthesize"
    schedule: DisturbanceSchedule
    simulation: SimulationSettings
    verification: VerificationSettings


def _build_objective(obj: dict, p: int, m: int) -> SteadyStateObjective:
    name = obj.get("name")
    if name == "quadratic":
        H = matrix_from_json(obj["H"], "objective.H")
        q = np.asarray(obj.get("q", np.zeros(H.shape[0])), dtype=float)
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
    kappa = float(obj.get("kappa", built.kappa))
    lipschitz = float(obj.get("lipschitz", built.lipschitz))
    if kappa != built.kappa or lipschitz != built.lipschitz:
        built = SteadyStateObjective(
            value=built.value,
            gradient=built.gradient,
            p=built.p,
            m=built.m,
            kappa=kappa,
            lipschitz=lipschitz,
            name=built.name,
            hessian=built.hessian,
            linear_term=built.linear_term,
        )
    return built


def _build_controller(obj: dict, p: int, m: int):
    kind = obj.get("type")
    if kind == "pi":
        if "K_P" in obj:
            return PiGains(
                K_P=matrix_from_json(obj["K_P"], "controller.K_P"),
                K_I=matrix_from_json(obj["K_I"], "controller.K_I"),
            )
        return PiGains.from_scalars(float(obj["k_p"]), float(obj["k_i"]), m)
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
    """Build a scenario; a value the constructors reject is a ScenarioError."""
    try:
        return _scenario_from_dict(data)
    except ScenarioError:
        raise
    except (ValueError, SimulationError) as exc:
        raise ScenarioError(str(exc)) from exc


def _scenario_from_dict(data: dict) -> Scenario:
    try:
        plant = LtiPlant(
            A=matrix_from_json(data["plant"]["A"], "plant.A"),
            B=matrix_from_json(data["plant"]["B"], "plant.B"),
            C=matrix_from_json(data["plant"]["C"], "plant.C"),
        )
    except KeyError as exc:
        raise ScenarioError(f"missing plant field: {exc}") from exc
    objective = _build_objective(data.get("objective", {}), plant.p, plant.m)
    controller = _build_controller(
        data.get("controller", {"type": "synthesize"}), plant.p, plant.m
    )
    dist = data.get("disturbance", {})
    times = np.asarray(dist.get("times", [0.0]), dtype=float)
    values = np.atleast_2d(np.asarray(dist.get("values", [[0.0] * plant.n]), dtype=float))
    if values.shape[1] != plant.n:
        raise ScenarioError(
            f"disturbance vectors have length {values.shape[1]}, expected {plant.n}"
        )
    schedule = DisturbanceSchedule(times=times, values=values)
    sim = data.get("simulation", {})

    def _vec(key, length):
        if key not in sim or sim[key] is None:
            return None
        v = np.asarray(sim[key], dtype=float)
        if v.shape != (length,):
            raise ScenarioError(f"simulation.{key} must have length {length}")
        return v

    ns = controller.order if isinstance(controller, DynamicStabilizer) else 0
    settings = SimulationSettings(
        t_final=float(sim.get("t_final", 10.0)),
        dt=float(sim.get("dt", 1e-3)),
        x0=_vec("x0", plant.n),
        eta0=_vec("eta0", plant.m),
        xs0=_vec("xs0", ns),
    )
    ver = data.get("verification", {})
    verification = VerificationSettings(
        kp_grid=tuple(float(v) for v in ver.get("kp_grid", ())),
        ki_grid=tuple(float(v) for v in ver.get("ki_grid", ())),
        max_sweeps=int(ver.get("max_sweeps", 4000)),
    )
    return Scenario(
        name=str(data.get("name", "scenario")),
        plant=plant,
        objective=objective,
        controller=controller,
        schedule=schedule,
        simulation=settings,
        verification=verification,
    )


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc
    return scenario_from_dict(data)


def scenario_to_dict(scn: Scenario) -> dict:
    """Serialize back to the JSON structure (matrices round-trip bitwise)."""
    out = {
        "name": scn.name,
        "plant": {
            "A": matrix_to_json(scn.plant.A),
            "B": matrix_to_json(scn.plant.B),
            "C": matrix_to_json(scn.plant.C),
        },
        "objective": {
            "name": scn.objective.name
            if scn.objective.name in ("cosh_example",)
            else "quadratic",
            "kappa": scn.objective.kappa,
            "lipschitz": scn.objective.lipschitz
            if np.isfinite(scn.objective.lipschitz)
            else "inf",
        },
        "disturbance": {
            "times": scn.schedule.times.tolist(),
            "values": scn.schedule.values.tolist(),
        },
        "simulation": {
            "t_final": scn.simulation.t_final,
            "dt": scn.simulation.dt,
        },
        "verification": {
            "kp_grid": list(scn.verification.kp_grid),
            "ki_grid": list(scn.verification.ki_grid),
            "max_sweeps": scn.verification.max_sweeps,
        },
    }
    if scn.objective.is_quadratic:
        out["objective"]["H"] = matrix_to_json(scn.objective.hessian)
        out["objective"]["q"] = scn.objective.linear_term.tolist()
    ctrl = scn.controller
    if isinstance(ctrl, PiGains):
        out["controller"] = {
            "type": "pi",
            "K_P": matrix_to_json(ctrl.K_P),
            "K_I": matrix_to_json(ctrl.K_I),
        }
    elif isinstance(ctrl, DynamicStabilizer):
        out["controller"] = {
            "type": "stabilizer",
            "A_s": matrix_to_json(ctrl.A_s),
            "B_s": matrix_to_json(ctrl.B_s),
            "C_s": matrix_to_json(ctrl.C_s),
            "D_s": matrix_to_json(ctrl.D_s),
        }
    else:
        out["controller"] = {"type": "synthesize"}
    for key in ("x0", "eta0", "xs0"):
        v = getattr(scn.simulation, key)
        if v is not None:
            out["simulation"][key] = v.tolist()
    return out


def save_scenario(scn: Scenario, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scn), fh, indent=2)
        fh.write("\n")
