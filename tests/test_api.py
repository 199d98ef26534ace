import dataclasses
import inspect
import types

import pytest

import ossctl

# The public surface of the package. A name added to or removed from
# ossctl/__init__.py must be added to or removed from this list too.
PUBLIC_NAMES = [
    "AlgebraicLoopError",
    "DisturbanceSchedule",
    "DivergenceError",
    "DynamicStabilizer",
    "KktError",
    "KktGeometry",
    "LmiCertificate",
    "LmiError",
    "LtiPlant",
    "ObjectiveError",
    "OptimizerResult",
    "OracleError",
    "OssctlError",
    "PlantError",
    "Scenario",
    "ScenarioError",
    "SimulationError",
    "SteadyStateObjective",
    "SynthesisError",
    "SynthesisResult",
    "Trace",
    "build_kkt_geometry",
    "build_multiplier",
    "check_detectable",
    "check_full_row_rank_AB",
    "check_gradient_fd",
    "check_stabilizable",
    "closed_loop",
    "convergence_metrics",
    "cosh_example_objective",
    "gain_grid_search",
    "hinf_norm",
    "kkt_residual",
    "load_scenario",
    "numerical_rank",
    "quadratic_objective",
    "scenario_from_dict",
    "simulate",
    "solve_quadratic_closed_form",
    "solve_steady_state",
    "stabilizer_dynamics",
    "synthesize_stabilizer",
    "verify_stability",
]

# The parameters of the entry points that take options. An option added to
# or removed from one of them must be added to or removed from here too.
PARAMETERS = {
    "simulate": [
        "plant", "geometry", "objective", "controller", "schedule", "t_final",
        "dt", "x0", "eta0", "xs0",
    ],
    "verify_stability": [
        "plant", "geometry", "controller", "kappa", "lipschitz",
    ],
    "gain_grid_search": [
        "plant", "geometry", "kp_values", "ki_values", "kappa", "lipschitz",
    ],
    "synthesize_stabilizer": ["plant", "geometry", "kappa", "lipschitz"],
    "closed_loop": ["plant", "geometry", "controller"],
}

# The fields of the result records.  A field added to or removed from one
# of them changes what callers read, so it must be changed here too.
FIELDS = {
    "SynthesisResult": ["stabilizer", "gamma", "rate", "hinf_achieved"],
    "LmiCertificate": ["P", "eig_S_max", "eig_P_min", "status", "witness"],
    "OptimizerResult": [
        "x_star", "y_star", "u_star", "objective_value", "kkt_feas", "kkt_grad",
        "iterations",
    ],
}


def test_public_names():
    # submodules become attributes of the package once imported; they are
    # not part of the exported surface
    names = sorted(
        name
        for name in dir(ossctl)
        if not name.startswith("_")
        and not isinstance(getattr(ossctl, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_parameter_names(name):
    signature = inspect.signature(getattr(ossctl, name))
    assert list(signature.parameters) == PARAMETERS[name]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_result_fields(name):
    fields = dataclasses.fields(getattr(ossctl, name))
    assert [field.name for field in fields] == FIELDS[name]
