import types

import ossctl

# The public surface of the package. A name added to or removed from
# ossctl/__init__.py must be added to or removed from this list too.
PUBLIC_NAMES = [
    "AffineBlock",
    "AlgebraicLoopError",
    "AugmentedPlant",
    "ControllerState",
    "DisturbanceSchedule",
    "DivergenceError",
    "DynamicStabilizer",
    "FeasibilityResult",
    "KktError",
    "KktGeometry",
    "LmiCertificate",
    "LmiError",
    "LtiPlant",
    "ObjectiveError",
    "OptimizerResult",
    "OracleError",
    "OssctlError",
    "PiGains",
    "PlantError",
    "RealizationH",
    "Scenario",
    "ScenarioError",
    "SimulationError",
    "SteadyStateObjective",
    "SynthesisError",
    "SynthesisResult",
    "Trace",
    "assemble_lmi",
    "build_kkt_geometry",
    "build_multiplier",
    "build_realization",
    "check_detectable",
    "check_full_row_rank_AB",
    "check_gradient_fd",
    "check_stabilizable",
    "convergence_metrics",
    "cosh_example_objective",
    "error_signal",
    "gain_grid_search",
    "hinf_norm",
    "is_hurwitz",
    "kkt_residual",
    "load_scenario",
    "loop_transform",
    "numerical_rank",
    "pi_as_stabilizer",
    "pi_dynamics",
    "quadratic_objective",
    "resolve_input",
    "scenario_from_dict",
    "simulate",
    "solve_feasibility",
    "solve_quadratic_closed_form",
    "solve_steady_state",
    "stabilizer_dynamics",
    "synthesize_stabilizer",
    "verify_stability",
]


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
