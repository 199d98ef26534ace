"""Every error ossctl raises, each with the process exit code it maps to.

Exit codes: 0 success, 1 bad input, 2 assumption failure, 3 certification
failure, 4 synthesis failure, 5 divergence.  Certification failure is a
returned decision, not an exception.
"""

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_ASSUMPTION = 2
EXIT_CERTIFICATION = 3
EXIT_SYNTHESIS = 4
EXIT_DIVERGENCE = 5


class OssctlError(Exception):
    """Base of every ossctl error; the CLI exits with its exit_code."""
    exit_code = EXIT_BAD_INPUT


class ScenarioError(OssctlError):
    """A scenario file or field that cannot be used."""


class PlantError(OssctlError):
    """Plant matrices of inconsistent shape, or an unusable disturbance."""


class ObjectiveError(OssctlError):
    """A cost that is not convex with the declared moduli, or of bad shape."""


class LmiError(OssctlError):
    """Sector-LMI data that cannot be assembled."""


class SimulationError(OssctlError):
    """A schedule, time grid or initial condition that cannot be simulated."""


class DivergenceError(SimulationError):
    """The simulated state diverged, or the cost overflowed along it."""
    exit_code = EXIT_DIVERGENCE


class KktError(OssctlError):
    """The KKT geometry is not defined: rank [A B] < n."""
    exit_code = EXIT_ASSUMPTION


class OracleError(OssctlError):
    """No unique steady-state optimizer exists, or none could be computed."""
    exit_code = EXIT_ASSUMPTION


class AlgebraicLoopError(OssctlError):
    """The implicit input equation could not be solved at this state."""
    exit_code = EXIT_ASSUMPTION


class SynthesisError(OssctlError):
    """No stabilizer could be synthesized or validated."""
    exit_code = EXIT_SYNTHESIS
