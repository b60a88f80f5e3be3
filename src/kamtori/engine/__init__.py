from .schedule import Schedule, ScheduleRow, build_schedule
from .cohom import CohomSolution, solve_cohomological
from .driver import IterationState, StepFailure, StepResult, iterate, kam_step
from .torus import (TorusResult, extract_torus, find_torus,
                    find_vanishing_point, verify_invariance)
from .diagnostics import compute_zeta

__all__ = [
    "Schedule", "ScheduleRow", "build_schedule", "CohomSolution",
    "solve_cohomological", "IterationState", "StepFailure", "StepResult",
    "iterate", "kam_step", "TorusResult", "extract_torus", "find_torus",
    "find_vanishing_point", "verify_invariance", "compute_zeta",
]
