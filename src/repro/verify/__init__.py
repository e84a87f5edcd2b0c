"""Model-level verification (paper section 2).

* :class:`TestCase` — formal, platform-independent test cases
* :func:`run_case` — execute one case on one executor: the abstract
  :class:`~repro.runtime.Simulation`, csim, vsim or the co-simulation
* :func:`check_conformance` — the E3 matrix: every case on the
  :func:`standard_targets` (abstract model, generated C, generated VHDL),
  traces compared
* :data:`SUITES` — the formal suites of the catalog models
"""

from .chaos import (
    ChaosCaseResult,
    ChaosPoint,
    ChaosReport,
    chaos_build,
    chaos_sweep,
    default_hardware_for,
    reliability_marks,
)
from .conformance import (
    CaseConformance,
    ConformanceReport,
    check_conformance,
    standard_targets,
)
from .runner import run_case
from .suitefile import (
    SuiteFileError,
    suite_from_dict,
    suite_from_json,
    suite_to_dict,
    suite_to_json,
)
from .suites import SUITES, suite_for
from .testcase import Failure, TestCase, TestResult

__all__ = [
    "CaseConformance",
    "ChaosCaseResult",
    "ChaosPoint",
    "ChaosReport",
    "ConformanceReport",
    "Failure",
    "SUITES",
    "SuiteFileError",
    "TestCase",
    "TestResult",
    "chaos_build",
    "chaos_sweep",
    "check_conformance",
    "default_hardware_for",
    "reliability_marks",
    "run_case",
    "standard_targets",
    "suite_for",
    "suite_from_dict",
    "suite_from_json",
    "suite_to_dict",
    "suite_to_json",
]
