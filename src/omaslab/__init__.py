"""Simulation and certification of open multi-agent systems.

Agents join and leave at switching instants, interactions may be
antagonistic (signed digraphs with repelling couplings), and bounded
non-vanishing disturbances act throughout. The toolkit classifies each
topology mode, synthesizes per-mode Lyapunov certificates, validates
dwell-time and activation-ratio conditions on the switching signal,
computes the resulting ultimate bound on the tracking errors, and
integrates the dimension-varying hybrid closed loop to confirm it.

The package exports the names below; everything else is imported from its
submodule (``omaslab.cli.build_bundle``, ``omaslab.demo.demo_scenario``,
``omaslab.scenario.load_scenario``, ...).
"""

from .mode_dynamics import (
    build_mode_matrices,
    kronecker_sum_spectrum_check,
    spectral_abscissa,
)
from .simulate import lyapunov_trace, run_scenario
from .switching import validate_switching
from .transition import apply_error_jump, build_transition_map

__version__ = "0.1.0"

__all__ = [
    "apply_error_jump",
    "build_mode_matrices",
    "build_transition_map",
    "kronecker_sum_spectrum_check",
    "lyapunov_trace",
    "run_scenario",
    "spectral_abscissa",
    "validate_switching",
]
