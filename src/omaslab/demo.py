"""Four-mode demo network used by the test-suite and the example scripts.

One population-preserving stable mode plus three unstable modes with
different agent counts (4, 3, 5, 3 agents, two-dimensional agents). The
event table covers every transition the generated signals use, including
simultaneous multi-agent joins and leaves. Two scenario variants:

practical    bounded random disturbance, random join impulses and
             dependence gains: errors settle into a neighborhood
asymptotic   no disturbance, no impulses: errors decay to zero
"""

from __future__ import annotations

from typing import Any

from .scenario import Scenario, parse_scenario

# double integrator with slight damping mismatch; unstable on its own
DEMO_A = [[0.0, 1.0], [-0.2, 0.05]]
DEMO_COUPLING = -2.95

_L1 = [
    [1.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, -1.0, 1.0, 0.0],
    [0.0, 0.0, -1.0, 1.0],
]
_D1 = [1.0, 1.0, 0.0, 0.0]

_L2 = [
    [0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0],
    [-1.0, -1.0, 2.0],
]
_D2 = [1.0, 0.0, 0.0]

_L3 = [
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, -2.0, 1.0, 0.0, 1.0],
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0],
]
_D3 = [-1.0, 0.0, 0.0, -1.0, 0.0]

_L4 = [
    [1.0, 0.0, -1.0],
    [1.0, -1.0, 0.0],
    [0.0, 0.0, 0.0],
]
_D4 = [0.0, 0.0, -1.0]

DEMO_MODES = [
    {"id": 1, "L": _L1, "D": _D1},
    {"id": 2, "L": _L2, "D": _D2},
    {"id": 3, "L": _L3, "D": _D3},
    {"id": 4, "L": _L4, "D": _D4},
]

# spectral abscissas of the error dynamics at the demo coupling gain
DEMO_ALPHAS = {1: -2.925, 2: 0.025, 3: 5.925, 4: 2.975}

# reference operating point: with a uniform certificate margin of 1.0 and
# common rate -1.3 the certified floors land here (ratio to 4 significant
# figures; the dwell floor tracks the jump gain, see scripts/calibrate_floors.py
# and its test in tests/test_certificate.py)
DEMO_RATIO_FLOOR = 13.15
DEMO_DWELL_FLOOR = 2.42
DEMO_GAMMA_MARGIN = 1.0
DEMO_GAMMA_COMMON = -1.3

# generation targets for the demo signals, strictly above the certified
# floors so the emitted signal validates with headroom
DEMO_SIGNAL_RATIO = 14.5
DEMO_SIGNAL_DWELL = 2.8

_EVENT_TABLE = [
    {"from": 1, "to": 2, "leaves": [2]},
    {"from": 2, "to": 1, "joins": [3]},
    {"from": 1, "to": 3, "joins": [5]},
    {"from": 3, "to": 1, "leaves": [5]},
    {"from": 1, "to": 4, "leaves": [1]},
    {"from": 4, "to": 1, "joins": [3]},
    {"from": 2, "to": 3, "joins": [2, 5]},
    {"from": 3, "to": 2, "leaves": [3, 4]},
]

DEMO_IMPULSE_RADIUS = 0.53
DEMO_DEP_GAIN_SCALE = 0.05
DEMO_PERTURBATION_BOUND = 0.2
DEMO_HORIZON = 30.0


def demo_scenario_dict(variant: str = "practical", seed: int = 11) -> dict[str, Any]:
    """Build the demo scenario document (JSON-serializable dict)."""
    if variant not in ("practical", "asymptotic"):
        raise ValueError(f"unknown variant {variant!r}")
    practical = variant == "practical"
    events = []
    for row in _EVENT_TABLE:
        ev: dict[str, Any] = dict(row)
        ev["dep_gain"] = {"scale": DEMO_DEP_GAIN_SCALE}
        if practical and ev.get("joins"):
            ev["impulse"] = {"radius": DEMO_IMPULSE_RADIUS}
        events.append(ev)
    perturbation: dict[str, Any]
    if practical:
        perturbation = {"kind": "random", "bound": DEMO_PERTURBATION_BOUND, "hold": 0.05}
    else:
        perturbation = {"kind": "zero", "bound": 0.0}
    return {
        "dynamics": {"A": DEMO_A, "coupling_gain": DEMO_COUPLING},
        "modes": DEMO_MODES,
        "signal": {
            "type": "generate",
            "horizon": DEMO_HORIZON,
            "stable_modes": [1],
            "unstable_modes": [2, 3, 4],
            "ratio_floor": DEMO_SIGNAL_RATIO,
            "dwell_floor": DEMO_SIGNAL_DWELL,
            "margin": 0.05,
        },
        "events": events,
        "perturbation": perturbation,
        "initial_state": {"leader": [1.0, 0.5], "errors": {"radius": 3.0}},
        # a generous uniform margin keeps the shifted defective eigenvalues
        # well away from the axis, which keeps the jump gain moderate
        "certification": {
            "chatter_bound": 0.0,
            "gamma_margin": DEMO_GAMMA_MARGIN,
            "gamma_common": DEMO_GAMMA_COMMON,
        },
        "simulation": {
            "dt": 1e-3,
            "seed": seed,
            "convergence_tol": 1e-3,
            "tail_fraction": 0.2,
            "max_dim": 512,
            "integrator": "exact",
        },
    }


def demo_scenario(variant: str = "practical", seed: int = 11) -> Scenario:
    return parse_scenario(demo_scenario_dict(variant=variant, seed=seed))

