"""Inputs and command sessions of the three benchmark workloads.

Every input is made here from the workload seed; the program only ever sees
the files written by ``make_workload``. The demo network is copied into this
file rather than imported from ``omaslab.demo`` so that a change to the
bundled demo cannot silently change what the benchmark measures (the smoke
test compares the two).

demo-sweep    the bundled practical demo (30 s, dt 1e-3, random perturbation
              of norm <= 0.2, join impulses), simulated as ``simulate --sweep``
              runs it over consecutive seeds, once per integrator
switch-heavy  the demo's modes and event table in the asymptotic variant, on an
              explicit signal of about a thousand switches that passes
              validation on every suffix, at a coarse dt
wide          a generated network of about two hundred two-dimensional agents
              (one positive spanning mode, two negative-majority modes), a
              practical perturbation and four switches
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("demo-sweep", "switch-heavy", "wide")

# ---------------------------------------------------------------------------
# the bundled demo, frozen

DEMO_A = [[0.0, 1.0], [-0.2, 0.05]]
DEMO_COUPLING = -2.95
DEMO_MODES = [
    {"id": 1, "L": [[1.0, 0.0, 0.0, -1.0], [0.0, 0.0, 0.0, 0.0],
                    [0.0, -1.0, 1.0, 0.0], [0.0, 0.0, -1.0, 1.0]],
     "D": [1.0, 1.0, 0.0, 0.0]},
    {"id": 2, "L": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-1.0, -1.0, 2.0]],
     "D": [1.0, 0.0, 0.0]},
    {"id": 3, "L": [[0.0, 0.0, 0.0, 0.0, 0.0], [0.0, -2.0, 1.0, 0.0, 1.0],
                    [0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0, 0.0]],
     "D": [-1.0, 0.0, 0.0, -1.0, 0.0]},
    {"id": 4, "L": [[1.0, 0.0, -1.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]],
     "D": [0.0, 0.0, -1.0]},
]
DEMO_EVENT_TABLE = [
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


def demo_document(variant: str, seed: int) -> dict:
    """The demo scenario document, as ``omaslab.demo.demo_scenario_dict``."""
    practical = variant == "practical"
    events = []
    for row in DEMO_EVENT_TABLE:
        ev = dict(row)
        ev["dep_gain"] = {"scale": DEMO_DEP_GAIN_SCALE}
        if practical and ev.get("joins"):
            ev["impulse"] = {"radius": DEMO_IMPULSE_RADIUS}
        events.append(ev)
    if practical:
        perturbation = {"kind": "random", "bound": DEMO_PERTURBATION_BOUND, "hold": 0.05}
    else:
        perturbation = {"kind": "zero", "bound": 0.0}
    return {
        "dynamics": {"A": DEMO_A, "coupling_gain": DEMO_COUPLING},
        "modes": DEMO_MODES,
        "signal": {
            "type": "generate", "horizon": 30.0, "stable_modes": [1],
            "unstable_modes": [2, 3, 4], "ratio_floor": 14.5,
            "dwell_floor": 2.8, "margin": 0.05,
        },
        "events": events,
        "perturbation": perturbation,
        "initial_state": {"leader": [1.0, 0.5], "errors": {"radius": 3.0}},
        "certification": {"chatter_bound": 0.0, "gamma_margin": 1.0, "gamma_common": -1.3},
        "simulation": {
            "dt": 1e-3, "seed": seed, "convergence_tol": 1e-3, "tail_fraction": 0.2,
            "max_dim": 512, "integrator": "exact",
        },
    }


# ---------------------------------------------------------------------------
# workload description


@dataclass
class Command:
    """One CLI call of the session: argv for ``omaslab.cli.main``."""

    kind: str            # analyze | gen-signal | certify | simulate
    argv: list[str]
    out: str             # output directory, relative to the session directory


@dataclass
class Workload:
    name: str
    seed: int
    inputs: dict[str, dict]          # file name -> scenario document
    commands: list[Command]
    sweep_seeds: list[int] = field(default_factory=list)
    # explicit signals: the (t, mode) list the benchmark wrote
    segments: list[tuple[float, int]] | None = None


def _explicit(segments: list[tuple[float, int]], tf: float) -> dict:
    return {
        "type": "explicit", "t0": 0.0, "tf": tf,
        "segments": [{"t": t, "mode": m} for t, m in segments],
    }


def _demo_sweep(seed: int, smoke: bool) -> Workload:
    sweep = 2
    inputs = {}
    for integ in ("exact", "rk4"):
        doc = demo_document("practical", seed)
        doc["simulation"]["integrator"] = integ
        if smoke:
            doc["simulation"]["dt"] = 5e-3
        inputs[f"demo_{integ}.json"] = doc
    # each scenario file is certified for every seed of the sweep before it is
    # simulated, as a user would; the rk4 certificates must equal the exact ones
    commands = [
        Command("analyze", ["analyze", "--scenario", "demo_exact.json"], "analyze"),
        Command("gen-signal", ["gen-signal", "--scenario", "demo_exact.json"], "signal"),
    ]
    for integ in ("exact", "rk4"):
        for k in range(sweep):
            out = "certify" if (integ, k) == ("exact", 0) else f"certify_{integ}_{seed + k}"
            commands.append(Command("certify", ["certify", "--scenario", f"demo_{integ}.json",
                                                "--seed", str(seed + k)], out))
        commands.append(Command(
            "simulate",
            ["simulate", "--scenario", f"demo_{integ}.json", "--sweep", str(sweep)],
            f"sim_{integ}",
        ))
    return Workload("demo-sweep", seed, inputs, commands,
                    sweep_seeds=list(range(seed, seed + sweep)))


# switch-heavy: pairs of (stable, unstable) segments after a stable lead-in.
# Lengths are whole steps plus a random fraction of a step, so every seed
# integrates the same number of steps; a stable-to-unstable time ratio of at
# least 16.2 on every suffix (the certified floor is 13.16) and pairs longer
# than twice the dwell floor (2.68) make every suffix pass validation.
SWITCH_DT = 0.05
SWITCH_PAIRS = 500
SWITCH_PAIRS_SMOKE = 20
_UNSTABLE_STEPS = 6     # 0.30 s + fraction
_STABLE_STEPS = 110     # 5.50 s + fraction


def _switch_heavy(seed: int, smoke: bool) -> Workload:
    rng = np.random.default_rng([seed, 1])
    pairs = SWITCH_PAIRS_SMOKE if smoke else SWITCH_PAIRS
    unstable = [2, 3, 4] * (pairs // 3) + [2, 3, 4][: pairs % 3]
    rng.shuffle(unstable)
    frac = rng.uniform(0.2, 0.8, size=2 * pairs + 1)
    segments = []
    t = 0.0
    for k in range(2 * pairs + 1):
        stable = k % 2 == 0
        segments.append((round(t, 9), 1 if stable else int(unstable[k // 2])))
        t += ((_STABLE_STEPS if stable else _UNSTABLE_STEPS) + frac[k]) * SWITCH_DT
    doc = demo_document("asymptotic", seed)
    doc["signal"] = _explicit(segments, round(t, 9))
    doc["simulation"]["dt"] = SWITCH_DT
    commands = [
        Command("analyze", ["analyze", "--scenario", "switch.json"], "analyze"),
        Command("gen-signal", ["gen-signal", "--scenario", "switch.json"], "signal"),
        Command("certify", ["certify", "--scenario", "switch.json"], "certify"),
        Command("simulate", ["simulate", "--scenario", "switch.json"], "sim"),
    ]
    return Workload("switch-heavy", seed, {"switch.json": doc}, commands,
                    sweep_seeds=[seed], segments=segments)


# wide: three modes whose structure is fixed and whose agent labels the seed
# permutes. Permuting labels is a similarity transform, so spectra, certificate
# conditioning and the cost of every dense factorisation are the same for every
# seed; the seed still changes the labelling, the join/leave positions, the
# impulses, dependence gains, perturbation and initial errors.
WIDE_AGENTS = {1: 160, 2: 159, 3: 161}
WIDE_AGENTS_SMOKE = {1: 20, 2: 19, 3: 21}
WIDE_DT = 0.5
WIDE_STABLE = 30.2      # 60 steps and a remainder: two propagator builds
WIDE_UNSTABLE = 0.5     # one step: one propagator build


def _ring(n: int, hops: tuple[int, ...], w: float) -> list[tuple[int, int, float]]:
    return [(i, (i + h) % n, w) for i in range(n) for h in hops]


def _wide_template(mode: int, n: int) -> tuple[list[tuple[int, int, float]], list[float]]:
    """0-based (src, dst, weight) edges and leader links before relabelling."""
    if mode == 1:   # positive spanning: every agent hears the leader
        return _ring(n, (1,), 1.0), [1.0] * n
    if mode == 2:   # negative ring, three cooperative leader links
        links = [0.0] * n
        for i in (0, n // 3, 2 * n // 3):
            links[i] = 1.0
        return _ring(n, (1,), -1.0), links
    # negative ring with skips, every agent hears the leader
    return _ring(n, (1, 2), -1.0), [1.0] * n


def _wide(seed: int, smoke: bool) -> Workload:
    rng = np.random.default_rng([seed, 2])
    sizes = WIDE_AGENTS_SMOKE if smoke else WIDE_AGENTS
    modes = []
    for mid, n in sizes.items():
        edges, links = _wide_template(mid, n)
        perm = rng.permutation(n)  # template agent i becomes agent perm[i]
        modes.append({
            "id": mid,
            "n_agents": n,
            "edges": [[int(perm[s]) + 1, int(perm[d]) + 1, w] for s, d, w in edges],
            "leader_links": [links[int(i)] for i in np.argsort(perm)],
        })
    events = []
    for u in (2, 3):
        for a, b in ((1, u), (u, 1)):
            na, nb = sizes[a], sizes[b]
            pos = sorted(int(x) + 1 for x in rng.choice(max(na, nb), abs(na - nb), replace=False))
            ev = {"from": a, "to": b, "dep_gain": {"scale": DEMO_DEP_GAIN_SCALE}}
            if nb > na:
                ev["joins"] = pos
                ev["impulse"] = {"radius": DEMO_IMPULSE_RADIUS}
            else:
                ev["leaves"] = pos
            events.append(ev)
    order = [int(m) for m in rng.permutation([2, 3])]
    segments = []
    t = 0.0
    for k in range(5):
        stable = k % 2 == 0
        segments.append((round(t, 9), 1 if stable else order[k // 2]))
        t += WIDE_STABLE if stable else WIDE_UNSTABLE
    doc = {
        "dynamics": {"A": DEMO_A, "coupling_gain": DEMO_COUPLING},
        "modes": modes,
        "signal": _explicit(segments, round(t, 9)),
        "events": events,
        "perturbation": {"kind": "random", "bound": DEMO_PERTURBATION_BOUND, "hold": WIDE_DT},
        "initial_state": {"leader": [1.0, 0.5], "errors": {"radius": 3.0}},
        "certification": {"chatter_bound": 0.0, "gamma_margin": 1.0, "gamma_common": -1.3},
        "simulation": {
            "dt": WIDE_DT, "seed": seed, "convergence_tol": 1e-3, "tail_fraction": 0.2,
            "max_dim": 512, "integrator": "exact",
        },
    }
    commands = [
        Command("analyze", ["analyze", "--scenario", "wide.json"], "analyze"),
        Command("gen-signal", ["gen-signal", "--scenario", "wide.json"], "signal"),
        Command("certify", ["certify", "--scenario", "wide.json"], "certify"),
        Command("simulate", ["simulate", "--scenario", "wide.json"], "sim"),
    ]
    return Workload("wide", seed, {"wide.json": doc}, commands,
                    sweep_seeds=[seed], segments=segments)


_MAKERS = {"demo-sweep": _demo_sweep, "switch-heavy": _switch_heavy, "wide": _wide}


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    return _MAKERS[name](seed, smoke)


def write_inputs(wl: Workload, directory: str) -> list[str]:
    """Write the workload's scenario files; returns their paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for fname, doc in wl.inputs.items():
        path = os.path.join(directory, fname)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        paths.append(path)
    return paths
