"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the program's public functions with timing or
counting wrappers in every ``omaslab`` module namespace that holds them (so
``load_scenario`` is wrapped both in ``omaslab.scenario`` and in
``omaslab.cli``), and ``uninstall`` puts the originals back. Nothing under
``src/`` is edited. A timed call records a span (name, start, end, parent) in
flat arrays kept in memory; high-frequency helpers whose cost is already inside
a timed layer are only counted. A layer's time is the sum of its spans' self
times: span duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter

import numpy as np
import scipy.linalg

# span name -> per-layer metric stem; several functions can feed one layer
SPAN_LAYERS = {
    "load_scenario": "scenario.load",
    "Scenario.resolve_signal": "scenario.resolve_signal",
    "classify_mode": "signed_graph",
    "grounded_laplacian": "signed_graph",
    "augmented_laplacian": "signed_graph",
    "repelling_laplacian": "signed_graph",
    "check_negative_majority_instability": "signed_graph",
    "build_mode_matrices": "mode_dynamics.build",
    "solve_mode_certificate": "certificate.lyapunov",
    "assemble_bundle": "certificate.assemble",
    "impulse_bounds": "transition.impulse_bounds",
    "validate_switching": "switching.validate",
    "PerturbationModel.sample": "simulate.forcing",
    "expm": "simulate.expm",
    "integrate_segment": "simulate.integrate",
    "export_trajectory_csv": "simulate.export",
    "export_events_csv": "simulate.export",
}

# counted only: called per step, per suffix or per event inside a timed layer
COUNTED = ("apply_state_jump", "activation_times", "piecewise_adt", "stream_rng")

# the per-layer metrics one traced session yields, with their units
LAYER_METRICS = {
    "scenario.load_s": "s",
    "scenario.resolve_signal_s": "s",
    "scenario.resolve_signal_calls": "count",
    "scenario.events_built": "count",
    "signed_graph.s": "s",
    "mode_dynamics.build_s": "s",
    "mode_dynamics.build_calls": "count",
    "certificate.lyapunov_s": "s",
    "certificate.lyapunov_solves": "count",
    "certificate.assemble_s": "s",
    "transition.impulse_bounds_s": "s",
    "transition.jumps": "count",
    "switching.validate_s": "s",
    "switching.suffix_evals": "count",
    "seeding.rng_streams": "count",
    "simulate.forcing_s": "s",
    "simulate.forcing_samples": "count",
    "simulate.expm_s": "s",
    "simulate.expm_calls": "count",
    "simulate.integrate_s": "s",
    "simulate.us_per_step": "us",
    "simulate.export_s": "s",
    "simulate.export_mb": "MB",
}

_GRID_EPS = 1e-9  # the integrator's own grid tolerance, to count its steps


def _steps(t_span, dt) -> int:
    span = float(t_span[1]) - float(t_span[0])
    n_full = int(np.floor(span / dt + _GRID_EPS))
    return n_full + (1 if span - n_full * dt >= dt * 1e-9 else 0)


def _program_function(name: str):
    """The function ``name`` as defined in some ``omaslab`` module, or None."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("omaslab."):
            fn = vars(mod).get(name)
            if callable(fn) and getattr(fn, "__module__", "").startswith("omaslab"):
                return fn
    return None


class _Proxy:
    """Stands in for a module, overriding some attributes."""

    def __init__(self, real, **override):
        self._real = real
        self.__dict__.update(override)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self, clock_origin: float) -> None:
        self.origin = clock_origin
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.steps = 0
        self.export_bytes = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _timed(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, kwargs)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "omaslab" or mod_name.startswith("omaslab."):
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, attr, wrapper)

    def install(self) -> None:
        import omaslab.scenario as scenario
        import omaslab.simulate as simulate

        for cls, meth in ((scenario.Scenario, "resolve_signal"),
                          (simulate.PerturbationModel, "sample")):
            self._set(cls, meth, self._timed(f"{cls.__name__}.{meth}", getattr(cls, meth)))
        self._set(scenario.Scenario, "build_event",
                  self._counted("Scenario.build_event", scenario.Scenario.build_event))

        def count_steps(args, kwargs):
            t_span = args[3] if len(args) > 3 else kwargs["t_span"]
            dt = args[4] if len(args) > 4 else kwargs.get("dt", simulate.DEFAULT_DT)
            self.steps += _steps(t_span, dt)

        def count_bytes(args, kwargs):
            self.export_bytes += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

        hooks = {"integrate_segment": count_steps,
                 "export_trajectory_csv": count_bytes,
                 "export_events_csv": count_bytes}
        for name in SPAN_LAYERS:
            fn = None if "." in name else _program_function(name)
            if fn is not None:
                self._wrap_everywhere(fn, self._timed(name, fn, hooks.get(name)))
        for name in COUNTED:
            fn = _program_function(name)
            if fn is not None:
                self._wrap_everywhere(fn, self._counted(name, fn))

        expm = self._timed("expm", scipy.linalg.expm)
        self._wrap_everywhere(scipy.linalg.expm, expm)  # `from scipy.linalg import expm`
        if getattr(simulate, "scipy", None) is sys.modules["scipy"]:
            self._set(simulate, "scipy",
                      _Proxy(sys.modules["scipy"], linalg=_Proxy(scipy.linalg, expm=expm)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times (self times, seconds) and counts of this trace."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        per_name = np.bincount(ids, weights=self_time, minlength=len(self.names))
        n_calls = np.bincount(ids, minlength=len(self.names))
        times: Counter = Counter()
        calls: Counter = Counter()
        for nid, name in enumerate(self.names):
            layer = SPAN_LAYERS.get(name)
            if layer is not None:
                times[layer] += float(per_name[nid])
                calls[name] += int(n_calls[nid])
        m = {
            "scenario.load_s": times["scenario.load"],
            "scenario.resolve_signal_s": times["scenario.resolve_signal"],
            "scenario.resolve_signal_calls": calls["Scenario.resolve_signal"],
            "scenario.events_built": self.counts["Scenario.build_event"],
            "signed_graph.s": times["signed_graph"],
            "mode_dynamics.build_s": times["mode_dynamics.build"],
            "mode_dynamics.build_calls": calls["build_mode_matrices"],
            "certificate.lyapunov_s": times["certificate.lyapunov"],
            "certificate.lyapunov_solves": calls["solve_mode_certificate"],
            "certificate.assemble_s": times["certificate.assemble"],
            "transition.impulse_bounds_s": times["transition.impulse_bounds"],
            "transition.jumps": self.counts["apply_state_jump"],
            "switching.validate_s": times["switching.validate"],
            "switching.suffix_evals": (self.counts["activation_times"]
                                       + self.counts["piecewise_adt"]),
            "seeding.rng_streams": self.counts["stream_rng"],
            "simulate.forcing_s": times["simulate.forcing"],
            "simulate.forcing_samples": calls["PerturbationModel.sample"],
            "simulate.expm_s": times["simulate.expm"],
            "simulate.expm_calls": calls["expm"],
            "simulate.integrate_s": times["simulate.integrate"],
            "simulate.us_per_step": (1e6 * times["simulate.integrate"] / self.steps
                                     if self.steps else 0.0),
            "simulate.export_s": times["simulate.export"],
            "simulate.export_mb": self.export_bytes / 1e6,
        }
        return m

    def write_spans(self, fh, round_index: int) -> None:
        """Append this trace's spans as CSV rows (times relative to the run start)."""
        for i in range(len(self.start)):
            fh.write(f"{round_index},{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                     f"{self.start[i] - self.origin:.9f},{self.end[i] - self.origin:.9f}\n")
