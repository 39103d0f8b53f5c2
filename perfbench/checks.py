"""Untimed output checks, each an operation of the run.

The checks read what the CLI wrote and compare it with computations made here
from the benchmark's own inputs: its own suffix sweep, its own eigenvalues and
error matrices, its own energy envelope and its own error-coordinate
propagation. Only the certificate matrices P, which no output file carries,
come from the program's Python API.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from workloads import Workload

# switch-heavy: the two checks that fail on every run today, and why
KNOWN_FAILURES = {
    ("switch-heavy", "asymptotic_convergence"),
    ("switch-heavy", "energy_envelope"),
}
CANCELLATION = (
    "full-coordinate cancellation: run_switched integrates the leader-included "
    "stack and forms errors as x_i - x_0, and the unstable drift (alpha(A) = 0.025) "
    "grows the leader until the errors are lost to rounding"
)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    known: bool = False   # a failure with a known, confirmed cause


def _rel_close(a: float, b: float, rel: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# independent computations


def laplacians(doc: dict) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Mode id -> (repelling Laplacian L, leader links D) from a scenario document."""
    out = {}
    for m in doc["modes"]:
        if "L" in m:
            out[m["id"]] = (np.array(m["L"], dtype=float), np.array(m["D"], dtype=float))
            continue
        a = np.zeros((m["n_agents"], m["n_agents"]))
        for src, dst, w in m["edges"]:
            a[dst - 1, src - 1] = w
        out[m["id"]] = (np.diag(a.sum(axis=1)) - a, np.array(m["leader_links"], dtype=float))
    return out


def error_matrix(doc: dict, L: np.ndarray, D: np.ndarray) -> np.ndarray:
    A = np.array(doc["dynamics"]["A"], dtype=float)
    Z = L + np.diag(D)
    c = doc["dynamics"]["coupling_gain"]
    return np.kron(np.eye(len(D)), A) + c * np.kron(Z, np.eye(len(A)))


def mode_alpha(doc: dict, L: np.ndarray, D: np.ndarray) -> float:
    """Spectral abscissa of the error matrix from the factor spectra."""
    ev_a = np.linalg.eigvals(np.array(doc["dynamics"]["A"], dtype=float))
    ev_z = np.linalg.eigvals(L + np.diag(D))
    return float((ev_a[:, None] + doc["dynamics"]["coupling_gain"] * ev_z[None, :]).real.max())


def suffix_sweep(segments, tf, stable, g_s, g_u, g, mu, chatter):
    """Both switching conditions on every suffix in one reverse pass.

    Returns (ratio_slack_min, adt_slack_min); slacks >= 0 mean satisfied.
    """
    starts = np.array([t for t, _ in segments], dtype=float)
    dur = np.diff(np.append(starts, tf))
    is_stable = np.array([m in stable for _, m in segments])
    t_s = np.cumsum(np.where(is_stable, dur, 0.0)[::-1])[::-1]
    t_u = np.cumsum(np.where(is_stable, 0.0, dur)[::-1])[::-1]
    ratio = -(t_s * (g_s - g) + (0.0 if g_u is None else t_u * (g_u - g)))
    n_after = (len(segments) - 1) - np.arange(len(segments))
    constrained = n_after > chatter
    adt = (tf - starts[constrained]) / (n_after[constrained] - chatter)
    dwell = -math.log(mu) / g
    adt_min = float((adt - dwell).min()) if adt.size else math.inf
    return float(ratio.min()), adt_min


def generated_layout(spec: dict) -> tuple[list[float], list[int], list[int]]:
    """Switch times and modes of a 'generate' signal, from its documented layout:
    a stable lead-in, then (unstable, stable) blocks with the stable tail
    absorbing the slack; unstable modes used round-robin in shuffled order."""
    r = spec["ratio_floor"] * (1.0 + spec["margin"])
    dwell = spec["dwell_floor"] * (1.0 + spec["margin"])
    u = max(2.0 * dwell / (1.0 + r), 1e-3 * spec["horizon"])
    s = max(r * u, dwell)
    n_pairs = int(math.floor((spec["horizon"] - s) / (u + s)))
    t0 = spec.get("t0", 0.0)
    starts = [t0]
    for _ in range(n_pairs):
        starts += [starts[-1] + s, starts[-1] + s + u]
    stable = [spec["stable_modes"][i % len(spec["stable_modes"])] for i in range(n_pairs + 1)]
    unstable = [spec["unstable_modes"][i % len(spec["unstable_modes"])] for i in range(n_pairs)]
    return starts, stable, unstable


def migration(n_before: int, n_after: int, joins, leaves) -> np.ndarray:
    """0/1 relabelling: survivors keep their order, joiners get zero rows."""
    keep = [i for i in range(n_before) if i + 1 not in set(leaves)]
    xi = np.zeros((n_after, n_before))
    rows = [r for r in range(n_after) if r + 1 not in set(joins)]
    for r, c in zip(rows, keep):
        xi[r, c] = 1.0
    return xi


@dataclass
class Trajectory:
    """A parsed trajectory.csv; missing agents are NaN."""

    t: np.ndarray
    mode: np.ndarray
    count: np.ndarray
    states: np.ndarray
    errs: np.ndarray
    p: int


def read_trajectory(path: str) -> Trajectory:
    with open(path, "rb") as fh:
        header, _, body = fh.read().partition(b"\n")
    cols = header.decode().split(",")
    n_x = sum(c.startswith("xi_agent") for c in cols)
    n_e = sum(c.startswith("err_agent") for c in cols)
    body = re.sub(rb",(?=,|\n)", b",nan", body)
    a = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    return Trajectory(t=a[:, 0], mode=a[:, 1].astype(int), count=a[:, 2].astype(int),
                      states=a[:, 3:3 + n_x], errs=a[:, 3 + n_x:3 + n_x + n_e], p=n_x - n_e)


def error_norms(traj: Trajectory) -> np.ndarray:
    return np.sqrt(np.nansum(traj.errs ** 2, axis=1))


def tail_error(traj: Trajectory, tail_fraction: float) -> float:
    t0, tf = traj.t[0], traj.t[-1]
    mask = traj.t >= tf - tail_fraction * (tf - t0) - 1e-9
    with np.errstate(over="ignore"):
        return float(error_norms(traj)[mask].max())


def envelope_violations(traj: Trajectory, P: dict[int, np.ndarray], c: dict,
                        switch_times: list[float], rel_tol: float = 1e-6) -> tuple[int, float]:
    """Rows where V = sqrt(e'Pe) exceeds the certified envelope.

    The envelope is
      e^{max(N,K) ln mu + g (t - t0)} V(t0) + settled_flow (1 + mu S_N(t)) + jump_offset S_N(t)
    with S_N(t) = sum_{m<=N} mu^{N-m} e^{g (t - t_m)}, carried from switch to
    switch as S_i(t) = e^{g (t - t_i)} C_i, C_i = 1 + mu e^{g (t_i - t_{i-1})} C_{i-1}.
    Returns (violations, largest V / envelope).
    """
    mu, g, k = c["jump_gain"], c["gamma_common"], c["chatter_bound"]
    seg = np.concatenate([[0], np.cumsum(traj.mode[1:] != traj.mode[:-1])])
    v = np.empty(len(traj.t))
    for mid in np.unique(traj.mode):
        rows = traj.mode == mid
        dim = traj.p * int(traj.count[rows][0])
        e = traj.errs[rows, :dim]
        with np.errstate(over="ignore", invalid="ignore"):
            v[rows] = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", e, P[mid], e), 0.0))
    t0 = traj.t[0]
    times = np.array([t0, *switch_times])
    carry = np.zeros(len(times))
    for i in range(1, len(times)):
        carry[i] = 1.0 + mu * math.exp(g * (times[i] - times[i - 1])) * carry[i - 1]
    s_n = carry[seg] * np.exp(g * (traj.t - times[seg]))
    log_beta = np.maximum(seg, k) * math.log(mu) + g * (traj.t - t0)
    with np.errstate(over="ignore", divide="ignore"):
        beta = np.exp(log_beta + math.log(v[0])) if v[0] > 0.0 else np.zeros_like(v)
        env = beta + c["settled_flow"] * (1.0 + mu * s_n) + c["jump_offset"] * s_n
        bad = ~(v <= env * (1.0 + rel_tol) + 1e-12)
        ratio = float(np.max(v / np.maximum(env, 1e-300)))
    return int(bad.sum()), ratio


def error_coordinate_tail(doc: dict, signal: dict, e0: np.ndarray, tail_fraction: float) -> float:
    """Propagate the same run in error coordinates: e <- expm(A_err T) e per
    segment and e <- (Xi (x) I + dep_gain) e + impulse at each switch. Returns
    the largest error norm at segment ends inside the tail window."""
    laps = laplacians(doc)
    p = len(doc["dynamics"]["A"])
    segs = signal["segments"]
    tf = signal["tf"]
    cutoff = tf - tail_fraction * (tf - signal["t0"])
    e = np.asarray(e0, dtype=float)
    worst = 0.0
    for i, s in enumerate(segs):
        end = segs[i + 1]["t"] if i + 1 < len(segs) else tf
        A_err = error_matrix(doc, *laps[s["mode"]])
        if s["t"] >= cutoff:
            worst = max(worst, float(np.linalg.norm(e)))
        e = scipy.linalg.expm(A_err * (end - s["t"])) @ e
        if end >= cutoff:
            worst = max(worst, float(np.linalg.norm(e)))
        if i + 1 < len(segs):
            ev = signal["events"][i]
            J = np.kron(migration(ev["n_before"], ev["n_after"], ev["joins"], ev["leaves"]),
                        np.eye(p))
            if ev["dep_gain"] is not None:
                J = J + np.array(ev["dep_gain"])
            e = J @ e + (0.0 if ev["impulse"] is None else np.array(ev["impulse"]))
    return worst


# ---------------------------------------------------------------------------
# the checks


class Checker:
    """Runs the workload's checks against one session directory."""

    def __init__(self, wl: Workload, input_dir: str, session_dir: str) -> None:
        self.wl = wl
        self.inputs = input_dir
        self.out = session_dir
        self.results: list[CheckResult] = []
        self._traj: dict[str, Trajectory] = {}
        self._cause: tuple[bool, str] | None = None

    def _path(self, *parts: str) -> str:
        return os.path.join(self.out, *parts)

    def trajectory(self, run_dir: str) -> Trajectory:
        if run_dir not in self._traj:
            self._traj[run_dir] = read_trajectory(self._path(run_dir, "trajectory.csv"))
        return self._traj[run_dir]

    def check(self, name: str, fn) -> None:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check, reported
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.results.append(CheckResult(name, bool(ok), detail))

    # -- run directories ------------------------------------------------------

    def sim_runs(self) -> list[tuple[str, str, int]]:
        """(run directory, scenario file, seed) of every simulate output."""
        runs = []
        for cmd in self.wl.commands:
            if cmd.kind != "simulate":
                continue
            scen = cmd.argv[cmd.argv.index("--scenario") + 1]
            if "--sweep" in cmd.argv:
                runs += [(os.path.join(cmd.out, f"seed_{s}"), scen, s) for s in self.wl.sweep_seeds]
            else:
                runs.append((cmd.out, scen, self.wl.seed))
        return runs

    def main_doc(self) -> dict:
        return next(iter(self.wl.inputs.values()))

    # -- common ---------------------------------------------------------------

    def gen_signal(self):
        sig = _json(self._path("signal", "signal.json"))
        segs = [(s["t"], s["mode"]) for s in sig["segments"]]
        spec = self.main_doc()["signal"]
        if spec["type"] == "explicit":
            if segs != [tuple(s) for s in self.wl.segments] or sig["tf"] != spec["tf"]:
                return False, "signal.json differs from the scenario's explicit signal"
        else:
            starts, stable, unstable = generated_layout(spec)
            if len(segs) != len(starts):
                return False, f"{len(segs)} segments, layout gives {len(starts)}"
            if max(abs(a - b[0]) for a, b in zip(starts, segs)) > 1e-9:
                return False, "switch times differ from the generator's layout"
            if [m for _, m in segs[0::2]] != stable or \
                    sorted(m for _, m in segs[1::2]) != sorted(unstable):
                return False, "modes differ from the generator's layout"
        if len(sig["events"]) != len(segs) - 1 or any(
            (ev["from"], ev["to"]) != (segs[k][1], segs[k + 1][1])
            for k, ev in enumerate(sig["events"])
        ):
            return False, "events do not match the switches"
        return True, f"{len(segs) - 1} switches match"

    def validation_sweep(self):
        cert = _json(self._path("certify", "certify.json"))
        sig = _json(self._path("signal", "signal.json"))
        segs = [(s["t"], s["mode"]) for s in sig["segments"]]
        stable = {int(m) for m, c in cert["modes"].items() if c["stable"]}
        gam = cert["gamma"]
        ratio_min, adt_min = suffix_sweep(segs, sig["tf"], stable, gam["stable_max"],
                                          gam["unstable_max"], gam["common"],
                                          cert["jump_gain"], cert["chatter_bound"])
        if self.wl.name == "demo-sweep":
            seeds = self.wl.sweep_seeds
            pairs = [("certify", f"certify_rk4_{seeds[0]}")] + [
                (f"certify_exact_{s}", f"certify_rk4_{s}") for s in seeds[1:]]
            for a, b in pairs:
                if _json(self._path(a, "certify.json")) != _json(self._path(b, "certify.json")):
                    return False, f"{b} differs from {a}: the integrator changed a certificate"
        val = cert["validation"]
        mine = (ratio_min >= 0.0 and adt_min >= 0.0, ratio_min >= 0.0, adt_min >= 0.0)
        if mine != (val["ok"], val["ratio_ok"], val["adt_ok"]):
            return False, f"verdict {mine} vs certify {val}"
        for label, a, b in (("ratio", ratio_min, val["ratio_slack_min"]),
                            ("dwell", adt_min, val["adt_slack_min"])):
            if not _rel_close(a, float(b), 1e-9):
                return False, f"{label} slack {a!r} vs certify {b!r}"
        return True, f"verdict {val['ok']}, slacks {ratio_min:.6g} / {adt_min:.6g}"

    # -- simulate outputs -------------------------------------------------------

    def no_divergence(self):
        for run, _, _ in self.sim_runs():
            summ = _json(self._path(run, "summary.json"))
            traj = self.trajectory(run)
            populated = ~np.isnan(traj.states)
            if summ["diverged"] or not np.isfinite(traj.states[populated]).all():
                return False, f"{run} diverged"
        return True, f"{len(self.sim_runs())} runs finite"

    def max_h_norm(self):
        worst = max(_json(self._path(run, "summary.json"))["max_h_norm"]
                    for run, _, _ in self.sim_runs())
        return worst <= 0.2 + 1e-12, f"max |h| = {worst:.6g}"

    def tail_within_bound(self):
        parts = []
        for run, _, _ in self.sim_runs():
            summ = _json(self._path(run, "summary.json"))
            tail = tail_error(self.trajectory(run), summ["tail_fraction"])
            if not _rel_close(tail, summ["tail_sup_error"], 1e-9):
                return False, f"{run}: tail {tail!r} vs summary {summ['tail_sup_error']!r}"
            if summ["ultimate_bound"] is None or not tail <= summ["ultimate_bound"]:
                return False, f"{run}: tail {tail:.6g} above bound {summ['ultimate_bound']}"
            parts.append(f"{tail:.4g}<={summ['ultimate_bound']:.4g}")
        return True, "tail " + ", ".join(parts)

    def integrator_agreement(self):
        worst = 0.0
        for seed in self.wl.sweep_seeds:
            ex = self.trajectory(os.path.join("sim_exact", f"seed_{seed}"))
            rk = self.trajectory(os.path.join("sim_rk4", f"seed_{seed}"))
            if ex.states.shape != rk.states.shape or not np.array_equal(ex.t, rk.t) \
                    or not np.array_equal(np.isnan(ex.states), np.isnan(rk.states)):
                return False, f"seed {seed}: exact and rk4 rows differ in shape or time"
            scale = max(1.0, float(np.nanmax(np.abs(ex.states))))
            worst = max(worst, float(np.nanmax(np.abs(ex.states - rk.states))) / scale)
        return worst <= 1e-6, f"worst relative gap {worst:.3e}"

    def events_rows(self):
        for run, _, _ in self.sim_runs():
            with open(self._path(run, "events.csv")) as fh:
                rows = sum(1 for _ in fh) - 1
            switches = int(np.count_nonzero(np.diff(self.trajectory(run).mode)))
            summ = _json(self._path(run, "summary.json"))
            if rows != switches or rows != summ["n_events"]:
                return False, f"{run}: {rows} event rows, {switches} switches"
        return True, f"{rows} rows per run"

    def _bundle(self, scen: str, seed: int):
        from omaslab.cli import build_bundle
        from omaslab.scenario import load_scenario

        sc = load_scenario(os.path.join(self.inputs, scen))
        return build_bundle(sc, sc.resolve_signal(seed))

    def energy_envelope(self):
        worst_ratio = 0.0
        for run, scen, seed in self.sim_runs():
            b = self._bundle(scen, seed)
            summ = _json(self._path(run, "summary.json"))
            if summ["ultimate_bound"] is not None and \
                    not _rel_close(b.ultimate_bound, summ["ultimate_bound"], 1e-12):
                return False, f"{run}: API bundle differs from the simulated one"
            consts = {k: getattr(b, k) for k in (
                "jump_gain", "gamma_common", "chatter_bound", "settled_flow", "jump_offset")}
            traj = self.trajectory(run)
            switch_times = [float(t) for t, after, before
                            in zip(traj.t[1:], traj.mode[1:], traj.mode[:-1]) if after != before]
            bad, ratio = envelope_violations(
                traj, {m: c.P for m, c in b.certificates.items()}, consts, switch_times)
            worst_ratio = max(worst_ratio, ratio)
            if bad:
                return False, f"{run}: {bad} samples above the envelope (max V/env {ratio:.3g})"
        return True, f"max V/envelope {worst_ratio:.4g}"

    # -- switch-heavy ------------------------------------------------------------

    def bound_zero(self):
        cert = _json(self._path("certify", "certify.json"))
        ok = cert["ultimate_bound"] == 0.0 and cert["contraction_worst"] < 0.0
        return ok, (f"bound {cert['ultimate_bound']}, "
                    f"worst contraction {cert['contraction_worst']:.6g}")

    def asymptotic_convergence(self):
        summ = _json(self._path("sim", "summary.json"))
        tail = tail_error(self.trajectory("sim"), summ["tail_fraction"])
        ok = not summ["diverged"] and tail < summ["convergence_tol"]
        return ok, f"tail error {tail:.3e} (tolerance {summ['convergence_tol']:g})"

    def cancellation_confirmed(self) -> tuple[bool, str]:
        """The failure's cause: the same signal in error coordinates decays."""
        if self._cause is None:
            try:
                self._cause = self._propagate_errors()
            except Exception as exc:  # an unconfirmed cause leaves the failure unknown
                self._cause = (False, f"{type(exc).__name__}: {exc}")
        return self._cause

    def _propagate_errors(self) -> tuple[bool, str]:
        doc = self.main_doc()
        sig = _json(self._path("signal", "signal.json"))
        traj = self.trajectory("sim")
        e0 = traj.errs[0, :traj.p * int(traj.count[0])]
        tail = error_coordinate_tail(doc, sig, e0, doc["simulation"]["tail_fraction"])
        ok = tail < doc["simulation"]["convergence_tol"]
        return ok, f"error-coordinate propagation of the same signal gives tail {tail:.3e}"

    # -- wide ----------------------------------------------------------------------

    def mode_spectra(self):
        doc = self.main_doc()
        report = {m["id"]: m for m in _json(self._path("analyze", "analyze.json"))["modes"]}
        for mid, (L, D) in laplacians(doc).items():
            alpha = mode_alpha(doc, L, D)
            got = report[mid]
            if not _rel_close(got["alpha"], alpha, 1e-9) or got["stable"] != (alpha < 0.0):
                return False, f"mode {mid}: alpha {got['alpha']!r} vs {alpha!r}"
        return True, "alphas " + ", ".join(f"{m['alpha']:.4f}" for m in report.values())

    def certificates(self):
        doc = self.main_doc()
        cert = _json(self._path("certify", "certify.json"))
        b = self._bundle(next(iter(self.wl.inputs)), self.wl.seed)
        worst = -math.inf
        for mid, (L, D) in laplacians(doc).items():
            c = b.certificates[mid]
            gamma = cert["modes"][str(mid)]["gamma"]
            if gamma != c.gamma:
                return False, f"mode {mid}: certify.json gamma differs from the bundle's"
            A_err = error_matrix(doc, L, D)
            G = A_err.T @ c.P + c.P @ A_err - 2.0 * gamma * c.P
            top = float(np.linalg.eigvalsh(0.5 * (G + G.T))[-1])
            scale = float(np.linalg.norm(c.P, 2)) * max(1.0, float(np.linalg.norm(A_err, 2)))
            worst = max(worst, top / scale)
            if top > 1e-9 * scale:
                return False, f"mode {mid}: lambda_max {top:.3e} > 0"
        return True, f"largest lambda_max / (|P| |A|) = {worst:.3e}"

    # -- running the checks ------------------------------------------------------------

    def workload_checks(self) -> list[tuple[str, object]]:
        name = self.wl.name
        common = [("gen_signal", self.gen_signal), ("validation_sweep", self.validation_sweep)]
        if name == "demo-sweep":
            return common + [
                ("no_divergence", self.no_divergence),
                ("max_h_norm", self.max_h_norm),
                ("tail_within_bound", self.tail_within_bound),
                ("integrator_agreement", self.integrator_agreement),
                ("events_rows", self.events_rows),
                ("energy_envelope", self.energy_envelope),
            ]
        if name == "switch-heavy":
            return common + [
                ("bound_zero", self.bound_zero),
                ("asymptotic_convergence", self.asymptotic_convergence),
                ("energy_envelope", self.energy_envelope),
            ]
        return common + [
            ("mode_spectra", self.mode_spectra),
            ("certificates", self.certificates),
            ("no_divergence", self.no_divergence),
            ("tail_within_bound", self.tail_within_bound),
        ]

    def run(self) -> list[CheckResult]:
        for name, fn in self.workload_checks():
            self.check(name, fn)
        for r in self.results:
            if not r.ok and (self.wl.name, r.name) in KNOWN_FAILURES:
                confirmed, why = self.cancellation_confirmed()
                if confirmed:
                    r.known = True
                    r.detail += f"; known failure, cause {CANCELLATION}; {why}"
                else:
                    r.detail += f"; cause not confirmed: {why}"
        return self.results
