"""Command line front end.

Subcommands:
  analyze     classify every mode, report spectra, coupling bound, assumptions
  certify     solve per-mode certificates, aggregate, validate the signal
  simulate    integrate the hybrid run, write trajectory/events/summary
  gen-signal  materialize a compliant switching signal to a JSON file

Exit codes: 0 success (verdicts, pass or fail, are data), 2 schema or
configuration errors, 3 assumption or certificate failures, 4 divergence
under --strict. analyze and certify print a JSON report to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import sys
from typing import Any, Callable

import numpy as np

from .certificate import CertificateBundle, ModeCertificate, assemble_bundle
from .errors import (
    AssumptionViolation,
    CertificateError,
    ConfigError,
    NumericalError,
    UnboundedCertificate,
)
from .mode_dynamics import (
    coupling_gain_bound,
    kronecker_sum_spectrum_check,
    spectral_abscissa,
)
from .scenario import Scenario, load_scenario, signal_to_dict
from .signed_graph import (
    ModeClass,
    augmented_laplacian,
    check_negative_majority_instability,
    classify_mode,
    grounded_laplacian,
)
from .simulate import export_events_csv, export_trajectory_csv, run_scenario
from .switching import SwitchingSignal, validate_switching
from .transition import impulse_bounds

_KRON_CHECK_DIM_LIMIT = 64
# dense eigensolves lose accuracy like eps^(1/m) on a defective eigenvalue of
# multiplicity m; the report tolerance must absorb that, unlike the 1e-8
# default which targets generic simple spectra
_KRON_REPORT_TOL = 1e-4


def _jsonable(x: Any) -> Any:
    """Map report values to strict JSON (non-finite floats become strings)."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        # a sum of floats is finite only when every term is: such a list,
        # a signal's impulse or a row of its gain, needs no mapping
        if all(type(v) is float for v in x) and math.isfinite(sum(x)):
            return list(x)
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.floating, float)):
        v = float(x)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, np.bool_):
        return bool(x)
    return x


def _spectrum(M: np.ndarray) -> list[list[float]]:
    ev = sorted(np.linalg.eigvals(M), key=lambda z: (z.real, z.imag))
    return [[float(z.real), float(z.imag)] for z in ev]


def _write_json(report: dict, out: str | None, name: str) -> str:
    """report as strict JSON with sorted keys, written to out/name when out
    is given; returns the text."""
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True)
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, name), "w") as fh:
            fh.write(text + "\n")
    return text


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(scenario: Scenario, args: argparse.Namespace) -> int:
    dyn = scenario.dynamics
    modes = list(scenario.modes.values())
    mode_reports = []
    any_spanning = False
    any_negative = False
    any_minority = False
    for m in sorted(modes, key=lambda m: m.mode_id):
        cls = classify_mode(m)
        any_spanning |= cls is ModeClass.POSITIVE_SPANNING
        is_negative = cls in (ModeClass.NEGATIVE_MAJORITY, ModeClass.NEGATIVE_MINORITY)
        any_negative |= is_negative
        any_minority |= cls is ModeClass.NEGATIVE_MINORITY
        Z = grounded_laplacian(m)
        Lt = augmented_laplacian(m)
        entry: dict[str, Any] = {
            "id": m.mode_id,
            "n_agents": m.graph.n_agents,
            "class": cls.value,
            "grounded_spectrum": _spectrum(Z),
            "augmented_spectrum": _spectrum(Lt),
        }
        if cls is ModeClass.NEGATIVE_MAJORITY:
            rep = check_negative_majority_instability(m)
            entry["instability"] = {
                "trace_augmented": rep.trace_augmented,
                "trace_grounded": rep.trace_grounded,
                "min_real_eig_augmented": rep.min_real_eig_augmented,
                "min_real_eig_grounded": rep.min_real_eig_grounded,
                "ok": rep.ok,
            }
        dim = dyn.p * m.graph.n_agents
        if dim <= _KRON_CHECK_DIM_LIMIT:
            entry["kronecker_spectrum_ok"] = kronecker_sum_spectrum_check(
                scenario.coupling_gain * Z, dyn.A, tol=_KRON_REPORT_TOL
            )
        mode_reports.append(entry)

    coupling: dict[str, Any] = {"gain": scenario.coupling_gain}
    try:
        bound = coupling_gain_bound(dyn, modes)
        coupling["bound"] = bound
        coupling["ok"] = scenario.coupling_gain < bound
        coupling["suggested"] = bound * 2.0
    except AssumptionViolation as exc:
        coupling["bound"] = None
        coupling["ok"] = False
        coupling["note"] = str(exc)

    matrices = scenario.mode_matrices()
    for entry in mode_reports:
        mm = matrices[entry["id"]]
        entry["alpha"] = mm.alpha
        entry["stable"] = mm.stable

    report = {
        "agent_dimension": dyn.p,
        "agent_alpha": spectral_abscissa(dyn.A),
        "modes": mode_reports,
        "coupling": coupling,
        "assumptions": {
            "positive_spanning_exists": any_spanning,
            "negative_mode_exists": any_negative,
            "negative_minority_present": any_minority,
            "ok": any_spanning and not any_minority,
        },
        "stable_mode_ids": sorted(mid for mid, mm in matrices.items() if mm.stable),
    }
    print(_write_json(report, args.out, "analyze.json"))
    return 0


# ---------------------------------------------------------------------------
# certify


def _require_assumptions(scenario: Scenario) -> None:
    modes = list(scenario.modes.values())
    classes = {m.mode_id: classify_mode(m) for m in modes}
    if not any(c is ModeClass.POSITIVE_SPANNING for c in classes.values()):
        raise AssumptionViolation(
            "no mode is positive with a leader-rooted spanning tree; "
            "nothing can contract the tracking errors"
        )
    minority = sorted(mid for mid, c in classes.items() if c is ModeClass.NEGATIVE_MINORITY)
    if minority:
        raise AssumptionViolation(
            f"mode(s) {minority} have negative edges without a negative majority; "
            "such modes are outside the certified family"
        )


# the errors by which certification refuses a scenario; simulate writes the
# reason into the summary and runs uncertified
_CERTIFICATION_ERRORS = (AssumptionViolation, CertificateError, ConfigError)


def _certified_modes(scenario: Scenario) -> dict[int, ModeCertificate]:
    """The half of certification no seed changes: the structural and gain
    checks, then the scenario's per-mode certificates."""
    _require_assumptions(scenario)
    bound = coupling_gain_bound(scenario.dynamics, list(scenario.modes.values()))
    if not scenario.coupling_gain < bound:
        raise CertificateError(
            f"coupling gain {scenario.coupling_gain} is not strictly below the "
            f"admissible bound {bound:.6g}; certification refused"
        )
    return scenario.mode_certificates()


def build_bundle(scenario: Scenario, signal: SwitchingSignal) -> CertificateBundle:
    """Certification pipeline shared by certify and simulate.

    Raises AssumptionViolation or CertificateError when the scenario cannot
    be certified; an unbounded bundle is returned, not raised, so callers
    can report before deciding.
    """
    return assemble_bundle(
        _certified_modes(scenario),
        impulse_bounds(list(signal.events), scenario.p),
        h_bound=scenario.perturbation.bound,
        signal=signal,
        chatter_bound=scenario.certification.chatter_bound,
        gamma_common=scenario.certification.gamma_common,
    )


def _bundle_report(bundle: CertificateBundle) -> dict:
    return {
        "modes": {
            str(mid): {
                "alpha": c.alpha,
                "stable": c.stable,
                "gamma": c.gamma,
                "lambda_min": c.lambda_min,
                "lambda_max": c.lambda_max,
                "residual": c.residual,
            }
            for mid, c in sorted(bundle.certificates.items())
        },
        "gamma": {
            "stable_max": bundle.gamma_stable_max,
            "unstable_max": bundle.gamma_unstable_max,
            "common": bundle.gamma_common,
        },
        "p_under": bundle.p_under,
        "p_over": bundle.p_over,
        "jump_gain": bundle.jump_gain,
        "flow_offset": bundle.flow_offset,
        "jump_offset": bundle.jump_offset,
        "settled_flow": bundle.settled_flow,
        "contraction_worst": bundle.contraction_worst,
        "h_bound": bundle.h_bound,
        "impulse_norm_max": bundle.impulse_norm_max,
        "err_jump_norm_max": bundle.err_jump_norm_max,
        "floors": {
            "ratio": bundle.budget.ratio_floor,
            "dwell": bundle.budget.dwell_floor,
        },
        "chatter_bound": bundle.chatter_bound,
        "ultimate_bound": None if bundle.unbounded else bundle.ultimate_bound,
        "unbounded": bundle.unbounded,
    }


def cmd_certify(scenario: Scenario, args: argparse.Namespace) -> int:
    signal = scenario.resolve_signal(args.seed)
    bundle = build_bundle(scenario, signal)
    verdict = validate_switching(
        signal, bundle.budget, bundle.stable_set, suffixes=args.validate_suffixes
    )
    report = _bundle_report(bundle)
    report["signal"] = {
        "t0": signal.t0,
        "tf": signal.tf,
        "n_switches": signal.n_switches,
    }
    report["validation"] = {**dataclasses.asdict(verdict), "suffixes": args.validate_suffixes}
    # the bound holds only for a signal within its switching budget
    report["bound_applies"] = math.isfinite(bundle.ultimate_bound) and verdict.ok
    print(_write_json(report, args.out, "certify.json"))
    if bundle.unbounded:
        raise UnboundedCertificate(
            "the worst suffix contraction is nonnegative: the energy envelope "
            "does not settle and no finite ultimate bound exists for this signal"
        )
    return 0


# ---------------------------------------------------------------------------
# simulate


def _simulate_one(scenario: Scenario, args: argparse.Namespace, seed: int, out: str,
                  signal: SwitchingSignal) -> dict:
    # one signal serves certification and the run
    bundle = None
    cert_error = None
    try:
        bundle = build_bundle(scenario, signal)
    except _CERTIFICATION_ERRORS as exc:
        cert_error = str(exc)
    result = run_scenario(scenario, seed=seed, dt=args.dt, bundle=bundle, signal=signal)
    summary = dataclasses.asdict(result.summary)
    # certified: the run was held to a finite ultimate bound
    summary["certified"] = summary["ultimate_bound"] is not None
    if bundle is None:
        summary["switching_ok"] = None
        summary["certification_error"] = cert_error
    else:
        summary["switching_ok"] = validate_switching(
            result.signal, bundle.budget, bundle.stable_set, suffixes=args.validate_suffixes,
        ).ok
    # bound_applies: the bound is certified and this signal keeps its budget
    summary["bound_applies"] = summary["certified"] and summary["switching_ok"] is True

    os.makedirs(out, exist_ok=True)
    export_trajectory_csv(result.trajectory, os.path.join(out, "trajectory.csv"))
    export_events_csv(result.trajectory, os.path.join(out, "events.csv"))
    _write_json(summary, out, "summary.json")

    print(f"integrated {result.signal.tf - result.signal.t0:g}s "
          f"across {len(result.trajectory.segments)} segments "
          f"({summary['n_events']} migrations)")
    bound, note = summary["ultimate_bound"], ""
    if summary["bound_applies"]:
        note = f"  (certified bound {bound:.6g})"
    elif bound is not None:
        note = f"  (bound {bound:.6g} does not apply: the signal breaks its budget)"
    print(f"tail sup error: {summary['tail_sup_error']:.6g}{note}")
    if summary["diverged"]:
        print(f"DIVERGED at t = {summary['diverged_at']:.6g}")
    elif summary["converged"]:
        print("converged within tolerance")
    return summary


# the seed runner of a forked sweep worker, set by _start_sweep_worker
_sweep_run: Callable[[int], dict] | None = None


def _start_sweep_worker(run: Callable[[int], dict]) -> None:
    global _sweep_run
    _sweep_run = run


def _sweep_seed(seed: int) -> tuple[dict, str]:
    """One seed of a sweep, run in a worker: its summary and its stdout."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        summary = _sweep_run(seed)
    return summary, text.getvalue()


def cmd_simulate(scenario: Scenario, args: argparse.Namespace) -> int:
    out = args.out or "."
    if args.sweep <= 1:
        signal = scenario.resolve_signal(args.seed)
        summary = _simulate_one(scenario, args, args.seed, out, signal)
        return 4 if summary["diverged"] and args.strict else 0

    # batch mode: consecutive seeds, independent runs, one dir per seed.
    # What the seeds share, and each seed's signal, is made here; forked
    # workers inherit it unpickled and run the seeds concurrently, and their
    # output is printed in seed order, as one process would print it. Since
    # Python 3.11 a fork pool starts all its workers before its own thread.
    seeds = range(args.seed, args.seed + args.sweep)
    scenario.mode_matrices()
    signals = {seed: scenario.resolve_signal(seed) for seed in seeds}
    # a refusal is the same for every seed, and each seed's summary says why
    with contextlib.suppress(*_CERTIFICATION_ERRORS):
        _certified_modes(scenario)

    def run(seed: int) -> dict:
        return _simulate_one(scenario, args, seed, os.path.join(out, f"seed_{seed}"),
                             signals[seed])

    # imported here: loaded by every command, the pool machinery would add
    # about 0.4 MB to the peak RSS of those that never sweep
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        max_workers=min(len(seeds), len(os.sched_getaffinity(0))),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_sweep_worker,
        initargs=(run,),
    )
    summaries = {}
    try:
        futures = {seed: pool.submit(_sweep_seed, seed) for seed in seeds}
        for seed, future in futures.items():
            print(f"--- seed {seed} ---")
            summaries[seed], text = future.result()
            print(text, end="")
    finally:
        # the first seed to fail ends the sweep: the rest are not started
        pool.shutdown(cancel_futures=True)
    aggregate = {
        "seeds": sorted(summaries),
        "tail_sup_error_max": max(s["tail_sup_error"] for s in summaries.values()),
        "all_converged": all(s["converged"] for s in summaries.values()),
        "any_diverged": any(s["diverged"] for s in summaries.values()),
        "all_bounds_respected": all(
            s["bound_respected"] is not False for s in summaries.values()
        ),
        "all_applicable_bounds_respected": all(
            s["bound_respected"] for s in summaries.values() if s["bound_applies"]
        ),
    }
    _write_json(aggregate, out, "sweep.json")
    return 4 if aggregate["any_diverged"] and args.strict else 0


# ---------------------------------------------------------------------------
# gen-signal


def cmd_gen_signal(scenario: Scenario, args: argparse.Namespace) -> int:
    signal = scenario.resolve_signal(args.seed)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "signal.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(_jsonable(signal_to_dict(signal)), indent=2) + "\n")
    print(f"wrote {path}: {signal.n_switches} switches on "
          f"[{signal.t0:g}, {signal.tf:g}]")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omaslab",
        description="analysis, certification and simulation of open "
                    "multi-agent systems with antagonistic switching topologies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--scenario", required=True, help="scenario JSON file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="master seed (overrides simulation.seed)")

    sp = sub.add_parser("analyze", help="classify modes and check assumptions")
    common(sp)

    sp = sub.add_parser("certify", help="solve certificates and validate the signal")
    common(sp)
    sp.add_argument("--validate-suffixes", choices=("all", "first"), default="all")

    sp = sub.add_parser("simulate", help="integrate the hybrid run")
    common(sp)
    sp.add_argument("--dt", type=float, default=None, help="integration step")
    sp.add_argument("--strict", action="store_true",
                    help="exit 4 when the run diverges")
    sp.add_argument("--validate-suffixes", choices=("all", "first"), default="all")
    sp.add_argument("--sweep", type=int, default=1, metavar="N",
                    help="run N consecutive seeds into per-seed subdirectories")

    sp = sub.add_parser("gen-signal", help="materialize a switching signal")
    common(sp)
    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "certify": cmd_certify,
    "simulate": cmd_simulate,
    "gen-signal": cmd_gen_signal,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        args.seed = scenario.master_seed(args.seed)
        return _COMMANDS[args.command](scenario, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssumptionViolation, CertificateError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
