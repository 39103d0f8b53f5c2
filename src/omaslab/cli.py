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
import functools
import io
import json
import math
import os
import sys
from itertools import groupby, repeat
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterator, TextIO

import numpy as np

from .certificate import CertificateBundle, assemble_bundle
from .errors import (
    AssumptionViolation,
    CertificateError,
    ConfigError,
    NumericalError,
    UnboundedCertificate,
)
from .floattext import _tables, json_block
from .mode_dynamics import (
    coupling_gain_bound,
    kronecker_sum_spectrum_check,
    spectral_abscissa,
)
from .scenario import Scenario, load_scenario, signal_to_dict
from .signed_graph import ModeClass, check_negative_majority_instability
from .simulate import export_events_csv, export_trajectory_csv, run_scenario
from .switching import SwitchingSignal
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
        return [_jsonable(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else "inf" if x > 0 else "-inf"
    return x


def _spectrum(eigvals: np.ndarray) -> list[list[float]]:
    ev = sorted(eigvals, key=lambda z: (z.real, z.imag))
    return [[float(z.real), float(z.imag)] for z in ev]


_CONTAINERS = (list, tuple, dict, np.ndarray)


def _scalar(v: Any) -> str:
    """v's text under json's own rules for allow_nan=False: bool before
    int, int's and float's own repr for their subclasses too, and str
    escaped to ASCII."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
        return float.__repr__(v)
    raise TypeError(f"Object of type {v.__class__.__name__} is not JSON serializable")


def _pad(depth: int) -> str:
    return "\n" + "  " * depth


# the most values of a JSON file's float arrays one block renders at once:
# its temporaries peak near 140 bytes a value, 0.11 MB a block, which keeps
# gen-signal's peak on a 0.86 MB signal below half the file
_JSON_BLOCK_VALUES = 768
# while a block is rendered, each value is followed by a byte that a JSON
# file written here, which is ASCII, never holds: _MARK + j when the value
# ends j of its array's inner dimensions (fewer than 64), _END when it ends
# the array
_MARK, _END = 0x80, 0xFF


@functools.cache
def _separators(inner: int, ndim: int) -> tuple[bytes, ...]:
    """The text after a value of an array whose values sit at depth inner,
    by the number j < ndim of the array's inner dimensions it ends: j
    closing brackets, the comma, and j opening brackets, each on its own
    line."""
    return tuple(("".join(_pad(inner - 1 - t) + "]" for t in range(j)) + "," + _pad(inner - j)
                  + "".join("[" + _pad(inner - j + 1 + t) for t in range(j))).encode()
                 for j in range(ndim))


class _FloatArrays:
    """The float arrays of one JSON document, written in document order in
    blocks of at most _JSON_BLOCK_VALUES values (floattext.json_block).

    A block may hold many small arrays, and a large array spans many blocks.
    Each value is rendered with its mark byte after it. The text of a block
    is split at _END into the parts of its arrays, and each part is
    followed by what the document writes after its array, which is held
    until then. A run of parts of arrays whose values sit at one depth then
    gets its separators in place of the marks at once.
    """

    def __init__(self, fh: TextIO) -> None:
        self.fh = fh
        self.values: list[np.ndarray] = []  # the block's pieces of arrays
        self.marks = np.empty(_JSON_BLOCK_VALUES, dtype=np.uint8)
        self.size = 0  # values in the block
        self.keys: list[tuple[int, int]] = []  # (depth of the values, ndim) of each piece
        self.texts: list[list[str]] = []  # texts[i] follows the i-th array ending in the block
        self.held = 0  # characters in texts

    def write(self, text: str) -> None:
        if not self.values:
            self.fh.write(text)
            return
        self.texts[-1].append(text)
        self.held += len(text)
        if self.held > _JSON_BLOCK_VALUES * 32:  # text between arrays holds no more than a block
            self.flush()

    def add(self, v: np.ndarray, depth: int) -> None:
        """Queue the non-empty float array v, a node at depth."""
        n = v.ndim
        self.write("".join("[" + _pad(depth + 1 + t) for t in range(n)))
        # the value at flat index i ends the inner dimensions whose sizes'
        # product divides i + 1
        periods = [math.prod(v.shape[n - m :]) for m in range(1, n)]
        flat = v.ravel()
        i = 0
        while i < flat.size:
            m = min(flat.size - i, _JSON_BLOCK_VALUES - self.size)
            marks = self.marks[self.size : self.size + m]
            marks.fill(_MARK)
            for period in periods:
                marks[period - 1 - i % period :: period] += 1
            self.values.append(flat[i : i + m])
            self.keys.append((depth + n, n))
            self.size += m
            i += m
            if i == flat.size:
                marks[-1] = _END
                self.texts.append([])
            if self.size == _JSON_BLOCK_VALUES:
                self.flush()
        self.write("".join(_pad(depth + n - 1 - t) + "]" for t in range(n)))

    def flush(self) -> None:
        if not self.values:
            return
        values = (self.values[0].astype(np.float64, copy=False) if len(self.values) == 1
                  else np.concatenate(self.values, dtype=np.float64))
        text = json_block(values, self.marks[: self.size])
        del values
        parts = text.split(bytes([_END])) if self.texts else [text]
        del text  # the parts hold it: a block's text is held once
        # after an array that ends the block, an empty part
        keys = self.keys + self.keys[-1:]
        for (inner, ndim), run in groupby(range(len(parts)), keys.__getitem__):
            pieces = []
            for i in run:
                pieces.append(parts[i])
                if i < len(self.texts):
                    pieces.append("".join(self.texts[i]).encode())
            text = b"".join(pieces)
            del pieces
            for j, sep in enumerate(_separators(inner, ndim)):
                text = text.replace(bytes([_MARK + j]), sep)
            self.fh.write(text.decode("ascii"))
        self.values, self.size, self.keys, self.texts, self.held = [], 0, [], [], 0


def write_json(obj: Any, fh: TextIO, *, sort_keys: bool = False) -> None:
    """Write obj to fh with the bytes json.dumps gives it under indent=2,
    sort_keys=sort_keys and allow_nan=False, without building the whole text.

    Containers that hold containers are walked here. A list or dict that
    holds only scalars goes to the C encoder in one call, its item separator
    carrying the newline and the pad of its depth, so the memory held is that
    of the largest such container's text, not the file's. A float
    np.ndarray of rank 1 or more that holds values is written as its
    .tolist() would be, by the NumPy renderer, in blocks (_FloatArrays); any
    other np.ndarray is written as its .tolist(). Scalars beside containers
    are formatted here directly.
    """
    encoders: dict[int, json.JSONEncoder] = {}
    floats = _FloatArrays(fh)
    write = floats.write

    def flat(depth: int) -> json.JSONEncoder:
        if depth not in encoders:
            encoders[depth] = json.JSONEncoder(separators=(",\n" + "  " * depth, ": "),
                                               sort_keys=sort_keys, allow_nan=False)
        return encoders[depth]

    def key(k: Any) -> str:
        if not isinstance(k, str):  # json's rules: bool, None, int and float keys print as text
            if not (k is None or isinstance(k, (int, float))):
                raise TypeError(f"keys must be str, int, float, bool or None, "
                                f"not {k.__class__.__name__}")
            k = _scalar(k)
        return encode_basestring_ascii(k)

    def node(v: Any, depth: int) -> None:
        if isinstance(v, np.ndarray):
            if v.ndim and v.size and v.dtype.kind == "f" and v.dtype.itemsize <= 8:
                floats.add(v, depth)
                return
            v = v.tolist()
        if not isinstance(v, _CONTAINERS):
            write(_scalar(v))
            return
        is_dict = isinstance(v, dict)
        open_, close = "{}" if is_dict else "[]"
        if not len(v):
            write(open_ + close)
            return
        pad, outer = _pad(depth + 1), _pad(depth)
        if not any(map(isinstance, v.values() if is_dict else v, repeat(_CONTAINERS))):
            # the encoder's brackets are the first and last characters of its text
            text = flat(depth + 1).encode(v)
            write(open_ + pad + text[1:-1] + outer + close)
            return
        sep = open_ + pad
        for k, x in ((sorted(v.items()) if sort_keys else v.items()) if is_dict
                     else enumerate(v)):
            write((sep + key(k) + ": ") if is_dict else sep)
            node(x, depth + 1)
            sep = "," + pad
        write(outer + close)

    node(obj, 0)
    floats.flush()


@contextlib.contextmanager
def _replacing(path: str) -> Iterator[TextIO]:
    """A file for path's new content. It replaces path only once the block
    ends without an error; otherwise it is removed and path is left as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_json(report: dict, out: str | None, name: str) -> str:
    """report as strict JSON with sorted keys, written to out/name when out
    is given; returns the text."""
    buf = io.StringIO()  # reports are small
    write_json(_jsonable(report), buf, sort_keys=True)
    text = buf.getvalue()
    if out:
        os.makedirs(out, exist_ok=True)
        with _replacing(os.path.join(out, name)) as fh:
            fh.write(text + "\n")
    return text


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(scenario: Scenario, args: argparse.Namespace) -> int:
    dyn = scenario.dynamics
    matrices = scenario.mode_matrices()
    mode_reports = []
    for mid, mm in sorted(matrices.items()):
        m = scenario.modes[mid]
        entry: dict[str, Any] = {
            "id": mid,
            "n_agents": m.n_agents,
            "class": m.mode_class.value,
            "grounded_spectrum": _spectrum(m.grounded_eigvals),
            "augmented_spectrum": _spectrum(m.augmented_eigvals),
            "alpha": mm.alpha,
            "stable": mm.stable,
        }
        if m.mode_class is ModeClass.NEGATIVE_MAJORITY:
            rep = check_negative_majority_instability(m)
            entry["instability"] = {**dataclasses.asdict(rep), "ok": rep.ok}
        if dyn.p * m.n_agents <= _KRON_CHECK_DIM_LIMIT:
            entry["kronecker_spectrum_ok"] = kronecker_sum_spectrum_check(
                mm.cZ, dyn.A, tol=_KRON_REPORT_TOL
            )
        mode_reports.append(entry)
    found = {m.mode_class for m in scenario.modes.values()}
    spanning = ModeClass.POSITIVE_SPANNING in found
    minority = ModeClass.NEGATIVE_MINORITY in found

    coupling: dict[str, Any] = {"gain": scenario.coupling_gain}
    try:
        bound = coupling_gain_bound(dyn, list(scenario.modes.values()))
        coupling["bound"] = bound
        coupling["ok"] = scenario.coupling_gain < bound
        coupling["suggested"] = bound * 2.0
    except AssumptionViolation as exc:
        coupling["bound"] = None
        coupling["ok"] = False
        coupling["note"] = str(exc)

    report = {
        "agent_dimension": dyn.p,
        "agent_alpha": spectral_abscissa(dyn.A),
        "modes": mode_reports,
        "coupling": coupling,
        "assumptions": {
            "positive_spanning_exists": spanning,
            "negative_mode_exists": minority or ModeClass.NEGATIVE_MAJORITY in found,
            "negative_minority_present": minority,
            "ok": spanning and not minority,
        },
        "stable_mode_ids": sorted(mid for mid, mm in matrices.items() if mm.stable),
    }
    print(_write_json(report, args.out, "analyze.json"))
    return 0


# ---------------------------------------------------------------------------
# certify


# the errors by which certification refuses a scenario; simulate writes the
# reason into the summary and runs uncertified
_CERTIFICATION_ERRORS = (AssumptionViolation, CertificateError, ConfigError)


def build_bundle(scenario: Scenario, signal: SwitchingSignal) -> CertificateBundle:
    """Certification pipeline shared by certify and simulate.

    Raises AssumptionViolation or CertificateError when the scenario cannot
    be certified; an unbounded bundle is returned, not raised, so callers
    can report before deciding.
    """
    return assemble_bundle(
        scenario.mode_certificates(),
        impulse_bounds(signal.events),
        h_bound=scenario.perturbation.bound,
        signal=signal,
        chatter_bound=scenario.certification.chatter_bound,
        gamma_common=scenario.certification.gamma_common,
    )


def _fields_of(obj: Any, *skip: str) -> dict:
    """A dataclass instance's fields by name, but those named in skip."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.name not in skip}


def _bundle_report(bundle: CertificateBundle) -> dict:
    """certify.json's bundle part: the bundle's scalar fields, each mode's
    certificate without its matrix, and the budget's gains, rates and floors."""
    budget = bundle.budget
    return {
        **_fields_of(bundle, "certificates", "budget", "sweep"),
        # an unbounded bundle has no bound to report
        "ultimate_bound": None if bundle.unbounded else bundle.ultimate_bound,
        "modes": {str(mid): _fields_of(c, "mode_id", "P")
                  for mid, c in sorted(bundle.certificates.items())},
        "jump_gain": budget.jump_gain,
        "chatter_bound": budget.chatter_bound,
        "gamma": {"stable_max": budget.gamma_stable_max,
                  "unstable_max": budget.gamma_unstable_max, "common": budget.gamma_common},
        "floors": {"ratio": budget.ratio_floor, "dwell": budget.dwell_floor},
    }


def cmd_certify(scenario: Scenario, args: argparse.Namespace) -> int:
    signal = scenario.resolve_signal(args.seed)
    bundle = build_bundle(scenario, signal)
    report = _bundle_report(bundle)
    report["signal"] = {"t0": signal.t0, "tf": signal.tf, "n_switches": signal.n_switches}
    report["validation"] = {**dataclasses.asdict(bundle.validation(args.validate_suffixes)),
                            "suffixes": args.validate_suffixes}
    report["bound_applies"] = bundle.bound_applies(args.validate_suffixes)
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
                  signal: SwitchingSignal) -> tuple[dict, str]:
    """One seed's run into out: its summary and the text it has for stdout."""
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
        summary["bound_applies"] = False
    else:
        summary["switching_ok"] = bundle.validation(args.validate_suffixes).ok
        summary["bound_applies"] = bundle.bound_applies(args.validate_suffixes)

    os.makedirs(out, exist_ok=True)
    export_trajectory_csv(result.trajectory, os.path.join(out, "trajectory.csv"))
    export_events_csv(result.trajectory, os.path.join(out, "events.csv"))
    _write_json(summary, out, "summary.json")

    sig, n_run = result.signal, len(result.trajectory.starts)
    if summary["diverged"]:  # the run stopped there: say how far it got
        span = (f"{summary['diverged_at'] - sig.t0:g}s of {sig.tf - sig.t0:g}s "
                f"across {n_run} of {len(sig.segments)} segments")
    else:
        span = f"{sig.tf - sig.t0:g}s across {n_run} segments"
    lines = [f"integrated {span} ({summary['n_events']} migrations)"]
    bound, note = summary["ultimate_bound"], ""
    if summary["bound_applies"]:
        note = f"  (certified bound {bound:.6g})"
    elif bound is not None:
        note = f"  (bound {bound:.6g} does not apply: the signal breaks its budget)"
    lines.append(f"tail sup error: {summary['tail_sup_error']:.6g}{note}")
    if summary["diverged"]:
        lines.append(f"DIVERGED at t = {summary['diverged_at']:.6g}")
    elif summary["converged"]:
        lines.append("converged within tolerance")
    return summary, "".join(line + "\n" for line in lines)


# the seed runner of a forked sweep worker, set by _start_sweep_worker
_sweep_run: Callable[[int], tuple[dict, str]] | None = None


def _start_sweep_worker(run: Callable[[int], tuple[dict, str]]) -> None:
    global _sweep_run
    _sweep_run = run


def _sweep_seed(seed: int) -> tuple[dict, str]:
    """One seed of a sweep, run in a worker: its summary and its stdout."""
    return _sweep_run(seed)


def cmd_simulate(scenario: Scenario, args: argparse.Namespace) -> int:
    if args.sweep < 1:
        raise ConfigError(f"sweep must be >= 1, got {args.sweep}")
    out = args.out or "."
    if args.sweep == 1:
        summary, text = _simulate_one(scenario, args, args.seed, out,
                                      scenario.resolve_signal(args.seed))
        print(text, end="")
        return 4 if summary["diverged"] and args.strict else 0

    # batch mode: consecutive seeds, independent runs, one dir per seed.
    # What the seeds share, and each seed's signal, is made here; forked
    # workers inherit it unpickled and run the seeds concurrently, and their
    # output is printed in seed order, as one process would print it. Since
    # Python 3.11 a fork pool starts all its workers before its own thread.
    # Where there is no fork (Windows), the seeds run here, one after another.
    seeds = range(args.seed, args.seed + args.sweep)
    scenario.mode_matrices()
    signals = {seed: scenario.resolve_signal(seed) for seed in seeds}
    # a refusal is the same for every seed, and each seed's summary says why
    with contextlib.suppress(*_CERTIFICATION_ERRORS):
        scenario.mode_certificates()
    _tables()  # the float renderer's, which every seed's export uses

    def run(seed: int) -> tuple[dict, str]:
        return _simulate_one(scenario, args, seed, os.path.join(out, f"seed_{seed}"),
                             signals[seed])

    # imported here: loaded by every command, the pool machinery would add
    # about 0.4 MB to the peak RSS of those that never sweep
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # Windows has no fork
        context = None
    pool = None
    if context is not None:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # macOS and Windows have no affinity mask
            cpus = os.cpu_count() or 1
        pool = ProcessPoolExecutor(
            max_workers=min(len(seeds), cpus),
            mp_context=context,
            initializer=_start_sweep_worker,
            initargs=(run,),
        )
    summaries = {}
    try:
        futures = {seed: pool.submit(_sweep_seed, seed) for seed in seeds} if pool else {}
        for seed in seeds:
            print(f"--- seed {seed} ---")
            summaries[seed], text = futures[seed].result() if pool else run(seed)
            print(text, end="")
    finally:
        # the first seed to fail ends the sweep: the rest are not started
        if pool is not None:
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
    with _replacing(path) as fh:
        # load rejects non-finite numbers and every draw is finite
        write_json(signal_to_dict(signal), fh)
        fh.write("\n")
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
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssumptionViolation, CertificateError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
