"""omaslab benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload demo-sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout that
holds this file. The run generates the workload's inputs from ``--seed``, then
repeats a session of the four CLI commands in the order a user runs them
(analyze, gen-signal, certify, simulate), in process through
``omaslab.cli.main``, until ``--seconds`` have passed. It reports the median
over sessions. With ``--trace 1`` sessions alternate between untraced and
traced, and the result holds the per-layer metrics of the traced ones. After
the timed sessions, untimed checks test the last session's outputs; each check
is one operation in ``attempted`` and ``failed``.

OpenBLAS and OpenMP are pinned to one thread before NumPy loads: with two
threads on a two-core host a dense certification varied threefold from call to
call, and results are bit-reproducible only at a fixed thread count.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "_out")
TRACE_DIR = os.path.join(HERE, "_trace")
WORKLOADS = ("demo-sweep", "switch-heavy", "wide")
IMPORTS = "import numpy, scipy.linalg, omaslab.cli"
SETUP_REPEATS = 3   # import and input generation samples behind setup_s


class CommandFailed(Exception):
    """A CLI command of the session exited with a non-zero code."""


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="keep starting sessions until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced workload sizes, for the benchmark's own test")
    return ap.parse_args(argv)


def child_import_seconds() -> float:
    """Time the program's imports in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            f"{IMPORTS}; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def tree_digest(directory: str) -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(directory)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, directory).encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def host_facts() -> str:
    import numpy as np
    import scipy

    def blas(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']}-{info['version']}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return (f"host: cores={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} ({blas(np)}) scipy={scipy.__version__} ({blas(scipy)}) "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "omaslab", "__init__.py")):
        print(f"error: no program to measure: {os.path.join(SRC, 'omaslab')} is missing",
              file=sys.stderr)
        return 2

    # -- set-up: imports, then input generation and loading -----------------
    t = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    sys.path.insert(0, SRC)
    import omaslab.cli
    import_samples = [time.perf_counter() - t]
    if not os.path.abspath(omaslab.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported omaslab from {omaslab.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from omaslab.scenario import load_scenario

    from checks import CheckResult, Checker
    from tracing import LAYER_METRICS, Tracer
    from workloads import make_workload, write_inputs

    import_samples += [child_import_seconds() for _ in range(SETUP_REPEATS - 1)]
    work = os.path.join(OUT_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    session = os.path.join(work, "session")
    gen_samples = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl = make_workload(args.workload, args.seed, smoke=args.smoke)
        for path in write_inputs(wl, inputs):
            load_scenario(path)
        gen_samples.append(time.perf_counter() - t)
    setup_s = statistics.median(import_samples) + statistics.median(gen_samples)

    # -- timed sessions -----------------------------------------------------
    def run_session(tracer: Tracer | None) -> dict[str, float]:
        times = {"certify_s": 0.0, "simulate_s": 0.0}
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            for cmd in wl.commands:
                argv = list(cmd.argv)
                i = argv.index("--scenario") + 1
                argv[i] = os.path.join(inputs, argv[i])
                argv += ["--out", os.path.join(session, cmd.out)]
                span = tracer.open(f"cli.{cmd.kind}") if tracer is not None else None
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = omaslab.cli.main(argv)
                elapsed = time.perf_counter() - t0
                if span is not None:
                    tracer.close(span)
                if rc != 0:
                    raise CommandFailed(f"omaslab {' '.join(argv)} exited with {rc}")
                key = f"{cmd.kind}_s"
                if key in times:
                    times[key] += elapsed
            times["wall_s"] = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        return times

    origin = time.perf_counter()
    plain, traced, tracers, digests = [], [], [], []
    try:
        while True:
            plain.append(run_session(None))
            digests.append(tree_digest(session))
            if args.trace:
                tracers.append(Tracer(origin))
                traced.append(run_session(tracers[-1]))
                digests.append(tree_digest(session))
            if time.perf_counter() - origin >= args.seconds:
                break
    except CommandFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- untimed checks -----------------------------------------------------
    checker = Checker(wl, inputs, session)
    results = checker.run()
    same = all(d == digests[0] for d in digests)
    results.append(CheckResult(
        "repeat_identical", same, f"{len(digests)} sessions wrote "
        + ("identical outputs" if same else "different outputs")))
    failed = sum(not r.ok for r in results)
    correct = all(r.ok or r.known for r in results)
    for r in results:
        status = "ok" if r.ok else ("FAILED (known)" if r.known else "FAILED")
        print(f"check {args.workload}.{r.name}: {status}: {r.detail}")

    # -- fingerprint, for reference only ------------------------------------
    run_dir = checker.sim_runs()[0][0]
    with open(os.path.join(session, run_dir, "summary.json")) as fh:
        summ = json.load(fh)
    with open(os.path.join(session, run_dir, "trajectory.csv"), "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    print(f"fingerprint {args.workload} seed={args.seed} run={run_dir}: "
          f"tail_sup_error={summ['tail_sup_error']!r} ultimate_bound={summ['ultimate_bound']!r} "
          f"trajectory_sha256={sha}")
    print(host_facts())
    print(f"sessions: {len(plain)} untraced, {len(traced)} traced")

    # -- result -------------------------------------------------------------
    if args.trace:
        per_round = [tr.layer_metrics() for tr in tracers]
        metrics = {}
        for name, unit in LAYER_METRICS.items():
            middle = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = {"value": middle(r[name] for r in per_round), "unit": unit}
        metrics["trace_overhead_s"] = {
            "value": statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain),
            "unit": "s",
        }
        os.makedirs(TRACE_DIR, exist_ok=True)
        with open(os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.csv"), "w") as fh:
            fh.write("session,span,parent,name,start_s,end_s\n")
            for k, tr in enumerate(tracers):
                tr.write_spans(fh, k)
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        for name in ("certify_s", "simulate_s", "wall_s"):
            metrics[name] = {"value": statistics.median(r[name] for r in plain), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
