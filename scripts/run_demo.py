#!/usr/bin/env python3
"""End-to-end demo run: analyze, certify, simulate, check the envelope.

Reproduces the headline numbers of the bundled four-mode scenario:
mode decay/growth rates, the stable-mode split, the certified switching
floors, the ultimate bound, and the tail error of both the perturbed
("practical") and the unforced ("asymptotic") variants. Everything is
recomputed from scratch; nothing is read from disk unless --out is given,
in which case trajectory/event CSVs and summaries are written there too.

Exits 1 when a check fails: a mode's alpha more than 1e-9 from its
reference, a non-compliant signal, a tail error above the certified bound,
or an energy trace outside its envelope.
"""

import argparse
import os
import sys
import time

from omaslab.cli import build_bundle
from omaslab.demo import DEMO_ALPHAS, demo_scenario
from omaslab.simulate import (
    export_events_csv,
    export_trajectory_csv,
    lyapunov_trace,
    run_scenario,
)
from omaslab.switching import validate_switching


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="also write CSV traces here")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--dt", type=float, default=1e-3)
    args = ap.parse_args()

    failed: list[str] = []

    def check(ok, what: str) -> None:
        if not ok:
            failed.append(f"{variant}: {what}")

    for variant in ("practical", "asymptotic"):
        sc = demo_scenario(variant, seed=args.seed)
        print(f"=== {variant} variant (seed {args.seed}, dt {args.dt:g}) ===")

        mats = sc.mode_matrices()
        for mid in sorted(mats):
            mm = mats[mid]
            ref = DEMO_ALPHAS[mid]
            print(f"  mode {mid}: alpha = {mm.alpha:+.6f} "
                  f"(reference {ref:+.3f}, {'stable' if mm.stable else 'unstable'})")
            check(abs(mm.alpha - ref) <= 1e-9, f"mode {mid} alpha {mm.alpha!r} vs {ref!r}")

        signal = sc.resolve_signal(args.seed)
        t_cert = time.perf_counter()
        bundle = build_bundle(sc, signal, mats)
        t_cert = time.perf_counter() - t_cert
        verdict = validate_switching(signal, bundle.budget, bundle.stable_set)
        print(f"  certified in {t_cert * 1e3:.1f} ms: "
              f"jump_gain = {bundle.jump_gain:.4f}, "
              f"floors = ({bundle.budget.ratio_floor:.4f}, "
              f"{bundle.budget.dwell_floor:.4f})")
        print(f"  signal: {signal.n_switches} switches on "
              f"[{signal.t0:g}, {signal.tf:g}], compliant = {verdict.ok}")
        check(verdict.ok, "signal not compliant")
        eps = "0 (asymptotic)" if bundle.ultimate_bound == 0.0 else (
            "unbounded" if bundle.unbounded else f"{bundle.ultimate_bound:.4f}")
        print(f"  ultimate bound = {eps}")

        t_sim = time.perf_counter()
        result = run_scenario(sc, seed=args.seed, dt=args.dt, bundle=bundle,
                              signal=signal, matrices=mats)
        t_sim = time.perf_counter() - t_sim
        s = result.summary
        print(f"  simulated in {t_sim:.2f} s: tail sup error = {s.tail_sup_error:.6g}, "
              f"converged = {s.converged}, bound respected = {s.bound_respected}")
        check(s.bound_respected, f"bound respected = {s.bound_respected}")

        trace = lyapunov_trace(result.trajectory, bundle)
        print(f"  envelope check: ok = {trace.ok} "
              f"({len(trace.violations)} violations, "
              f"{sum(not c[3] for c in trace.jump_checks)} bad jumps)")
        check(trace.ok, "energy trace leaves its envelope")

        if args.out:
            d = os.path.join(args.out, variant)
            os.makedirs(d, exist_ok=True)
            export_trajectory_csv(result.trajectory, os.path.join(d, "trajectory.csv"))
            export_events_csv(result.trajectory, os.path.join(d, "events.csv"))
            print(f"  traces written to {d}/")
        print()

    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
