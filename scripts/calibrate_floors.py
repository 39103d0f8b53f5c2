#!/usr/bin/env python3
"""Search certificate configurations whose switching floors hit a target pair.

The ratio and average-dwell floors depend on the per-mode decay margins and
the common contraction rate. This sweeps that space for the demo modes and
prints the best configuration found, next to the shipped operating point.
The search runs on the library's public API: each margin's certificates
are solved and bundled as `certify` does, and the floors are scored by the
budget's own formulas.
"""

import argparse
import math
from dataclasses import dataclass

import numpy as np

from omaslab.certificate import assemble_bundle, solve_mode_certificate
from omaslab.demo import (
    DEMO_DWELL_FLOOR,
    DEMO_GAMMA_COMMON,
    DEMO_GAMMA_MARGIN,
    DEMO_RATIO_FLOOR,
    demo_scenario,
)
from omaslab.errors import AssumptionViolation, CertificateError
from omaslab.switching import dwell_floor_at, ratio_floor_at
from omaslab.transition import impulse_bounds

MARGINS = np.logspace(-6.0, 0.0, 31)  # coarse grid, refined around its winner
RATES = 2000  # common rates tried per margin


@dataclass(frozen=True)
class CalibrationResult:
    gamma_margin: float
    gamma_common: float
    ratio_floor: float
    dwell_floor: float
    max_rel_deviation: float


def calibrate_switching_floors(matrices, signal, target_ratio, target_dwell):
    """The (margin, gamma_common) configuration whose certified floors come
    closest to a pair of reference switching bounds, in the worst relative
    deviation of the two.

    The ratio floor depends on the margin and the common rate only; the dwell
    floor additionally involves the jump gain through the certificates. A log
    grid over margins crossed with a dense rate grid is cheap (mode sizes are
    small) and lands within a fraction of a percent of any reachable target
    pair.
    """
    bounds = impulse_bounds(signal.events)

    def best_over(margins):
        best = None
        for margin in margins:
            try:
                certs = {mid: solve_mode_certificate(mm, gamma_margin=float(margin))
                         for mid, mm in matrices.items()}
                budget = assemble_bundle(certs, bounds, 0.0, signal).budget
            except (CertificateError, AssumptionViolation):
                continue
            g_s, g_u, mu = budget.gamma_stable_max, budget.gamma_unstable_max, budget.jump_gain
            if g_u is None:
                raise AssumptionViolation("calibration needs at least one unstable mode")
            lo, hi = g_s * (1.0 - 1e-9), g_s * 1e-9
            candidates = list(np.linspace(lo, hi, RATES))
            # exact-ratio and exact-dwell rates, when they fall inside the interval
            g_ratio = (g_u + target_ratio * g_s) / (1.0 + target_ratio)
            if lo < g_ratio < hi:
                candidates.append(g_ratio)
            if target_dwell > 0:
                g_dwell = -math.log(mu) / target_dwell
                if lo < g_dwell < hi:
                    candidates.append(g_dwell)
            g = np.array(candidates)
            ratio, dwell = ratio_floor_at(g_s, g_u, g), dwell_floor_at(mu, g)
            dev = np.maximum(
                np.abs(ratio / target_ratio - 1.0) if target_ratio else np.abs(ratio),
                np.abs(dwell / target_dwell - 1.0) if target_dwell else np.abs(dwell),
            )
            i = int(np.argmin(dev))  # the first of equal minima, as a strict < scan
            if best is None or dev[i] < best.max_rel_deviation:
                best = CalibrationResult(
                    gamma_margin=float(margin),
                    gamma_common=float(g[i]),
                    ratio_floor=float(ratio[i]),
                    dwell_floor=float(dwell[i]),
                    max_rel_deviation=float(dev[i]),
                )
        return best

    best = best_over(MARGINS)
    if best is None:
        raise CertificateError("calibration failed: no margin produced valid certificates")
    refined = best_over(best.gamma_margin * np.logspace(-0.25, 0.25, 21))
    if refined is not None and refined.max_rel_deviation < best.max_rel_deviation:
        best = refined
    return best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--target-ratio", type=float, default=DEMO_RATIO_FLOOR)
    ap.add_argument("--target-dwell", type=float, default=DEMO_DWELL_FLOOR)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    sc = demo_scenario("practical", seed=args.seed)
    res = calibrate_switching_floors(
        sc.mode_matrices(), sc.resolve_signal(args.seed),
        target_ratio=args.target_ratio, target_dwell=args.target_dwell,
    )
    print(f"target floors:   ({args.target_ratio:.4f}, {args.target_dwell:.4f})")
    print(f"best found:      ({res.ratio_floor:.4f}, {res.dwell_floor:.4f})"
          f"  at margin = {res.gamma_margin:.4f}, "
          f"gamma_common = {res.gamma_common:.4f}")
    print(f"max rel deviation: {res.max_rel_deviation:.2%}")
    print(f"shipped config:  margin = {DEMO_GAMMA_MARGIN}, "
          f"gamma_common = {DEMO_GAMMA_COMMON}")


if __name__ == "__main__":
    main()
