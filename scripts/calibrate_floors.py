#!/usr/bin/env python3
"""Search certificate configurations whose switching floors hit a target pair.

The ratio and average-dwell floors depend on the per-mode decay margins and
the common contraction rate. This sweeps that space for the demo modes and
prints the best configuration found, next to the shipped operating point.
"""

import argparse

from omaslab.certificate import calibrate_switching_floors
from omaslab.demo import (
    DEMO_DWELL_FLOOR,
    DEMO_GAMMA_COMMON,
    DEMO_GAMMA_MARGIN,
    DEMO_RATIO_FLOOR,
    demo_scenario,
)
from omaslab.transition import impulse_bounds


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--target-ratio", type=float, default=DEMO_RATIO_FLOOR)
    ap.add_argument("--target-dwell", type=float, default=DEMO_DWELL_FLOOR)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    sc = demo_scenario("practical", seed=args.seed)
    mats = sc.mode_matrices()
    signal = sc.resolve_signal(args.seed)
    bounds = impulse_bounds(signal.events)

    res = calibrate_switching_floors(
        mats, bounds.err_jump_norm_max,
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
