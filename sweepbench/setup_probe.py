"""Time one fresh-process set-up: package import, first scenario pack, one rate.

Usage: python3 sweepbench/setup_probe.py <sweep kind> <first swept value as JSON> <sweep seed>
Only the package is imported inside the timed region; the benchmark's own
modules load after it. Prints the elapsed wall seconds and, measured right
after, the host speed from ``calibrate.speed()``. ``run.py`` starts it
several times per run.
"""

import json
import math
import sys
import time

import bootstrap


def warm_up(sweep_kind: str, value, sweep_seed: int) -> float:
    """Build the first scenario pack and evaluate one rate (lazy LAPACK set-up)."""
    import numpy as np

    from movable_ris import baselines, harness, optimizer, scenario

    config, geometry = harness.apply_swept_value(*scenario.default_config(), sweep_kind, value)
    pack = baselines.build_scenario_pack(config, geometry, sweep_seed)
    context = baselines.make_problem_context(pack, 0)
    cx, cy = geometry.platform_center()
    return context.rate_for(optimizer.RisState(cx, cy, np.zeros(config.num_ris)))


if __name__ == "__main__":
    bootstrap.prepare()
    kind, value, seed = sys.argv[1], json.loads(sys.argv[2]), int(sys.argv[3])
    start = time.perf_counter()
    import movable_ris.cli  # noqa: F401  (the whole package, as every CLI run imports it)

    rate = warm_up(kind, value, seed)
    elapsed = time.perf_counter() - start
    if not math.isfinite(rate):
        sys.exit(f"error: set-up rate evaluation gave {rate!r}")
    import calibrate

    print(repr(elapsed), repr(calibrate.speed()))
