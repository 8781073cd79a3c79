#!/usr/bin/env python3
"""Record the reference results.csv bytes for every pool seed of each workload.

Usage (from the root of a checkout): python3 sweepbench/record_reference.py [workload ...]

Stores one digest per results.csv line in ``reference.json``, which
``run.py`` compares every sweep against. Re-record only at a commit whose
outputs are trusted; a sweep that breaks any other output check is refused.
"""

import json
import sys

import bootstrap

bootstrap.prepare()

import checks  # noqa: E402
import workloads  # noqa: E402


def main(names: list[str]) -> int:
    reference = checks.load_reference() if checks.REFERENCE.exists() else {"workloads": {}}
    for name in names or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        runner = workloads.SweepRunner(workload, bootstrap.OUT / "reference" / name, None)
        digests = {}
        for seed in workloads.POOL:
            run = runner.sweep(seed)
            if runner.failed:
                sys.stderr.write(f"error: {name}: {runner.messages}\n")
                return 1
            digests[str(seed)] = checks.csv_digests(run.csv_path)
            print(f"{name} seed {seed}: {len(digests[str(seed)])} rows, {run.wall_s:.2f} s, "
                  f"{run.reference_s:.2f} reference s")
        reference["workloads"][name] = digests
    reference["recorded_at_commit"] = bootstrap.git_commit()
    reference["pool"] = list(workloads.POOL)
    checks.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
