#!/usr/bin/env python3
"""Whether two source trees write the same sweep outputs, byte for byte, and where they differ.

Usage:
    python scripts/check_bytes.py --tree LABEL=SRC_DIR --tree LABEL=SRC_DIR [--out FILE]

Each tree is imported into this process under its own package name
(``bench_layers.load_tree``), with one BLAS thread. For each of the three
workloads of ``sweepbench/workloads.py`` and each of the 12 seeds of its
pool, each tree runs the workload's sweep at the workload's trial count
through ``harness.sweep`` and ``harness.write_results``, the path of the
command-line sweeps, into a temporary directory: 36 sweeps and 72 files
(``results.csv`` and ``results_meta.json``) per tree, about a minute each on
one 2.1 GHz Xeon core. The workload definitions are read from the
source of ``sweepbench/workloads.py``; importing it would load the
benchmark's own copy of the package.

The report gives:

- the files compared and those whose bytes differ;
- the largest absolute and the largest relative per-trial rate difference,
  each at its (workload, seed, value, kind, trial); the relative one is
  taken against the first tree's rate;
- the trials whose reported RIS or relay position moved;
- the trials whose failed or flagged status changed;
- per tree, workload and searching kind, the objective evaluations and the
  retraced ones, those that computed no core (``search_core``) and took a
  core a search trace kept from the power before;
- per tree, the lines of its package sources, and the second tree's count
  less the first's.

It is printed and, with ``--out``, written as JSON. The exit status is 0
when every file is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import sys
import tempfile
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from bench_layers import REPO, load_tree, src_digest  # pins one BLAS thread before numpy

WORKLOADS = REPO / "sweepbench" / "workloads.py"
SHOWN = 5  # entries of each list the printed report shows; --out keeps them all


def read_workloads(path: Path = WORKLOADS) -> tuple[dict, tuple, int]:
    """(workloads, pool, trials) as ``path`` defines them: each ``Workload``'s (sweep kind,
    values, kinds), its kinds as the expression to evaluate against a tree's ``BaselineKind``,
    by name, then ``POOL`` and ``TRIALS``."""
    workloads, names = {}, {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in ("POOL", "TRIALS")):
            names[node.targets[0].id] = eval(compile(ast.Expression(node.value), str(path), "eval"),
                                             {"__builtins__": {}, "tuple": tuple, "range": range})
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Workload":
            name, sweep_kind, values, kinds = node.args[:4]
            workloads[ast.literal_eval(name)] = (ast.literal_eval(sweep_kind),
                                                 ast.literal_eval(values), ast.Expression(kinds))
    return workloads, names["POOL"], names["TRIALS"]


@contextmanager
def counted_evaluations(baselines, optimizer):
    """Counts, while open, each searching kind's objective evaluations and the retraced ones,
    those that ran inside a search trace's objective and called no ``search_core``, as
    ``{kind: Counter(evaluations=..., retraced=...)}``."""
    counts, kind, cores = defaultdict(Counter), [None], [0]
    search, run_pso = baselines._search, optimizer.run_pso
    objective, search_core = optimizer.SearchTrace.objective, optimizer._ClosedFormSearch.search_core

    def searched(pack, trial_index, searching, *args):
        kind[0] = searching.value
        return search(pack, trial_index, searching, *args)

    def swarm(fitness_fn, *args):
        def evaluate(v):
            counts[kind[0]]["evaluations"] += 1
            return fitness_fn(v)
        return run_pso(evaluate, *args)

    def traced(trace, *args):
        score, decisions = objective(trace, *args)

        def evaluate(v):
            before = cores[0]
            values = score(v)
            counts[kind[0]]["retraced"] += cores[0] == before
            return values
        return evaluate, decisions

    def core(context, *args):
        cores[0] += 1
        return search_core(context, *args)

    patches = ((baselines, "_search", searched), (optimizer, "run_pso", swarm),
               (optimizer.SearchTrace, "objective", traced),
               (optimizer._ClosedFormSearch, "search_core", core))
    real = [getattr(owner, name) for owner, name, _ in patches]
    for owner, name, value in patches:
        setattr(owner, name, value)
    try:
        yield counts
    finally:
        for (owner, name, _), value in zip(patches, real):
            setattr(owner, name, value)


def src_lines(src: Path) -> int:
    """The lines of the tree's package sources, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "movable_ris").rglob("*.py"))


def run_sweeps(module, workloads: dict, seeds: list[int], trials: int, out: Path):
    """Every (workload, seed) sweep of one tree, its files under ``out/<workload>/seed<n>``:
    (the ``RateResult`` list of each, by (workload, seed); each workload's
    ``counted_evaluations`` over its seeds, by kind)."""
    baselines, harness, optimizer, scenario = map(
        module, ("baselines", "harness", "optimizer", "scenario"))
    names = {"__builtins__": {}, "tuple": tuple, "BaselineKind": baselines.BaselineKind}
    runs, evaluations = {}, {}
    for name, (sweep_kind, values, kinds) in workloads.items():
        kinds = eval(compile(kinds, str(WORKLOADS), "eval"), names)
        with counted_evaluations(baselines, optimizer) as counts:
            for seed in seeds:
                config, geometry = scenario.default_config()
                spec = harness.SweepSpec(kind=sweep_kind, values=values, baselines=kinds,
                                         trials=trials, seed=seed)
                results = harness.sweep(spec, config, geometry)
                harness.write_results(results, out / name / f"seed{seed}", config, geometry)
                runs[name, seed] = results
        evaluations[name] = {kind: {"evaluations": count["evaluations"],
                                    "retraced": count["retraced"]}
                             for kind, count in sorted(counts.items())}
    return runs, evaluations


def _trials(result) -> dict:
    """The trials of one ``RateResult`` that gave a rate: trial index -> (rate, position)."""
    kept = (t for t in range(result.trials) if t not in result.failed_trials)
    return dict(zip(kept, zip(result.per_trial_rates, result.per_trial_positions)))


def diff_results(first: dict, second: dict) -> dict:
    """Per-trial differences of two trees' ``run_sweeps``, the first tree as the reference."""
    largest_abs = largest_rel = None
    moved, changed = [], []
    for (name, seed), results in first.items():
        for a, b in zip(results, second[name, seed], strict=True):
            where = (name, seed, a.swept_value, a.baseline.value)
            rows_a, rows_b = _trials(a), _trials(b)
            for t in range(a.trials):
                status = [(t in r.failed_trials, t in r.flagged_trials) for r in (a, b)]
                if status[0] != status[1]:
                    changed.append([*where, t, *(
                        {"failed": failed, "flagged": flagged} for failed, flagged in status)])
                if t not in rows_a or t not in rows_b:
                    continue
                (rate_a, xy_a), (rate_b, xy_b) = rows_a[t], rows_b[t]
                if xy_a != xy_b:
                    moved.append([*where, t, list(xy_a), list(xy_b)])
                gap = abs(rate_b - rate_a)
                rel = gap / abs(rate_a) if rate_a else (0.0 if gap == 0.0 else math.inf)
                if largest_abs is None or gap > largest_abs["value"]:
                    largest_abs = {"value": gap, "at": [*where, t], "rates": [rate_a, rate_b]}
                if largest_rel is None or rel > largest_rel["value"]:
                    largest_rel = {"value": rel, "at": [*where, t], "rates": [rate_a, rate_b]}
    return {"largest_abs_rate_diff": largest_abs, "largest_rel_rate_diff": largest_rel,
            "moved_positions": moved, "status_changes": changed}


def diff_files(first: Path, second: Path) -> tuple[int, list[str]]:
    """How many files the two output trees hold between them, and which of those differ."""
    paths = sorted({p.relative_to(root).as_posix() for root in (first, second)
                    for p in root.rglob("*") if p.is_file()})
    differ = [p for p in paths if not ((first / p).is_file() and (second / p).is_file()
                                       and (first / p).read_bytes() == (second / p).read_bytes())]
    return len(paths), differ


def check(trees: dict, workloads: list[str] | None = None,
          seeds: list[int] | None = None) -> dict:
    """The report of two trees, ``{label: src}``, on ``workloads`` and ``seeds`` (default all)."""
    defined, pool, trials = read_workloads()
    chosen = {name: defined[name] for name in workloads or defined}
    seeds = list(pool) if seeds is None else seeds
    with tempfile.TemporaryDirectory(prefix="check_bytes_") as tmp:
        outs, runs, evaluations = [], [], {}
        for i, (label, src) in enumerate(trees.items()):
            outs.append(Path(tmp) / label)
            results, evaluations[label] = run_sweeps(load_tree(f"_bytes_tree_{i}", src), chosen,
                                                     seeds, trials, outs[-1])
            runs.append(results)
        files, differ = diff_files(*outs)
    lines = [src_lines(src) for src in trees.values()]
    return {
        "trees": {label: {"src_digest": src_digest(src), "src_lines": count}
                  for (label, src), count in zip(trees.items(), lines)},
        "src_lines_diff": lines[1] - lines[0],
        "workloads": list(chosen), "seeds": seeds, "trials": trials,
        "sweeps": len(runs[0]), "files": files, "differing_files": differ,
        "identical": not differ, **diff_results(*runs), "evaluations": evaluations,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], required=True,
                        help="LABEL=SRC_DIR; give exactly two, the reference first")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    trees = {}
    for spec in args.tree:
        label, sep, src = spec.partition("=")
        if not sep or label in trees or not (Path(src) / "movable_ris").is_dir():
            parser.error(f"--tree {spec!r}: expected a new LABEL=SRC_DIR holding movable_ris/")
        trees[label] = Path(src).resolve()
    if len(trees) != 2:
        parser.error("give exactly two --tree")
    trees_given = " ".join(f"--tree {label}=<src>" for label in trees)
    report = {"command": f"python scripts/check_bytes.py {trees_given}", **check(trees)}
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    lists = ("differing_files", "moved_positions", "status_changes")
    for key, value in report.items():  # each list as its length and first entries
        shown = value[:SHOWN] + ["..."] * (len(value) > SHOWN) if key in lists else value
        print(f"{key}: {json.dumps(shown)}" + (f" ({len(value)})" if key in lists else ""))
    return 0 if report["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
