#!/usr/bin/env python3
"""Per-layer timings of one fitness evaluation, for one or more source trees, interleaved.

Usage:
    python scripts/bench_layers.py [--tree LABEL=SRC_DIR ...] [--repeat N] [--rows N[,N...]]
                                   [--out FILE]

Every tree (default: this checkout's ``src/``) is imported into one process
under its own package name, with one BLAS thread. Each of the N rounds
calls every layer once per tree, back to back and in an order that
alternates from round to round, so the host's speed drift, which reaches 2x
within seconds on a shared machine, falls on the trees alike. The layers
run in an order that a ``random.Random(ORDER_SEED)`` shuffles anew each
round, so no layer always follows the same one, whose leftovers (warm
caches, freed buffers) would tilt its time in one tree only. The report
gives, per layer and tree, the minimum over the N calls in microseconds
and, for two trees, the ratio of those minima (first tree over second) and
the median over the rounds of the same ratio taken call by call. It is
printed and, with ``--out``, written as JSON.

Layers, at the default configuration (8x8 Tx/UE arrays, 6x6 RIS, 10 paths)
on trial 0 of pack seed 3 and a batch of ``--rows`` particles (default 10, one
swarm iteration):

- ``steering``: ``steering_matrix`` of the batch's Tx departure angles;
- ``platform_angles``: the mean angles and lengths of the links from the
  batch's platform points to both nodes, which every hop rebuild starts from;
- ``ris_search_hops``: both reduced RIS hops of the batch, H_TI F1 and F2 H_IR;
- ``search_steering``: the steering step of that call: the four ends'
  per-axis factors, projected where beamformed, from the batch's direction
  cosines (``_end_blocks`` of the RIS search's ends);
- ``relay_search_hops`` and ``relay_rate``: the relay search's two steps,
  both reduced relay hops of the batch (F2 H F1 each, one matmul per hop)
  and their rate: ``_RelaySearch.search_rates`` as the search calls it,
  with its ``hops`` call answered by those reduced hops. It takes the
  closed form of each hop, one ``_gram_core`` per hop into one core, then
  one tail over both (``search_core``, then ``core_rates``);
- ``rate_pipeline``: ``hybrid_link_rate`` on the batch's reduced 3x3 stack;
- ``search_rate``: the RIS searches' rate step on that stack,
  ``ProblemContext.search_rates`` with its ``_reduced`` answered by the
  stack: the closed form of the SVD and the stages' Grams, ``search_core``
  then ``core_rates``;
- ``reference.ris`` and ``reference.fd_relay``: the reference rate of one
  state, what a trial outcome reports, ``rate_for`` of the batch's first
  position (with its phases for the RIS). The RIS context keeps that
  position's hop matrices cached after the first call, as a fixed-position
  search does, so the composite and the rate pipeline are timed; the relay
  builds both hop matrices from its unbeamed ends and takes the pipeline
  per hop;
- the pipeline's steps on that stack: ``rate.svd`` (the SVD call the route
  makes, numpy's LAPACK gufunc through ``beamforming._lapack``),
  ``rate.decompose`` (the SVD with its phase rotation), ``rate.bb_stages``
  and ``rate.achievable_rate``;
- ``objective.<kind>``: the batch objective each searching kind hands its
  swarm, as the first evaluation of a search (``optimizer.SearchTrace``),
  which computes its core and keeps it in its trace's row;
- ``objective.<kind>.retraced``: that objective as the search at the next
  power runs it where its first evaluation retraces the previous power's,
  which scored the same batch: it takes only the rate tail of the kept core;
- ``objective.fd_relay.ue_85_75``: the relay's objective with the UE at
  (85, 75, 2), where the relay's RF stages carry unequal beam counts. It
  takes the closed form per hop there and keeps a search trace, so it is a
  first evaluation that computes its core;
- ``objective.fixed_ris_opt_phase.m100``: the phase-only objective at a
  10x10 RIS, the largest point of the ``phase_search`` benchmark workload,
  where the phase decode and the composite grow with the element count;
- ``pso_step``: one swarm iteration of the joint search's dimension, scored by
  an objective that returns fixed values, so only the swarm update is timed;
- ``rf_stage_design``: ``design_rf_stages`` and ``design_relay_stages`` at
  the default scenario and with the UE at (85, 75, 2), what a scenario pack
  designs per geometry. It does not depend on ``--rows``.

Given several row counts (``--rows 10,40,160``), every layer runs at each,
named ``<layer>@<rows>``, in the same interleaved rounds; the fixed per-call
cost of a layer is what its time keeps as the rows fall toward zero.

The report also gives, per tree, the ``tracemalloc`` peak in bytes of one
objective call of each searching kind on the batch of the memory guard test
in ``tests/test_blocks.py`` (10 particles, pack seed 3, trial 0). Each peak
is taken in a fresh interpreter after the same ``PEAK_WARMUP`` untraced
calls, so what ran before in the measuring process does not move it.

A layer that only some trees have is timed in those and gets no ratio.
Trees need ``channel.platform_angles``, ``channel.hops``,
``beamforming._lapack``, ``ProblemContext.search_rates``, ``_reduced`` and
``rate_for``, and ``_RelaySearch.search_rates`` and ``rate_for``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import multiprocessing
import os
import platform
import random
import statistics
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import numpy as np  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
PACK_SEED = 3
SEARCHES = ("movable_ris_joint", "fixed_ris_opt_phase", "movable_ris_random_phase", "fd_relay")
PEAK_KINDS = {"joint": "movable_ris_joint", "random_phase": "movable_ris_random_phase",
              "relay": "fd_relay", "phase_only": "fixed_ris_opt_phase"}
PEAK_WARMUP = 3  # untraced objective calls before the traced one
ORDER_SEED = 0  # seeds each round's shuffle of the layer order


def load_tree(name: str, src: Path):
    """Import ``src/movable_ris`` as the package ``name``; returns a module getter."""
    root = src / "movable_ris"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return lambda module: importlib.import_module(f"{name}.{module}")


def _captured_objectives(pack, baselines, optimizer, kinds=SEARCHES, fresh=True) -> dict:
    """The batch objective each of ``kinds`` hands its swarm on trial 0, without searching; each
    search on a pack of its own, or with ``fresh`` false on ``pack`` itself."""
    captured = {}

    def capture(fitness_fn, dim, params, rng, decisions=None):
        captured[kind] = fitness_fn
        return np.full(dim, 0.5), 0.0, [0.0]

    real = baselines.run_pso, optimizer.run_pso
    baselines.run_pso = optimizer.run_pso = capture
    try:
        for kind in kinds:
            searched = replace(pack) if fresh else pack
            baselines.run_baseline(baselines.BaselineKind(kind), searched, 0)
    finally:
        baselines.run_pso, optimizer.run_pso = real
    return captured


def _retraced_objectives(pack, baselines, harness, optimizer, batches: dict) -> dict:
    """Each kind's objective at the next power step, 10 dB up, whose every call retraces the
    previous power's first evaluation: that power's search scored ``batches[kind]`` first."""
    previous = replace(pack)
    for kind, objective in _captured_objectives(previous, baselines, optimizer, list(batches),
                                                fresh=False).items():
        objective(batches[kind])
        # the decision of that evaluation, as ``init_swarm`` records one: the last run made it
        previous.search_traces[baselines.BaselineKind(kind), 0].decisions.append(0)
    config = replace(pack.config, tx_power_dbm=pack.config.tx_power_dbm + 10.0)
    step = harness._point_pack([previous], config, pack.geometry, pack.seed, pack.pso_seed)
    return _captured_objectives(step, baselines, optimizer, list(batches), fresh=False)


def _dimension(kind: str, config) -> int:
    """The swarm dimension of a searching kind."""
    return {"movable_ris_joint": config.num_ris + 2,
            "fixed_ris_opt_phase": config.num_ris}.get(kind, 2)


def batch_peak(src: str, kind: str) -> int:
    """Traced peak bytes of one call of ``kind``'s objective on the memory guard's batch."""
    baselines, optimizer, scenario = map(load_tree("_peak_tree", Path(src)),
                                         ("baselines", "optimizer", "scenario"))
    pack = baselines.build_scenario_pack(*scenario.default_config(), PACK_SEED)
    objective = _captured_objectives(pack, baselines, optimizer)[kind]
    particles = scenario.rng_stream(7, 0).random((10, _dimension(kind, pack.config)))
    for _ in range(PEAK_WARMUP):
        objective(particles)
    tracemalloc.start()
    try:
        objective(particles)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def batch_peaks(trees: dict) -> dict:
    """``batch_peak`` of every kind in ``PEAK_KINDS`` and tree, each in a new interpreter."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=context, max_tasks_per_child=1) as pool:
        return {name: {label: pool.submit(batch_peak, str(src), kind).result()
                       for label, src in trees.items()}
                for name, kind in PEAK_KINDS.items()}


def layers_of(module, rows: int) -> dict:
    """Zero-argument callables, by layer name, for one imported tree, on batches of ``rows``."""
    baselines, beamforming, channel, harness, optimizer, scenario = map(
        module, ("baselines", "beamforming", "channel", "harness", "optimizer", "scenario"))
    pack = baselines.build_scenario_pack(*scenario.default_config(), PACK_SEED)
    config, geometry = pack.config, pack.geometry
    trial = baselines.trial_channels(pack, 0)
    rng = scenario.rng_stream(7, 0)
    joint = rng.random((rows, config.num_ris + 2))
    xy = np.column_stack(optimizer.decode_xy(joint[:, 0], joint[:, 1], geometry))
    means, _ = channel.platform_angles(geometry, xy)
    el, az = means[..., None] + trial.offsets  # (end, hop, B, L), the ends' path angles
    tx_angles = el[1, 0], az[1, 0]  # the Tx end of the Tx hop

    cosines = np.reshape(channel._direction_cosines(el, az), (2, 4, *el.shape[2:]))
    spacing = config.element_spacing_wavelengths
    ends = pack.search_ends

    def ris_hops():
        return channel.hops(config, geometry, trial, xy, ends["ris"])

    def relay_search_hops():
        return channel.hops(config, geometry, trial, xy, ends["relay"])

    def search_steering():
        return channel._end_blocks(cosines, ends["ris"], spacing)

    c, a = ris_hops()
    budget = (config.tx_power_watts, config.num_streams, config.noise_power_watts)
    relay = baselines._RelaySearch(replace(pack), 0)  # a search of trial 0 on a pack of its own
    relay_reduced = relay_search_hops()
    relay_state = optimizer.RisState(xy[:, 0], xy[:, 1], None, xy)

    def relay_rate():
        baselines.hops = lambda *args: relay_reduced  # the search's hops, already built
        try:
            return relay.search_rates(relay_state)
        finally:
            baselines.hops = channel.hops
    reduced = (a * np.exp(2j * np.pi * joint[:, None, 2:])) @ c
    ris_reference = baselines.make_problem_context(pack, 0)
    one_state = optimizer.RisState(float(xy[0, 0]), float(xy[0, 1]), 2 * np.pi * joint[0, 2:])
    relay_one_state = optimizer.RisState(float(xy[0, 0]), float(xy[0, 1]), None)
    context = baselines.make_problem_context(pack, 0)
    context._reduced = lambda state: (reduced,)  # the search's one link's stack, already built
    eff = beamforming._decompose(reduced)
    stages = beamforming.bb_stages(eff, config.tx_power_watts, config.num_streams, pack.f1)
    stages.f2 = pack.f2
    ue_geometry = harness.apply_swept_value(config, geometry, "ue_scenarios",
                                            (85.0, 75.0, 2.0))[1]

    def rf_stage_design():
        return [(beamforming.design_rf_stages(config, g), beamforming.design_relay_stages(config, g))
                for g in (geometry, ue_geometry)]

    layers = {
        "steering": lambda: channel.steering_matrix(*tx_angles, *config.tx_antennas,
                                                    config.element_spacing_wavelengths),
        "platform_angles": lambda: channel.platform_angles(geometry, xy),
        "ris_search_hops": ris_hops,
        "search_steering": search_steering,
        "relay_search_hops": relay_search_hops,
        "relay_rate": relay_rate,
        "rate_pipeline": lambda: beamforming.hybrid_link_rate(pack.f2, reduced, pack.f1,
                                                              *budget, reduced=True),
        "search_rate": lambda: context.search_rates(None),
        "reference.ris": lambda: ris_reference.rate_for(one_state),
        "reference.fd_relay": lambda: relay.rate_for(relay_one_state),
        "rate.svd": lambda: beamforming._lapack(np.linalg._umath_linalg.svd_s, "D->DdD",
                                                reduced, failed="SVD did not converge"),
        "rate.decompose": lambda: beamforming._decompose(reduced),
        "rate.bb_stages": lambda: beamforming.bb_stages(eff, config.tx_power_watts,
                                                        config.num_streams, pack.f1),
        "rate.achievable_rate": lambda: beamforming.achievable_rate(stages, eff,
                                                                    config.noise_power_watts),
    }
    batches = {}
    for kind, objective in _captured_objectives(pack, baselines, optimizer).items():
        batches[kind] = batch = rng.random((rows, _dimension(kind, config)))
        layers[f"objective.{kind}"] = lambda f=objective, b=batch: f(b)
    retraced = _retraced_objectives(pack, baselines, harness, optimizer, batches)
    for kind, objective in retraced.items():
        layers[f"objective.{kind}.retraced"] = lambda f=objective, b=batches[kind]: f(b)
    ue_pack = baselines.build_scenario_pack(config, ue_geometry, PACK_SEED)
    ue_relay = _captured_objectives(ue_pack, baselines, optimizer, ("fd_relay",))["fd_relay"]
    ue_batch = scenario.rng_stream(7, 1).random((rows, 2))
    layers["objective.fd_relay.ue_85_75"] = lambda: ue_relay(ue_batch)
    m100 = harness.apply_swept_value(config, geometry, "elements", 100)[0]
    m100_pack = baselines.build_scenario_pack(m100, geometry, PACK_SEED)
    m100_phase = _captured_objectives(m100_pack, baselines, optimizer,
                                      ("fixed_ris_opt_phase",))["fixed_ris_opt_phase"]
    m100_batch = scenario.rng_stream(7, 2).random((rows, m100.num_ris))
    layers["objective.fixed_ris_opt_phase.m100"] = lambda: m100_phase(m100_batch)
    params = replace(config.pso, swarm_size=rows)
    values = rng.random(rows)
    swarm = optimizer.init_swarm(lambda p: values, config.num_ris + 2, params, rng)
    layers["pso_step"] = lambda: optimizer.pso_step(swarm, params, 5, rng, lambda p: values)
    layers["rf_stage_design"] = rf_stage_design
    for fn in layers.values():
        fn()  # first-call work (lazy LAPACK set-up, caches) is not timed
    return layers


def src_digest(src: Path) -> str:
    """sha256 over the tree's package sources, in path order."""
    h = hashlib.sha256()
    for path in sorted((src / "movable_ris").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def measure(trees: dict, repeat: int, rows: list[int]) -> dict:
    """Per layer and tree, the microseconds of every call, rounds interleaved."""
    labels = list(trees)
    layers = {}
    for i, (label, src) in enumerate(trees.items()):
        module = load_tree(f"_bench_tree_{i}", src)
        layers[label] = {name if len(rows) == 1 else f"{name}@{n}": fn
                         for n in rows for name, fn in layers_of(module, n).items()}
    names = list(dict.fromkeys(name for label in labels for name in layers[label]))
    times = {name: {label: [] for label in labels if name in layers[label]} for name in names}
    order = random.Random(ORDER_SEED)
    for r in range(repeat):
        order.shuffle(names)
        for name in names:
            for label in labels if r % 2 == 0 else labels[::-1]:
                fn = layers[label].get(name)
                if fn is None:
                    continue
                start = time.perf_counter_ns()
                fn()
                times[name][label].append((time.perf_counter_ns() - start) / 1e3)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[],
                        help="LABEL=SRC_DIR; repeat for a pair (default: this=src)")
    parser.add_argument("--repeat", type=int, default=1000)
    parser.add_argument("--rows", default="10",
                        help="particles per batch, or a comma-separated list (default 10)")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    try:
        rows = [int(n) for n in args.rows.split(",")]
    except ValueError:
        rows = []
    if not rows or min(rows) < 1:
        parser.error(f"--rows {args.rows!r}: expected positive integers separated by commas")
    trees = {}
    for spec in args.tree or [f"this={REPO / 'src'}"]:
        label, sep, src = spec.partition("=")
        if not sep or label in trees or not (Path(src) / "movable_ris").is_dir():
            parser.error(f"--tree {spec!r}: expected a new LABEL=SRC_DIR holding movable_ris/")
        trees[label] = Path(src).resolve()

    labels = list(trees)
    times = measure(trees, args.repeat, rows)
    peaks = batch_peaks(trees)
    layers = {}
    for name, per_tree in times.items():
        row = {label: min(calls) for label, calls in per_tree.items()}
        if len(row) == 2:
            first, second = (per_tree[label] for label in labels)
            row["ratio_of_minima"] = row[labels[0]] / row[labels[1]]
            row["median_ratio"] = statistics.median(a / b for a, b in zip(first, second))
        layers[name] = row
    report = {
        "command": "python scripts/bench_layers.py "
        + " ".join(f"--tree {label}=<src>" for label in labels)
        + f" --repeat {args.repeat} --rows {args.rows}",
        "unit": "microseconds; minimum over the rounds, ratios first tree over second",
        "host": {"machine": platform.machine(), "nproc": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "blas_threads": 1},
        "trees": {label: {"src_digest": src_digest(src)} for label, src in trees.items()},
        "layers_us": layers,
        "batch_peak_bytes": peaks,
    }
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    width = max(map(len, layers))
    columns = labels + ["ratio_of_minima", "median_ratio"] * (len(labels) == 2)
    print(f"{'layer':<{width}}  " + "  ".join(f"{column:>16}" for column in columns))
    for name, row in layers.items():
        print(f"{name:<{width}}  " + "  ".join(f"{row[column]:16.2f}" if column in row
                                               else f"{'-':>16}" for column in columns))
    print(f"\n{'batch peak (bytes)':<{width}}  " + "  ".join(f"{label:>16}" for label in labels))
    for name, row in peaks.items():
        print(f"{name:<{width}}  " + "  ".join(f"{value:16d}" for value in row.values()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
