"""``scripts/bench_layers.py`` still reaches every private name it times in this tree."""

import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
TREES = ("_bench_tree_0", "_peak_tree")  # the package names the script imports a tree under


def test_bench_layers_times_every_layer_of_this_tree():
    # one round at one row and one kind's batch peak, in this process; the BLAS thread
    # variables the script pins on loading and the tree packages it imports end with the test
    spec = importlib.util.spec_from_file_location("bench_layers",
                                                  ROOT / "scripts" / "bench_layers.py")
    bench = importlib.util.module_from_spec(spec)
    environment = dict(os.environ)
    try:
        with mock.patch.dict(os.environ):
            spec.loader.exec_module(bench)
            times = bench.measure({"this": ROOT / "src"}, 1, [1])
            peak = bench.batch_peak(str(ROOT / "src"), "fd_relay")
    finally:
        for name in [name for name in sys.modules if name.partition(".")[0] in TREES]:
            del sys.modules[name]
    retraced = {f"objective.{kind}.retraced" for kind in bench.SEARCHES}
    assert {"relay_rate", "objective.fd_relay", "search_rate", "rate.svd", "reference.ris",
            "reference.fd_relay"} | retraced <= set(times)
    assert all(len(per_tree["this"]) == 1 for per_tree in times.values())
    assert peak > 0 and dict(os.environ) == environment
