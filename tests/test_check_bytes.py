"""``scripts/check_bytes.py`` runs the sweeps of two trees and says where they differ."""

import importlib.util
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the modules the script imports, and the package names it imports each tree under
MODULES = ("check_bytes", "bench_layers", "_bytes_tree_0", "_bytes_tree_1")


@pytest.fixture
def check_bytes(monkeypatch):
    """The script as a module; the BLAS thread variables it pins and the modules it imports
    end with the test."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    environment = dict(os.environ)
    try:
        with mock.patch.dict(os.environ):
            spec = importlib.util.spec_from_file_location("check_bytes",
                                                          ROOT / "scripts" / "check_bytes.py")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            yield module
    finally:
        for name in [name for name in sys.modules if name.partition(".")[0] in MODULES]:
            del sys.modules[name]
    assert dict(os.environ) == environment


def test_check_bytes_reads_this_tree_identical_to_itself(check_bytes):
    # one seed of one workload, this checkout as both trees, in this process
    report = check_bytes.check({"a": ROOT / "src", "b": ROOT / "src"}, ["phase_search"], [0])
    assert report["identical"] and (report["sweeps"], report["files"]) == (1, 2)
    assert report["differing_files"] == report["moved_positions"] == report["status_changes"] == []
    largest = report["largest_abs_rate_diff"]
    assert largest["value"] == 0.0 and largest["at"][:2] == ["phase_search", 0]
    assert report["largest_rel_rate_diff"]["value"] == 0.0
    # each tree's source line count, a direct count of this checkout's package, and no difference
    lines = sum(len(path.read_text().splitlines())
                for path in (ROOT / "src" / "movable_ris").glob("*.py"))
    assert report["trees"]["a"]["src_lines"] == report["trees"]["b"]["src_lines"] == lines
    assert report["src_lines_diff"] == 0
    # the same objective evaluations in both; an element sweep has no power step to retrace
    evaluations = report["evaluations"]
    assert evaluations["a"] == evaluations["b"] == {"phase_search": {
        "fixed_ris_opt_phase": {"evaluations": 4 * 10 * 31, "retraced": 0}}}


def test_check_bytes_takes_exactly_two_trees(check_bytes, capsys):
    with pytest.raises(SystemExit):
        check_bytes.main(["--tree", f"a={ROOT / 'src'}"])
    assert "exactly two" in capsys.readouterr().err


def test_check_bytes_reads_the_workloads_of_the_benchmark(check_bytes):
    workloads, pool, trials = check_bytes.read_workloads()
    assert list(workloads) == ["paper_power_sweep", "phase_search", "position_search"]
    assert workloads["phase_search"][:2] == ("elements", (16, 36, 64, 100))
    assert (pool, trials) == (tuple(range(12)), 10)


def _result(rates, positions, failed=(), flagged=()):
    return SimpleNamespace(trials=3, swept_value="16", baseline=SimpleNamespace(value="kind"),
                           per_trial_rates=rates, per_trial_positions=positions,
                           failed_trials=list(failed), flagged_trials=list(flagged))


def test_check_bytes_names_each_difference(check_bytes, tmp_path):
    first = {("w", 0): [_result([1.0, 2.0], [(0.0, 0.0), (1.0, 1.0)], failed=[1])]}
    second = {("w", 0): [_result([1.0, 4.0, 2.5], [(0.0, 0.0), (3.0, 1.0), (1.0, 1.0)],
                                 flagged=[0])]}
    report = check_bytes.diff_results(first, second)
    assert report["largest_abs_rate_diff"] == {"value": 0.5, "at": ["w", 0, "16", "kind", 2],
                                               "rates": [2.0, 2.5]}
    assert report["largest_rel_rate_diff"]["value"] == 0.25
    assert report["moved_positions"] == []  # trial 1 gave no position in the first tree
    assert report["status_changes"] == [
        ["w", 0, "16", "kind", 0, {"failed": False, "flagged": False},
         {"failed": False, "flagged": True}],
        ["w", 0, "16", "kind", 1, {"failed": True, "flagged": False},
         {"failed": False, "flagged": False}]]
    second[("w", 0)][0].per_trial_positions[0] = (0.0, 0.5)
    assert check_bytes.diff_results(first, second)["moved_positions"] == [
        ["w", 0, "16", "kind", 0, [0.0, 0.0], [0.0, 0.5]]]
    for tree, text in (("a", "x"), ("b", "y")):
        (tmp_path / tree / "s").mkdir(parents=True)
        (tmp_path / tree / "s" / "same.csv").write_text("same")
        (tmp_path / tree / "s" / "moved.csv").write_text(text)
    (tmp_path / "b" / "only_b.csv").write_text("")
    assert check_bytes.diff_files(tmp_path / "a", tmp_path / "b") == (
        3, ["only_b.csv", "s/moved.csv"])
