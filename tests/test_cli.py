import csv
import hashlib
import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from movable_ris import cli
from movable_ris.cli import main
from movable_ris.scenario import config_digest, default_config, parse_config

TINY_CONFIG = """
tx_antennas = 2 2
rx_antennas = 2 2
ris_elements = 2 2
pso_swarm_size = 5
pso_iterations = 6
monte_carlo_trials = 2
"""


@pytest.fixture()
def tiny_config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


def test_sweep_power_writes_outputs(tmp_path, tiny_config_file, capsys):
    out = tmp_path / "out"
    rc = main([
        "sweep-power",
        "--powers", "0,10",
        "--baselines", "fixed_ris_random_phase,hd_relay",
        "--trials", "2",
        "--config", str(tiny_config_file),
        "--out", str(out),
    ])
    assert rc == 0
    assert (out / "results.csv").exists()
    assert (out / "results_meta.json").exists()
    assert (out / "plot_results.py").exists()
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + 2 powers x 2 kinds


def test_sweep_without_baselines_runs_every_kind(tmp_path, tiny_config_file):
    out = tmp_path / "out"
    rc = main(["sweep-power", "--powers", "10", "--trials", "1",
               "--config", str(tiny_config_file), "--out", str(out)])
    assert rc == 0
    with open(out / "results.csv", newline="") as f:
        kinds = [row["baseline"] for row in csv.DictReader(f)]
    assert kinds == [kind.value for kind in cli.BaselineKind]


def test_single_run(tmp_path, tiny_config_file, capsys):
    out = tmp_path / "single"
    rc = main([
        "single-run",
        "--baseline", "movable_ris_joint",
        "--power-dbm", "20",
        "--trials", "2",
        "--config", str(tiny_config_file),
        "--out", str(out),
    ])
    assert rc == 0
    assert "movable_ris_joint" in capsys.readouterr().out
    assert (out / "results.csv").exists()


def test_ue_scenarios_subcommand(tmp_path, tiny_config_file):
    out = tmp_path / "ue"
    rc = main([
        "ue-scenarios",
        "--ue-positions", "80,60,2;60,90,2",
        "--baselines", "fixed_ris_random_phase",
        "--trials", "1",
        "--config", str(tiny_config_file),
        "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 3


def test_ue_above_the_ris_plane_is_an_error(tmp_path, tiny_config_file, capsys):
    out = tmp_path / "ue"
    rc = main([
        "ue-scenarios", "--ue-positions", "60,90,6",
        "--config", str(tiny_config_file), "--out", str(out),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_flagged_point_exits_one_after_writing(tmp_path, tiny_config_file, capsys, monkeypatch):
    from movable_ris import harness

    real_run = harness.run_baseline

    def failing_relay(kind, pack, trial_index):
        if kind.value == "hd_relay":
            raise np.linalg.LinAlgError("injected trial failure")
        return real_run(kind, pack, trial_index)

    monkeypatch.setattr(harness, "run_baseline", failing_relay)
    out = tmp_path / "flagged"
    rc = main([
        "sweep-power", "--powers", "0,10",
        "--baselines", "fixed_ris_random_phase,hd_relay",
        "--trials", "2",
        "--config", str(tiny_config_file), "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert rc == 1
    for name in ("results.csv", "results_meta.json", "plot_results.py"):
        assert (out / name).exists()
    assert captured.out.count("[FLAGGED]") == 2
    err_lines = [line for line in captured.err.splitlines() if "flagged points" in line]
    assert err_lines == [
        "flagged points (over 10% of trials failed): 0.0 hd_relay; 10.0 hd_relay"
    ]


def test_sweep_elements_subcommand(tmp_path, tiny_config_file):
    out = tmp_path / "el"
    rc = main([
        "sweep-elements",
        "--elements", "4,9",
        "--baselines", "fixed_ris_random_phase",
        "--trials", "1",
        "--config", str(tiny_config_file),
        "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 3


def test_dump_channels_flag(tmp_path, tiny_config_file):
    out = tmp_path / "out"
    dump = tmp_path / "channels"
    rc = main([
        "single-run",
        "--baseline", "fixed_ris_random_phase",
        "--trials", "1",
        "--config", str(tiny_config_file),
        "--out", str(out),
        "--dump-channels", str(dump),
    ])
    assert rc == 0
    dumped = list(dump.rglob("*.txt"))
    assert len(dumped) == 2  # one file per link per trial


@pytest.mark.parametrize("flag", ["--out", "--dump-channels"])
def test_unusable_output_directory_is_an_error_before_any_trial(
    tmp_path, tiny_config_file, capsys, monkeypatch, flag
):
    from movable_ris import harness

    trials, run_baseline = [], harness.run_baseline
    monkeypatch.setattr(harness, "run_baseline",
                        lambda *args: trials.append(args) or run_baseline(*args))
    blocker = tmp_path / "file"
    blocker.write_text("")
    paths = {"--out": str(blocker / "sub"), "--dump-channels": str(blocker)}
    rc = main([
        "single-run", "--baseline", "fixed_ris_random_phase", "--trials", "1",
        "--config", str(tiny_config_file), "--out", str(tmp_path / "out"),
        flag, paths[flag],
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: cannot create {flag} directory {paths[flag]}: ")
    assert err.count("\n") == 1
    assert trials == []


def test_unknown_baseline_is_an_error(tmp_path, capsys):
    rc = main(["sweep-power", "--baselines", "bogus", "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown baseline" in capsys.readouterr().err


def test_single_run_refuses_the_sweeps_baselines_flag(tmp_path, monkeypatch, capsys):
    # single-run takes one --baseline; argparse refuses the sweeps' --baselines
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["single-run", "--baselines", "fd_relay", "--trials", "1",
              "--pso-particles", "2", "--pso-iters", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "unrecognized arguments: --baselines fd_relay" in captured.err
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_single_run_unknown_baseline_is_an_error_before_any_trial(tmp_path, capsys):
    rc = main(["single-run", "--baseline", "bogus", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: unknown baseline 'bogus'; valid: ")
    assert not any(tmp_path.iterdir())


def test_non_finite_swept_power_is_an_error(tmp_path, tiny_config_file, capsys):
    out = tmp_path / "nan"
    rc = main([
        "sweep-power", "--powers", "nan",
        "--config", str(tiny_config_file), "--out", str(out),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_non_square_element_count_is_an_error(tmp_path, tiny_config_file, capsys):
    out = tmp_path / "el"
    rc = main([
        "sweep-elements", "--elements", "15",
        "--config", str(tiny_config_file), "--out", str(out),
    ])
    assert rc == 2
    assert "error: element count 15 is not a perfect square" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_config_value_is_an_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY_CONFIG + "carrier_frequency_ghz = inf\n")
    rc = main(["sweep-power", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "carrier_frequency_ghz must be finite" in capsys.readouterr().err


def test_alpha_path_loss_below_its_reference_frequency_is_an_error(tmp_path, capsys):
    # 32.4 + 20 log10(0.01) < 0: the alpha coefficient has no square root
    path = tmp_path / "low.cfg"
    path.write_text(TINY_CONFIG + "carrier_frequency_ghz = 0.01\n")
    rc = main(["sweep-power", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "alpha path loss coefficient must be positive, got -7.6 at" in err
    assert not (tmp_path / "out").exists()


def test_subnormal_noise_power_is_an_error(tmp_path, capsys):
    path = tmp_path / "narrow.cfg"
    path.write_text(TINY_CONFIG + "bandwidth_hz = 1e-300\n")
    rc = main(["sweep-power", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "noise power 3.98" in err and "underflows the float range" in err
    assert not (tmp_path / "out").exists()


def test_power_past_the_rate_bound_is_an_error(tmp_path, capsys):
    # the Tx 1 m under the RIS plane: validate's bound through its path amplitude
    path = tmp_path / "near.cfg"
    path.write_text(TINY_CONFIG + "tx_position = 55 55 4\n")
    out = tmp_path / "out"
    rc = main(["sweep-power", "--powers", "2978.547", "--config", str(path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid power value 2978.547: tx_power_dbm = 2978.547 passes "
                          "the float range in the rate's I + W^-1 Q") and err.count("\n") == 1
    assert not out.exists()


def test_stage_short_of_beams_is_an_error_before_any_directory(tmp_path, capsys):
    # valid to scenario.validate, but every cell of a 2-cell axis aliases at 4 wavelengths
    path = tmp_path / "wide.cfg"
    path.write_text(TINY_CONFIG + "element_spacing_wavelengths = 4.0\n")
    out, dump = tmp_path / "out", tmp_path / "dump"
    rc = main(["single-run", "--config", str(path), "--trials", "1",
               "--out", str(out), "--dump-channels", str(dump)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: RF stage f1 has 1 usable beams for 2 streams")
    assert err.count("\n") == 1
    assert not out.exists() and not dump.exists()


@pytest.mark.parametrize("config_line, flags, keys", [
    ("tx_antennas = 1048576 1048576\n", [], "tx_antennas"),
    ("pso_swarm_size = 1000000000\n", [], "pso_swarm_size x num_paths x tx_antennas"),
    ("", ["--elements", "4,100000000000000"], "pso_swarm_size x num_paths x ris_elements"),
], ids=["tx_antennas", "swarm", "elements"])
def test_dense_stack_past_the_element_budget_is_an_error(tmp_path, monkeypatch, capsys,
                                                          config_line, flags, keys):
    def fail(*args, **kwargs):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(cli, "sweep", fail)
    path = tmp_path / "huge.cfg"
    key = config_line.partition(" =")[0]
    path.write_text("".join(line + "\n" for line in TINY_CONFIG.splitlines()
                            if not key or not line.startswith(key)) + config_line)
    command = "sweep-elements" if flags else "sweep-power"
    rc = main([command, *flags, "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{keys}: a dense stack of " in err and "exceeds the budget" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("make", [lambda path: None, lambda path: path.mkdir()],
                         ids=["missing", "directory"])
def test_unreadable_config_is_an_error(tmp_path, make, capsys):
    path = tmp_path / "scenario.cfg"
    make(path)
    rc = main(["sweep-power", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read --config {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_config_key_set_twice_is_an_error(tmp_path, capsys):
    path = tmp_path / "twice.cfg"
    path.write_text(TINY_CONFIG + "tx_power_dbm = 10\n# a comment\ntx_power_dbm = 20\n")
    rc = main(["sweep-power", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 10: 'tx_power_dbm' is already set on line 8" in err
    assert not (tmp_path / "out").exists()


def test_seed_and_pso_overrides(tmp_path, tiny_config_file):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = [
        "sweep-power",
        "--powers", "10",
        "--baselines", "movable_ris_joint",
        "--trials", "1",
        "--config", str(tiny_config_file),
        "--pso-particles", "4",
        "--pso-iters", "3",
    ]
    assert main(args + ["--seed", "1", "--out", str(out1)]) == 0
    assert main(args + ["--seed", "2", "--out", str(out2)]) == 0
    a = (out1 / "results.csv").read_text()
    b = (out2 / "results.csv").read_text()
    assert a != b  # different seeds change the numbers


def test_pso_seed_recorded_in_meta(tmp_path, tiny_config_file):
    args = [
        "sweep-power", "--powers", "10", "--baselines", "fd_relay", "--trials", "1",
        "--config", str(tiny_config_file),
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--pso-seed", "7", "--out", str(tmp_path / "b")]) == 0
    metas = [json.loads((tmp_path / name / "results_meta.json").read_text())
             for name in ("a", "b")]
    assert [r["pso_seed"] for r in metas[0]["results"]] == [None]
    assert [r["pso_seed"] for r in metas[1]["results"]] == [7]


def test_pso_seed_folds_into_the_digest(tmp_path, tiny_config_file):
    args = [
        "sweep-power", "--powers", "10", "--baselines", "fd_relay", "--trials", "1",
        "--config", str(tiny_config_file),
    ]
    digests = {}
    for name, extra in (("unset", []), ("7", ["--pso-seed", "7"]), ("8", ["--pso-seed", "8"])):
        out = tmp_path / name
        assert main(args + extra + ["--out", str(out)]) == 0
        row = next(csv.DictReader((out / "results.csv").read_text().splitlines()))
        meta = json.loads((out / "results_meta.json").read_text())
        digests[name] = (row["config_digest"], meta["config_digest"])
    # two search streams are told apart, in the CSV and in the sidecar
    assert digests["7"][0] != digests["8"][0] and digests["7"][1] != digests["8"][1]
    assert digests["7"][0] != digests["unset"][0]
    # without --pso-seed the sidecar digest is that of the configuration alone
    config, geometry = parse_config(TINY_CONFIG, default_config())
    assert digests["unset"][1] == config_digest(replace(config, monte_carlo_trials=1), geometry)


@pytest.mark.parametrize("command", [
    ["sweep-elements", "--elements", "4", "--baselines", "fixed_ris_random_phase"],
    ["ue-scenarios", "--ue-positions", "60,90,2", "--baselines", "fixed_ris_random_phase"],
    ["single-run", "--baseline", "fixed_ris_random_phase"],
])
def test_power_dbm_overrides_the_config_only_when_given(tmp_path, command):
    path = tmp_path / "power.cfg"
    path.write_text(TINY_CONFIG + "tx_power_dbm = 10.0\n")
    args = command + ["--trials", "1", "--config", str(path)]
    powers = {}
    for name, extra in (("config", []), ("flag", ["--power-dbm", "20"])):
        out = tmp_path / name
        assert main(args + extra + ["--out", str(out)]) == 0
        meta = json.loads((out / "results_meta.json").read_text())
        powers[name] = (meta["config"]["tx_power_dbm"], meta["results"][0]["swept_value"])
    if command[0] == "single-run":  # its one point is the power
        assert powers == {"config": (10.0, "10.0"), "flag": (20.0, "20.0")}
    else:
        assert [power for power, _ in powers.values()] == [10.0, 20.0]


def test_cli_byte_identical_repeat(tmp_path, tiny_config_file):
    # determinism across separate processes (same interpreter, same seed)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = subprocess.run(
            [
                sys.executable, "-m", "movable_ris",
                "sweep-power", "--powers", "0,10",
                "--baselines", "fixed_ris_random_phase,movable_ris_joint",
                "--trials", "2",
                "--config", str(tiny_config_file),
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert rc.returncode == 0, rc.stderr
        outs.append((out / "results.csv").read_bytes())
    assert outs[0] == outs[1]


# results.csv of the criterion-7 invocation (tests/test_acceptance.py), recorded
# before the swarm objectives were batched; batching must not move a bit of it.
CRITERION_7_CSV_SHA256 = "ea3bb3bbe54fb9bfc71f0b496ff277b9181c566956922684a02ff2e2f5fc3f28"


def test_criterion_7_invocation_golden_bytes(tmp_path):
    cfg = tmp_path / "acceptance.cfg"
    cfg.write_text(
        "tx_antennas = 4 4\nrx_antennas = 4 4\nris_elements = 2 2\n"
        "pso_swarm_size = 6\npso_iterations = 8\n"
    )
    out = tmp_path / "out"
    rc = main([
        "sweep-power", "--powers", "10,30",
        "--baselines", "movable_ris_joint,fd_relay,hd_relay",
        "--trials", "3", "--seed", "12345",
        "--config", str(cfg), "--out", str(out),
    ])
    assert rc == 0
    digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    assert digest == CRITERION_7_CSV_SHA256


# results.csv of a default-scale element sweep over the kinds the criterion-7
# run leaves out: the phase-only search, the position-only search and the
# unsearched fixed RIS.
ELEMENT_SWEEP_CSV_SHA256 = "23ce8395e46b30d83f120ae1b04c89f527030a188d5c653611cf45ed6451cc6e"


def test_default_scale_element_sweep_golden_bytes(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "sweep-elements", "--elements", "16,100", "--trials", "2",
        "--baselines", "fixed_ris_opt_phase,movable_ris_random_phase,fixed_ris_random_phase",
        "--out", str(out),
    ])
    assert rc == 0
    digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    assert digest == ELEMENT_SWEEP_CSV_SHA256


def test_oracle_check_passes(tmp_path, capsys):
    # 25 seeds keeps this quick; the acceptance suite runs the full 50
    rc = main(["oracle-check", "--seeds", "25"])
    out = capsys.readouterr().out
    assert "oracle-check:" in out
    assert rc == 0, out


@pytest.mark.parametrize("flag", ["--seeds", "--position-steps", "--phase-steps"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_oracle_check_rejects_counts_below_one(flag, value, capsys):
    rc = main(["oracle-check", flag, value])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and flag in err


def test_oracle_check_rejects_an_oversized_grid(capsys):
    # 40**2 positions x 100**2 phase pairs is 1.6e7 points, over MAX_ORACLE_POINTS
    rc = main(["oracle-check", "--position-steps", "40", "--phase-steps", "100"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: grid too large: 16000000 points exceeds 10000000\n"
    assert captured.out == ""


@pytest.mark.parametrize("ratio", ["nan", "inf", "0", "-0.5"])
def test_oracle_check_rejects_a_meaningless_ratio(ratio, capsys):
    rc = main(["oracle-check", "--ratio", ratio])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "--ratio" in err


def test_oracle_check_validates_the_config_it_runs(tmp_path, capsys):
    # the file is valid as given, but oracle-check's own two streams need two RF chains
    path = tmp_path / "one_chain.cfg"
    path.write_text("max_rf_chains = 1\nnum_streams = 1\n")
    rc = main(["oracle-check", "--seeds", "1", "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and "RF chains" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag, value", [
    ("--trials", "7"), ("--out", "X"), ("--baselines", "bogus"), ("--dump-channels", "X"),
    ("--pso-particles", "3"), ("--pso-iters", "2"),
])
def test_oracle_check_rejects_the_sweep_flags(flag, value, tmp_path, monkeypatch, capsys):
    # its tiny instance fixes its own trials and swarm, and it writes no files
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["oracle-check", "--seeds", "1", flag, value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in captured.err
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("kinds", ["fixed_ris_random_phase",
                                   "fixed_ris_random_phase,fixed_ris_opt_phase"])
def test_negative_pso_seed_is_an_error_before_any_work(tmp_path, kinds, capsys):
    out = tmp_path / "out"
    rc = main(["sweep-power", "--powers", "30", "--baselines", kinds, "--trials", "1",
               "--pso-seed", "-1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "--pso-seed" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["sweep-power", "--powers", "abc"], "--powers"),
    (["sweep-power", "--powers", ",,"], "--powers"),
    (["sweep-power", "--powers", ""], "--powers"),
    (["ue-scenarios", "--ue-positions", "60,90,x"], "--ue-positions"),
    (["sweep-elements", "--elements", "16.5"], "--elements"),
    (["sweep-elements", "--elements", "-4"], "element count -4 is not a perfect square"),
    (["ue-scenarios", "--ue-positions", "1,2"], "UE position needs 3 coordinates: '1,2'"),
])
def test_bad_swept_values_are_errors_before_any_work(tmp_path, argv, named, capsys):
    out = tmp_path / "out"
    rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and named in err
    assert not out.exists()
