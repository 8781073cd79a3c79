"""Command-line entry point for the sweep experiments and checks."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .baselines import BaselineKind, build_scenario_pack, make_problem_context, run_baseline
from .harness import SweepSpec, emit_plot_script, sweep, sweep_points, write_results
from .optimizer import brute_force_joint, check_oracle_grid
from .scenario import (
    ConfigError,
    DeploymentGeometry,
    SystemConfig,
    default_config,
    parse_config,
    validate,
)

DEFAULT_POWERS = (0.0, 10.0, 20.0, 30.0, 40.0)
DEFAULT_ELEMENTS = (16, 36, 64, 100)
DEFAULT_UE_POSITIONS = ((60.0, 90.0, 2.0), (70.0, 85.0, 2.0), (85.0, 75.0, 2.0))
POWER_HELP = "P_T in dBm (default: the config's tx_power_dbm)"


def _add_scenario(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key/value config file overriding defaults")
    parser.add_argument("--seed", type=int, default=None, help="override rng_seed")
    parser.add_argument("--pso-seed", type=int, default=None,
                        help="re-key only the swarm search streams (channel trials keep --seed)")


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_scenario(parser)
    parser.add_argument("--trials", type=int, default=None, help="Monte Carlo trials per point")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--dump-channels", type=Path, default=None, metavar="DIR",
                        help="dump per-trial channel matrices under DIR")
    parser.add_argument("--pso-particles", type=int, default=None, help="swarm size override")
    parser.add_argument("--pso-iters", type=int, default=None, help="swarm iterations override")


def _add_sweep(parser: argparse.ArgumentParser) -> None:
    """The common flags and ``--baselines``, which ``single-run`` replaces by ``--baseline``."""
    _add_common(parser)
    parser.add_argument("--baselines", type=str, default=None,
                        help="comma-separated kinds (default: all six)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="movable-ris",
        description="Movable-RIS mmWave link simulator and baseline comparisons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep-power", help="achievable rate vs transmit power")
    p.add_argument("--powers", type=str, default=None,
                   help="comma-separated P_T values in dBm")
    _add_sweep(p)

    p = sub.add_parser("sweep-elements", help="achievable rate vs RIS element count")
    p.add_argument("--elements", type=str, default=None,
                   help="comma-separated element counts (perfect squares)")
    p.add_argument("--power-dbm", type=float, default=None, help=POWER_HELP)
    _add_sweep(p)

    p = sub.add_parser("ue-scenarios", help="compare schemes across UE positions")
    p.add_argument("--ue-positions", type=str, default=None,
                   help="semicolon-separated x,y,z triples")
    p.add_argument("--power-dbm", type=float, default=None, help=POWER_HELP)
    _add_sweep(p)

    p = sub.add_parser("single-run", help="one baseline at one operating point")
    p.add_argument("--baseline", type=str, default=BaselineKind.MOVABLE_RIS_JOINT.value)
    p.add_argument("--power-dbm", type=float, default=None, help=POWER_HELP)
    _add_common(p)

    p = sub.add_parser("oracle-check", help="swarm search vs exhaustive grid on a tiny instance")
    p.add_argument("--seeds", type=int, default=50, help="number of independent seeds")
    p.add_argument("--ratio", type=float, default=0.98,
                   help="required fraction of the oracle value")
    p.add_argument("--position-steps", type=int, default=4)
    p.add_argument("--phase-steps", type=int, default=8)
    _add_scenario(p)  # its tiny instance sets its own trials, swarm and outputs

    return parser


def _load_scenario(args) -> tuple[SystemConfig, DeploymentGeometry]:
    config, geometry = default_config()
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read --config {args.config}: {exc}") from None
        config, geometry = parse_config(text, (config, geometry))
    if args.seed is not None:
        config = replace(config, rng_seed=args.seed)
    if getattr(args, "trials", None) is not None:  # sweep flags: oracle-check sets its own
        config = replace(config, monte_carlo_trials=args.trials)
    pso = config.pso
    if getattr(args, "pso_particles", None) is not None:
        pso = replace(pso, swarm_size=args.pso_particles)
    if getattr(args, "pso_iters", None) is not None:
        pso = replace(pso, iterations=args.pso_iters)
    if pso is not config.pso:
        config = replace(config, pso=pso)
    if args.pso_seed is not None and args.pso_seed < 0:
        raise ConfigError(f"--pso-seed must be a non-negative integer, got {args.pso_seed}")
    if errors := validate(config, geometry):
        raise ConfigError("invalid configuration: " + "; ".join(errors))
    return config, geometry


def _baseline_kind(token: str) -> BaselineKind:
    token = token.strip()
    try:
        return BaselineKind(token)
    except ValueError:
        valid = ", ".join(k.value for k in BaselineKind)
        raise ConfigError(f"unknown baseline {token!r}; valid: {valid}") from None


def _parse_baselines(text: str | None) -> tuple[BaselineKind, ...]:
    if text is None:
        return tuple(BaselineKind)
    return tuple(_baseline_kind(token) for token in text.split(","))


def _swept_values(text: str, flag: str, parse, sep: str) -> tuple:
    """The nonempty ``sep``-separated items of a swept flag; a bad or empty list raises."""
    try:
        values = tuple(parse(tok) for tok in text.split(sep) if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None
    if not values:
        raise ConfigError(f"{flag}: no values in {text!r}")
    return values


def _parse_position(text: str) -> tuple[float, float, float]:
    coords = tuple(float(tok) for tok in text.split(","))
    if len(coords) != 3:
        raise ValueError(f"UE position needs 3 coordinates: {text.strip()!r}")
    return coords


def _run_sweep(args, kind: str, values: tuple | None, out_name: str) -> int:
    """Run and write one sweep; ``values`` None sweeps the configured power alone."""
    config, geometry = _load_scenario(args)
    power = getattr(args, "power_dbm", None)
    if power is not None:
        config = replace(config, tx_power_dbm=power)
    if values is None:
        values = (config.tx_power_dbm,)
    spec = SweepSpec(
        kind=kind,
        values=values,
        baselines=_parse_baselines(args.baselines),
        trials=config.monte_carlo_trials,
        seed=config.rng_seed,
        pso_seed=args.pso_seed,
    )
    # every value is checked, and its RF stages designed, before any directory exists
    for _, point_config, point_geometry in sweep_points(spec, config, geometry):
        build_scenario_pack(point_config, point_geometry, spec.seed, spec.pso_seed)
    out_dir = args.out if args.out is not None else Path("results") / out_name
    for flag, directory in (("--out", out_dir), ("--dump-channels", args.dump_channels)):
        if directory is None:
            continue
        try:  # before any trial runs, so a bad path costs no sweep
            Path(directory).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create {flag} directory {directory}: {exc}") from None
    results = sweep(spec, config, geometry, dump_dir=args.dump_channels)
    csv_path, meta_path = write_results(results, out_dir, config, geometry)
    script_path = emit_plot_script(results, Path(out_dir) / "plot_results.py", geometry)
    for r in results:
        flag = "  [FLAGGED]" if r.point_flagged else ""
        print(f"{r.swept_value:>24}  {r.baseline.value:<26} "
              f"{r.mean_rate:8.3f} +- {r.stderr:.3f} bps/Hz{flag}")
    print(f"wrote {csv_path}\nwrote {meta_path}\nwrote {script_path}")
    flagged = [f"{r.swept_value} {r.baseline.value}" for r in results if r.point_flagged]
    if flagged:
        print(f"flagged points (over 10% of trials failed): {'; '.join(flagged)}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_single_run(args) -> int:
    args.baselines = _baseline_kind(args.baseline).value  # single-run has no --baselines
    return _run_sweep(args, "single", None, "single-run")


def _cmd_oracle_check(args) -> int:
    for flag in ("seeds", "position_steps", "phase_steps"):
        value = getattr(args, flag)
        if value < 1:
            raise ConfigError(f"--{flag.replace('_', '-')} must be >= 1, got {value}")
    if not (math.isfinite(args.ratio) and args.ratio > 0.0):
        raise ConfigError(f"--ratio must be a finite positive fraction, got {args.ratio}")
    config, geometry = _load_scenario(args)
    config = replace(
        config,
        tx_antennas=(2, 2),
        rx_antennas=(2, 2),
        ris_elements=(1, 2),
        num_streams=2,
        pso=replace(config.pso, swarm_size=10, iterations=50),
    )
    check_oracle_grid(args.position_steps, args.phase_steps, config.num_ris)
    pack = build_scenario_pack(config, geometry, config.rng_seed, args.pso_seed)
    hits = 0
    worst = float("inf")
    for s in range(args.seeds):
        context = make_problem_context(pack, s)
        _, oracle_val = brute_force_joint(context, args.position_steps, args.phase_steps)
        pso_val = run_baseline(BaselineKind.MOVABLE_RIS_JOINT, pack, s).rate
        ratio = pso_val / oracle_val if oracle_val > 0 else 1.0
        worst = min(worst, ratio)
        if ratio >= args.ratio:
            hits += 1
    frac = hits / args.seeds
    print(f"swarm reached >= {args.ratio:.0%} of the grid oracle on "
          f"{hits}/{args.seeds} seeds ({frac:.0%}); worst ratio {worst:.4f}")
    ok = frac >= 0.9
    print("oracle-check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep-power":
            powers = (_swept_values(args.powers, "--powers", float, ",")
                      if args.powers is not None else DEFAULT_POWERS)
            return _run_sweep(args, "power", powers, "sweep-power")
        if args.command == "sweep-elements":
            elements = (_swept_values(args.elements, "--elements", int, ",")
                        if args.elements is not None else DEFAULT_ELEMENTS)
            return _run_sweep(args, "elements", elements, "sweep-elements")
        if args.command == "ue-scenarios":
            positions = (_swept_values(args.ue_positions, "--ue-positions", _parse_position, ";")
                         if args.ue_positions is not None
                         else DEFAULT_UE_POSITIONS)
            return _run_sweep(args, "ue_scenarios", positions, "ue-scenarios")
        if args.command == "single-run":
            return _cmd_single_run(args)
        if args.command == "oracle-check":
            return _cmd_oracle_check(args)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
