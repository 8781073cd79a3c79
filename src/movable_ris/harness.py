"""Monte Carlo sweeps, result persistence, and plot-script emission.

A sweep point is (swept value, baseline kind); every kind at a given value
consumes identical channel trials. Results land in a CSV with a JSON
metadata sidecar carrying the full configuration and per-trial detail, plus
a standalone plotting script that reads only the CSV.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .baselines import BaselineKind, ScenarioPack, build_scenario_pack, run_baseline, trial_channels
from .channel import hop_ends, hops
from .scenario import (
    ConfigError,
    DeploymentGeometry,
    SystemConfig,
    config_digest,
    validate,
)

__all__ = [
    "SweepSpec",
    "RateResult",
    "monte_carlo_point",
    "sweep_points",
    "sweep",
    "write_results",
    "emit_plot_script",
    "CSV_HEADER",
]

logger = logging.getLogger(__name__)

CSV_HEADER = (
    "sweep_kind,swept_value,baseline,mean_rate_bpshz,stderr,trials,seed,"
    "config_digest,ris_x,ris_y"
)

SWEEP_KINDS = ("power", "elements", "ue_scenarios", "single")

DEFAULT_BASELINES = tuple(BaselineKind)

# The numerical failures a single trial may end in; any other exception is a
# bug and propagates. Bad input raises ConfigError in build_scenario_pack first.
TRIAL_FAILURES = (np.linalg.LinAlgError,)


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep, which baselines to include, and the trial budget."""

    kind: str
    values: tuple
    baselines: tuple[BaselineKind, ...] = DEFAULT_BASELINES
    trials: int = 50
    seed: int = 12345
    pso_seed: int | None = None

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if not self.values:
            raise ValueError("swept value list must be nonempty")
        if not self.baselines:
            raise ValueError("baseline list must be nonempty")
        for kind in self.baselines:
            if not isinstance(kind, BaselineKind):
                raise ValueError(f"baseline {kind!r} is not a BaselineKind")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0 or (self.pso_seed or 0) < 0:
            raise ValueError(f"seeds must be non-negative, got {self.seed} and {self.pso_seed}")


@dataclass
class RateResult:
    """Aggregated rates for one (swept value, baseline) point."""

    sweep_kind: str
    swept_value: str
    baseline: BaselineKind
    mean_rate: float
    stderr: float
    trials: int
    seed: int
    config_digest: str
    ris_x: float
    ris_y: float
    pso_seed: int | None = None  # None: the searches are keyed by ``seed``
    per_trial_rates: list[float] = field(default_factory=list)
    per_trial_positions: list[tuple[float, float]] = field(default_factory=list)
    failed_trials: list[int] = field(default_factory=list)
    flagged_trials: list[int] = field(default_factory=list)

    @property
    def point_flagged(self) -> bool:
        return len(self.failed_trials) > 0.1 * self.trials


def format_swept_value(kind: str, value) -> str:
    if kind == "ue_scenarios":
        return "/".join(repr(float(v)) for v in value)
    if kind == "elements":
        return str(int(value))
    return repr(float(value))


def apply_swept_value(
    config: SystemConfig, geometry: DeploymentGeometry, kind: str, value
) -> tuple[SystemConfig, DeploymentGeometry]:
    """Materialize one sweep point's configuration; bad values raise ConfigError.

    A value is taken as it stands or refused, never coerced: an element count must be an
    integer and no bool, a power a number, and a UE position three numbers.
    """
    if kind in ("power", "single"):
        return replace(config, tx_power_dbm=_number(value, "power")), geometry
    if kind == "elements":
        count = _number(value, "element count")
        if isinstance(value, (bool, np.bool_)) or not count.is_integer():
            raise ConfigError(f"element count {value!r} is not an integer")
        side = math.isqrt(max(int(count), 0))  # a negative count is no square either
        if side * side != count:
            raise ConfigError(f"element count {value!r} is not a perfect square")
        return replace(config, ris_elements=(side, side)), geometry
    if kind == "ue_scenarios":
        try:
            pos = tuple(float(v) for v in value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"ue position {value!r} is not three numbers") from exc
        if len(pos) != 3:
            raise ConfigError(f"ue position must have 3 coordinates, got {value!r}")
        return config, replace(geometry, ue_position=pos)
    raise ValueError(f"unknown sweep kind {kind!r}")


def _number(value, name: str) -> float:
    """``float(value)``, or ConfigError naming ``value`` where float rejects it."""
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} {value!r} is not a number") from exc


def sweep_points(
    spec: SweepSpec, config: SystemConfig, geometry: DeploymentGeometry
) -> list[tuple[object, SystemConfig, DeploymentGeometry]]:
    """Every swept value with its configuration and geometry, all validated first.

    Raises ConfigError on the first value that ``apply_swept_value`` or
    ``scenario.validate`` rejects, so a bad point costs no trial.
    """
    points = []
    for value in spec.values:
        point = apply_swept_value(config, geometry, spec.kind, value)
        if errors := validate(*point):
            raise ConfigError(f"invalid {spec.kind} value {value!r}: " + "; ".join(errors))
        points.append((value, *point))
    return points


def _dump_matrix(path: Path, matrix: np.ndarray) -> None:
    """Self-describing text matrix: header line, then row-major re/im pairs."""
    rows, cols = matrix.shape
    with path.open("w") as fh:
        fh.write(f"# complex matrix {rows} {cols}\n")
        for row in matrix.tolist():  # Python complex: each part's repr is a plain float
            fh.write(" ".join(f"{v.real!r} {v.imag!r}" for v in row) + "\n")


def monte_carlo_point(
    spec: SweepSpec,
    value,
    config: SystemConfig,
    geometry: DeploymentGeometry,
    kind: BaselineKind,
    packs: list[ScenarioPack],
    dump_root: Path | None,
) -> RateResult:
    """Average one baseline over the spec's trials at one swept value.

    ``config`` and ``geometry`` are the point's, as ``sweep_points`` gives them for ``value``,
    and ``packs`` is the sweep's pack store (``_point_pack``). Trial t consumes substreams keyed
    by (spec.seed, t). A trial fails when it raises one of TRIAL_FAILURES or its rate is not
    finite; failures are recorded, never silently dropped, and the point is flagged when more
    than 10% of trials fail. Any other exception propagates. With a ``dump_root`` each trial's
    hops go to ``<sweep kind>_<value>`` under it, the value formatted as in the RateResult with
    "/" turned into "_".
    """
    label = format_swept_value(spec.kind, value)
    dump_dir = (None if dump_root is None
                else Path(dump_root) / f"{spec.kind}_{label.replace('/', '_')}")
    pack = _point_pack(packs, config, geometry, spec.seed, spec.pso_seed)
    rates: list[float] = []
    positions: list[tuple[float, float]] = []
    failed: list[int] = []
    flagged: list[int] = []
    for t in range(spec.trials):
        try:
            outcome = run_baseline(kind, pack, t)
        except TRIAL_FAILURES:
            logger.exception("trial %d of %s failed", t, kind.value)
            failed.append(t)
            continue
        if not math.isfinite(outcome.rate):
            logger.warning("trial %d of %s gave rate %r", t, kind.value, outcome.rate)
            failed.append(t)
            continue
        rates.append(float(outcome.rate))
        positions.append((float(outcome.x), float(outcome.y)))
        if outcome.flagged:
            flagged.append(t)
        if dump_dir is not None:
            dump_dir.mkdir(parents=True, exist_ok=True)
            xy = np.array([[outcome.x, outcome.y]])
            both = hops(config, geometry, trial_channels(pack, t), xy,
                        hop_ends(config, kind.platform_shapes(config)))
            for link, (hop,) in zip(("tx_ris", "ris_rx"), both):
                _dump_matrix(dump_dir / f"{kind.value}_trial{t:03d}_{link}.txt", hop)

    arr = np.asarray(rates)
    mean = float(arr.mean()) if arr.size else math.nan
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    best = int(np.argmax(arr)) if arr.size else -1
    return RateResult(
        sweep_kind=spec.kind,
        swept_value=label,
        baseline=kind,
        mean_rate=mean,
        stderr=stderr,
        trials=spec.trials,
        seed=spec.seed,
        config_digest=config_digest(config, geometry, spec.pso_seed),
        ris_x=positions[best][0] if best >= 0 else math.nan,
        ris_y=positions[best][1] if best >= 0 else math.nan,
        pso_seed=spec.pso_seed,
        per_trial_rates=rates,
        per_trial_positions=positions,
        failed_trials=failed,
        flagged_trials=flagged,
    )


def _point_pack(packs: list[ScenarioPack], config: SystemConfig,
                geometry: DeploymentGeometry, seed: int, pso_seed: int | None) -> ScenarioPack:
    """The pack of one point, then the store ``packs``'s one entry: the kept pack if its value is
    the point's, so the kinds at one value share its fd_relay searches; if the two differ in
    ``tx_power_dbm`` alone, the kept pack at the point's power with its searches' traces, whose
    cores no more than its RF stages read the power; else, and for an empty store, a new pack."""
    pack = packs[0] if packs else None
    if pack is None or (pack.geometry, pack.seed, pack.pso_seed) != (geometry, seed, pso_seed) or (
            replace(pack.config, tx_power_dbm=config.tx_power_dbm) != config):
        pack = build_scenario_pack(config, geometry, seed, pso_seed)
    elif pack.config != config:
        pack = replace(pack, config=config)
        pack.search_traces.update(packs[0].search_traces)
    packs[:] = [pack]
    return pack


def sweep(
    spec: SweepSpec,
    config: SystemConfig,
    geometry: DeploymentGeometry,
    dump_dir: Path | None = None,
) -> list[RateResult]:
    """Cartesian product of swept values and baseline kinds, in spec order.

    All kinds at one value share the same seed-derived trials (common random
    numbers). A value ``sweep_points`` rejects raises ConfigError before any trial.
    The sweep's pack store keeps the current value's pack only. Each point takes
    its pack inside the point (``_point_pack``): a power step keeps the RF stages
    and search traces of the step before, any other step builds a pack. Each point
    names its own directory under ``dump_dir`` (``monte_carlo_point``).
    """
    packs: list[ScenarioPack] = []
    return [monte_carlo_point(spec, value, point_config, point_geometry, kind, packs, dump_dir)
            for value, point_config, point_geometry in sweep_points(spec, config, geometry)
            for kind in spec.baselines]


def write_results(
    results: list[RateResult],
    out_dir: Path,
    config: SystemConfig,
    geometry: DeploymentGeometry,
) -> tuple[Path, Path]:
    """Write results.csv plus a metadata sidecar; refuses an empty table.

    The sidecar's digest takes the ``pso_seed`` of the first result, which
    every result of one sweep shares.
    """
    if not results:
        raise ValueError("refusing to write an empty result table")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    lines = [CSV_HEADER]
    for r in results:
        lines.append(
            f"{r.sweep_kind},{r.swept_value},{r.baseline.value},{r.mean_rate!r},"
            f"{r.stderr!r},{r.trials},{r.seed},{r.config_digest},{r.ris_x!r},{r.ris_y!r}"
        )
    csv_path.write_text("\n".join(lines) + "\n")

    meta = {
        "config": {**asdict(config), **asdict(geometry)},
        "config_digest": config_digest(config, geometry, results[0].pso_seed),
        "conventions": {
            "mean_angles": "recomputed from geometry at every RIS position",
            "fixed_ris_position": "platform center",
            "path_loss_mode": config.path_loss_mode,
            "ris_height_m": geometry.ris_height_m,
        },
        "results": [
            {
                "sweep_kind": r.sweep_kind,
                "swept_value": r.swept_value,
                "baseline": r.baseline.value,
                "mean_rate_bpshz": r.mean_rate,
                "stderr": r.stderr,
                "trials": r.trials,
                "seed": r.seed,
                "pso_seed": r.pso_seed,
                "per_trial_rates": r.per_trial_rates,
                "per_trial_positions": [list(p) for p in r.per_trial_positions],
                "failed_trials": r.failed_trials,
                "flagged_trials": r.flagged_trials,
                "point_flagged": r.point_flagged,
            }
            for r in results
        ],
    }
    meta_path = out_dir / "results_meta.json"
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return csv_path, meta_path


_LINE_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
\"\"\"Plot {sweep_kind} sweep results from results.csv (same directory).\"\"\"
import csv
from collections import defaultdict
from pathlib import Path

import matplotlib.pyplot as plt

csv_path = Path(__file__).resolve().parent / 'results.csv'
series = defaultdict(list)
with csv_path.open() as fh:
    for row in csv.DictReader(fh):
        series[row["baseline"]].append(
            (float(row["swept_value"]), float(row["mean_rate_bpshz"]), float(row["stderr"]))
        )

fig, ax = plt.subplots(figsize=(7, 5))
for name, pts in series.items():
    pts.sort()
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    es = [p[2] for p in pts]
    ax.errorbar(xs, ys, yerr=es, marker="o", capsize=3, label=name)
ax.set_xlabel({x_label!r})
ax.set_ylabel("Achievable rate (bps/Hz)")
ax.grid(True, alpha=0.4)
ax.legend()
fig.tight_layout()
fig.savefig(csv_path.with_suffix(".png"), dpi=150)
print("wrote", csv_path.with_suffix(".png"))
"""

_UE_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
\"\"\"Grouped bars per UE position plus optimized-position scatter, from results.csv.\"\"\"
import csv
from collections import defaultdict
from pathlib import Path

import matplotlib.pyplot as plt

csv_path = Path(__file__).resolve().parent / 'results.csv'
rows = []
with csv_path.open() as fh:
    rows = list(csv.DictReader(fh))

positions = []
for row in rows:
    if row["swept_value"] not in positions:
        positions.append(row["swept_value"])
baselines = []
for row in rows:
    if row["baseline"] not in baselines:
        baselines.append(row["baseline"])

fig, (ax_bar, ax_map) = plt.subplots(1, 2, figsize=(12, 5))

width = 0.8 / max(len(baselines), 1)
for j, kind in enumerate(baselines):
    by_pos = {{row["swept_value"]: float(row["mean_rate_bpshz"])
               for row in rows if row["baseline"] == kind}}
    xs = [i + j * width for i in range(len(positions))]
    ax_bar.bar(xs, [by_pos.get(p, 0.0) for p in positions], width=width, label=kind)
ax_bar.set_xticks([i + 0.4 - width / 2 for i in range(len(positions))])
ax_bar.set_xticklabels(positions, rotation=20)
ax_bar.set_ylabel("Achievable rate (bps/Hz)")
ax_bar.set_xlabel("UE position (x/y/z)")
ax_bar.grid(True, axis="y", alpha=0.4)
ax_bar.legend()

platform_x = {platform_x}
platform_y = {platform_y}
ax_map.add_patch(plt.Rectangle(
    (platform_x[0], platform_y[0]),
    platform_x[1] - platform_x[0],
    platform_y[1] - platform_y[0],
    fill=False, linestyle="--", label="platform"))
markers = "osD^vP*X"
for j, kind in enumerate(baselines):
    xs = [float(row["ris_x"]) for row in rows if row["baseline"] == kind]
    ys = [float(row["ris_y"]) for row in rows if row["baseline"] == kind]
    ax_map.scatter(xs, ys, marker=markers[j % len(markers)], label=kind)
ax_map.set_xlabel("x (m)")
ax_map.set_ylabel("y (m)")
ax_map.set_title("Optimized platform positions")
ax_map.grid(True, alpha=0.4)
ax_map.legend(fontsize=8)

fig.tight_layout()
fig.savefig(csv_path.with_suffix(".png"), dpi=150)
print("wrote", csv_path.with_suffix(".png"))
"""


def emit_plot_script(
    results: list[RateResult],
    path: Path,
    geometry: DeploymentGeometry,
) -> Path:
    """Write a standalone matplotlib script next to the results.csv it reads.

    Refuses mixed sweep kinds; the script references the CSV only by
    relative path so the output directory can be moved wholesale.
    """
    if not results:
        raise ValueError("no results to plot")
    kinds = {r.sweep_kind for r in results}
    if len(kinds) != 1:
        raise ValueError(f"mixed sweep kinds {sorted(kinds)}; emit one script per sweep")
    sweep_kind = kinds.pop()
    if sweep_kind == "ue_scenarios":
        text = _UE_PLOT_TEMPLATE.format(
            platform_x=list(geometry.platform_x_range),
            platform_y=list(geometry.platform_y_range),
        )
    else:
        x_label = {
            "power": "Transmit power (dBm)",
            "elements": "RIS elements",
            "single": "Transmit power (dBm)",
        }[sweep_kind]
        text = _LINE_PLOT_TEMPLATE.format(sweep_kind=sweep_kind, x_label=x_label)
    path = Path(path)
    path.write_text(text)
    return path
