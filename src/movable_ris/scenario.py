"""Scenario configuration: system parameters, node geometry, seeding.

Everything downstream (channel draws, beam selection, swarm search, Monte
Carlo sweeps) is a pure function of one ``SystemConfig`` + ``DeploymentGeometry``
pair and a 64-bit seed. Config values are immutable after validation and safe
to share across workers.
"""

from __future__ import annotations

import hashlib
import math
import sys
import typing
from dataclasses import dataclass, field, fields, replace

import numpy as np

__all__ = [
    "ConfigError",
    "PsoParams",
    "SystemConfig",
    "DeploymentGeometry",
    "default_config",
    "noise_power",
    "dbm_to_watts",
    "path_amplitudes",
    "validate",
    "serialize_config",
    "parse_config",
    "config_digest",
    "rng_stream",
    "STREAM_CHANNEL",
    "STREAM_PSO",
    "STREAM_AUX",
]


class ConfigError(ValueError):
    """Raised for invalid configuration values or malformed config files."""


# Elements of the largest dense stack a run may build: 2**26 complex values are 1 GiB.
MAX_STACK_ELEMENTS = 2**26


@dataclass(frozen=True)
class PsoParams:
    """Swarm-search coefficients.

    ``social_weight`` scales attraction toward the global best and
    ``cognitive_weight`` toward the particle's personal best. The inertia
    factor decays linearly from ``inertia_start`` at the first iteration to
    ``inertia_end`` at the last. Velocities are clamped per dimension to
    ``velocity_clamp`` in unit-hypercube coordinates.
    """

    swarm_size: int = 10
    iterations: int = 30
    social_weight: float = 2.0
    cognitive_weight: float = 2.0
    inertia_start: float = 0.9
    inertia_end: float = 0.4
    velocity_clamp: float = 0.5


@dataclass(frozen=True)
class SystemConfig:
    """All link-level simulation parameters.

    Antenna counts are (along-x, along-y) URA sizes. ``path_loss_mode``
    selects the distance attenuation convention: ``"alpha"`` (default)
    applies the reference coefficient 32.4 + 20*log10(f_GHz) as a raw
    linear factor on tau^eta, which produces indoor-scale SNRs at the
    default geometry; ``"db"`` interprets the full close-in expression in
    decibels.
    """

    tx_antennas: tuple[int, int] = (8, 8)
    rx_antennas: tuple[int, int] = (8, 8)
    ris_elements: tuple[int, int] = (6, 6)
    carrier_frequency_ghz: float = 28.0
    bandwidth_hz: float = 10e6
    noise_psd_dbm_per_hz: float = -174.0
    tx_power_dbm: float = 30.0
    path_loss_exponent: float = 3.6
    num_paths: int = 10
    angular_spread_deg: tuple[float, float] = (10.0, 10.0)
    element_spacing_wavelengths: float = 0.5
    num_streams: int = 2
    max_rf_chains: int = 16
    path_loss_mode: str = "alpha"
    monte_carlo_trials: int = 50
    rng_seed: int = 12345
    pso: PsoParams = field(default_factory=PsoParams)

    @property
    def num_tx(self) -> int:
        return self.tx_antennas[0] * self.tx_antennas[1]

    @property
    def num_rx(self) -> int:
        return self.rx_antennas[0] * self.rx_antennas[1]

    @property
    def num_ris(self) -> int:
        return self.ris_elements[0] * self.ris_elements[1]

    @property
    def noise_power_watts(self) -> float:
        return noise_power(self.noise_psd_dbm_per_hz, self.bandwidth_hz)

    @property
    def tx_power_watts(self) -> float:
        return dbm_to_watts(self.tx_power_dbm)


@dataclass(frozen=True)
class DeploymentGeometry:
    """Node positions and the 2-D ceiling platform the RIS moves on."""

    tx_position: tuple[float, float, float] = (0.0, 0.0, 2.0)
    ue_position: tuple[float, float, float] = (100.0, 100.0, 2.0)
    platform_x_range: tuple[float, float] = (40.0, 70.0)
    platform_y_range: tuple[float, float] = (40.0, 70.0)
    ris_height_m: float = 5.0

    def platform_center(self) -> tuple[float, float]:
        return (
            0.5 * (self.platform_x_range[0] + self.platform_x_range[1]),
            0.5 * (self.platform_y_range[0] + self.platform_y_range[1]),
        )

    def contains(self, x: float, y: float) -> bool:
        return (
            self.platform_x_range[0] <= x <= self.platform_x_range[1]
            and self.platform_y_range[0] <= y <= self.platform_y_range[1]
        )


def default_config() -> tuple[SystemConfig, DeploymentGeometry]:
    """Baseline indoor scenario: 8x8 arrays at 28 GHz, 100 m room diagonal."""
    return SystemConfig(), DeploymentGeometry()


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def noise_power(noise_psd_dbm_per_hz: float, bandwidth_hz: float) -> float:
    """Thermal noise power in watts over the given bandwidth.

    Raises ConfigError for non-positive bandwidth.
    """
    if bandwidth_hz <= 0:
        raise ConfigError(f"bandwidth must be positive, got {bandwidth_hz}")
    return 10.0 ** ((noise_psd_dbm_per_hz + 10.0 * math.log10(bandwidth_hz) - 30.0) / 10.0)


def alpha_coefficient(carrier_ghz: float) -> float:
    """The close-in reference term 32.4 + 20*log10(f_GHz) of both path-loss modes."""
    return 32.4 + 20.0 * math.log10(carrier_ghz)


def wavelength_m(carrier_ghz: float) -> float:
    return 0.299792458 / carrier_ghz


def path_amplitudes(
    carrier_ghz: float, distances_m, exponent: float, mode: str = "alpha"
) -> list[float]:
    """Per-path amplitude attenuation factor of each distance under the chosen convention.

    "alpha": power attenuation = (32.4 + 20*log10(f_GHz)) * tau^eta with the
    reference term applied as a raw coefficient (default; calibrated to the
    indoor operating points the bundled experiments target).
    "db": power attenuation = 10^((32.4 + 20*log10(f_GHz) + 10*eta*log10(tau))/10),
    i.e. the full close-in expression interpreted in decibels. The
    reference term is taken once for all distances.
    """
    if mode not in ("alpha", "db"):
        raise ValueError(f"unknown path loss mode {mode!r}")
    alpha = alpha_coefficient(carrier_ghz)
    if mode == "alpha":
        return [1.0 / math.sqrt(alpha * d**exponent) for d in distances_m]
    return [1.0 / math.sqrt(10.0 ** ((alpha + 10.0 * exponent * math.log10(d)) / 10.0))
            for d in distances_m]


def validate(config: SystemConfig, geometry: DeploymentGeometry) -> list[str]:
    """Return one named error per violated invariant; empty list means ok.

    Never raises: callers decide whether a violation is fatal.
    """
    errors: list[str] = []

    for key, value, length in _config_items(config, geometry):
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if length else (value,))):
            errors.append(f"{key} must be finite, got {value!r}")

    for name in ("tx_antennas", "rx_antennas", "ris_elements"):
        if min(shape := getattr(config, name)) < 1:
            errors.append(f"{name}: counts must be >= 1, got {shape}")

    if config.num_streams < 1:
        errors.append("num_streams must be >= 1")
    if config.max_rf_chains < config.num_streams:
        errors.append(
            f"streams exceed RF chains ({config.num_streams} > {config.max_rf_chains})"
        )
    if config.num_streams > min(config.num_tx, config.num_rx):
        errors.append("streams exceed antennas per side")
    if config.bandwidth_hz <= 0:
        errors.append("bandwidth must be positive")
    if config.path_loss_exponent <= 0:
        errors.append("path loss exponent must be positive")
    if config.num_paths < 1:
        errors.append("num_paths must be >= 1")
    for spread in config.angular_spread_deg:
        if not (0.0 <= spread < 90.0) or math.copysign(1.0, spread) < 0.0:  # -0.0 too
            errors.append(f"angular spread must lie in [0, 90) degrees, got {spread}")
            break
    if config.element_spacing_wavelengths <= 0:
        errors.append("element spacing must be positive")
    if config.carrier_frequency_ghz <= 0:
        errors.append("carrier frequency must be positive")
    elif config.path_loss_mode == "alpha" and (
            coefficient := alpha_coefficient(config.carrier_frequency_ghz)) <= 0.0:
        errors.append(f"alpha path loss coefficient must be positive, got {coefficient:.4g} "
                      f"at carrier_frequency_ghz = {config.carrier_frequency_ghz}")
    if config.path_loss_mode not in ("alpha", "db"):
        errors.append(f"unknown path_loss_mode {config.path_loss_mode!r}")
    if config.monte_carlo_trials < 1:
        errors.append("monte_carlo_trials must be >= 1")
    if config.rng_seed < 0:
        errors.append("rng_seed must be a non-negative 64-bit integer")

    pso = config.pso
    if pso.swarm_size < 1:
        errors.append("pso swarm_size must be >= 1")
    if pso.iterations < 0:
        errors.append("pso iterations must be >= 0")
    if pso.social_weight <= 0 or pso.cognitive_weight <= 0:
        errors.append("pso weights must be positive")
    if not (0.0 < pso.velocity_clamp <= 1.0):
        errors.append("pso velocity_clamp must lie in (0, 1]")

    ranges = (geometry.platform_x_range, geometry.platform_y_range)
    for name, (lo, hi) in zip(("platform_x_range", "platform_y_range"), ranges):
        if lo >= hi:
            errors.append(f"empty range: {name} {(lo, hi)}")
    if geometry.ris_height_m <= 0:
        errors.append("ris_height_m must be positive")
    if tuple(geometry.tx_position) == tuple(geometry.ue_position):
        errors.append("tx and ue positions coincide")
    # the RIS array faces down: a node at or above its plane is behind it
    for name, position in (("tx_position", geometry.tx_position),
                           ("ue_position", geometry.ue_position)):
        if position[2] >= geometry.ris_height_m:
            errors.append(f"{name} z = {position[2]!r} must lie below the RIS plane "
                          f"(ris_height_m = {geometry.ris_height_m!r})")

    if not errors:  # every count is positive: the dense stacks a run builds must fit the budget
        arrays = {"tx_antennas": config.num_tx, "rx_antennas": config.num_rx,
                  "ris_elements": config.num_ris}
        largest = max(arrays, key=arrays.get)
        stacks = [(key, arrays[key]) for key in ("tx_antennas", "rx_antennas")]  # beam grids
        stacks += [(f"{a} x {b}", arrays[a] * arrays[b])  # the composite, H_TI and H_IR
                   for a, b in (("rx_antennas", "tx_antennas"), ("ris_elements", "tx_antennas"),
                                ("rx_antennas", "ris_elements"))]
        stacks.append((f"pso_swarm_size x num_paths x {largest}",  # a swarm's hop factors
                       pso.swarm_size * config.num_paths * arrays[largest]))
        errors += [f"{keys}: a dense stack of {size} elements exceeds the budget of "
                   f"{MAX_STACK_ELEMENTS}" for keys, size in stacks if size > MAX_STACK_ELEMENTS]

    if not errors:  # then the link budget must stay within the float range too
        try:
            config.tx_power_watts  # raises if it overflows, as the noise power does
            if (noise := config.noise_power_watts) < sys.float_info.min:  # subnormal or 0
                errors.append(f"noise power {noise!r} W underflows the float range; check "
                              "noise_psd_dbm_per_hz and bandwidth_hz")
            for node in (geometry.tx_position, geometry.ue_position):
                rise = geometry.ris_height_m - node[2]  # no hop from this node is shorter
                far = math.hypot(*(max(abs(lo - c), abs(hi - c))
                                   for c, (lo, hi) in zip(node, ranges)), rise)
                if far >= 2.0 ** 511:  # ``channel._path_geometry`` squares a hop's length
                    raise OverflowError(f"a node {far:.4g} m from the platform: its square")
                path_amplitudes(config.carrier_frequency_ghz, (rise, far),
                                config.path_loss_exponent, config.path_loss_mode)
        except (OverflowError, ZeroDivisionError) as exc:
            errors.append(f"link budget leaves the float range ({exc}); check the powers, "
                          "path_loss_exponent and node distances")

    # a move by delta turns a path by 2 pi (delta . u) / lambda, |delta . u| <= the corners' reach
    turn = math.tau * math.hypot(*((hi - lo) / 2.0 for lo, hi in ranges))  # 2 pi x the reach
    if not errors and (phase := turn / wavelength_m(config.carrier_frequency_ghz)) > 2**52:
        errors.append(f"carrier_frequency_ghz = {config.carrier_frequency_ghz!r} turns a path's "
                      f"phase by up to {phase:.4g} rad across the platform; past 2**52 rad, "
                      "float64 cannot resolve a radian")

    return errors


# --- flat key/value config file -------------------------------------------


def _config_keys() -> dict[str, tuple[type, str, type, int]]:
    """Config-file key -> (dataclass, field, element cast, tuple length; 0 for a scalar).

    One pass per dataclass: SystemConfig, PsoParams (keys prefixed ``pso_``),
    DeploymentGeometry, each taking its tuple fields and then its scalars in
    field order. Casts come from the field annotations. This is the line
    order of ``serialize_config``, so it is what ``config_digest`` hashes.
    """
    keys: dict = {}
    for cls, prefix in ((SystemConfig, ""), (PsoParams, "pso_"), (DeploymentGeometry, "")):
        hints = typing.get_type_hints(cls)
        entries = []
        for f in fields(cls):
            hint = hints[f.name]
            if hint is PsoParams:
                continue  # its fields have their own pass
            args = typing.get_args(hint)  # (int, int) for tuple[int, int], () for a scalar
            entries.append((prefix + f.name, (cls, f.name, args[0] if args else hint, len(args))))
        keys.update(sorted(entries, key=lambda entry: entry[1][3] == 0))  # stable: tuples first
    return keys


_CONFIG_KEYS = _config_keys()


def _config_items(config: SystemConfig, geometry: DeploymentGeometry) -> list[tuple]:
    """(key, value, tuple length) of every config-file key, in file order."""
    owners = {SystemConfig: config, PsoParams: config.pso, DeploymentGeometry: geometry}
    return [(key, getattr(owners[cls], name), length)
            for key, (cls, name, _, length) in _CONFIG_KEYS.items()]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: SystemConfig, geometry: DeploymentGeometry) -> str:
    """Flat ``key = value`` text; floats use repr so parsing round-trips bit-identically."""
    return "".join(f"{key} = {' '.join(map(_fmt, value if length else (value,)))}\n"
                   for key, value, length in _config_items(config, geometry))


def parse_config(
    text: str,
    base: tuple[SystemConfig, DeploymentGeometry] | None = None,
) -> tuple[SystemConfig, DeploymentGeometry]:
    """Parse flat key/value text, overriding ``base`` (defaults if omitted).

    Lines are ``name = value`` with ``#`` comments; unknown or repeated keys raise.
    """
    config, geometry = base if base is not None else default_config()
    updates: dict[type, dict] = {SystemConfig: {}, PsoParams: {}, DeploymentGeometry: {}}
    first_line: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'name = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if (first := first_line.setdefault(key, lineno)) != lineno:
            raise ConfigError(f"line {lineno}: {key!r} is already set on line {first}")
        cls, name, cast, length = _CONFIG_KEYS[key]
        tokens = value.split()
        try:
            if len(tokens) != max(length, 1):
                raise ValueError(f"{len(tokens)} tokens")
            parsed = tuple(map(cast, tokens))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value.strip()!r}") from exc
        updates[cls][name] = parsed if length else parsed[0]

    pso = replace(config.pso, **updates[PsoParams])
    return (replace(config, pso=pso, **updates[SystemConfig]),
            replace(geometry, **updates[DeploymentGeometry]))


def config_digest(
    config: SystemConfig, geometry: DeploymentGeometry, pso_seed: int | None = None
) -> str:
    """Stable 16-hex-char digest; changes iff any config/geometry field changes.

    A set ``pso_seed`` is folded in as one more ``key = value`` line, so runs
    with different search streams are told apart; unset, the digest is that
    of the configuration alone.
    """
    text = serialize_config(config, geometry)
    if pso_seed is not None:
        text += f"pso_seed = {pso_seed}\n"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- deterministic substreams ----------------------------------------------

STREAM_CHANNEL = 0
STREAM_PSO = 1
STREAM_AUX = 2


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Counter-based substream keyed by (seed, *path).

    The same key always yields the same stream, and distinct keys yield
    statistically independent streams, so trials and roles (channel draw,
    swarm search, auxiliary noise) can be split without coordination.
    """
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *path))))

