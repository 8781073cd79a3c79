"""Joint RIS placement / phase-shift search by particle swarm.

Particles live in the unit hypercube [0,1]^(M_I+2): the first two entries map
affinely onto the platform rectangle, the rest scale to phases in [0, 2pi).
Baselines search part of this space (phases at a fixed position, or the
position alone) through the same routine with a decoder of their own.
The swarm follows the usual velocity recursion with the social term pulling
toward the global best and the cognitive term toward each particle's personal
best; both bests are strict argmaxes over history, so the global-best value
sequence never decreases. Objectives score a whole swarm at once: they take
the (Z, D) positions of one iteration and return (Z,) values. A
grid-exhaustive oracle covers tiny instances for verification.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .beamforming import hybrid_link_rate
# Not called here; sweepbench/tracer.py wraps these names in this namespace.
from .beamforming import achievable_rate, bb_stages, effective_channel  # noqa: F401
from .channel import HopEnds, TrialChannels, composite_channel, hops, realize_channels
from .scenario import ConfigError, DeploymentGeometry, PsoParams, SystemConfig

__all__ = [
    "RisState",
    "ProblemContext",
    "SwarmState",
    "decode",
    "decode_xy",
    "decode_on_platform",
    "init_swarm",
    "pso_step",
    "run_pso",
    "run",
    "check_oracle_grid",
    "brute_force_joint",
]

TWO_PI = 2.0 * math.pi

# Grid-point budget above which brute_force_joint refuses to run.
MAX_ORACLE_POINTS = 10**7

# Phase-grid rows brute_force_joint scores per rate_for call.
_ORACLE_CHUNK = 1024


@dataclass(frozen=True)
class RisState:
    """Decoded platform position and per-element phase shifts.

    A batch of states has (Z,) positions and/or (Z, M_I) phases; a scalar
    position or a 1-D phase vector is shared by the whole batch. A decoder
    that builds a batch's (Z, 2) platform points passes them as ``points``.
    """

    x: float | np.ndarray
    y: float | np.ndarray
    phases: np.ndarray  # values in [0, 2*pi)
    points: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def xy(self) -> np.ndarray:
        """(Z, 2) platform points, one position as a batch of one."""
        if self.points is not None:
            return self.points
        return np.stack(np.broadcast_arrays(self.x, self.y), axis=-1).reshape(-1, 2)


def decode_xy(px, py, geometry: DeploymentGeometry):
    """Platform coordinates of unit-square coordinates, element-wise for arrays."""
    x0, x1 = geometry.platform_x_range
    y0, y1 = geometry.platform_y_range
    x = x0 + np.asarray(px, dtype=float) * (x1 - x0)
    y = y0 + np.asarray(py, dtype=float) * (y1 - y0)
    if x.ndim == 0:
        return float(x), float(y)  # plain floats: positions end up in CSV fields via repr
    return x, y


def decode_on_platform(v: np.ndarray, geometry: DeploymentGeometry, phases) -> RisState:
    """The state at the unit-square points v[..., :2], one (D,) or a (Z, D) batch, with ``phases``.

    One point gets ``decode_xy``'s floats, a batch its values as one (Z, 2) ``RisState.points``.
    """
    if v.ndim == 1:
        return RisState(*decode_xy(v[0], v[1], geometry), phases)
    lo, hi = np.array((geometry.platform_x_range, geometry.platform_y_range)).T
    points = lo + v[:, :2] * (hi - lo)
    return RisState(points[:, 0], points[:, 1], phases, points)


def decode(vector: np.ndarray, geometry: DeploymentGeometry) -> RisState:
    """Map a unit-hypercube point, or a (Z, D) batch of them, onto the feasible set.

    Positions land in the platform box and phases in [0, 2pi) by
    construction; the single wrap 2pi -> 0 is the only non-injective point.
    """
    v = np.asarray(vector, dtype=float)
    return decode_on_platform(v, geometry, (TWO_PI * v[..., 2:]) % TWO_PI)


@dataclass
class ProblemContext:
    """Everything a fitness evaluation needs, with frozen trial randomness.

    The RF stages are fixed for the whole search; only mean geometry (and
    hence the hop matrices) and the phase diagonal change between calls, so
    the objective is deterministic and the swarm's argmax semantics are well
    defined. The hop matrices of the last position asked for, and their
    reductions against the RF stages, are cached, which makes phase-only
    searches cheap.
    """

    config: SystemConfig
    geometry: DeploymentGeometry
    f1: np.ndarray
    f2: np.ndarray
    trial: TrialChannels
    ends: HopEnds  # ScenarioPack.search_ends["ris"]: the Tx and UE ends on F1's and F2's beams
    saw_rank_deficiency: bool = False
    _cache_key: tuple[float, float] | None = field(default=None, repr=False)
    _cache: tuple[np.ndarray, ...] | None = field(default=None, repr=False)

    def hop_matrices(self, x: float, y: float) -> tuple[np.ndarray, ...]:
        """H_TI, H_IR and their reductions F2 H_IR, H_TI F1 at one position."""
        key = (float(x), float(y))
        if self._cache_key != key:
            real = realize_channels(self.config, self.geometry, self.trial, key)
            self._cache_key = key
            self._cache = (real.h_tx_ris, real.h_ris_rx,
                           self.f2 @ real.h_ris_rx, real.h_tx_ris @ self.f1)
        return self._cache

    def _rates(self, h, reduced: bool) -> np.ndarray:
        config = self.config
        rates, deficient = hybrid_link_rate(self.f2, h, self.f1, config.tx_power_watts,
                                            config.num_streams, config.noise_power_watts, reduced)
        self.saw_rank_deficiency |= bool(deficient.any())
        return rates

    def rate_for(self, state: RisState) -> float | np.ndarray:
        """Reference rate (bps/Hz) at one position: a float for one phase vector, (Z,) for (Z, M_I).

        The composites H_IR diag(e^{j phi}) H_TI are formed as one stack from
        the cached hop matrices and reduced by the rate pipeline. Reported
        rates and the grid oracle come from here.
        """
        h_ti, h_ir, _, _ = self.hop_matrices(state.x, state.y)
        phases = np.asarray(state.phases, dtype=float)
        h = composite_channel(h_ir, phases.reshape(-1, self.config.num_ris), h_ti)
        rates = self._rates(h, reduced=False)
        return rates if phases.ndim > 1 else float(rates[0])

    def search_rates(self, state: RisState) -> np.ndarray:
        """Search objective: ``rate_for`` up to rounding, for (Z,) positions and/or (Z, M_I) phases.

        No hop or composite matrix is formed. At one position the cached
        A = F2 H_IR and C = H_TI F1 give (A diag(e^{j phi})) C; per-particle
        positions take C and A as the ``hops`` whose Tx and UE ends are
        projected onto F1's and F2's beams one array axis at a time.
        """
        if isinstance(state.x, np.ndarray) or isinstance(state.y, np.ndarray):
            c, a = hops(self.config, self.geometry, self.trial, state.xy, self.ends)
        else:
            _, _, a, c = self.hop_matrices(state.x, state.y)
        e = np.exp(1j * np.asarray(state.phases, dtype=float))
        return self._rates((a * e[..., None, :]) @ c, reduced=True)


@dataclass
class SwarmState:
    positions: np.ndarray       # (Z, D)
    velocities: np.ndarray      # (Z, D)
    best_positions: np.ndarray  # (Z, D)
    best_values: np.ndarray     # (Z,)
    global_best_position: np.ndarray
    global_best_value: float
    history: list[float]        # global best after init and each iteration


def _evaluate(fitness_fn, positions: np.ndarray) -> np.ndarray:
    """One objective call on the (Z, D) swarm; checks that it gave (Z,) values."""
    values = np.array(fitness_fn(positions), dtype=float)
    if values.shape != positions.shape[:1]:
        raise ValueError(
            f"objective gave shape {values.shape} for {positions.shape[0]} particles"
        )
    return values


def init_swarm(
    fitness_fn, dim: int, params: PsoParams, rng: np.random.Generator
) -> SwarmState:
    """Uniform positions, zero velocities, bests from the initial evaluation.

    ``fitness_fn`` maps the (Z, D) positions to (Z,) values.
    """
    z = params.swarm_size
    positions = rng.random((z, dim))
    velocities = np.zeros((z, dim))
    values = _evaluate(fitness_fn, positions)
    g = _first_max(values)  # lowest particle index wins ties; a NaN is never picked
    return SwarmState(
        positions=positions,
        velocities=velocities,
        best_positions=positions.copy(),
        best_values=values.copy(),
        global_best_position=positions[g].copy(),
        global_best_value=float(values[g]),
        history=[float(values[g])],
    )


def _inertia(params: PsoParams, t: int) -> float:
    if params.iterations <= 1:
        return params.inertia_start
    frac = (t - 1) / (params.iterations - 1)
    return params.inertia_start + (params.inertia_end - params.inertia_start) * frac


def _first_max(values: np.ndarray) -> int:
    """Index of the first maximum among non-NaN values, as a strict-> scan in index order finds.

    Plain ``np.argmax`` would return the first NaN.
    """
    return int(np.where(np.isnan(values), -np.inf, values).argmax())


def _beats(new, best):
    """Strict improvement, element-wise or of two floats; any non-NaN value beats a NaN best."""
    return (new > best) | ((best != best) & (new == new))  # x != x: x is NaN


def pso_step(
    state: SwarmState,
    params: PsoParams,
    t: int,
    rng: np.random.Generator,
    fitness_fn,
) -> SwarmState:
    """One swarm iteration; mutates and returns ``state``.

    Velocity: mu1*Y1*(gbest - p) + mu2*Y2*(pbest - p) + inertia(t)*v with
    fresh per-dimension uniforms Y1 then Y2, clamped to +-velocity_clamp.
    Positions are clamped to [0,1] and the velocity of any clamped dimension
    is zeroed. Bests update only on strict improvement, which keeps the
    earliest iteration and lowest particle index on ties; a NaN value never
    becomes a best, and a best that is NaN (from a NaN initial value) gives
    way to the first non-NaN value.
    """
    z, dim = state.positions.shape
    y1 = rng.random((z, dim))
    y2 = rng.random((z, dim))
    # (mu1 Y1)(gbest - p) + (mu2 Y2)(pbest - p) + inertia v, rounded term by term in that order
    y1 *= params.social_weight
    y2 *= params.cognitive_weight
    vel = np.subtract(state.global_best_position, state.positions)
    vel *= y1
    term = np.subtract(state.best_positions, state.positions)
    term *= y2
    vel += term
    vel += np.multiply(state.velocities, _inertia(params, t), out=term)
    np.minimum(np.maximum(vel, -params.velocity_clamp, out=vel), params.velocity_clamp, out=vel)
    pos = state.positions + vel
    out_of_box = (pos < 0.0) | (pos > 1.0)
    vel[out_of_box] = 0.0
    np.minimum(np.maximum(pos, 0.0, out=pos), 1.0, out=pos)
    state.positions = pos
    state.velocities = vel

    values = _evaluate(fitness_fn, pos)
    improved = _beats(values, state.best_values)
    np.copyto(state.best_values, values, where=improved)
    np.copyto(state.best_positions, pos, where=improved[:, None])
    i = _first_max(state.best_values)
    if _beats(best := float(state.best_values[i]), state.global_best_value):
        state.global_best_value = best
        state.global_best_position = state.best_positions[i].copy()
    state.history.append(state.global_best_value)
    return state


def run_pso(
    fitness_fn, dim: int, params: PsoParams, rng: np.random.Generator
) -> tuple[np.ndarray, float, list[float]]:
    """Full search: returns (best vector, best value, history of length T+1).

    ``fitness_fn`` is called once per iteration on the (Z, D) positions and
    returns their (Z,) values.
    """
    state = init_swarm(fitness_fn, dim, params, rng)
    for t in range(1, params.iterations + 1):
        pso_step(state, params, t, rng, fitness_fn)
    return state.global_best_position, state.global_best_value, state.history


def run(
    context: ProblemContext,
    params: PsoParams,
    rng: np.random.Generator,
    space: tuple[int, Callable[[np.ndarray], RisState]] | None = None,
) -> tuple[RisState, float, list[float]]:
    """Swarm search over one kind's ``space``: its dimension and its decoder to a ``RisState``.

    The default space is the joint position/phase search over M_I + 2
    dimensions with ``decode``. The swarm climbs ``context.search_rates`` of
    the decoded (Z, D) batches; the rate returned is ``context.rate_for`` of
    the decoded best vector. The relay passes a context of its own with
    that search surface.
    """
    dim, decoder = space or (context.config.num_ris + 2, lambda v: decode(v, context.geometry))
    best_vec, _, history = run_pso(lambda v: context.search_rates(decoder(v)), dim, params, rng)
    state = decoder(best_vec)
    return state, context.rate_for(state), history


def check_oracle_grid(position_steps: int, phase_steps: int, num_phases: int) -> None:
    """Raise ConfigError unless ``brute_force_joint``'s grid has steps >= 1 and fits its budget."""
    if position_steps < 1 or phase_steps < 1:
        raise ConfigError(f"grid steps must be >= 1, got {position_steps} and {phase_steps}")
    total = position_steps**2 * phase_steps**num_phases
    if total > MAX_ORACLE_POINTS:
        raise ConfigError(f"grid too large: {total} points exceeds {MAX_ORACLE_POINTS}")


def brute_force_joint(
    context: ProblemContext, position_steps: int, phase_steps: int
) -> tuple[RisState, float]:
    """Exhaustive grid maximum over positions x phases (small instances only).

    Positions use ``position_steps`` points per axis spanning [0,1]
    inclusive (the platform midpoint when position_steps == 1); phases use
    ``phase_steps`` points k/phase_steps covering [0, 2pi) without the
    duplicate endpoint. ``check_oracle_grid`` refuses steps below 1 and
    grids above MAX_ORACLE_POINTS. Points are visited in ``itertools.product`` order
    and the first maximum wins; a NaN value is never picked. Each position
    scores its phase grid in chunks through one set of cached hop matrices.
    """
    num_phases = context.config.num_ris
    check_oracle_grid(position_steps, phase_steps, num_phases)
    pos_grid = np.linspace(0.0, 1.0, position_steps) if position_steps > 1 else np.array([0.5])
    phase_grid = np.arange(phase_steps) / phase_steps

    best_vec = None
    best_val = -math.inf
    for px, py in itertools.product(pos_grid, pos_grid):
        x, y = decode_xy(px, py, context.geometry)
        rows = itertools.product(phase_grid, repeat=num_phases)
        while chunk := list(itertools.islice(rows, _ORACLE_CHUNK)):
            grid = np.array(chunk)
            values = context.rate_for(RisState(x, y, (TWO_PI * grid) % TWO_PI))
            i = _first_max(values)
            if values[i] > best_val:
                best_val = float(values[i])
                best_vec = np.concatenate(([px, py], grid[i]))
    return decode(best_vec, context.geometry), best_val
