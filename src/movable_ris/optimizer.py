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

from .beamforming import _closed_form_fits, _gram_core, _gram_tail, hybrid_link_rate
# Not called here; sweepbench/tracer.py wraps these names in this namespace.
from .beamforming import achievable_rate, bb_stages, effective_channel  # noqa: F401
from .channel import HopEnds, TrialChannels, composite_channel, hops, realize_channels
from .scenario import ConfigError, DeploymentGeometry, PsoParams, SystemConfig

__all__ = [
    "RisState",
    "ProblemContext",
    "SearchTrace",
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


def _wrap_phases(v: np.ndarray) -> np.ndarray:
    """``(TWO_PI * v) % TWO_PI`` bit for bit on [0, 1], where only 2pi wraps: no fmod per entry."""
    return np.where((phases := TWO_PI * v) >= TWO_PI, 0.0, phases)


def decode(vector: np.ndarray, geometry: DeploymentGeometry) -> RisState:
    """Map a unit-hypercube point, or a (Z, D) batch of them, onto the feasible set.

    Positions land in the platform box and phases in [0, 2pi) by
    construction; the single wrap 2pi -> 0 is the only non-injective point.
    """
    v = np.asarray(vector, dtype=float)
    return decode_on_platform(v, geometry, _wrap_phases(v[..., 2:]))


def _least(rates) -> np.ndarray:
    """The least of the links' (Z,) rates, row by row: ``np.where(r2 < r1, r2, r1)``, NaN kept."""
    least = rates[0]
    for i in range(1, len(rates)):  # indexed: iterating an array costs more than one rates[0]
        least = np.where(rates[i] < least, rates[i], least)
    return least


class _ClosedFormSearch:
    """A search over one or more links, each scored as the baseband stage scores it.

    A state's rate is the least of its links' rates: the RIS has one link, the relay two hops.
    ``_set_links`` sets ``_links``, each link's (F2, F1, Grams), and ``_budget``, the rate budget
    (P, N_s, sigma^2). ``_channels(state)`` gives each link's unreduced stack H and
    ``_reduced(state)`` a decoded batch's reduced stack F2 H F1 of each link. ``rate_for``, the
    reference, takes every H through the rate pipeline. ``search_rates``, the search objective,
    takes every reduced stack: where ``closed_form`` holds, as ``search_core`` and
    ``core_rates``, the budget-free ``_gram_core`` of every link and the rates at the budget,
    which a core kept from another budget serves as well (see ``SearchTrace``), the pipeline
    taking each row whose rate is not finite; otherwise through the pipeline alone.
    """

    def _set_links(self, config: SystemConfig, stages) -> None:
        """The budget of ``config`` and, for each (F2, F1) of ``stages``, the link (F2, F1,
        (F1^H F1, F2 F2^H)): the stages' Grams, formed once."""
        self._budget = (config.tx_power_watts, config.num_streams, config.noise_power_watts)
        self._links = tuple((f2, f1, (f1.conj().T @ f1, f2 @ f2.conj().T)) for f2, f1 in stages)

    @property
    def closed_form(self) -> bool:
        """Whether every link takes the closed form at this budget (``_closed_form_fits``)."""
        return all(_closed_form_fits((f2.shape[0], f1.shape[1]), *self._budget[1:])
                   for f2, f1, _ in self._links)

    def _pipeline_rates(self, stacks, reduced: bool) -> np.ndarray:
        """The least link rate of the links' ``stacks`` through the rate pipeline."""
        rates = []
        for (f2, f1, _), h in zip(self._links, stacks):
            link, deficient = hybrid_link_rate(f2, h, f1, *self._budget, reduced=reduced)
            self.saw_rank_deficiency |= bool(deficient.any())
            rates.append(link)
        return _least(rates)

    def rate_for(self, state: RisState) -> float | np.ndarray:
        """Reference rate (bps/Hz): a float for one state, (Z,) for a batch, of phase vectors at
        one position (the RIS) or of positions (the relay). Each link's unreduced stack goes
        through the rate pipeline; reported rates and the grid oracle come from here."""
        rates = self._pipeline_rates(self._channels(state), False)
        return float(rates[0]) if np.ndim(state.x) == 0 and np.ndim(state.phases) < 2 else rates

    def search_rates(self, state: RisState) -> np.ndarray:
        """Search objective: the reference rate up to rounding, for the decoded batch ``state``."""
        if self.closed_form:
            return self.core_rates(state, *self.search_core(state))
        return self._pipeline_rates(self._reduced(state), True)

    def search_core(self, state: RisState):
        """(core, h): the (6, links, Z) core with link i's ``_gram_core`` at ``core[:, i]``, of
        the batch's reduced stacks ``h``."""
        h = self._reduced(state)
        core = np.empty((6, len(h), *h[0].shape[:-2]))
        for i, ((_, _, grams), hi) in enumerate(zip(self._links, h)):
            _gram_core(hi, self._budget[1], grams, core[:, i])
        return core, h

    def core_rates(self, state: RisState, core, h=None) -> np.ndarray:
        """The rates of the batch ``state`` from its ``core``: the tail at the budget, then the
        pipeline for each link's rows whose rate is not finite (NaN core rows and overflows),
        on ``h`` or, when not given, the batch's stacks rebuilt; the least link rate."""
        power, streams, noise = self._budget
        rates = _gram_tail(core, streams, power, noise)
        if not math.isfinite(rates.sum()):  # finite rates, each at most 1,024, have a finite sum
            h = self._reduced(state) if h is None else h
            for (f2, f1, _), hi, link in zip(self._links, h, rates):
                if (left := ~np.isfinite(link)).any():
                    link[left], deficient = hybrid_link_rate(f2, hi[left], f1, *self._budget,
                                                             reduced=True)
                    self.saw_rank_deficiency |= bool(deficient.any())
        return _least(rates)


@dataclass
class ProblemContext(_ClosedFormSearch):
    """Everything a fitness evaluation needs, with frozen trial randomness.

    The RF stages are fixed for the whole search; only mean geometry (and
    hence the hop matrices) and the phase diagonal change between calls, so
    the objective is deterministic and the swarm's argmax semantics are well
    defined. The hop matrices of the last position asked for, and their
    reductions against the RF stages, are cached, which makes phase-only
    searches cheap; the stages' Grams are formed once.
    """

    config: SystemConfig
    geometry: DeploymentGeometry
    f1: np.ndarray
    f2: np.ndarray
    trial: TrialChannels
    ends: HopEnds  # ScenarioPack.search_ends["ris"]: the Tx and UE ends on F1's and F2's beams
    saw_rank_deficiency: bool = field(default=False, init=False)
    _cache_key: tuple[float, float] | None = field(default=None, init=False, repr=False)
    _cache: tuple[np.ndarray, ...] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self._set_links(self.config, ((self.f2, self.f1),))  # the one link, Tx -> RIS -> UE

    def hop_matrices(self, x: float, y: float) -> tuple[np.ndarray, ...]:
        """H_TI, H_IR and their reductions F2 H_IR, H_TI F1 at one position."""
        key = (float(x), float(y))
        if self._cache_key != key:
            real = realize_channels(self.config, self.geometry, self.trial, key)
            self._cache_key = key
            self._cache = (real.h_tx_ris, real.h_ris_rx,
                           self.f2 @ real.h_ris_rx, real.h_tx_ris @ self.f1)
        return self._cache

    def _channels(self, state: RisState) -> tuple[np.ndarray]:
        """The composites H_IR diag(e^{j phi}) H_TI of the state's phases at its one position, as
        one stack from the cached hop matrices."""
        h_ti, h_ir, _, _ = self.hop_matrices(state.x, state.y)
        phases = np.asarray(state.phases, dtype=float).reshape(-1, self.config.num_ris)
        return (composite_channel(h_ir, phases, h_ti),)

    def _reduced(self, state: RisState) -> tuple[np.ndarray]:
        """The batch's reduced composites F2 H_IR diag(e^{j phi}) H_TI F1, the one link's stack;
        no hop matrix is formed.

        At one position the cached A = F2 H_IR and C = H_TI F1 give (A diag(e^{j phi})) C, as one
        (Z K2, M) @ (M, K1) product when K2 > 1; per-particle positions take C and A as the
        ``hops`` whose Tx and UE ends are projected onto F1's and F2's beams one array axis at a
        time.
        """
        if isinstance(state.x, np.ndarray) or isinstance(state.y, np.ndarray):
            c, a = hops(self.config, self.geometry, self.trial, state.xy, self.ends)
        else:
            _, _, a, c = self.hop_matrices(state.x, state.y)
        a = a * np.exp(1j * np.asarray(state.phases, dtype=float))[..., None, :]
        one = c.ndim == 2 and a.shape[-2] > 1  # numpy takes a one-row product as a vector's
        return ((a.reshape(-1, c.shape[0]) @ c).reshape(*a.shape[:-1], -1) if one else a @ c,)


@dataclass
class SearchTrace:
    """One search's evaluations, kept for the same search, of one kind and trial, at another power.

    A swarm's positions at evaluation c depend only on its rng stream, the same at every power,
    and on what the evaluations before c decided (``run_pso``'s ``decisions``). So while every
    decision of a run equals the last run's, its batches equal that run's byte for byte, and so
    does their budget-free ``search_core``. ``decisions`` are the last run's, one per evaluation
    it made, and ``cores`` holds its (6, links, Z) core of each evaluation, as computed, as one
    row of an (evaluations, 6, links, Z) array; a NaN core row, one the closed form cannot score
    whatever the budget, takes the pipeline at every budget (``core_rates``).
    """

    decisions: list = field(default_factory=list)
    cores: np.ndarray | None = field(default=None, repr=False)

    def objective(self, context: _ClosedFormSearch, decoder, evaluations: int):
        """(objective, decisions) of a run of ``evaluations`` calls that retraces the last run.

        The objective is ``context.search_rates`` of the decoded batches. An evaluation that the
        last run made, whose every decision before it (``run_pso`` fills ``decisions``) equals
        that run's, takes only ``core_rates`` of that run's core, its NaN rows on the batch's
        stacks rebuilt; any other computes its core and writes it to its row.
        """
        previous = self.decisions
        decisions = self.decisions = []

        def objective(v: np.ndarray) -> np.ndarray:
            c, state, cores = len(decisions), decoder(v), self.cores
            if c < len(previous) and decisions == previous[:c]:
                return context.core_rates(state, cores[c])
            core, h = context.search_core(state)
            if cores is None:
                cores = self.cores = np.empty((evaluations, *core.shape))
            cores[c] = core
            return context.core_rates(state, core, h)

        return objective, decisions


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
    fitness_fn, dim: int, params: PsoParams, rng: np.random.Generator,
    decisions: list | None = None,
) -> SwarmState:
    """Uniform positions, zero velocities, bests from the initial evaluation.

    ``fitness_fn`` maps the (Z, D) positions to (Z,) values. ``decisions``, if
    given, receives the evaluation's decision: the global best's index.
    """
    z = params.swarm_size
    positions = rng.random((z, dim))
    velocities = np.zeros((z, dim))
    values = _evaluate(fitness_fn, positions)
    g = _first_max(values)  # lowest particle index wins ties; a NaN is never picked
    if decisions is not None:
        decisions.append(g)
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
    decisions: list | None = None,
) -> SwarmState:
    """One swarm iteration; mutates and returns ``state``.

    Velocity: mu1*Y1*(gbest - p) + mu2*Y2*(pbest - p) + inertia(t)*v with
    fresh per-dimension uniforms Y1 then Y2, clamped to +-velocity_clamp.
    Positions are clamped to [0,1] and the velocity of any clamped dimension
    is zeroed. Bests update only on strict improvement, which keeps the
    earliest iteration and lowest particle index on ties; a NaN value never
    becomes a best, and a best that is NaN (from a NaN initial value) gives
    way to the first non-NaN value. ``decisions``, if given, receives the
    evaluation's decision: the bytes of the improved-particle mask and the
    index of the new global best, or None when it stays.
    """
    y1, y2 = rng.random((2, *state.positions.shape))  # the stream order of Y1's draw, then Y2's
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
    moved = state.positions + vel
    pos = np.minimum(np.maximum(moved, 0.0), 1.0)
    np.copyto(vel, 0.0, where=pos != moved)  # the coordinates that left the box
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
    else:
        i = None
    if decisions is not None:
        decisions.append((improved.tobytes(), i))
    state.history.append(state.global_best_value)
    return state


def run_pso(
    fitness_fn, dim: int, params: PsoParams, rng: np.random.Generator,
    decisions: list | None = None,
) -> tuple[np.ndarray, float, list[float]]:
    """Full search: returns (best vector, best value, history of length T+1).

    ``fitness_fn`` is called once per iteration on the (Z, D) positions and
    returns their (Z,) values. ``decisions``, if given, receives each
    evaluation's decision (see ``init_swarm`` and ``pso_step``), right after
    it. The positions of an evaluation depend only on the draws of ``rng``
    and the decisions before it.
    """
    state = init_swarm(fitness_fn, dim, params, rng, decisions)
    for t in range(1, params.iterations + 1):
        pso_step(state, params, t, rng, fitness_fn, decisions)
    return state.global_best_position, state.global_best_value, state.history


def run(
    context: _ClosedFormSearch,
    params: PsoParams,
    rng: np.random.Generator,
    space: tuple[int, Callable[[np.ndarray], RisState]] | None = None,
    trace: SearchTrace | None = None,
) -> tuple[RisState, float, list[float]]:
    """Swarm search over one kind's ``space``: its dimension and its decoder to a ``RisState``.

    The default space is the joint position/phase search over M_I + 2
    dimensions with ``decode``. ``context`` is the RIS's ``ProblemContext``,
    one link, or the relay's search, two. The swarm climbs its
    ``search_rates`` of the decoded (Z, D) batches; the rate returned is its
    reference, ``rate_for``, of the decoded best vector, a float. ``trace`` is
    this search's ``SearchTrace``: its last run had the
    same space, ``params`` and ``rng`` state and a context that differs from
    this one in the rate budget alone. Where the closed form fits every link,
    the run retraces that one (see ``SearchTrace.objective``) and leaves its
    own evaluations in ``trace``.
    """
    dim, decoder = space or (context.config.num_ris + 2, lambda v: decode(v, context.geometry))
    objective, decisions = (lambda v: context.search_rates(decoder(v))), None
    if trace is not None and context.closed_form:
        objective, decisions = trace.objective(context, decoder, params.iterations + 1)
    best_vec, _, history = run_pso(objective, dim, params, rng, decisions)
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
            values = context.rate_for(RisState(x, y, _wrap_phases(grid)))
            i = _first_max(values)
            if values[i] > best_val:
                best_val = float(values[i])
                best_vec = np.concatenate(([px, py], grid[i]))
    return decode(best_vec, context.geometry), best_val
