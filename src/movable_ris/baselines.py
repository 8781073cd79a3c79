"""Reference schemes the movable-RIS link is compared against.

Six kinds: the jointly optimized movable RIS, its random-phase variant,
fixed-position RIS with optimized or random phases, and movable
decode-and-forward relay bounds (full and half duplex). All kinds evaluate
identical frozen channel trials (common random numbers) so per-trial and
mean comparisons are low-variance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .beamforming import (_closed_form_fits, _core_array, _core_of, _gram_core, _gram_rates,
                          _gram_tail, design_relay_stages, design_rf_stages, hybrid_link_rate)
from .channel import HopEnds, TrialChannels, draw_trial, hop_ends, hops
# Not called here; sweepbench/tracer.py wraps these names in this namespace, and
# sweepbench/checks.py wraps run_pso here too.
from .channel import link_channel  # noqa: F401
from .optimizer import run_pso  # noqa: F401
from .optimizer import ProblemContext, RisState, TWO_PI, _wrap_phases, decode_on_platform, run
from .scenario import (
    STREAM_AUX,
    STREAM_CHANNEL,
    STREAM_PSO,
    ConfigError,
    DeploymentGeometry,
    SystemConfig,
    rng_stream,
    validate,
)

__all__ = [
    "BaselineKind",
    "TrialOutcome",
    "RelaySlots",
    "ScenarioPack",
    "build_scenario_pack",
    "make_problem_context",
    "relay_rate",
    "run_baseline",
]


class BaselineKind(str, Enum):
    FIXED_RIS_OPT_PHASE = "fixed_ris_opt_phase"
    FIXED_RIS_RANDOM_PHASE = "fixed_ris_random_phase"
    MOVABLE_RIS_RANDOM_PHASE = "movable_ris_random_phase"
    MOVABLE_RIS_JOINT = "movable_ris_joint"
    FD_RELAY = "fd_relay"
    HD_RELAY = "hd_relay"

    def platform_shapes(self, config: SystemConfig) -> tuple | None:
        """``hop_ends``'s platform arrays per hop: a relay's own, else None (the RIS grid)."""
        relay = self in (BaselineKind.FD_RELAY, BaselineKind.HD_RELAY)
        return (config.rx_antennas, config.tx_antennas) if relay else None


# Stable sub-stream tags of the searching kinds; hd_relay has no search of
# its own, it halves the fd_relay outcome of the same trial.
_PSO_FAMILY = {
    BaselineKind.MOVABLE_RIS_JOINT: 0,
    BaselineKind.FIXED_RIS_OPT_PHASE: 1,
    BaselineKind.MOVABLE_RIS_RANDOM_PHASE: 2,
    BaselineKind.FD_RELAY: 3,
}

_AUX_TAG = {
    BaselineKind.FIXED_RIS_RANDOM_PHASE: 0,
    BaselineKind.MOVABLE_RIS_RANDOM_PHASE: 1,
}


@dataclass
class TrialOutcome:
    """One baseline's result on one frozen channel trial."""

    rate: float
    x: float
    y: float
    phases: np.ndarray | None
    flagged: bool = False


class RelaySlots(dict):
    """The relay search calls of one sweep kept for its next power step, by trial and call.

    ``{trial: {call: (points, core)}}``: the bytes of a search call's (Z, 2) platform points
    and the ``_gram_core`` of its two stacked hops as one (2, Z, 6) ``_core_array``, six floats
    per hop and particle. ``harness.sweep`` makes one for a sweep whose consecutive points
    differ in ``tx_power_dbm`` alone, hands it to every pack it builds and empties it when it
    returns. Hashed and compared by identity, so the packs built with one are cached apart.
    """

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


@dataclass(frozen=True)
class ScenarioPack:
    """Per-scenario precomputation shared by every trial and baseline kind.

    RF stages depend only on geometry and configuration (supports spanning
    the platform footprint), never on channel draws, so they are built once.
    The relay reuses the transmit precoder toward the platform and carries
    its own receive/transmit stages; its arrays mirror the Rx and Tx antenna
    counts and do not scale with the RIS element count. ``fd_relay_outcomes``
    keeps each trial's full-duplex relay search, which the half-duplex relay
    halves instead of searching again. ``relay_slots``, handed over by a sweep
    of powers, keeps the relay search calls that the next power's searches
    reuse (see ``_RelaySearch``).
    """

    config: SystemConfig
    geometry: DeploymentGeometry
    seed: int
    f1: np.ndarray
    f2: np.ndarray
    relay_f2_hop1: np.ndarray
    relay_f1_hop2: np.ndarray
    pso_seed: int | None = None  # None: the searches are keyed by ``seed``
    fd_relay_outcomes: dict[int, TrialOutcome] = field(
        default_factory=dict, repr=False, compare=False
    )
    relay_slots: RelaySlots | None = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def beams(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per-axis factors X (K, m_x), Y (K, m_y) of each RF stage's K beams, by field name.

        An ``rf_stage`` beam is kron(px, py) / sqrt(M) with px[0] = py[0] = 1, so X = px / sqrt(M)
        and Y = py / sqrt(M) are, bit for bit, its entries at m_y = 0 and m_x = 0.
        """
        tx, rx = self.config.tx_antennas, self.config.rx_antennas
        grids = {name: np.reshape(beams, (-1, *shape)) for name, beams, shape in (
            ("f1", self.f1.T, tx), ("f2", self.f2, rx),
            ("relay_f2_hop1", self.relay_f2_hop1, rx), ("relay_f1_hop2", self.relay_f1_hop2.T, tx))}
        return {name: (grid[:, :, 0].copy(), grid[:, 0, :].copy()) for name, grid in grids.items()}

    @functools.cached_property
    def search_ends(self) -> dict[str, HopEnds]:
        """``hop_ends`` of the RIS search and of the relay search, each end on its stage's beams.

        The RIS search projects the Tx and UE ends onto F1's and F2's beams, the
        relay search also its own arrays' ends onto the relay's stages.
        """
        config, relay = self.config, BaselineKind.FD_RELAY
        beams = [self.beams[name] for name in ("relay_f2_hop1", "relay_f1_hop2", "f1", "f2")]
        return {"ris": hop_ends(config, None, (None, None, *beams[2:])),
                "relay": hop_ends(config, relay.platform_shapes(config), beams)}


@functools.lru_cache(maxsize=1)
def build_scenario_pack(
    config: SystemConfig,
    geometry: DeploymentGeometry,
    seed: int,
    pso_seed: int | None = None,
    relay_slots: RelaySlots | None = None,
) -> ScenarioPack:
    """Precompute RF stages; ``pso_seed`` re-keys only the search streams.

    Consecutive calls with identical arguments return the same pack, so the
    kinds at one swept value share it, and with it the fd_relay searches and
    ``relay_slots``.
    A configuration ``validate`` rejects, or one whose RF design is left with
    fewer usable beams than streams, raises ConfigError.
    """
    if errors := validate(config, geometry):
        raise ConfigError("invalid configuration: " + "; ".join(errors))
    stages = dict(zip(("f1", "f2", "relay_f2_hop1", "relay_f1_hop2"), (
        *design_rf_stages(config, geometry), *design_relay_stages(config, geometry))))
    for name, stage in stages.items():
        if (beams := min(stage.shape)) < config.num_streams:  # never more beams than antennas
            raise ConfigError(f"RF stage {name} has {beams} usable beams for {config.num_streams} "
                              f"streams at spacing {config.element_spacing_wavelengths!r} wavelengths")
    return ScenarioPack(config, geometry, seed, **stages, pso_seed=pso_seed,
                        relay_slots=relay_slots)


def trial_channels(pack: ScenarioPack, trial_index: int) -> TrialChannels:
    """Frozen channel randomness for one trial, identical across kinds."""
    return draw_trial(pack.config, rng_stream(pack.seed, trial_index, STREAM_CHANNEL))


def make_problem_context(pack: ScenarioPack, trial_index: int) -> ProblemContext:
    return ProblemContext(
        config=pack.config,
        geometry=pack.geometry,
        f1=pack.f1,
        f2=pack.f2,
        trial=trial_channels(pack, trial_index),
        ends=pack.search_ends["ris"],
    )


def _random_phases(pack: ScenarioPack, trial_index: int, kind: BaselineKind) -> np.ndarray:
    rng = rng_stream(pack.seed, trial_index, STREAM_AUX, _AUX_TAG[kind])
    return rng.uniform(0.0, TWO_PI, pack.config.num_ris)


def _search(pack: ScenarioPack, trial_index: int, kind: BaselineKind, context,
            space=None) -> TrialOutcome:
    """One swarm search of ``kind`` over ``space`` (see ``optimizer.run``) on its own stream."""
    pso_seed = pack.seed if pack.pso_seed is None else pack.pso_seed
    rng = rng_stream(pso_seed, trial_index, STREAM_PSO, _PSO_FAMILY[kind])
    state, rate, _ = run(context, pack.config.pso, rng, space)
    return TrialOutcome(rate, state.x, state.y, state.phases, context.saw_rank_deficiency)


def _on_platform(geometry: DeploymentGeometry, phases):
    """The position-only space: unit-square points, (Z, 2) or (2,), to states sharing ``phases``."""
    return 2, lambda v: decode_on_platform(v, geometry, phases)


@dataclass
class _RelaySearch:
    """The two-hop relay rate behind ProblemContext's search surface; states carry no phases.

    Hop 1 reuses the trial's transmitter-side draw into the relay's receive
    array, hop 2 the receiver-side draw out of its transmit array. No
    self-interference is modeled: the rate is the ideal full-duplex bound
    min(hop rates). The stages of each hop, (receive, transmit), their Grams
    and their beam axes are read from the pack once.

    ``slots`` holds this trial's search calls at a sweep's previous power, by
    call index (see ``RelaySlots``). The hops, their SVD and the rest of
    ``_gram_core`` do not depend on the power, so a call whose platform points
    equal that call's there, byte for byte, takes only ``_gram_tail`` of the
    stored core. Every other call stores its core in the slot, unless one of
    its rows took the pipeline; a hit with such a row computes its call again.
    Slots are kept only where the reduced hops stack and take the closed form.
    """

    pack: ScenarioPack
    trial: TrialChannels
    slots: dict | None = None
    saw_rank_deficiency: bool = field(default=False, init=False)

    def __post_init__(self):
        pack, config = self.pack, self.pack.config
        stages = (("relay_f2_hop1", "f1"), ("f2", "relay_f1_hop2"))
        self._stages = tuple((getattr(pack, rx), getattr(pack, tx)) for rx, tx in stages)
        self._grams = tuple((f1.conj().T @ f1, f2 @ f2.conj().T) for f2, f1 in self._stages)
        self._ends = (hop_ends(config, BaselineKind.FD_RELAY.platform_shapes(config)),
                      pack.search_ends["relay"])
        self._budget = (config.tx_power_watts, config.num_streams, config.noise_power_watts)
        # The search's (F2, F1) and Grams of both hops as (2, 1, ...) stacks, when equal stage
        # shapes let the reduced hops stack.
        self._stacked = None
        f2s, f1s = zip(*self._stages)
        if f2s[0].shape == f2s[1].shape and f1s[0].shape == f1s[1].shape:
            self._stacked = tuple(np.stack(m)[:, None] for m in (f2s, f1s, *zip(*self._grams)))
        if self._stacked is None or not _closed_form_fits(
                (f2s[0].shape[0], f1s[0].shape[1]), config.num_streams, config.noise_power_watts):
            self.slots = None
        self._calls = 0  # search calls so far, the slot index of the next

    def hop_rates(self, xy: np.ndarray, factored: bool):
        """(Z,) rates at the (Z, 2) points ``xy`` and whether either hop was rank deficient.

        The reference takes each hop matrix H of one ``hops`` call through the rate
        pipeline; ``factored``, the search objective, projects both ends of each hop onto
        their RF beams, which is F2 H F1 up to rounding, and takes the closed form of the
        stages' Grams. Where those reduced hops stack, one rate call takes both, with the
        bytes of the two per-hop calls.
        """
        both = hops(self.pack.config, self.pack.geometry, self.trial, xy, self._ends[factored])
        if factored and self._stacked is not None:
            f2, f1, *grams = self._stacked
            (rate1, rate2), (deficient1, deficient2) = _gram_rates(
                f2, np.stack(both), f1, *self._budget, grams)
        else:
            (rate1, deficient1), (rate2, deficient2) = (
                _gram_rates(f2, hop, f1, *self._budget, grams) if factored
                else hybrid_link_rate(f2, hop, f1, *self._budget)
                for (f2, f1), grams, hop in zip(self._stages, self._grams, both))
        rate = np.where(rate2 < rate1, rate2, rate1)  # min(rate1, rate2), NaN semantics kept
        return rate, deficient1 | deficient2

    def _rates(self, state: RisState, factored: bool) -> np.ndarray:
        rates, deficient = self.hop_rates(state.xy, factored)
        self.saw_rank_deficiency |= bool(deficient.any())
        return rates

    def search_rates(self, state: RisState) -> np.ndarray:
        if self.slots is None:
            return self._rates(state, factored=True)
        call, points = self._calls, state.xy.tobytes()
        self._calls += 1
        power, streams, noise = self._budget
        stored = self.slots.get(call)
        if stored is not None and stored[0] == points:
            (rate1, rate2), rows = _gram_tail(_core_of(stored[1], streams), None, power, noise)
        else:
            both = hops(self.pack.config, self.pack.geometry, self.trial, state.xy,
                        self._ends[True])
            core, rows = _gram_core(np.stack(both), streams, self._stacked[2:])
            if rows is None:
                (rate1, rate2), rows = _gram_tail(core, None, power, noise)
                if rows is None:
                    self.slots[call] = (points, _core_array(core))
        if rows is not None:  # a row takes the pipeline: the call as it goes without slots
            return self._rates(state, factored=True)
        return np.where(rate2 < rate1, rate2, rate1)

    def rate_for(self, state: RisState) -> float:
        return float(self._rates(state, factored=False)[0])


def relay_rate(pack: ScenarioPack, trial_index: int, duplex: str) -> TrialOutcome:
    """Movable DF relay bound; ``duplex`` is "fd" or "hd" (hd = fd / 2).

    The position search runs once per trial of a pack, for whichever mode
    asks first, and is stored on the pack; half duplex halves the stored
    full-duplex outcome, so the identity holds exactly on every trial.
    """
    if duplex not in ("fd", "hd"):
        raise ValueError(f"duplex must be 'fd' or 'hd', got {duplex!r}")
    fd = pack.fd_relay_outcomes.get(trial_index)
    if fd is None:
        slots = None if pack.relay_slots is None else pack.relay_slots.setdefault(trial_index, {})
        context = _RelaySearch(pack, trial_channels(pack, trial_index), slots)
        fd = pack.fd_relay_outcomes[trial_index] = _search(
            pack, trial_index, BaselineKind.FD_RELAY, context, _on_platform(pack.geometry, None))
    return fd if duplex == "fd" else replace(fd, rate=fd.rate / 2.0)


def run_baseline(
    kind: BaselineKind, pack: ScenarioPack, trial_index: int
) -> TrialOutcome:
    """Dispatch one baseline kind on one common-random-numbers trial."""
    if kind in (BaselineKind.FD_RELAY, BaselineKind.HD_RELAY):
        return relay_rate(pack, trial_index, "fd" if kind == BaselineKind.FD_RELAY else "hd")
    context = make_problem_context(pack, trial_index)
    cx, cy = pack.geometry.platform_center()
    if kind == BaselineKind.MOVABLE_RIS_JOINT:
        return _search(pack, trial_index, kind, context)
    if kind == BaselineKind.FIXED_RIS_OPT_PHASE:
        phase_space = (pack.config.num_ris, lambda v: RisState(cx, cy, _wrap_phases(v)))
        return _search(pack, trial_index, kind, context, phase_space)
    if kind == BaselineKind.MOVABLE_RIS_RANDOM_PHASE:
        phases = _random_phases(pack, trial_index, kind)
        return _search(pack, trial_index, kind, context, _on_platform(pack.geometry, phases))
    if kind == BaselineKind.FIXED_RIS_RANDOM_PHASE:
        phases = _random_phases(pack, trial_index, kind)
        rate = context.rate_for(RisState(cx, cy, phases))
        return TrialOutcome(rate, cx, cy, phases, context.saw_rank_deficiency)
    raise ValueError(f"unknown baseline kind {kind!r}")
