"""Repeated-game engine: competitive and cooperative trajectories.

A run plays the stage game for ``n_stages`` slots, re-solving the AON's
access probability from the current network age every stage, sampling the
slot outcome, and accumulating the discounted payoff stream
``(1 - alpha) * sum(alpha**(n-1) * u_n)``.  Truncating the infinite horizon
at ``n_stages`` leaves a tail bounded by ``alpha**n_stages * sup|u|`` which
is ignored, matching the evaluation protocol.

Runs are vectorized: a batch of runs advances in lockstep, each run drawing
its randomness from its own counter-based stream (see ``seeding``), so
results are bit-identical for a fixed master seed no matter how the batch is
chunked or threaded.  Uniform draws are laid out one row per stage:
column 0 is the coordination-device draw, columns ``1 .. n_aon`` the AON
node draws, and the remaining ``n_ton`` columns the TON node draws.
"""

from __future__ import annotations

import enum
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import equilibrium as eq
from .model import AgeState, ConfigurationError, ScenarioParams
from .seeding import run_generator

_DEFAULT_CHUNK = 1024

# Event codes in recorded stage streams.
EVENT_IDLE = 0
EVENT_SUCCESS_AON = 1
EVENT_SUCCESS_TON = 2
EVENT_COLLISION = 3


class Mode(enum.Enum):
    COMPETITIVE = "competitive"
    COOPERATIVE = "cooperative"


@dataclass(frozen=True)
class RunConfig:
    """One repeated-game run.

    ``expected_payoffs`` accumulates the per-stage conditional expected
    payoffs instead of the realized ones (the ages still evolve by sampling);
    both accumulations converge to the same Monte Carlo mean and the flag
    exists for cross-checking.
    """

    params: ScenarioParams
    n_stages: int
    mode: Mode
    seed: int
    expected_payoffs: bool = False

    def __post_init__(self):
        if self.n_stages < 1:
            raise ConfigurationError("a run needs at least one stage")


@dataclass(frozen=True)
class StageRecord:
    """Per-stage diagnostics of a single run."""

    u_aon: np.ndarray
    u_ton: np.ndarray
    tau_aon: np.ndarray
    events: np.ndarray
    aon_selected: np.ndarray | None


@dataclass(frozen=True)
class RunResult:
    u_aon_discounted: float
    u_ton_discounted: float
    freq_tau_one: float
    freq_tau_zero: float
    final_ages: AgeState
    stages: StageRecord | None = None

    def __post_init__(self):
        if self.u_ton_discounted < 0.0:
            raise ConfigurationError("discounted throughput payoff cannot be negative")
        for freq in (self.freq_tau_one, self.freq_tau_zero):
            if not 0.0 <= freq <= 1.0:
                raise ConfigurationError("access frequencies must lie in [0, 1]")


@dataclass(frozen=True)
class Aggregate:
    """Across-run means and standard errors of the run scalars."""

    u_aon_mean: float
    u_aon_se: float
    u_ton_mean: float
    u_ton_se: float
    freq_tau_one_mean: float
    freq_tau_one_se: float
    freq_tau_zero_mean: float
    freq_tau_zero_se: float
    n_runs: int


class _Engine:
    """Scenario constants plus the vectorized stage step."""

    def __init__(self, params: ScenarioParams):
        self.params = params
        self.sizes = params.sizes
        self.slots = params.slots
        self.n_aon = params.sizes.n_aon
        self.n_ton = params.sizes.n_ton
        self.width = 1 + self.n_aon + self.n_ton
        self.tau_ton_star = 1.0 / self.n_ton
        # Realized network throughput on a TON success: one node delivered a
        # slot's worth of bits, averaged over the network.
        self.ton_payout = params.slots.success * params.rate / self.n_ton

    def uniforms(self, seed: int, run_indices: range, n_stages: int) -> np.ndarray:
        out = np.empty((len(run_indices), n_stages, self.width))
        for k, run in enumerate(run_indices):
            out[k] = run_generator(seed, run).random((n_stages, self.width))
        return out

    def initial_ages(self, n_runs: int) -> np.ndarray:
        return np.full((n_runs, self.n_aon), self.params.initial_age, dtype=np.float64)

    def msne_tau(self, delta: np.ndarray) -> np.ndarray:
        return eq._msne_tau(delta, self.sizes, self.slots)

    def coop_tau(self, delta: np.ndarray) -> np.ndarray:
        return eq._coop_tau(delta, self.sizes, self.slots)

    def slot(self, ages: np.ndarray, urow: np.ndarray, tau_a, tau_t):
        """Advance all runs by one slot in place; returns transmitter counts.

        ``tau_a`` / ``tau_t`` may be scalars or per-run arrays; a negative
        value silences that network (no uniform is below it).
        """
        ta = urow[:, 1 : 1 + self.n_aon] < (
            tau_a[:, None] if np.ndim(tau_a) else tau_a
        )
        tt = urow[:, 1 + self.n_aon :] < (
            tau_t[:, None] if np.ndim(tau_t) else tau_t
        )
        k_a = ta.sum(axis=1)
        k_t = tt.sum(axis=1)
        total = k_a + k_t
        ages += np.where(
            total == 0,
            self.slots.idle,
            np.where(total >= 2, self.slots.collision, self.slots.success),
        )[:, None]
        resets = (k_a == 1) & (k_t == 0)
        if resets.any():
            rows = np.nonzero(resets)[0]
            ages[rows, ta[rows].argmax(axis=1)] = self.slots.success
        return k_a, k_t


def _event_codes(k_a: np.ndarray, k_t: np.ndarray) -> np.ndarray:
    total = k_a + k_t
    codes = np.full(k_a.shape, EVENT_SUCCESS_TON, dtype=np.int8)
    codes[total == 0] = EVENT_IDLE
    codes[total >= 2] = EVENT_COLLISION
    codes[(k_a == 1) & (k_t == 0)] = EVENT_SUCCESS_AON
    return codes


def _simulate_batch(
    engine: _Engine,
    uniforms: np.ndarray,
    mode: Mode,
    expected_payoffs: bool = False,
    record: bool = False,
):
    """Advance a batch of runs through all stages; returns per-run scalars."""
    params = engine.params
    n_runs, n_stages, _ = uniforms.shape
    ages = engine.initial_ages(n_runs)
    u_aon = np.zeros(n_runs)
    u_ton = np.zeros(n_runs)
    count_one = np.zeros(n_runs)
    count_zero = np.zeros(n_runs)
    n_selected = np.zeros(n_runs)
    weight = 1.0 - params.alpha

    rec_streams = None
    if record:
        rec_streams = {
            "u_aon": np.empty((n_runs, n_stages)),
            "u_ton": np.empty((n_runs, n_stages)),
            "tau_aon": np.empty((n_runs, n_stages)),
            "events": np.empty((n_runs, n_stages), dtype=np.int8),
            "aon_selected": np.zeros((n_runs, n_stages), dtype=bool),
        }

    delta = ages.mean(axis=1)
    for n in range(n_stages):
        urow = uniforms[:, n, :]
        if mode is Mode.COMPETITIVE:
            tau = engine.msne_tau(delta)
            count_one += tau == 1.0
            count_zero += tau == 0.0
            k_a, k_t = engine.slot(ages, urow, tau, engine.tau_ton_star)
        else:
            selected = urow[:, 0] < params.p_r
            tau = engine.coop_tau(delta)
            count_one += (tau == 1.0) & selected
            count_zero += (tau == 0.0) & selected
            n_selected += selected
            k_a, k_t = engine.slot(
                ages,
                urow,
                np.where(selected, tau, -1.0),
                np.where(selected, -1.0, engine.tau_ton_star),
            )
        # Post-slot network age: the realized AON payoff and the next state.
        age_after = ages.mean(axis=1)
        if expected_payoffs:
            if mode is Mode.COMPETITIVE:
                stage_u_aon = -eq._competitive_stage_age(
                    tau, engine.tau_ton_star, engine.sizes, engine.slots, delta
                )
                stage_u_ton = eq._competitive_stage_throughput(
                    tau, engine.tau_ton_star, engine.sizes, engine.slots, params.rate
                )
            else:
                stage_u_aon = -eq._cooperative_stage_age(
                    tau, engine.tau_ton_star, params.p_r, engine.sizes, engine.slots, delta
                )
                stage_u_ton = np.full(
                    n_runs,
                    eq._cooperative_stage_throughput(
                        engine.tau_ton_star, params.p_r, engine.sizes, engine.slots, params.rate
                    ),
                )
        else:
            stage_u_aon = -age_after
            stage_u_ton = np.where((k_t == 1) & (k_a == 0), engine.ton_payout, 0.0)
        u_aon += weight * stage_u_aon
        u_ton += weight * stage_u_ton
        weight *= params.alpha
        if record:
            rec_streams["u_aon"][:, n] = stage_u_aon
            rec_streams["u_ton"][:, n] = stage_u_ton
            rec_streams["tau_aon"][:, n] = tau
            rec_streams["events"][:, n] = _event_codes(k_a, k_t)
            if mode is Mode.COOPERATIVE:
                rec_streams["aon_selected"][:, n] = selected
        delta = age_after

    freq_one = count_one / n_stages
    freq_zero = count_zero / n_stages
    if mode is Mode.COOPERATIVE:
        freq_one = np.divide(
            count_one, n_selected, out=np.zeros(n_runs), where=n_selected > 0
        )
        freq_zero = np.divide(
            count_zero, n_selected, out=np.zeros(n_runs), where=n_selected > 0
        )
    return u_aon, u_ton, freq_one, freq_zero, ages, rec_streams


def _run_single(config: RunConfig, run_index: int = 0, record: bool = True) -> RunResult:
    engine = _Engine(config.params)
    uniforms = engine.uniforms(config.seed, range(run_index, run_index + 1), config.n_stages)
    u_aon, u_ton, f1, f0, ages, streams = _simulate_batch(
        engine, uniforms, config.mode, config.expected_payoffs, record=record
    )
    stages = None
    if record:
        stages = StageRecord(
            u_aon=streams["u_aon"][0],
            u_ton=streams["u_ton"][0],
            tau_aon=streams["tau_aon"][0],
            events=streams["events"][0],
            aon_selected=streams["aon_selected"][0]
            if config.mode is Mode.COOPERATIVE
            else None,
        )
    return RunResult(
        u_aon_discounted=float(u_aon[0]),
        u_ton_discounted=float(u_ton[0]),
        freq_tau_one=float(f1[0]),
        freq_tau_zero=float(f0[0]),
        final_ages=AgeState.from_ages(ages[0]),
        stages=stages,
    )


def run_competition(config: RunConfig) -> RunResult:
    """One competitive run: the equilibrium profile is re-solved every stage."""
    if config.mode is not Mode.COMPETITIVE:
        raise ConfigurationError("run_competition requires competitive mode")
    return _run_single(config)


def run_cooperation(config: RunConfig) -> RunResult:
    """One cooperative run: both networks obey the device every stage.

    The access-frequency statistics are computed over the stages in which the
    device selected the AON (zero if it never was).
    """
    if config.mode is not Mode.COOPERATIVE:
        raise ConfigurationError("run_cooperation requires cooperative mode")
    return _run_single(config)


def _fanout(n_runs: int, chunk_size: int, work, threads: int) -> None:
    """Call ``work((start, stop))`` on each run chunk; a pool starts only for several."""
    chunks = [(s, min(s + chunk_size, n_runs)) for s in range(0, n_runs, chunk_size)]
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, chunks))
    else:
        for bounds in chunks:
            work(bounds)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if values.size < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / np.sqrt(values.size))


def monte_carlo(
    config: RunConfig,
    n_runs: int,
    threads: int = 1,
    chunk_size: int = _DEFAULT_CHUNK,
) -> Aggregate:
    """Average the run scalars over independent runs.

    Run ``r`` draws from the stream keyed by ``(config.seed, r)``, results are
    stored by run index, and the reductions use numpy's pairwise summation,
    so the aggregate is bit-identical for a fixed seed at any thread count or
    chunk size.
    """
    if n_runs < 1:
        raise ConfigurationError("need at least one run")
    engine = _Engine(config.params)
    u_aon = np.empty(n_runs)
    u_ton = np.empty(n_runs)
    f_one = np.empty(n_runs)
    f_zero = np.empty(n_runs)

    def work(bounds):
        start, stop = bounds
        uniforms = engine.uniforms(config.seed, range(start, stop), config.n_stages)
        out = _simulate_batch(engine, uniforms, config.mode, config.expected_payoffs)
        u_aon[start:stop], u_ton[start:stop], f_one[start:stop], f_zero[start:stop] = out[:4]

    _fanout(n_runs, chunk_size, work, threads)

    stats = [_mean_se(a) for a in (u_aon, u_ton, f_one, f_zero)]
    return Aggregate(
        u_aon_mean=stats[0][0],
        u_aon_se=stats[0][1],
        u_ton_mean=stats[1][0],
        u_ton_se=stats[1][1],
        freq_tau_one_mean=stats[2][0],
        freq_tau_one_se=stats[2][1],
        freq_tau_zero_mean=stats[3][0],
        freq_tau_zero_se=stats[3][1],
        n_runs=n_runs,
    )


@dataclass(frozen=True)
class GainResult:
    """Cooperation-minus-competition discounted payoffs from paired batches."""

    gain_aon: float
    gain_ton: float
    competitive: Aggregate
    cooperative: Aggregate


def gain_of_cooperation(
    params: ScenarioParams,
    n_runs: int,
    n_stages: int,
    seed: int,
    alpha: float | None = None,
    p_r: float | None = None,
    threads: int = 1,
    baseline_mode: Mode = Mode.COMPETITIVE,
    treatment_mode: Mode = Mode.COOPERATIVE,
) -> GainResult:
    """Paired gain of cooperating over competing under a shared master seed.

    Both batches replay the same per-run streams, so comparing a mode against
    itself yields exactly zero.
    """
    if alpha is not None:
        params = replace(params, alpha=alpha)
    if p_r is not None:
        params = replace(params, p_r=p_r)
    base = monte_carlo(RunConfig(params, n_stages, baseline_mode, seed), n_runs, threads)
    coop = monte_carlo(RunConfig(params, n_stages, treatment_mode, seed), n_runs, threads)
    return GainResult(
        gain_aon=coop.u_aon_mean - base.u_aon_mean,
        gain_ton=coop.u_ton_mean - base.u_ton_mean,
        competitive=base,
        cooperative=coop,
    )
