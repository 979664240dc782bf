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
node draws, and the remaining ``n_ton`` columns the TON node draws.  A chunk
of runs draws its rows a block of stages at a time into one reused buffer;
a counter-based stream read in order yields the same numbers however it is
cut into blocks, and several arms (modes) of a batch advance in lockstep on
the same draws.

A node transmits iff its draw is below its network's access probability, so
a network sends 0, 1 or at least 2 packets according to whether that
probability lies above its smallest and its second-smallest draw.  Each
block is therefore reduced once, before any arm reads it, to the device
draw and the two smallest draws of each network per run and stage
(``_Draw``); only an AON success goes back to the raw AON draws, to find
the node whose age resets.
"""

from __future__ import annotations

import enum
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import equilibrium as eq
from .model import AgeState, ConfigurationError, ScenarioParams
from .seeding import run_generator

_DEFAULT_CHUNK = 1024
# Size of one chunk's block buffers (raw uniforms, and their stage-major copy
# beside the per-stage order statistics): they hold as many stages of every
# run as fit, at least one.
_BLOCK_BYTES = 8 << 20

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


class _Draw(NamedTuple):
    """One stage's uniforms for a batch of rows, reduced to what a slot reads.

    ``stats`` is (5 x rows): the two smallest AON node draws, the two
    smallest TON node draws (+inf as the second of a one-node network) and
    the device draw.  ``aon`` is the (runs x n_aon) raw AON node draws; row ``i``
    reads run ``i % runs``, so a draw tiled over copies of its runs keeps it.
    """

    stats: np.ndarray
    aon: np.ndarray

    @property
    def device(self) -> np.ndarray:
        return self.stats[4]

    def tile(self, copies: int) -> _Draw:
        """The draw for ``copies`` stacked copies of its rows."""
        return _Draw(np.tile(self.stats, copies), self.aon)


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
        # Every node's age increment, indexed by k_a + k_t (each count clipped at 2).
        slots = params.slots
        self._growth = np.array(
            [slots.idle, slots.success, slots.collision, slots.collision, slots.collision]
        )

    def uniforms(self, generators, buf: np.ndarray, n_stages: int) -> np.ndarray:
        """Draw the next ``n_stages`` rows of every run into ``buf``; returns the block."""
        for k, gen in enumerate(generators):
            gen.random(out=buf[k, :n_stages])
        return buf[:, :n_stages]

    def stage_rows(self, seed: int, run_indices: range, n_stages: int):
        """Yield each stage's ``_Draw`` of the runs; run ``r`` reads stream ``(seed, r)``.

        A yielded draw is a view into buffers that the next block overwrites.
        """
        generators = [run_generator(seed, run) for run in run_indices]
        n_runs = len(generators)
        # Per run and stage: a raw row, then its copy and four statistics in the table.
        block = max(1, _BLOCK_BYTES // (8 * n_runs * (2 * self.width + 4)))
        size = min(block, n_stages)
        buf = np.empty((n_runs, size, self.width))
        table = np.empty((size, 4 + self.width, n_runs))
        for start in range(0, n_stages, block):
            raw = self.uniforms(generators, buf, min(block, n_stages - start))
            yield from self.draws(raw, table)

    def draws(self, block: np.ndarray, table: np.ndarray | None = None):
        """Yield the ``_Draw`` of each stage of a (runs x stages x width) uniform block.

        ``table`` is a (stages x (4 + width) x runs) buffer, at least as many
        stages long as the block.  Per stage it receives the block's row of
        every run, transposed to columns, behind four rows of order
        statistics: the two smallest AON and the two smallest TON draws.
        These come from elementwise minima and maxima over whole columns,
        not from per-row reductions.  The draws are views into ``table`` and
        ``block``.
        """
        n_runs, n_stages, width = block.shape
        if table is None:
            table = np.empty((n_stages, 4 + width, n_runs))
        table = table[:n_stages]
        columns = table[:, 4:]
        np.copyto(columns, block.transpose(1, 2, 0))
        networks = ((0, range(1, 1 + self.n_aon)), (2, range(1 + self.n_aon, width)))
        for row, nodes in networks:
            first, second = table[:, row], table[:, row + 1]
            first[...] = columns[:, nodes[0]]
            second.fill(np.inf)
            for node in nodes[1:]:
                column = columns[:, node]
                # second <- max(first, min(second, column)), first <- min(first, column).
                np.minimum(second, column, out=second)
                np.maximum(second, first, out=second)
                np.minimum(first, column, out=first)
        for j in range(n_stages):
            # Rows 0-3 are the statistics and row 4 the device column.
            yield _Draw(table[j, :5], block[:, j, 1 : 1 + self.n_aon])

    def initial_ages(self, n_runs: int) -> np.ndarray:
        return np.full((n_runs, self.n_aon), self.params.initial_age, dtype=np.float64)

    def msne_tau(self, delta: np.ndarray) -> np.ndarray:
        return eq._msne_tau(delta, self.sizes, self.slots)

    def coop_tau(self, delta: np.ndarray) -> np.ndarray:
        return eq._coop_tau(delta, self.sizes, self.slots)

    def slot(self, ages: np.ndarray, draw: _Draw, tau_a, tau_t):
        """Advance all rows by one slot in place; returns transmitter counts clipped at 2.

        ``tau_a`` / ``tau_t`` may be scalars or per-row arrays; a negative
        value silences that network (no uniform is below it).  A network has
        a transmitter iff its smallest draw is below its access probability
        and two or more iff its second-smallest is, so each count reads 0, 1
        or 2 (two or more).
        """
        below_a = draw.stats[0:2] < tau_a
        below_t = draw.stats[2:4] < tau_t
        k_a = np.add(below_a[0], below_a[1], dtype=np.int8)
        k_t = np.add(below_t[0], below_t[1], dtype=np.int8)
        ages += self._growth.take(k_a + k_t)[:, None]
        resets = np.flatnonzero((k_a == 1) & (k_t == 0))
        if resets.size:
            # The lone AON transmitter holds the row's smallest AON draw.
            nodes = draw.aon[resets % len(draw.aon)]
            ages[resets, nodes.argmin(axis=1)] = self.slots.success
        return k_a, k_t


def _event_codes(k_a: np.ndarray, k_t: np.ndarray) -> np.ndarray:
    total = k_a + k_t
    codes = np.full(k_a.shape, EVENT_SUCCESS_TON, dtype=np.int8)
    codes[total == 0] = EVENT_IDLE
    codes[total >= 2] = EVENT_COLLISION
    codes[(k_a == 1) & (k_t == 0)] = EVENT_SUCCESS_AON
    return codes


class _Arm:
    """One mode's batch of runs: state and accumulators, advanced a stage at a time."""

    def __init__(
        self,
        engine: _Engine,
        mode: Mode,
        n_runs: int,
        n_stages: int,
        expected_payoffs: bool,
        record: bool,
    ):
        self.engine = engine
        self.mode = mode
        self.expected_payoffs = expected_payoffs
        self.ages = engine.initial_ages(n_runs)
        self.u_aon = np.zeros(n_runs)
        self.u_ton = np.zeros(n_runs)
        self.count_one = np.zeros(n_runs)
        self.count_zero = np.zeros(n_runs)
        self.n_selected = np.zeros(n_runs)
        self.delta = self.ages.mean(axis=1)
        self.rec_streams = None
        if record:
            self.rec_streams = {
                "u_aon": np.empty((n_runs, n_stages)),
                "u_ton": np.empty((n_runs, n_stages)),
                "tau_aon": np.empty((n_runs, n_stages)),
                "events": np.empty((n_runs, n_stages), dtype=np.int8),
                "aon_selected": np.zeros((n_runs, n_stages), dtype=bool),
            }

    def step(self, n: int, draw: _Draw, weight: float) -> None:
        engine, params, delta = self.engine, self.engine.params, self.delta
        if self.mode is Mode.COMPETITIVE:
            tau = engine.msne_tau(delta)
            self.count_one += tau == 1.0
            self.count_zero += tau == 0.0
            k_a, k_t = engine.slot(self.ages, draw, tau, engine.tau_ton_star)
        else:
            selected = draw.device < params.p_r
            tau = engine.coop_tau(delta)
            self.count_one += (tau == 1.0) & selected
            self.count_zero += (tau == 0.0) & selected
            self.n_selected += selected
            k_a, k_t = engine.slot(
                self.ages,
                draw,
                np.where(selected, tau, -1.0),
                np.where(selected, -1.0, engine.tau_ton_star),
            )
        # Post-slot network age: the realized AON payoff and the next state.
        age_after = self.ages.mean(axis=1)
        if self.expected_payoffs:
            if self.mode is Mode.COMPETITIVE:
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
                    delta.size,
                    eq._cooperative_stage_throughput(
                        engine.tau_ton_star, params.p_r, engine.sizes, engine.slots, params.rate
                    ),
                )
        else:
            stage_u_aon = -age_after
            stage_u_ton = np.where((k_t == 1) & (k_a == 0), engine.ton_payout, 0.0)
        self.u_aon += weight * stage_u_aon
        self.u_ton += weight * stage_u_ton
        if self.rec_streams is not None:
            rec = self.rec_streams
            rec["u_aon"][:, n] = stage_u_aon
            rec["u_ton"][:, n] = stage_u_ton
            rec["tau_aon"][:, n] = tau
            rec["events"][:, n] = _event_codes(k_a, k_t)
            if self.mode is Mode.COOPERATIVE:
                rec["aon_selected"][:, n] = selected
        self.delta = age_after

    def result(self, n_stages: int):
        freq_one = self.count_one / n_stages
        freq_zero = self.count_zero / n_stages
        if self.mode is Mode.COOPERATIVE:
            n_selected = self.n_selected
            freq_one = np.divide(
                self.count_one, n_selected, out=np.zeros(n_selected.size), where=n_selected > 0
            )
            freq_zero = np.divide(
                self.count_zero, n_selected, out=np.zeros(n_selected.size), where=n_selected > 0
            )
        return self.u_aon, self.u_ton, freq_one, freq_zero, self.ages, self.rec_streams


def _simulate_batch(
    engine: _Engine,
    seed: int,
    run_indices: range,
    n_stages: int,
    modes,
    expected_payoffs: bool = False,
    record: bool = False,
):
    """Advance one arm per mode through all stages on the runs' shared draws.

    Returns per arm the per-run scalars, final ages and recorded streams.
    """
    arms = [
        _Arm(engine, mode, len(run_indices), n_stages, expected_payoffs, record)
        for mode in modes
    ]
    weight = 1.0 - engine.params.alpha
    for n, draw in enumerate(engine.stage_rows(seed, run_indices, n_stages)):
        for arm in arms:
            arm.step(n, draw, weight)
        weight *= engine.params.alpha
    return [arm.result(n_stages) for arm in arms]


def _run_single(config: RunConfig, run_index: int = 0, record: bool = True) -> RunResult:
    [(u_aon, u_ton, f1, f0, ages, streams)] = _simulate_batch(
        _Engine(config.params),
        config.seed,
        range(run_index, run_index + 1),
        config.n_stages,
        [config.mode],
        config.expected_payoffs,
        record=record,
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
    if threads < 1:
        raise ConfigurationError(f"need at least one thread, got {threads}")
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
    return _monte_carlo(config, [config.mode], n_runs, threads, chunk_size)[0]


def _monte_carlo(config: RunConfig, modes, n_runs: int, threads: int, chunk_size: int):
    """``monte_carlo`` of ``config`` in each of ``modes``, all arms on one draw per chunk."""
    if n_runs < 1:
        raise ConfigurationError("need at least one run")
    engine = _Engine(config.params)
    # Per arm: u_aon, u_ton, f_one, f_zero by run index.
    values = [[np.empty(n_runs) for _ in range(4)] for _ in modes]

    def work(bounds):
        start, stop = bounds
        arms = _simulate_batch(
            engine, config.seed, range(start, stop), config.n_stages, modes, config.expected_payoffs
        )
        for arm_values, out in zip(values, arms):
            for array, run_values in zip(arm_values, out[:4]):
                array[start:stop] = run_values

    _fanout(n_runs, chunk_size, work, threads)

    # Aggregate's fields are (mean, se) of the four scalars in this order.
    return [
        Aggregate(*(stat for a in arm_values for stat in _mean_se(a)), n_runs=n_runs)
        for arm_values in values
    ]


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

    Both arms advance in lockstep on the same per-run streams, drawn once, so
    each aggregate equals its own ``monte_carlo`` call and comparing a mode
    against itself yields exactly zero.
    """
    if alpha is not None:
        params = replace(params, alpha=alpha)
    if p_r is not None:
        params = replace(params, p_r=p_r)
    config = RunConfig(params, n_stages, baseline_mode, seed)
    base, coop = _monte_carlo(
        config, [baseline_mode, treatment_mode], n_runs, threads, _DEFAULT_CHUNK
    )
    return GainResult(
        gain_aon=coop.u_aon_mean - base.u_aon_mean,
        gain_ton=coop.u_ton_mean - base.u_ton_mean,
        competitive=base,
        cooperative=coop,
    )
