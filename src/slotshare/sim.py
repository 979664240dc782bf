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
chunked or threaded.  Run ``r``'s stream is read as one row of uniforms per
stage.  Column 0 is the coordination-device draw.  The AON's columns follow,
then the TON's.  A network of one or two nodes has one column per node: its
raw node draws.  A larger network of ``n`` nodes has two columns ``U, V``
and, for the AON only, a third ``W``: with ``U' = 1 - U`` and
``V' = 1 - V``, its smallest node draw is ``1 - G`` with ``G = U'**(1/n)``,
its second-smallest ``1 - G * V'**(1/(n - 1))`` (the smallest of the
``n - 1`` draws above the first), and the AON node that holds the smallest
is ``floor(W * n)``, uniform and independent of both by exchangeability.
These are the joint law of the two smallest of ``n`` uniform node draws and
of the node that holds the smallest, which is all that a slot reads.  A
chunk of runs draws its rows a block of stages at a time into one reused
buffer; a counter-based stream read in order yields the same numbers however
it is cut into blocks.

One state (``_Trajectories``) holds every trajectory of a batch chunk:
copies of its runs stacked as rows, each copy competitive or cooperative
with its own device bias, optionally forced to a stage-1 profile, with
payoffs weighted by a (stages x columns) matrix, one column per alpha
(``deviation_inequalities`` adds a stage-1 column ``1, 0, 0, ...``, whose
payoffs are exactly minus the stage-1 network age and the stage-1 TON
payoff).
``simulate`` uses one copy, the gain grid ``1 + |biases|`` and the region
sweep ``2 + 2 * |biases|``; all copies read the same draws, one slot step
per stage, by broadcasting the per-run draw against per-copy access
probabilities and biases.  Consecutive copies whose AON rules
(``equilibrium._rule``) are equal share one rule call per stage: the
cooperative copies, and with equal success and collision slots the
competitive ones too.  The node ages are column-major, so the per-stage
network age adds whole columns, left to right, and the payoff accumulators
are (columns x rows), so each stage's weighted payoff is added along the
contiguous rows of every column.  Every Monte Carlo command collects
through ``_per_run``, which cuts the runs into chunks of ``_DEFAULT_CHUNK``,
fans them out over threads and stores each run's results by run index;
it refuses fewer than two runs, which leave no standard error.  A
single row (``run_competition``/``run_cooperation``, the grim-trigger
audit) is stepped in Python floats by the one generator ``_Engine.trace``,
which replays its row of a batch bit for bit.

A node transmits iff its draw is below its network's access probability, so
a network sends 0, 1 or at least 2 packets according to whether that
probability lies above its smallest and its second-smallest draw.  Each
block is therefore turned once, before the state reads it, into per-run
draws of six values per stage: the two smallest draws of each network, the
device draw and the AON node that holds the smallest, whose age resets on an
AON success.  The two counts, each clipped at 2, make one event code
``3 * k_a + k_t`` that indexes the age growth, the TON payoff and the
recorded event.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import equilibrium as eq
from .model import AgeState, ConfigurationError, ScenarioParams
from .seeding import run_generator

_DEFAULT_CHUNK = 1024
# Size of one chunk's block buffers (raw uniform rows, and the draws made
# from them): they hold as many stages of every run as fit, at least one.
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
    """One repeated-game run."""

    params: ScenarioParams
    n_stages: int
    mode: Mode
    seed: int

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
        # Uniform columns of a stage row: the device, then each network's
        # (one per node up to two nodes; U, V and the AON's W above).
        self.aon_columns = self.n_aon if self.n_aon <= 2 else 3
        self.width = 1 + self.aon_columns + min(self.n_ton, 2)
        self.tau_ton_star = 1.0 / self.n_ton
        # Realized network throughput on a TON success: one node delivered a
        # slot's worth of bits, averaged over the network.
        self.ton_payout = params.slots.success * params.rate / self.n_ton
        # Every node's age increment, the TON payoff and the recorded event,
        # indexed by the event code 3 * k_a + k_t (each count clipped at 2):
        # code 0 is an idle slot, 1 a TON success, 3 an AON success and any
        # other a collision.
        slots = params.slots
        self.growth_by_code = np.full(9, slots.collision)
        self.growth_by_code[[0, 1, 3]] = slots.idle, slots.success, slots.success
        self.ton_by_code = np.zeros(9)
        self.ton_by_code[1] = self.ton_payout
        self.event_by_code = np.full(9, EVENT_COLLISION, dtype=np.int8)
        self.event_by_code[[0, 1, 3]] = EVENT_IDLE, EVENT_SUCCESS_TON, EVENT_SUCCESS_AON

    def uniforms(self, generators, buf: np.ndarray, n_stages: int) -> np.ndarray:
        """Draw the next ``n_stages`` rows of every run into ``buf``; returns the block."""
        for k, gen in enumerate(generators):
            gen.random(out=buf[k, :n_stages])
        return buf[:, :n_stages]

    def stage_rows(self, seed: int, run_indices: range, n_stages: int):
        """Yield each stage's draw of the runs; run ``r`` reads stream ``(seed, r)``.

        A yielded draw is a view into a buffer that the next block overwrites.
        """
        generators = [run_generator(seed, run) for run in run_indices]
        n_runs = len(generators)
        # Per run and stage: a raw row, and the six values of its draw.
        block = max(1, _BLOCK_BYTES // (8 * n_runs * (self.width + 6)))
        size = min(block, n_stages)
        buf = np.empty((n_runs, size, self.width))
        table = np.empty((size, 6, n_runs))
        for start in range(0, n_stages, block):
            raw = self.uniforms(generators, buf, min(block, n_stages - start))
            yield from self.draws(raw, table)

    def draws(self, block: np.ndarray, table: np.ndarray | None = None):
        """Yield the draw of each stage of a (runs x stages x width) uniform block.

        A draw is a (6 x runs) array: per run, the two smallest AON node
        draws, the two smallest TON node draws (+inf as the second of a
        one-node network), the device draw and the index of the AON node
        that holds the smallest (as a float).  Every copy of the runs reads
        the same draw: state row ``i`` reads run ``i % runs``.  The draws are
        views into ``table``, a (stages x 6 x runs) buffer at least as many
        stages long as the block.
        """
        n_runs, n_stages, _ = block.shape
        if table is None:
            table = np.empty((n_stages, 6, n_runs))
        table = table[:n_stages]
        columns = block.transpose(1, 2, 0)
        split = 1 + self.aon_columns
        np.copyto(table[:, 4], columns[:, 0])
        _two_smallest(columns[:, 1:split], self.n_aon, table[:, 0], table[:, 1], table[:, 5])
        _two_smallest(columns[:, split:], self.n_ton, table[:, 2], table[:, 3])
        yield from table

    def slot(self, ages: np.ndarray, draw: np.ndarray, tau_a: np.ndarray, tau_t: np.ndarray):
        """Advance all rows by one slot in place; returns each row's event code.

        ``ages`` stacks copies of the draw's runs as rows, and ``tau_a`` /
        ``tau_t`` hold one access probability per row; a negative value
        silences that network (no draw is below it).  A network has a
        transmitter iff its smallest draw is below its access probability and
        two or more iff its second-smallest is, so its count ``k`` reads 0, 1
        or 2 (two or more); the event code is ``3 * k_a + k_t``.  The draw is
        compared with the taus viewed as (copies x runs), so no copy of the
        draw is made.
        """
        runs = draw.shape[1]
        shape = (len(ages) // runs, runs)
        below_a = draw[0:2, None] < tau_a.reshape(shape)
        below_t = draw[2:4, None] < tau_t.reshape(shape)
        k_a = np.add(below_a[0], below_a[1], dtype=np.int8).ravel()
        k_t = np.add(below_t[0], below_t[1], dtype=np.int8).ravel()
        code = 3 * k_a + k_t
        ages += self.growth_by_code.take(code)[:, None]
        resets = np.flatnonzero(code == 3)
        if resets.size:
            # The lone AON transmitter is the node that holds the smallest draw.
            nodes = draw[5].take(resets % runs).astype(np.intp)
            ages[resets, nodes] = self.slots.success
        return code

    def slot_one(self, ages: list, draw, tau_a: float, tau_t: float) -> int:
        """``slot`` for a single row in Python floats; returns the event code.

        ``ages`` is the row's node ages, advanced in place, and ``draw`` its
        six draw values.  The comparisons, the growth by code and the reset
        are ``slot``'s, so the row replays the engine's bit for bit without
        the per-call cost of numpy on one row.
        """
        a1, a2, t1, t2, _, node = draw
        code = 3 * ((a1 < tau_a) + (a2 < tau_a)) + (t1 < tau_t) + (t2 < tau_t)
        growth = float(self.growth_by_code[code])
        ages[:] = [age + growth for age in ages]
        if code == 3:
            ages[int(node)] = self.slots.success
        return code

    def network_age_one(self, ages: list) -> float:
        """The mean of one row's node ages, added left to right as ``_Trajectories`` adds columns.

        Not ``sum``: from Python 3.12 it compensates float rounding.
        """
        return functools.reduce(operator.add, ages) / self.n_aon

    def trace(self, seed: int, run: int, n_stages: int, p_r=None, switch=None, joint=True):
        """Step run ``run`` of ``seed`` as one row in Python floats, yielding each stage.

        Before stage ``switch`` (always when None) the row obeys a device of
        bias ``p_r``, or competes when ``p_r`` is None; at ``switch`` it plays
        the cooperative tau with the TON (``joint``) or silences both; after
        it, it competes.  A stage yields the device draw, the rule's tau, the
        played tau_aon, the event code, the network age and the node ages
        (a list that the next stage advances in place).
        """
        sizes, slots = self.sizes, self.slots
        rules = {competitive: eq._rule(sizes, slots, competitive) for competitive in (False, True)}
        # Per phase (competitive, aon_bias, ton_bias): as in _Trajectories the AON
        # may access below aon_bias and the TON at or above ton_bias.
        inf = float("inf")
        before = (True, inf, -inf) if p_r is None else (False, p_r, p_r)
        at = (False, inf, -inf) if joint else (False, -inf, inf)
        after = (True, inf, -inf)
        ages = [self.params.initial_age] * self.n_aon
        delta = self.network_age_one(ages)
        for n, draw in enumerate(self.stage_rows(seed, range(run, run + 1), n_stages)):
            draw = draw[:, 0].tolist()
            phase = before if switch is None or n < switch else at if n == switch else after
            tau = eq._tau(delta, sizes, slots, rules[phase[0]])
            tau_a = tau if draw[4] < phase[1] else -1.0
            tau_t = self.tau_ton_star if draw[4] >= phase[2] else -1.0
            code = self.slot_one(ages, draw, tau_a, tau_t)
            delta = self.network_age_one(ages)
            yield draw[4], tau, tau_a, code, delta, ages


def _two_smallest(columns: np.ndarray, n: int, first, second, node=None) -> None:
    """Write a network's two smallest node draws, per stage and run, into ``first``/``second``.

    ``columns`` is (stages x columns x runs): the raw node draws of a
    network of one or two nodes, else the uniforms ``U, V`` (and ``W`` when
    ``node`` is given) of the two smallest of ``n`` draws, as the module
    docstring sets out.  ``node`` receives the index of the node that holds
    the smallest draw; between two raw draws a tie goes to node 0.
    """
    if n >= 3:
        np.subtract(1.0, columns[:, 0], out=first)
        np.power(first, 1.0 / n, out=first)
        np.subtract(1.0, columns[:, 1], out=second)
        np.power(second, 1.0 / (n - 1), out=second)
        np.multiply(first, second, out=second)
        # 1 - G and 1 - G * H with G, H in (0, 1]: both in [0, 1), ordered.
        np.subtract(1.0, second, out=second)
        np.subtract(1.0, first, out=first)
        if node is not None:
            np.multiply(columns[:, 2], n, out=node)
            np.floor(node, out=node)
    elif n == 2:
        if node is not None:
            np.less(columns[:, 1], columns[:, 0], out=node)
        np.minimum(columns[:, 0], columns[:, 1], out=first)
        np.maximum(columns[:, 0], columns[:, 1], out=second)
    else:
        np.copyto(first, columns[:, 0])
        second.fill(np.inf)
        if node is not None:
            node.fill(0.0)


def _discount_weights(alphas, n_stages: int) -> np.ndarray:
    """(stages x alphas) weights ``(1 - a) * a**n``, as a running product over stages."""
    alphas = np.asarray(alphas, dtype=np.float64)
    if n_stages < 1:
        raise ConfigurationError("need at least one stage")
    # Written so that NaN fails too.
    if not np.all((alphas > 0.0) & (alphas < 1.0)):
        raise ConfigurationError("discount factor must lie in (0, 1)")
    factors = np.empty((n_stages, alphas.size))
    factors[0] = 1.0 - alphas
    factors[1:] = alphas
    return np.cumprod(factors, axis=0)


class _Trajectories:
    """Copies of a chunk's runs stacked as rows, advanced one stage at a time.

    Row ``b * n_runs + r`` replays run ``r``'s draws in copy ``b``.  Copy
    ``b`` plays the competitive equilibrium when ``p_rs[b]`` is None, and
    otherwise obeys a device of bias ``p_rs[b]`` at the cooperative optimum.
    ``stage1``, when given, holds the per-row (tau_aon, tau_ton) that every
    row plays in stage 1 instead; a negative value silences that network.

    ``ages`` is the (rows x n_aon) node ages, column-major so that each
    node's ages are one contiguous column and the network age is a sum of
    columns.  Accumulators: ``u_aon``/``u_ton`` are (columns x rows)
    payoffs, stage ``n`` weighted by ``weights[n]``: column-major, so that
    each stage's multiply-and-add runs along the long row axis rather than
    the few weight columns; ``count_one``/``count_zero``/``n_access`` count
    the stages in which the AON may access, with probability 1, 0 or any.
    """

    def __init__(self, engine: _Engine, n_runs, p_rs, weights, stage1=None):
        self.engine, self.weights, self.stage1 = engine, weights, stage1
        rows = len(p_rs) * n_runs
        self.shape = (len(p_rs), n_runs)
        self.ages = np.full((rows, engine.n_aon), engine.params.initial_age, order="F")
        self.delta = self._network_age()
        self.u_aon, self.u_ton = np.zeros((2, weights.shape[1], rows))
        self.count_one, self.count_zero, self.n_access = np.zeros((3, rows), dtype=np.int64)
        # Per copy, the device draw below which the AON may access and at or
        # above which the TON may: a competitive copy lets both access.
        self.aon_bias = np.array([[np.inf if p_r is None else p_r] for p_r in p_rs])
        self.ton_bias = np.array([[-np.inf if p_r is None else p_r] for p_r in p_rs])
        # Consecutive copies that follow the same AON rule share one call on
        # their rows' network ages.
        rules = [eq._rule(engine.sizes, engine.slots, p_r is None) for p_r in p_rs]
        self.groups, start = [], 0
        for rule, group in itertools.groupby(rules):
            stop = start + len(list(group))
            self.groups.append((rule, slice(start * n_runs, stop * n_runs)))
            start = stop

    def _network_age(self) -> np.ndarray:
        """Per row, the mean of the node ages, adding whole columns left to right.

        Not ``ages.mean(axis=1)``: a single row is contiguous along that axis,
        where numpy sums pairwise, so at 8 or more AON nodes a one-run chunk
        would differ in the last bits from the same run in a larger chunk.
        """
        total = self.ages[:, 0].copy()
        for column in self.ages.T[1:]:
            total += column
        return total / self.engine.n_aon

    def _play(self, device):
        """The played (tau_aon, tau_ton) of every row."""
        engine = self.engine
        sizes, slots = engine.sizes, engine.slots
        taus = [eq._tau(self.delta[rows], sizes, slots, rule) for rule, rows in self.groups]
        tau = taus[0] if len(taus) == 1 else np.concatenate(taus)
        tau_a = np.where(device < self.aon_bias, tau.reshape(self.shape), -1.0)
        tau_t = np.where(device >= self.ton_bias, engine.tau_ton_star, -1.0)
        return tau_a.ravel(), tau_t.ravel()

    def step(self, n: int, draw: np.ndarray) -> None:
        engine, weights = self.engine, self.weights[n]
        if n == 0 and self.stage1 is not None:
            tau_a, tau_t = self.stage1
        else:
            tau_a, tau_t = self._play(draw[4])
        code = engine.slot(self.ages, draw, tau_a, tau_t)
        self.count_one += tau_a == 1.0
        self.count_zero += tau_a == 0.0
        self.n_access += tau_a >= 0.0
        # The stage's payoffs, and the next stage's network age.
        self.delta = self._network_age()
        self.u_aon -= weights[:, None] * self.delta
        self.u_ton += weights[:, None] * engine.ton_by_code.take(code)

    def frequencies(self) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the shares of the AON's access stages at probability 1 and 0 (0 if none)."""
        return tuple(
            np.divide(count, self.n_access, out=np.zeros(count.size), where=self.n_access > 0)
            for count in (self.count_one, self.count_zero)
        )


def _simulate_batch(
    engine: _Engine,
    seed: int,
    run_indices: range,
    p_rs,
    weights: np.ndarray,
    stage1: np.ndarray | None = None,
) -> _Trajectories:
    """Advance one copy of the runs per entry of ``p_rs`` through every row of ``weights``.

    All copies read the runs' shared draws, one slot step per stage.
    """
    state = _Trajectories(engine, len(run_indices), p_rs, weights, stage1)
    for n, draw in enumerate(engine.stage_rows(seed, run_indices, len(weights))):
        state.step(n, draw)
    return state


def _run_single(config: RunConfig, run_index: int = 0) -> RunResult:
    """One run folded from ``_Engine.trace``, discounted and counted as its batch row is."""
    params = config.params
    engine = _Engine(params)
    p_r = None if config.mode is Mode.COMPETITIVE else params.p_r
    weights = _discount_weights([params.alpha], config.n_stages)[:, 0].tolist()
    ton_by_code = engine.ton_by_code.tolist()
    u_aon = u_ton = 0.0
    stages = []
    for w, (_, tau, tau_a, code, delta, ages) in zip(
        weights, engine.trace(config.seed, run_index, config.n_stages, p_r)
    ):
        u_aon -= w * delta
        u_ton += w * ton_by_code[code]
        stages.append((delta, tau, tau_a, code))
    delta, tau, tau_a, code = map(np.array, zip(*stages))
    access = np.count_nonzero(tau_a >= 0.0)
    freqs = [np.count_nonzero(tau_a == x) / access if access else 0.0 for x in (1.0, 0.0)]
    selected = None if p_r is None else tau_a >= 0.0
    events = engine.event_by_code.take(code)
    record = StageRecord(-delta, engine.ton_by_code.take(code), tau, events, selected)
    return RunResult(u_aon, u_ton, *freqs, AgeState(ages), record)


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


def _fanout(n_runs: int, work, threads: int) -> None:
    """Call ``work((start, stop))`` on each run chunk; a pool starts only for several."""
    if threads < 1:
        raise ConfigurationError(f"need at least one thread, got {threads}")
    chunks = [(s, min(s + _DEFAULT_CHUNK, n_runs)) for s in range(0, n_runs, _DEFAULT_CHUNK)]
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, chunks))
    else:
        for bounds in chunks:
            work(bounds)


def _per_run(params: ScenarioParams, seed, n_runs, p_rs, weights, threads, stage1=None):
    """Per-run results of one copy of the runs per entry of ``p_rs``, by run index.

    Copy ``b`` competes when ``p_rs[b]`` is None and otherwise obeys a device
    of that bias; ``stage1`` is an optional (2 x copies) array of each copy's
    stage-1 (tau_aon, tau_ton).  ``weights`` is the (stages x columns)
    payoff weight matrix: ``_discount_weights`` gives one column per alpha,
    and a caller may append others, such as ``np.eye(n_stages, 1)`` for the
    stage-1 outcomes.  Returns, run axis last so that each reduction reads
    one contiguous row, the (AON, TON) payoffs (2 x copies x columns x runs)
    and the access frequencies at 1 and 0 (2 x copies x runs).
    """
    if n_runs < 2:
        raise ConfigurationError("a Monte Carlo estimate needs at least two runs")
    engine = _Engine(params)
    copies, n_columns = len(p_rs), weights.shape[1]
    payoffs = np.empty((2, copies, n_columns, n_runs))
    freqs = np.empty((2, copies, n_runs))

    def work(bounds):
        start, stop = bounds
        size = stop - start
        rows = None if stage1 is None else np.repeat(stage1, size, axis=1)
        state = _simulate_batch(engine, seed, range(start, stop), p_rs, weights, rows)
        # State row b * size + r is run start + r in copy b.
        pay = np.reshape((state.u_aon, state.u_ton), (2, n_columns, copies, size))
        payoffs[..., start:stop] = pay.swapaxes(1, 2)
        freqs[..., start:stop] = np.reshape(state.frequencies(), (2, copies, size))

    _fanout(n_runs, work, threads)
    return payoffs, freqs


def _mean_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means and standard errors over the last (run) axis."""
    n_runs = values.shape[-1]
    return values.mean(axis=-1), values.std(axis=-1, ddof=1) / np.sqrt(n_runs)


def _aggregate(payoffs: np.ndarray, freqs: np.ndarray, copy: int, column: int) -> Aggregate:
    """Copy ``copy``'s ``Aggregate`` at alpha column ``column``: (mean, se) of its four rows."""
    rows = (*payoffs[:, copy, column], *freqs[:, copy])
    return Aggregate(*(float(s) for row in rows for s in _mean_se(row)), n_runs=freqs.shape[-1])


def monte_carlo(config: RunConfig, n_runs: int, threads: int = 1) -> Aggregate:
    """Average the run scalars over independent runs.

    Run ``r`` draws from the stream keyed by ``(config.seed, r)``, results are
    stored by run index, and the reductions use numpy's pairwise summation,
    so the aggregate is bit-identical for a fixed seed at any thread count or
    chunk size.
    """
    params = config.params
    p_r = None if config.mode is Mode.COMPETITIVE else params.p_r
    weights = _discount_weights([params.alpha], config.n_stages)
    return _aggregate(*_per_run(params, config.seed, n_runs, [p_r], weights, threads), 0, 0)


@dataclass(frozen=True)
class GainResult:
    """Cooperation-minus-competition discounted payoffs from paired batches.

    ``se_gain_aon``/``se_gain_ton`` are the standard errors of the per-run
    differences: both arms replay each run's stream, so they are paired.
    """

    gain_aon: float
    gain_ton: float
    se_gain_aon: float
    se_gain_ton: float
    competitive: Aggregate
    cooperative: Aggregate


def gain_grid(
    params: ScenarioParams,
    n_runs: int,
    n_stages: int,
    seed: int,
    alphas,
    biases,
    threads: int = 1,
) -> list[list[GainResult]]:
    """Paired gains of cooperating on every (alpha, bias) cell, ``[alpha][bias]``.

    The copies are one competitive copy, then one cooperative copy per bias,
    all on the run streams ``(seed, r)``; alpha only selects a column of
    discount weights.
    Cell ``[i][j]`` equals ``gain_of_cooperation`` at that point alone.
    """
    alphas, biases = np.asarray(alphas, dtype=np.float64), np.asarray(biases, dtype=np.float64)
    if alphas.size == 0 or biases.size == 0:
        raise ConfigurationError("alpha and bias grids need at least one value")
    if not np.all((biases >= 0.0) & (biases <= 1.0)):
        raise ConfigurationError("device bias must lie in [0, 1]")
    p_rs = [None, *biases]
    weights = _discount_weights(alphas, n_stages)
    payoffs, freqs = _per_run(params, seed, n_runs, p_rs, weights, threads)

    def cell(i, j):
        base = _aggregate(payoffs, freqs, 0, i)
        coop = _aggregate(payoffs, freqs, 1 + j, i)
        se_aon, se_ton = map(float, _mean_se(payoffs[:, 1 + j, i] - payoffs[:, 0, i])[1])
        return GainResult(
            gain_aon=coop.u_aon_mean - base.u_aon_mean,
            gain_ton=coop.u_ton_mean - base.u_ton_mean,
            se_gain_aon=se_aon,
            se_gain_ton=se_ton,
            competitive=base,
            cooperative=coop,
        )

    return [[cell(i, j) for j in range(biases.size)] for i in range(alphas.size)]


def gain_of_cooperation(
    params: ScenarioParams,
    n_runs: int,
    n_stages: int,
    seed: int,
    threads: int = 1,
) -> GainResult:
    """Paired gain of cooperating over competing under a shared master seed.

    Both arms advance in lockstep on the same per-run streams, drawn once, so
    each aggregate equals its own ``monte_carlo`` call.
    """
    axes = [params.alpha], [params.p_r]
    return gain_grid(params, n_runs, n_stages, seed, *axes, threads)[0][0]
