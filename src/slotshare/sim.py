"""Repeated-game engine: competitive and cooperative trajectories.

A run plays the stage game for ``n_stages`` slots, re-solving the AON's
access probability from the current network age every stage, sampling the
slot outcome, and accumulating the discounted payoff stream
``(1 - alpha) * sum(alpha**(n-1) * u_n)``.  Truncating the infinite horizon
at ``n_stages`` leaves a tail bounded by ``alpha**n_stages * sup|u|`` which
is ignored, matching the evaluation protocol.

Runs are vectorized: a batch of runs advances in lockstep, and run ``r``
reads one row of uniforms per stage from counter-based streams (see
``seeding``), so results are bit-identical for a fixed master seed no matter
how the batch is chunked or threaded.  Column 0 is the coordination-device
draw, the AON's columns follow, and the last is the TON's.  An AON of one
or two nodes has one column per node, its raw node draws.  A larger AON of
``n`` nodes has three, ``U, V, W``: with ``U' = 1 - U`` and ``V' = 1 - V``,
its smallest node draw is ``1 - G`` with ``G = U'**(1/n)``, its
second-smallest ``1 - G * V'**(1/(n - 1))`` (the smallest of the ``n - 1``
draws above the first), and the node that holds the smallest is
``floor(W * n)``, independent of both by exchangeability: the joint law of
all that a slot reads of the AON.  The TON's column gives its count at
``tau_T*`` by inverse CDF (``_Engine.compact``).  A chunk draws whole stage
blocks, ``_SUB_CHUNK`` runs of a block per call, and the transform is
elementwise, so neither chunks nor sub-chunks change a draw.

Every trajectory plays a schedule: a list of ``(start_stage, plays)``, one
play per copy of the runs, each in force until the next entry's stage.  A
play is None (compete), a device bias p (obey a device of bias p: 1.0 is
heads, the AON alone, and 0.0 tails, the TON alone), ``JOINT`` (both
networks on the air at the cooperative tau) or ``IDLE`` (both silent), and
``_Engine.access`` turns it into who may access.

One state (``_Trajectories``) holds every trajectory of a batch chunk:
copies of its runs stacked as rows, each playing its schedule, with
payoffs weighted by a (stages x columns) matrix, one column per alpha
(``deviation_inequalities`` adds a stage-1 column ``1, 0, 0, ...``, whose
payoffs are exactly minus the stage-1 network age and the stage-1 TON
payoff).
``simulate`` uses one copy, the gain grid ``1 + |biases|`` and the region
sweep ``2 + 2 * |biases|``; all copies read the same draws, one slot step
per stage, by broadcasting the per-run draw against per-copy access
probabilities and biases.  Each distinct AON rule (``equilibrium._rule``)
is folded once per scenario into its ``(one, rows)`` evaluators
(``equilibrium._fold``), and consecutive copies under one rule share
one ``rows`` call per stage: the cooperative copies, and with equal success
and collision slots the competitive ones too.  The node ages are
column-major, so the per-stage network age adds whole columns, left to
right, and the payoff accumulators are (columns x rows), so each stage's
weighted payoff is added along the contiguous rows of every column.  Every
Monte Carlo command collects through ``_per_run``, which cuts the runs into
chunks of ``ceil(runs / threads)`` runs within ``[_MIN_CHUNK,
_DEFAULT_CHUNK]``, fans them out over threads when the chunks hold at least
``_POOL_COPIES`` copies, and stores each run's results by run index; it
refuses fewer than two runs, which leave no standard error.  A single row
(the grim-trigger audit) is stepped in Python floats by ``_Engine.trace``,
which replays its batch row bit for bit: the same rules' ``one``
evaluators, slot step and network age (``_mean_left_to_right``).

A caller that passes its estimates (the gain grid, the region sweep and
the deviation report) estimates over a two-level horizon, multilevel Monte
Carlo over the stages (Giles, Operations Research 56, 2008): all ``N0``
runs step the head, the stages before the call's cut, and only the first
N1 of them the tail.  The first ``_SUB_CHUNK`` runs (the pilot) step every
stage and record their payoffs at every stage-block boundary; from them
the call takes one cut and one N1, those of the fewest row-stages stepped
(``_two_levels``, ``_tail_runs``), and every estimate reads every
row-stage that the call steps (``_mean_se``).  A run's head is the same
bits at either horizon, so the levels pair.  With no more runs than the
pilot, no more stages than one block, or N1 = N0, the call stays one
level, bit for bit.  A gain cell's access frequencies are one-level means
over the first N1 runs, which step every stage.
``simulate`` and ``freq`` stay one level: their output is the
frequencies, ratios over every stage, whose tails need nearly every run.

A node transmits iff its draw is below its network's access probability, so
the AON sends 0, 1 or at least 2 packets according to whether its tau lies
above its smallest and its second-smallest draw.  No schedule can state
another TON tau than ``tau_T* = 1 / n_ton``: the TON accesses at it or is
silenced, so its count is fixed when the block is drawn.  Each sub-chunk of
a block is therefore turned once, before the state reads it, into a compact
record per run and stage: the AON's two smallest draws and the device draw
(doubles), the TON's count (``int8``), and the AON node that holds the
smallest, whose age resets on an AON success (the smallest unsigned type
that holds ``n_aon - 1``).  A slot counts the AON's transmitters, reads the
TON's count or 0, and makes one event code ``3 * k_a + k_t`` that indexes
the age growth and the TON payoff.
"""

from __future__ import annotations

import enum
import itertools
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import equilibrium as eq
from . import seeding
from .model import ConfigurationError, ScenarioParams

# A chunk is ceil(runs / threads) runs wide, clipped to
# [_MIN_CHUNK, _DEFAULT_CHUNK]: threads share only batches of many runs.
_DEFAULT_CHUNK = 4096
_MIN_CHUNK = 1024
# Fewest copies of the runs for which a thread pool pays.  With the pool
# forced on, a one-copy 8192 x 1000 batch took 0.80-1.02 s at one thread and
# 0.79-0.98 s at two (1.22-1.44 s and 2.04-2.43 s with one Philox call per run).
_POOL_COPIES = 8
# Runs whose raw uniform rows are drawn into one small buffer; a chunk of
# fewer runs compacts several stage blocks at a time.  Also the two-level
# horizon's pilot, and the fewest runs that step its tail.
_SUB_CHUNK = 256
# The most by which an estimate's predicted two-level SE may exceed its
# one-level SE when N1 is chosen.  At 1.01 the alpha-0.95 margins of a
# 512-run, 300-stage sweep took N1 = 263-318 on 19 of 20 seeds, and the
# narrow batch that then steps those runs' tails cost more than the two
# levels saved; at 1.02 every N1 was 256.
_SE_SLACK = 1.02

# The forced plays of a schedule, beside a device bias and competition (None).
JOINT, IDLE = "joint", "idle"


class Mode(enum.Enum):
    COMPETITIVE = "competitive"
    COOPERATIVE = "cooperative"


@dataclass(frozen=True)
class RunConfig:
    """A Monte Carlo estimate's scenario, stage count, mode and master seed."""

    params: ScenarioParams
    n_stages: int
    mode: Mode
    seed: int

    def __post_init__(self):
        _check_stages(self.n_stages)


@dataclass(frozen=True)
class Aggregate:
    """Across-run means and standard errors of the run scalars over ``n_runs`` runs.

    In a two-level gain cell (``gain_grid``) the payoffs are two-level
    estimates over the ``n_runs`` runs and the frequencies read the call's
    first N1.
    """

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
        slots = self.slots = params.slots
        self.n_aon, self.n_ton = params.sizes.n_aon, params.sizes.n_ton
        # Uniform columns of a stage row: the device, the AON's (one per node
        # up to two nodes, else U, V and W) and one for the TON.
        self.aon_columns = self.n_aon if self.n_aon <= 2 else 3
        self.width = 2 + self.aon_columns
        # The TON's count at tau_T*, clipped at 2, from its one uniform by
        # inverse CDF: 0 below P(no sender), 1 below P(at most one), else 2.
        tau = self.tau_ton_star = 1.0 / self.n_ton
        none = (1.0 - tau) ** self.n_ton
        self.ton_cdf = none, none + self.n_ton * tau * (1.0 - tau) ** (self.n_ton - 1)
        # A compact draw's reset node: the smallest type that holds its index.
        self.node_dtype = np.min_scalar_type(self.n_aon - 1)
        # Realized network throughput on a TON success: one node delivered a
        # slot's worth of bits, averaged over the network.
        self.ton_payout = slots.success * params.rate / self.n_ton
        # Every node's age increment and the TON payoff, indexed by the event
        # code 3 * k_a + k_t (each count clipped at 2): code 0 is an idle
        # slot, 1 a TON success, 3 an AON success and any other a collision.
        self.growth_by_code = np.full(9, slots.collision)
        self.growth_by_code[[0, 1, 3]] = slots.idle, slots.success, slots.success
        self.ton_by_code = np.zeros(9)
        self.ton_by_code[1] = self.ton_payout
        # The AON rule's evaluators when competing and when obeying, folded
        # once per scenario and rule (``equilibrium._fold``): at sigma_S =
        # sigma_C the modes share one pair, and so do engines of one scenario.
        self.compete, self.obey = (
            eq._fold(params.sizes, slots, eq._rule(params.sizes, slots, competitive))
            for competitive in (True, False)
        )

    def access(self, play):
        """Who may access under one play of a schedule: ``(evaluators, aon_bias, ton_bias)``.

        The AON may access at the tau of its rule's ``(one, rows)`` evaluators
        (``equilibrium._evaluators``) where the device draw is below
        ``aon_bias``, and the TON at ``tau_T*`` where it is at or above ``ton_bias``.
        """
        inf = float("inf")
        if play is None:
            return self.compete, inf, -inf
        biases = {JOINT: (inf, -inf), IDLE: (-inf, inf)}.get(play, (play, play))
        return self.obey, *biases

    def uniforms(self, stream, seed: int, block: int, run: int, out: np.ndarray) -> np.ndarray:
        """Draw stage block ``block`` of runs ``run``, ``run + 1``, ... into ``out``; returns it.

        ``out`` is a contiguous (runs x ``seeding.BLOCK_STAGES`` x width)
        array, one stretch of the block's stream, so it takes one call.
        """
        stream.seek(seed, block, run, self.width)
        return stream.random(out=out)

    def table(self, n_runs: int, n_blocks: int, n_stages: int) -> tuple:
        """An empty compact draw table: (AON's two smallest, device, TON count, reset node).

        Blocks and their stages are the first axes of each array and run the
        last, so a stage's draw of every run is contiguous.
        """
        shape = n_blocks, n_stages
        return (
            np.empty((*shape, 2, n_runs)),
            np.empty((*shape, n_runs)),
            np.empty((*shape, n_runs), dtype=np.int8),
            np.empty((*shape, n_runs), dtype=self.node_dtype),
        )

    def compact(self, raw: np.ndarray, table, work: np.ndarray) -> None:
        """Write the compact draws of (blocks x runs x stages x width) uniforms into ``table``.

        ``work`` is a contiguous (2 x blocks x stages x runs) buffer in which
        the AON's two smallest are made: in one pass per operation, rather
        than one per stage row of the table.
        """
        aon, device, ton, node = table
        columns = raw.transpose(0, 2, 3, 1)
        _two_smallest(columns[..., 1:-1, :], self.n_aon, *work, node)
        np.copyto(aon, work.transpose(1, 2, 0, 3))
        np.copyto(device, columns[..., 0, :])
        none, at_most_one = self.ton_cdf
        u = columns[..., -1, :]
        np.add(u >= none, u >= at_most_one, out=ton, dtype=np.int8)

    def blocks(self, seed: int, run_indices: range, n_stages: int):
        """Yield the runs' compact draw tables, whole stage blocks at a time, cut to ``n_stages``.

        A table holds one block, or ``_SUB_CHUNK // runs`` for a narrower
        chunk, so that a single row of a few hundred stages is one
        compaction.  Each yielded table is a view into one buffer that the
        next table overwrites.
        """
        n_runs, size = len(run_indices), seeding.BLOCK_STAGES
        n_blocks = -(-n_stages // size)
        per_table = min(n_blocks, max(1, _SUB_CHUNK // n_runs))
        sub = min(_SUB_CHUNK, n_runs)
        stream = seeding.BlockStream()
        buf = np.empty((per_table, sub, size, self.width))
        work = np.empty(2 * per_table * size * sub)
        table = self.table(n_runs, per_table, size)
        for first in range(0, n_blocks, per_table):
            k = min(per_table, n_blocks - first)
            for lo in range(0, n_runs, sub):
                runs = min(sub, n_runs - lo)
                for j in range(k):
                    self.uniforms(stream, seed, first + j, run_indices[lo], buf[j, :runs])
                part = [t[:k, ..., lo : lo + runs] for t in table]
                scratch = work[: 2 * k * size * runs].reshape(2, k, size, runs)
                self.compact(buf[:k, :runs], part, scratch)
            stages = min(k * size, n_stages - first * size)
            yield [t[:k].reshape(k * size, *t.shape[2:])[:stages] for t in table]

    def stage_rows(self, seed: int, run_indices: range, n_stages: int):
        """Yield each stage's compact draw of the runs (see ``blocks``).

        A draw is a tuple ``(aon, device, ton, node)``: per run, the AON's two
        smallest node draws (a 2 x runs array), the device draw, the TON's
        transmitter count at ``tau_T*`` clipped at 2, and the AON node that
        holds the smallest.  State row ``i`` reads run ``i % runs``.
        """
        for table in self.blocks(seed, run_indices, n_stages):
            yield from zip(*table)

    def slot(self, ages: np.ndarray, draw, tau_a: np.ndarray, ton: np.ndarray):
        """Advance all rows by one slot in place; returns each row's event code.

        ``ages`` stacks copies of the draw's runs as rows.  ``tau_a`` holds one
        AON access probability per row, a negative value silencing the AON,
        and ``ton`` whether each row's TON accesses at ``tau_T*``.  The AON
        has a transmitter iff its smallest draw is below ``tau_a`` and two or
        more iff its second-smallest is, so its count ``k_a`` reads 0, 1 or 2
        (two or more); the TON's ``k_t`` is the draw's count, or 0 where it is
        silenced.  The event code is ``3 * k_a + k_t``.  The draw is compared
        with the rows viewed as (copies x runs), so no copy of the draw is made.
        """
        aon, _, count, node = draw
        runs = count.size
        shape = (len(ages) // runs, runs)
        below = aon[:, None] < tau_a.reshape(shape)
        code = np.add(below[0], below[1], dtype=np.int8)
        code *= 3
        code += ton.reshape(shape) * count
        code = code.ravel()
        ages += self.growth_by_code.take(code)[:, None]
        resets = np.flatnonzero(code == 3)
        if resets.size:
            # The lone AON transmitter is the node that holds the smallest draw.
            ages[resets, node.take(resets % runs)] = self.slots.success
        return code

    def trace(self, seed: int, run: int, n_stages: int, schedule):
        """Step run ``run`` of ``seed`` as one row in Python floats, yielding each stage.

        The row plays the one-copy ``schedule`` as its copy of a batch does:
        each entry's rule by its float evaluator, then ``slot``'s comparisons,
        growth by code and reset, bit for bit without numpy's per-call cost.
        A stage yields the device draw, the rule's tau, the played tau_aon,
        the event code, the network age and the node ages (a list that the
        next stage advances in place).
        """
        _check_seed(seed)
        _check_count(run, 0, "run index must be a non-negative integer")
        phases = {start: self.access(play) for start, (play,) in schedule}
        # Floats, not numpy scalars: two np.bool_ comparisons add as a logical OR.
        delta, phase = float(self.params.initial_age), phases[0]
        ages, growth_by_code = [delta] * self.n_aon, self.growth_by_code.tolist()
        # The row's draws, converted to Python numbers a table at a time.
        draws = itertools.chain.from_iterable(
            zip(*aon[..., 0].T.tolist(), *(t[:, 0].tolist() for t in rest))
            for aon, *rest in self.blocks(seed, range(run, run + 1), n_stages)
        )
        for n, (a1, a2, device, count, node) in enumerate(draws):
            (tau_of, _), aon_bias, ton_bias = phase = phases.get(n, phase)
            tau = tau_of(delta)
            tau_a = tau if device < aon_bias else -1.0
            code = 3 * ((a1 < tau_a) + (a2 < tau_a)) + (count if device >= ton_bias else 0)
            growth = growth_by_code[code]
            ages[:] = [age + growth for age in ages]
            if code == 3:
                # The lone AON transmitter resets to a success slot, code 3's growth.
                ages[node] = growth
            delta = _mean_left_to_right(ages)
            yield device, tau, tau_a, code, delta, ages


def _check_seed(seed) -> None:
    """Refuse a seed that keys no stream of its own: only integers in [0, 2**64) do."""
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2**64):
        raise ConfigurationError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _check_count(n, least: int, message: str) -> None:
    """Refuse a count that is not an integer of at least ``least``, numpy integers included."""
    if not (isinstance(n, numbers.Integral) and n >= least):
        raise ConfigurationError(f"{message}, got {n!r}")


def _check_stages(n_stages) -> None:
    _check_count(n_stages, 1, "stage count must be an integer of at least 1")


def _mean_left_to_right(ages):
    """The network age: the mean of the node ages, added left to right.

    ``ages`` is one row's list of floats or the batch's (nodes x rows)
    array.  The sum starts from the first two nodes' sum, a new array; a
    lone node is copied by ``* 1.0``, which keeps a float's bits, -0.0
    included.  Not ``sum``, which compensates rounding from Python 3.12
    on, nor numpy's row sum, which adds pairwise from 8 nodes on: a one-run
    chunk would then differ in the last bits from the same run in a larger one.
    """
    total = ages[0] + ages[1] if len(ages) > 1 else ages[0] * 1.0
    for age in ages[2:]:
        total += age
    return total / len(ages)


def _two_smallest(columns: np.ndarray, n: int, first, second, node) -> None:
    """Write the AON's two smallest node draws, per stage and run, into ``first``/``second``.

    ``columns`` is (... x columns x runs): the raw node draws of an AON of
    one or two nodes, else the uniforms ``U, V, W`` of the two smallest of
    ``n`` draws, as the module docstring sets out.  ``node``, an integer
    array, receives the index of the node that holds the smallest draw;
    between two raw draws a tie goes to node 0.
    """
    u = [columns[..., i, :] for i in range(columns.shape[-2])]
    if n >= 3:
        np.subtract(1.0, u[0], out=first)
        np.power(first, 1.0 / n, out=first)
        np.subtract(1.0, u[1], out=second)
        np.power(second, 1.0 / (n - 1), out=second)
        np.multiply(first, second, out=second)
        # 1 - G and 1 - G * H with G, H in (0, 1]: both in [0, 1), ordered.
        np.subtract(1.0, second, out=second)
        np.subtract(1.0, first, out=first)
        # floor(W * n): W * n is not negative, so the cast truncates to it.
        np.multiply(u[2], n, out=node, casting="unsafe")
    elif n == 2:
        np.less(u[1], u[0], out=node)
        np.minimum(u[0], u[1], out=first)
        np.maximum(u[0], u[1], out=second)
    else:
        np.copyto(first, u[0])
        second.fill(np.inf)
        node.fill(0)


def _discount_weights(alphas, n_stages: int) -> np.ndarray:
    """(stages x alphas) weights ``(1 - a) * a**n``, as a running product over stages."""
    alphas = np.asarray(alphas, dtype=np.float64)
    _check_stages(n_stages)
    # Written so that NaN fails too.
    if not np.all((alphas > 0.0) & (alphas < 1.0)):
        raise ConfigurationError("discount factor must lie in (0, 1)")
    factors = np.empty((n_stages, alphas.size))
    factors[0] = 1.0 - alphas
    factors[1:] = alphas
    return np.cumprod(factors, axis=0)


class _Trajectories:
    """Copies of a chunk's runs stacked as rows, advanced one stage at a time.

    Row ``b * n_runs + r`` replays run ``r``'s draws in copy ``b``, which
    plays entry ``b`` of each play list of ``schedule``.  Per schedule entry a
    phase holds the rule groups (consecutive copies under one AON rule share
    one ``rows`` call on their rows' network ages) and the per-copy bias columns.

    ``ages`` is the (rows x n_aon) node ages, column-major so that each
    node's ages are one contiguous column and the network age is a sum of
    columns; every row starts at network age ``initial_age``.  Accumulators:
    ``u_aon``/``u_ton`` are (columns x rows) payoffs, stage ``n`` weighted
    by ``weights[n]``: column-major, so that each stage's multiply-and-add
    runs along the long row axis rather than the few weight columns.  Only
    when ``counted`` (for ``frequencies``), ``count_one``/``count_zero``/
    ``n_access`` count the stages in which the AON may access, with
    probability 1, 0 or any.  ``heads``, which ``_simulate_batch`` fills,
    holds the (AON, TON) payoffs of the stages before each cut.
    """

    def __init__(self, engine: _Engine, n_runs, schedule, weights, counted=True):
        self.engine, self.weights = engine, weights
        self.phases = {start: self._phase(plays, n_runs) for start, plays in schedule}
        self.phase = self.phases[0]
        self.shape = (len(schedule[0][1]), n_runs)
        rows = self.shape[0] * n_runs
        self.delta = np.full(rows, engine.params.initial_age)
        self.ages = np.full((rows, engine.n_aon), engine.params.initial_age, order="F")
        self.u_aon, self.u_ton = np.zeros((2, weights.shape[1], rows))
        self.heads = []
        self.counted = counted
        if counted:
            self.count_one, self.count_zero, self.n_access = np.zeros((3, rows), dtype=np.int64)

    def _phase(self, plays, n_runs):
        """One play per copy, as (rule groups, AON bias column, TON bias column)."""
        pairs, aon_bias, ton_bias = zip(*map(self.engine.access, plays))
        groups, start = [], 0
        for (_, rows), group in itertools.groupby(pairs):
            stop = start + len(list(group))
            groups.append((rows, slice(start * n_runs, stop * n_runs)))
            start = stop
        return groups, np.array(aon_bias)[:, None], np.array(ton_bias)[:, None]

    def _play(self, device):
        """The played tau_aon of every row, and whether its TON accesses."""
        groups, aon_bias, ton_bias = self.phase
        taus = [rows(self.delta[span]) for rows, span in groups]
        tau = taus[0] if len(taus) == 1 else np.concatenate(taus)
        tau_a = np.where(device < aon_bias, tau.reshape(self.shape), -1.0)
        return tau_a.ravel(), (device >= ton_bias).ravel()

    def step(self, n: int, draw) -> None:
        engine, weights = self.engine, self.weights[n]
        self.phase = self.phases.get(n, self.phase)
        tau_a, ton = self._play(draw[1])
        code = engine.slot(self.ages, draw, tau_a, ton)
        if self.counted:
            self.count_one += tau_a == 1.0
            self.count_zero += tau_a == 0.0
            self.n_access += tau_a >= 0.0
        # The stage's payoffs, and the next stage's network age.
        self.delta = _mean_left_to_right(self.ages.T)
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
    schedule,
    weights: np.ndarray,
    counted=True,
    cuts=(),
) -> _Trajectories:
    """Advance one copy of the runs per play of ``schedule`` through every row of ``weights``.

    All copies read the runs' shared draws, one slot step per stage; the
    access counters are kept only if ``counted``.  Before each stage of
    ``cuts`` that the rows reach, their (AON, TON) payoffs so far are
    appended to ``state.heads`` as one (2 x columns x rows) array.
    """
    state = _Trajectories(engine, len(run_indices), schedule, weights, counted)
    for n, draw in enumerate(engine.stage_rows(seed, run_indices, len(weights))):
        if n in cuts:
            state.heads.append(np.array((state.u_aon, state.u_ton)))
        state.step(n, draw)
    return state


def _chunks(n_runs: int, threads: int, first: int = 0) -> list[tuple[int, int]]:
    """The ``(start, stop)`` chunks of runs ``first`` to ``n_runs``.

    A chunk is ``ceil(runs / threads)`` wide, clipped to the bounds.
    """
    width = min(_DEFAULT_CHUNK, max(_MIN_CHUNK, -(-(n_runs - first) // threads)))
    return [(s, min(s + width, n_runs)) for s in range(first, n_runs, width)]


def _fanout(work, threads: int, copies: int, *ranges: tuple[int, int]) -> None:
    """Call ``work((start, stop))`` on each chunk of each ``(first, stop)`` range of runs.

    A pool starts only for several chunks of at least ``_POOL_COPIES``
    copies of the runs; fewer copies are chunked and stepped as at one thread.
    """
    _check_count(threads, 1, "thread count must be an integer of at least 1")
    if copies < _POOL_COPIES:
        threads = 1
    chunks = [bounds for first, stop in ranges for bounds in _chunks(stop, threads, first)]
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, chunks))
    else:
        for bounds in chunks:
            work(bounds)


def _per_run(
    params: ScenarioParams, seed, n_runs, schedule, weights, threads, estimates=None, counted=True
):
    """Per-run results of one copy of the runs per play of ``schedule``, by run index.

    Copy ``b`` plays entry ``b`` of each play list of the schedule (see the
    module docstring).  ``weights`` is the (stages x columns)
    payoff weight matrix: ``_discount_weights`` gives one column per alpha,
    and a caller may append others, such as ``np.eye(n_stages, 1)`` for the
    stage-1 outcomes.  The run axis is last, so that each reduction reads
    one contiguous row.  The access counters are kept only if ``counted``.

    Returns ``(head, full, freqs, n1)``: the (AON, TON) payoffs (2 x copies
    x columns x runs) at the call's cut and at the horizon, the access
    frequencies at 1 and 0 (2 x copies x runs), None if not ``counted``,
    and the call's N1.  ``estimates`` maps such payoffs to the per-run
    values of every estimate the caller makes (... x runs); with it the
    horizon has two levels (module docstring), and the horizon payoffs and
    the frequencies are NaN past the first N1 runs.  Without it, or where
    the horizon stays one level, N1 is ``n_runs`` and ``head is full``.
    """
    _check_count(n_runs, 2, "a Monte Carlo estimate needs an integer count of at least two runs")
    _check_seed(seed)
    engine = _Engine(params)
    copies, (n_stages, n_columns) = len(schedule[0][1]), weights.shape
    freqs = np.full((2, copies, n_runs), np.nan) if counted else None

    def batch(start, stop, stages, cuts):
        # Runs start to stop through ``stages``: their payoffs at each cut
        # they pass, then at the last stage (... x 2 x copies x columns x runs).
        whole = counted and stages == n_stages
        runs = range(start, stop)
        state = _simulate_batch(engine, seed, runs, schedule, weights[:stages], whole, cuts)
        if whole:
            freqs[..., start:stop] = np.reshape(state.frequencies(), (2, copies, stop - start))
        # State row b * size + r is run start + r in copy b.
        pay = [*state.heads, (state.u_aon, state.u_ton)]
        return np.reshape(pay, (-1, 2, n_columns, copies, stop - start)).swapaxes(2, 3)

    bounds = range(seeding.BLOCK_STAGES, n_stages, seeding.BLOCK_STAGES)
    first, cut, n1 = 0, n_stages, n_runs
    levels = np.empty((1, 2, copies, n_columns, n_runs))
    if estimates is not None and n_runs > _SUB_CHUNK and bounds:
        # The pilot steps every stage and sets the cut and N1; then the runs
        # below N1 step every stage too, and the rest stop at the cut.
        pilot = batch(0, _SUB_CHUNK, n_stages, bounds)
        cut, n1 = _two_levels(np.stack([estimates(values) for values in pilot]), n_runs, n_stages)
        levels = np.full((2, 2, copies, n_columns, n_runs), np.nan)
        levels[..., :_SUB_CHUNK] = pilot[[cut // seeding.BLOCK_STAGES - 1, -1]]
        first = _SUB_CHUNK

    def work(chunk):
        start, stop = chunk
        pay = batch(start, stop, n_stages if stop <= n1 else cut, (cut,))
        levels[: len(pay), ..., start:stop] = pay

    _fanout(work, threads, copies, (first, n1), (n1, n_runs))
    full = levels[-1]
    return (levels[0] if n1 < n_runs else full), full, freqs, n1


def _two_levels(pilot: np.ndarray, n_runs: int, n_stages: int) -> tuple[int, int]:
    """The call's cut and N1, from the pilot's values at every block boundary.

    ``pilot`` stacks the pilot runs' values of every estimate (... x runs)
    at stages ``BLOCK_STAGES``, ``2 * BLOCK_STAGES``, ... below
    ``n_stages``, then at the horizon.  At a boundary b, N1 is the largest
    of the estimates' (``_tail_runs``), and the cut is the b that minimizes
    the row-stages the call steps, ``N0 b + N1 (n_stages - b)``, the
    smallest b on a tie, so a call with N1 = N0 everywhere cuts at the
    first block and stays one level.
    """
    best, cut, n1 = np.inf, 0, 0
    for k, values in enumerate(pilot[:-1]):
        b = seeding.BLOCK_STAGES * (k + 1)
        # N1 is at least the pilot, so no later boundary can cost less than
        # this bound, which grows with b: stop once it reaches the best.
        if best <= n_runs * b + _SUB_CHUNK * (n_stages - b):
            break
        n1_b = int(_tail_runs(values, pilot[-1], n_runs).max())
        cost = n_runs * b + n1_b * (n_stages - b)
        if cost < best:
            best, cut, n1 = cost, b, n1_b
    return cut, n1


def _moments(head: np.ndarray, tail: np.ndarray, n1: int):
    """Two-level sample moments over the last (run) axis.

    Returns the variance of ``head`` over every run, and over the first
    ``n1`` runs the mean and variance of ``tail`` and its covariance with
    ``head``; the tail past ``n1`` is not read.
    """
    take = np.arange(head.shape[-1]) < n1
    tail = np.where(take, tail, 0.0)
    tail_mean = tail.sum(axis=-1) / n1
    head_mean = np.where(take, head, 0.0).sum(axis=-1) / n1
    d_head = np.where(take, head - head_mean[..., None], 0.0)
    d_tail = np.where(take, tail - tail_mean[..., None], 0.0)
    v_tail, c_ht = ((d * d_tail).sum(axis=-1) / (n1 - 1) for d in (d_tail, d_head))
    return head.var(axis=-1, ddof=1), tail_mean, v_tail, c_ht


def _tail_runs(head: np.ndarray, full: np.ndarray, n_runs: int) -> np.ndarray:
    """Each estimate's N1, from the pilot's values at a cut and at the horizon (... x pilot).

    N1 is the fewest runs, at least the pilot and at most ``N0 = n_runs``,
    at which the two-level SE that the pilot's variances and covariance
    predict is at most ``_SE_SLACK`` times the one-level SE at ``N0``:
    ``V_h/N0 + V_t/N1 + 2 C_ht/N0 <= _SE_SLACK**2 V_f/N0`` with ``V_f =
    V_h + V_t + 2 C_ht``, so ``N1 >= N0 V_t / (V_t + (_SE_SLACK**2 - 1) V_f)``.
    A tail without variance needs only the pilot.
    """
    v_h, _, v_t, c_ht = _moments(head, full - head, head.shape[-1])
    v_f = v_h + v_t + 2.0 * c_ht
    share = np.divide(
        v_t, v_t + (_SE_SLACK**2 - 1.0) * v_f, out=np.zeros(v_t.shape), where=v_t > 0.0
    )
    return np.clip(np.ceil(n_runs * share), _SUB_CHUNK, n_runs).astype(np.int64)


def _mean_se(values: np.ndarray, n1=None) -> tuple[np.ndarray, np.ndarray]:
    """Means and standard errors over the last (run) axis.

    With ``n1``, ``values`` stacks the runs' values at the cut and at the
    horizon on its first axis, the latter read for the first ``n1`` runs
    only, and each estimate has two levels: with the head ``h`` its values
    at the cut and the tail ``t = full - head``, ``mean_N0(head) +
    mean_N1(t)``, that is ``mean_N1(full) + mean_N0(head) - mean_N1(head)``,
    with the SE ``sqrt(V_h/N0 + V_t/N1 + 2 C_ht/N0)``.  Where ``n1`` is
    every run, the one-level estimate of the horizon values, bit for bit.
    """
    n0 = values.shape[-1]
    if n1 is not None and n1 < n0:
        head, full = values
        v_h, tail_mean, v_t, c_ht = _moments(head, full - head, n1)
        # The sample moments come from different runs, so the sum could dip below 0.
        se2 = np.maximum(v_h / n0 + v_t / n1 + 2.0 * c_ht / n0, 0.0)
        return head.mean(axis=-1) + tail_mean, np.sqrt(se2)
    if n1 is not None:
        values = values[-1]
    return values.mean(axis=-1), values.std(axis=-1, ddof=1) / np.sqrt(n0)


def _aggregate(means, ses, freqs: np.ndarray, n_runs: int) -> Aggregate:
    """An ``Aggregate`` of the (AON, TON) payoff means and SEs and the (2 x runs) frequencies."""
    f_means, f_ses = _mean_se(freqs)
    pairs = zip((*means, *f_means), (*ses, *f_ses))
    return Aggregate(*(float(s) for pair in pairs for s in pair), n_runs=n_runs)


def monte_carlo(config: RunConfig, n_runs: int, threads: int = 1) -> Aggregate:
    """Average the run scalars over independent runs, every run through every stage.

    Run ``r`` reads its rows of the seed's stage-block streams (see
    ``seeding``), results are stored by run index, and the reductions use
    numpy's pairwise summation, so the aggregate is bit-identical for a
    fixed seed at any thread count or chunk size.
    """
    params = config.params
    p_r = None if config.mode is Mode.COMPETITIVE else params.p_r
    weights = _discount_weights([params.alpha], config.n_stages)
    _, payoffs, freqs, _ = _per_run(params, config.seed, n_runs, [(0, [p_r])], weights, threads)
    return _aggregate(*_mean_se(payoffs[:, 0, 0]), freqs[:, 0], n_runs)


@dataclass(frozen=True)
class GainResult:
    """Cooperation-minus-competition discounted payoffs from paired batches.

    ``se_gain_aon``/``se_gain_ton`` are the standard errors of the per-run
    differences: both arms replay each run's draws, so they are paired.
    Both aggregates and both gains share the call's two-level horizon
    (``gain_grid``), so each gain is the difference of the aggregates' means.
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
    all on the same run draws of ``seed``; alpha only selects a column of
    discount weights.  Every cell's competitive, cooperative and
    paired-difference payoffs of both networks share the call's cut and N1
    on the two-level horizon (``_per_run``), so the competitive baseline of
    one alpha is one estimate across its biases.  A cell's access
    frequencies are one-level means over the first N1 runs, which step
    every stage.  At one level cell ``[i][j]`` equals ``gain_of_cooperation``
    at that point alone, and a point is always a one-cell grid.
    """
    alphas, biases = np.asarray(alphas, dtype=np.float64), np.asarray(biases, dtype=np.float64)
    if alphas.size == 0 or biases.size == 0:
        raise ConfigurationError("alpha and bias grids need at least one value")
    if not np.all((biases >= 0.0) & (biases <= 1.0)):
        raise ConfigurationError("device bias must lie in [0, 1]")
    weights = _discount_weights(alphas, n_stages)

    # Every estimate of the grid: each copy's payoffs, and each cooperative
    # copy's paired difference with the competitive one.
    estimates = lambda payoffs: np.concatenate((payoffs, payoffs[:, 1:] - payoffs[:, :1]), 1)
    schedule = [(0, [None, *biases])]
    head, full, freqs, n1 = _per_run(params, seed, n_runs, schedule, weights, threads, estimates)

    def result(i, j):
        # The competitive, cooperative and paired-difference (AON, TON)
        # payoffs of cell (i, j) at the cut and at the horizon: 2 x 6 x runs.
        base, coop = (np.stack([p[:, copy, i] for p in (head, full)]) for copy in (0, 1 + j))
        means, ses = _mean_se(np.concatenate((base, coop, coop - base), axis=1), n1)
        base, coop = (
            _aggregate(means[k : k + 2], ses[k : k + 2], freqs[:, copy, :n1], n_runs)
            for k, copy in ((0, 0), (2, 1 + j))
        )
        return GainResult(
            gain_aon=coop.u_aon_mean - base.u_aon_mean,
            gain_ton=coop.u_ton_mean - base.u_ton_mean,
            se_gain_aon=float(ses[4]),
            se_gain_ton=float(ses[5]),
            competitive=base,
            cooperative=coop,
        )

    return [[result(i, j) for j in range(biases.size)] for i in range(alphas.size)]


def gain_of_cooperation(
    params: ScenarioParams,
    n_runs: int,
    n_stages: int,
    seed: int,
    threads: int = 1,
) -> GainResult:
    """Paired gain of cooperating over competing under a shared master seed.

    Both arms advance in lockstep on the same run draws, drawn once, over
    the two-level horizon of ``gain_grid``, of which it is the one-cell
    grid.  With no more runs than the pilot, or where N1 is every run, each
    aggregate equals its own ``monte_carlo`` call; above the pilot its
    payoffs are two-level estimates and its frequencies read the first N1
    runs only.
    """
    axes = [params.alpha], [params.p_r]
    return gain_grid(params, n_runs, n_stages, seed, *axes, threads)[0][0]
