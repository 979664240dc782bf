"""Stage-game solutions: competitive equilibrium and cooperative optimum.

In each slot the AON picks its access probability to minimize the expected
network age at the slot end, the TON to maximize its expected throughput.
Both problems have closed-form solutions.  The AON's is one threshold rule
in the current network age for both modes (``_rule``), folded once per
scenario into a float evaluator and an array evaluator (``_fold``): below the
threshold the AON is pinned to 0 or 1 (depending on which slot type is
cheaper), above it an interior probability applies, and competing differs
from obeying the device only by the TON's contention term.  A brute-force
grid-search oracle is provided so tests can certify the closed forms without
re-deriving the optimality conditions.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    AccessProfile,
    ConfigurationError,
    NetworkSizes,
    SlotLengths,
    _slot_probabilities,
    _slot_terms,
    check_age,
    check_rate,
    slot_probabilities_competitive,
    slot_probabilities_cooperative,
)

# Interior-formula output is clamped to [0, 1] only within this tolerance;
# anything farther out signals an unreachable parameter regime.
BOUNDARY_TOL = 1e-9
# Spacing of the device-bias grid that ``cooperation_beneficial_pr_set`` scans.
PR_GRID_STEP = 1e-3
# Folded rules that ``_fold`` keeps: two per scenario.
_FOLDS = 64


class OutOfRangeError(RuntimeError):
    """The interior access-probability formula left [0, 1] beyond tolerance."""


class Regime(enum.Enum):
    INTERIOR = "interior"
    FORCED_ONE = "forced_one"
    FORCED_ZERO = "forced_zero"


@dataclass(frozen=True)
class ThresholdAges:
    """Age thresholds of the three-branch access rule.

    ``th`` is the larger of the two candidate thresholds; which candidate
    wins decides whether the below-threshold branch transmits always or
    never.  ``th0`` degenerates to +/-inf when the TON is a single node
    (its equilibrium access probability 1 removes the interior trade-off).
    """

    th0: float
    th1: float
    regime: Regime

    @property
    def th(self) -> float:
        return max(self.th0, self.th1)


@dataclass(frozen=True)
class StagePayoffs:
    """Expected one-stage payoffs: the AON's is the negated network age."""

    u_aon: float
    u_ton: float

    def __post_init__(self):
        # Written so that NaN fails too.
        if not (-math.inf < self.u_aon <= 0.0 <= self.u_ton < math.inf):
            raise ConfigurationError("stage payoffs must be finite with u_ton >= 0 >= u_aon")


def _raise_out_of_range(value, age, th0: float, th1: float):
    raise OutOfRangeError(
        f"interior access probability {value} outside [0, 1] "
        f"(age {age}, thresholds {th0}, {th1})"
    )


class _Rule(NamedTuple):
    """One mode's AON access rule, as ``_rule`` builds it."""

    k: float
    c: float
    th0: float
    th1: float

    @property
    def th(self) -> float:
        return max(self.th0, self.th1)

    @property
    def pinned(self) -> float:
        """The AON's tau at or below ``th``: silent iff ``th0`` wins, ties included."""
        return 0.0 if self.th == self.th0 else 1.0


def _rule(sizes: NetworkSizes, slots: SlotLengths, competitive: bool) -> _Rule:
    """The AON's threshold rule when competing or when obeying the device.

    The two modes differ only in the TON's contention term: competing with
    the TON at ``tau_ton* = 1 / n_ton`` scales the AON's trade-off by
    ``k = 1 - tau_ton*`` and adds ``c = N_A N_T tau_ton* (sigma_S - sigma_C)``.
    The term vanishes at sigma_S = sigma_C, so competing there, like obeying
    the device, has ``(k, c) = (1, 0)``, where ``_evaluators`` folds them out.
    """
    si, ss, sc = slots.idle, slots.success, slots.collision
    na, nt = sizes.n_aon, sizes.n_ton
    k, c = 1.0, 0.0
    if competitive and ss != sc:
        tt = 1.0 / nt
        k, c = 1.0 - tt, na * nt * tt * (ss - sc)
    if k == 0.0:
        # tau_ton* = 1 makes the th0 denominator vanish; the sign of the
        # success/collision gap decides which branch survives.
        th0 = -math.inf if c > 0.0 else math.inf
    else:
        th0 = na * (ss - si) - c / k
    return _Rule(k, c, th0, na * (ss - sc))


def _evaluators(sizes: NetworkSizes, slots: SlotLengths, rule: _Rule):
    """The AON's tau under ``rule`` (from ``_rule``) as ``(one, rows)``, constants folded once.

    The constants are Python floats, so ``one`` maps one age (a float) to a
    float even for numpy-typed sizes and slots, and ``rows`` an array of ages
    (the batch engine) to an array.  Both evaluate one interior formula,
    ``(k (d - shift) + c) / (k na (d + gap - span) + c)``, in the same IEEE
    operations, so they agree bit for bit and raise the same
    ``OutOfRangeError``; ties at th0 == th1 resolve to the silent branch.
    The fold leaves out each operation that the rule's constants make an
    exact identity: ``k *`` and ``+ c`` at ``(k, c) = (1, 0)``, ``- span``
    at ``span = 0``.
    """
    si, ss, sc, na = map(float, (slots.idle, slots.success, slots.collision, sizes.n_aon))
    k, c, th0, th1 = map(float, rule)
    th, pinned = float(rule.th), rule.pinned
    shift, kna, gap, span = na * (ss - si), k * na, si - sc, na * (ss - sc)
    # x * 1.0 and x - 0.0 are x for every x, and x + 0.0 is x except at
    # x = -0.0.  Neither sum can be -0.0: a -0.0 numerator needs d = -0.0 and
    # shift = 0, which SlotLengths refuses (sigma_I < sigma_S), and a -0.0
    # denominator needs gap = -0.0, which a difference of positive slots is not.
    scaled = (k, c) != (1.0, 0.0)

    def interior(d):
        num, den = d - shift, d + gap
        if span:
            den = den - span
        if scaled:
            return (k * num + c) / (kna * den + c)
        return num / (na * den)

    # Single-node AON: the stage objective is linear in the access
    # probability, the stationarity numerator and denominator coincide, and
    # the formula collapses to exactly 1.
    def one(d: float) -> float:
        if not d > th:
            return pinned
        if na == 1:
            return 1.0
        try:
            raw = interior(d)
        except ZeroDivisionError:
            # Python floats raise where numpy returns inf or nan; report the
            # value ``rows`` would.
            with np.errstate(divide="ignore", invalid="ignore"):
                raw = float(interior(np.float64(d)))
        if 0.0 <= raw <= 1.0:  # its own clip, -0.0 included
            return raw
        if not -BOUNDARY_TOL <= raw <= 1.0 + BOUNDARY_TOL:
            _raise_out_of_range(raw, d, th0, th1)
        return min(max(raw, 0.0), 1.0)

    def rows(delta: np.ndarray) -> np.ndarray:
        arr = np.asarray(delta, dtype=np.float64)
        # Every row is evaluated; rows at or below th may divide by zero.
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = np.ones_like(arr) if na == 1 else interior(arr)
        np.copyto(tau, pinned, where=~(arr > th))
        # Only a row outside [0, 1], or NaN (which fails both comparisons),
        # needs the tolerance check and the clip.
        if not (tau.min(initial=0.0) >= 0.0 and tau.max(initial=1.0) <= 1.0):
            bad = ~((tau >= -BOUNDARY_TOL) & (tau <= 1.0 + BOUNDARY_TOL))
            if np.any(bad):
                first = np.flatnonzero(bad)[0]
                _raise_out_of_range(tau[first], arr[first], th0, th1)
            # Like np.clip, keep -0.0 (np.maximum would return +0.0).
            np.copyto(tau, 0.0, where=tau < 0.0)
            np.minimum(tau, 1.0, out=tau)
        return tau

    return one, rows


@functools.lru_cache(maxsize=_FOLDS)
def _fold(sizes: NetworkSizes, slots: SlotLengths, rule: _Rule):
    """``_evaluators`` once per scenario and rule: by rule, so sigma_S = sigma_C has one pair."""
    return _evaluators(sizes, slots, rule)


def _solve(sizes: NetworkSizes, slots: SlotLengths, network_age: float, competitive: bool):
    """Stage-game profile and thresholds of one mode's AON access rule at one age."""
    check_age(network_age, "network age")
    rule = _rule(sizes, slots, competitive)
    tau_a = _fold(sizes, slots, rule)[0](float(network_age))
    profile = AccessProfile(tau_aon=tau_a, tau_ton=1.0 / sizes.n_ton)
    pinned = Regime.FORCED_ONE if rule.pinned else Regime.FORCED_ZERO
    regime = Regime.INTERIOR if network_age > rule.th else pinned
    return profile, ThresholdAges(rule.th0, rule.th1, regime)


def msne(
    sizes: NetworkSizes, slots: SlotLengths, network_age: float
) -> tuple[AccessProfile, ThresholdAges]:
    """Mixed-strategy equilibrium of the competitive stage game.

    The TON side is always ``1 / n_ton`` regardless of the AON; the AON side
    follows the three-branch threshold rule in the current network age.
    """
    return _solve(sizes, slots, network_age, competitive=True)


def cooperative_optimum(
    sizes: NetworkSizes, slots: SlotLengths, network_age: float
) -> tuple[AccessProfile, ThresholdAges]:
    """Optimal per-network access probabilities when the device grants access."""
    return _solve(sizes, slots, network_age, competitive=False)


def expected_stage_payoffs(
    sizes: NetworkSizes,
    slots: SlotLengths,
    profile: AccessProfile,
    network_age: float,
    rate: float,
    p_r: float | None = None,
) -> StagePayoffs:
    """Expected one-stage payoffs at a fixed profile.

    ``p_r=None`` evaluates the competitive channel, otherwise the cooperative
    channel with the given device bias.  The slot probabilities are evaluated
    once, in Python floats, as one checked tuple: they validate the profile
    and give both payoffs, as ``_stage_age`` and ``_stage_throughput`` would.
    """
    check_rate(rate)
    check_age(network_age, "network age")
    terms = _slot_probabilities(sizes, profile, p_r)
    return StagePayoffs(
        u_aon=-float(_age_of_terms(terms, slots, network_age)),
        u_ton=float(_throughput_of_terms(terms, slots, rate)),
    )


# The stage payoffs, on floats or arrays (as ``_slot_terms``): ``p_r=None`` is
# the competitive channel, as in expected_stage_payoffs.


def _stage_age(tau_a, tau_t, sizes: NetworkSizes, slots: SlotLengths, delta, p_r=None):
    """Expected network age after one slot, from the pre-slot network age ``delta``."""
    terms = _slot_terms(tau_a, tau_t, sizes.n_aon, sizes.n_ton, p_r)
    return _age_of_terms(terms, slots, delta)


def _stage_throughput(tau_a, tau_t, sizes: NetworkSizes, slots: SlotLengths, rate, p_r=None):
    """Expected TON network throughput of one slot."""
    terms = _slot_terms(tau_a, tau_t, sizes.n_aon, sizes.n_ton, p_r)
    return _throughput_of_terms(terms, slots, rate)


def _age_of_terms(terms, slots: SlotLengths, delta):
    p_idle, p_success, node_a, *_, p_col = terms
    p_col = np.maximum(p_col, 0.0)
    growth = p_idle * slots.idle + p_success * slots.success + p_col * slots.collision
    return (1.0 - node_a) * delta + growth


def _throughput_of_terms(terms, slots: SlotLengths, rate):
    return terms[3] * slots.success * rate


def best_response_oracle(objective, grid_step: float) -> float:
    """Exhaustive grid search over access probabilities in [0, 1].

    ``objective`` maps an array of candidate probabilities to their payoffs
    (minimizers should negate their objective).  Returns the first grid
    argmax.  Test-only machinery for certifying the closed forms.
    """
    if not 0.0 < grid_step <= 0.01:
        raise ConfigurationError("grid step must lie in (0, 0.01]")
    taus = np.linspace(0.0, 1.0, int(round(1.0 / grid_step)) + 1)
    values = np.asarray(objective(taus), dtype=np.float64)
    if values.shape != taus.shape:
        raise ConfigurationError(
            f"objective must map candidates of shape {taus.shape} to payoffs of that shape,"
            f" got {values.shape}"
        )
    return float(taus[int(np.argmax(values))])


@dataclass(frozen=True)
class CooperationRange:
    """Device biases at which both networks prefer cooperating in one stage.

    ``intervals`` are closed intervals of grid points where both one-shot
    payoff comparisons favor the cooperative channel.  The two ``reported_*``
    fields restate the published closed-form bounds for comparison only; the
    grid evaluation of the payoff inequalities is the ground truth.
    """

    intervals: tuple[tuple[float, float], ...]
    grid_step: float
    reported_lower_bound: float
    reported_upper_bound: float


def cooperation_beneficial_pr_set(
    sizes: NetworkSizes,
    slots: SlotLengths,
    network_age: float,
) -> CooperationRange:
    """Scan the device bias for one-shot mutual benefit of cooperation.

    Both networks compare their expected stage payoff on the cooperative
    channel (at the cooperative optimum) with the competitive one (at the
    equilibrium).  The transmission rate scales both throughput sides equally
    and cannot change the outcome, so it is fixed at 1 here.
    """
    nash, _ = msne(sizes, slots, network_age)
    coop, _ = cooperative_optimum(sizes, slots, network_age)
    base = expected_stage_payoffs(sizes, slots, nash, network_age, rate=1.0)

    pr = np.linspace(0.0, 1.0, int(round(1.0 / PR_GRID_STEP)) + 1)
    age_c = _stage_age(coop.tau_aon, coop.tau_ton, sizes, slots, network_age, p_r=pr)
    thr_c = _stage_throughput(coop.tau_aon, coop.tau_ton, sizes, slots, 1.0, p_r=pr)
    ok = (-age_c >= base.u_aon) & (thr_c >= base.u_ton)

    intervals = []
    start = None
    for i, good in enumerate(ok):
        if good and start is None:
            start = i
        elif not good and start is not None:
            intervals.append((float(pr[start]), float(pr[i - 1])))
            start = None
    if start is not None:
        intervals.append((float(pr[start]), float(pr[-1])))

    return CooperationRange(
        intervals=tuple(intervals),
        grid_step=PR_GRID_STEP,
        reported_lower_bound=_reported_pr_lower_bound(sizes, slots, network_age, nash, coop),
        reported_upper_bound=1.0 - (1.0 - nash.tau_aon) ** sizes.n_aon,
    )


def _reported_pr_lower_bound(sizes, slots, network_age, nash, coop) -> float:
    """Published closed-form lower bound on the beneficial device bias.

    Solves the AON's linear-in-bias payoff comparison; reported for
    diagnostics, with the grid scan treated as authoritative.
    """
    si, ss, sc = slots.idle, slots.success, slots.collision
    probs = slot_probabilities_competitive(sizes, nash)
    # Cooperating under heads and under tails: the device at bias 1 and 0.
    heads = slot_probabilities_cooperative(sizes, coop, 1.0)
    tails = slot_probabilities_cooperative(sizes, coop, 0.0)
    num = (
        network_age * probs.p_success_node_aon
        - (si - sc) * (probs.p_idle - tails.p_idle)
        - (ss - sc) * (probs.p_success_total - tails.p_success_total)
    )
    den = (
        network_age * heads.p_success_node_aon
        - (si - sc) * (heads.p_idle - tails.p_idle)
        - (ss - sc) * (heads.p_success_total - tails.p_success_total)
    )
    if den == 0.0:
        return float("nan")
    return num / den
