"""Grim-trigger coexistence etiquette and self-enforceability analysis.

Under the etiquette both networks obey the coordination device; the first
disobeyed recommendation sends the game into competitive equilibrium play
forever.  Obedience is self-enforceable when, for either stage-1
recommendation, neither network gains from a unilateral stage-1 deviation.
That gives four payoff inequalities, estimated here by paired Monte Carlo:
the compliance branch forces the recommended stage-1 profile and then
cooperates forever, the deviation branch plays the deviating stage-1 profile
and then competes forever, and both branches of a run consume the same
uniform rows so the margin is a paired difference.

Only two deviation trajectories exist dynamically: both deviations onto
``(access, access)`` share one law, as do both onto ``(backoff, backoff)``
(an idle slot).  Neither alpha nor, off the compliance branches, the device
bias moves the dynamics, so a region sweep simulates each trajectory once
on common random numbers (``sim._per_run``), weights it per alpha and
reduces every cell's four paired differences over the run axis at once;
``deviation_inequalities`` weights one more column, stage 1 alone.  Every
margin, with its branch means, is estimated over the two-level horizon of
``sim``: all runs step the stages before the call's cut, a stage-block
boundary, and only the first N1 runs step the rest, one cut and one N1
set from every margin of the pilot runs.  Margins within two standard errors
of zero are reported as indeterminate rather than forced to a boolean
(``_tri_state``), so an estimate needs two runs.

``simulate_grim_trigger`` audits one trajectory of the etiquette with an
injected deviation.  It folds the engine's single-row loop
(``sim._Engine.trace``) on run 0 of its seed into named-tuple records
(``StageTrace``, ``ComplianceFlag``).
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import equilibrium as eq
from .model import (
    ConfigurationError,
    NetworkSizes,
    Recommendation,
    ScenarioParams,
    SlotLengths,
    AccessProfile,
)
from .sim import IDLE, JOINT, _check_stages, _Engine, _discount_weights, _mean_se, _per_run
from . import model as _model


class DeviationCase(enum.Enum):
    """The four unilateral stage-1 deviations from the device."""

    H_TON_DEVIATES = "h_ton_deviates"
    H_AON_DEVIATES = "h_aon_deviates"
    T_AON_DEVIATES = "t_aon_deviates"
    T_TON_DEVIATES = "t_ton_deviates"

    @property
    def recommendation(self) -> Recommendation:
        if self in (DeviationCase.H_TON_DEVIATES, DeviationCase.H_AON_DEVIATES):
            return Recommendation.HEADS
        return Recommendation.TAILS

    @property
    def joint_access(self) -> bool:
        """True when the deviation puts both networks on the air."""
        return self in (DeviationCase.H_TON_DEVIATES, DeviationCase.T_AON_DEVIATES)


class ComplianceFlag(NamedTuple):
    """Whether the stage's action profile matched the recommendation."""

    stage: int
    recommendation: Recommendation
    obeyed: bool


def _tri_state(margin, se):
    """1 where a margin holds, 0 where it fails, -1 within two SEs of zero (or NaN); any shape."""
    return np.where(np.abs(margin) >= 2.0 * se, margin >= 0.0, -1).astype(np.int8)


def _tri_and(*states):
    """Kleene AND of tri-states (1, 0, -1) or arrays of them: 0 if any fails, else the least."""
    states = np.asarray(states, dtype=np.int8)
    return np.where((states == 0).any(axis=0), 0, states.min(axis=0, initial=1)).astype(np.int8)


@dataclass(frozen=True)
class InequalityEstimate:
    """Monte Carlo estimate of one obey-versus-deviate payoff comparison."""

    name: str
    obey_mean: float
    deviate_mean: float
    margin: float
    se: float


@dataclass(frozen=True)
class DeviationReport:
    """The four inequality estimates plus stage-1 diagnostics.

    Its verdicts are those of a one-cell ``region_sweep`` at its point and seed.

    ``stage1_age_mc`` / ``stage1_throughput_mc`` map each branch (keys
    ``obey_heads``, ``obey_tails``, ``deviate_joint``, ``deviate_idle``) to a
    ``(mean, standard error)`` pair of its Monte Carlo stage-1 outcome, for
    cross-checking against the analytic stage-1 forms.
    """

    aon_obeys_heads: InequalityEstimate
    ton_obeys_heads: InequalityEstimate
    aon_obeys_tails: InequalityEstimate
    ton_obeys_tails: InequalityEstimate
    stage1_age_mc: dict
    stage1_throughput_mc: dict
    stage1_profile: AccessProfile
    n_runs: int

    @property
    def inequalities(self) -> tuple[InequalityEstimate, ...]:
        return (
            self.aon_obeys_heads,
            self.ton_obeys_heads,
            self.aon_obeys_tails,
            self.ton_obeys_tails,
        )


def _stage1_play(case, profile_hat: AccessProfile):
    """The stage-1 ``(tau_aon, tau_ton, p_r)`` of one etiquette case.

    Obeying heads or tails is a device of bias 1 or 0; a joint deviation
    competes at ``profile_hat`` and an idle one silences both networks.
    """
    ta, tt = profile_hat.tau_aon, profile_hat.tau_ton
    if case is Recommendation.HEADS:
        return ta, tt, 1.0
    if case is Recommendation.TAILS:
        return ta, tt, 0.0
    if isinstance(case, DeviationCase):
        return (ta, tt, None) if case.joint_access else (0.0, 0.0, None)
    raise ConfigurationError(f"unknown stage-1 case: {case!r}")


def expected_next_network_age(
    case: Recommendation | DeviationCase,
    sizes: NetworkSizes,
    slots: SlotLengths,
    profile_hat: AccessProfile,
    network_age: float,
) -> float:
    """Closed-form expected network age after stage 1 for one etiquette case.

    ``profile_hat`` is the cooperative-optimum profile at ``network_age``.
    A ``Recommendation`` means both networks obeyed it; a ``DeviationCase``
    names the unilateral deviation.  Under tails only the TON transmits, so
    the slot is idle with probability ``(1 - tau_ton)**N_T``; the published
    display weights it by the silent AON's ``(1 - tau_aon)**N_A`` instead.
    """
    _model.check_age(network_age, "network age")
    ta, tt, p_r = _stage1_play(case, profile_hat)
    return float(eq._stage_age(ta, tt, sizes, slots, network_age, p_r))


def stage1_expected_ton_throughput(
    case: Recommendation | DeviationCase,
    sizes: NetworkSizes,
    slots: SlotLengths,
    profile_hat: AccessProfile,
    rate: float,
) -> float:
    """Closed-form expected TON network throughput in stage 1 for one case."""
    _model.check_rate(rate)
    ta, tt, p_r = _stage1_play(case, profile_hat)
    return float(eq._stage_throughput(ta, tt, sizes, slots, rate, p_r))


# Branch tags for the paired trajectories.
_BRANCHES = ("obey_heads", "obey_tails", "deviate_joint", "deviate_idle")
# The four inequalities in ``DeviationReport`` order, and the payoff (AON 0,
# TON 1), obey branch (heads 0, tails 1) and deviation (joint 0, idle 1) that
# each compares.
_INEQUALITIES = ("aon_obeys_heads", "ton_obeys_heads", "aon_obeys_tails", "ton_obeys_tails")
_PAYOFF, _OBEY, _DEVIATE = [0, 1, 0, 1], [0, 0, 1, 1], [1, 0, 0, 1]


def _sweep(params: ScenarioParams, pr_axis, weights, n_runs, seed, threads):
    """The paired branch payoffs of every bias from shared trajectories.

    Every bias replays the same run draws of ``seed``: the dynamics never read
    alpha and the deviation branches never read the bias, so the copies
    joint access and idle, then heads and tails per bias, cover the grid,
    and alpha only selects a column of ``weights``.  The horizon has two
    levels, with one cut and one N1 set from every margin
    (``sim._per_run``).  Returns the (2 x copies x columns x runs) payoffs
    at the cut; the obey and deviate payoffs of the ``_INEQUALITIES`` at
    the cut and at the horizon on a first axis, (2 x 4 x bias x columns x
    runs) and (2 x 4 x 1 x columns x runs); and N1.  No access frequencies,
    so no access counters are kept.
    """
    n_pr = len(pr_axis)
    # Copies: in stage 1 joint access and an idle slot, competitive afterwards;
    # then per bias obey heads (AON alone) and obey tails (TON alone),
    # cooperative afterwards.
    schedule = [(0, [JOINT, IDLE] + [1.0, 0.0] * n_pr), (1, [None, None, *np.repeat(pr_axis, 2)])]

    def branches(payoffs):
        # dev: payoff x (joint, idle) x column x run; obey: payoff x bias x (heads, tails) x ...
        dev, obey = payoffs[:, :2], payoffs[:, 2:].reshape(2, n_pr, 2, *payoffs.shape[2:])
        return obey[_PAYOFF, :, _OBEY], dev[_PAYOFF, _DEVIATE][:, None]

    margins = lambda payoffs: np.subtract(*branches(payoffs))
    head, full, _, n1 = _per_run(
        params, seed, n_runs, schedule, weights, threads, margins, counted=False
    )
    obey, dev = (np.stack(branch) for branch in zip(branches(head), branches(full)))
    return head, obey, dev, n1


def deviation_inequalities(
    params: ScenarioParams, n_runs: int, n_stages: int, seed: int, threads: int = 1
) -> DeviationReport:
    """Estimate the four obey-versus-deviate inequalities by paired Monte Carlo.

    Every inequality's margin and branch means share the call's two-level
    horizon (``sim._per_run``); the stage-1 diagnostics read every run at the cut.
    """
    # The discount column, then stage 1 alone: minus its age, its TON payoff.
    weights = np.hstack([_discount_weights([params.alpha], n_stages), np.eye(n_stages, 1)])
    head, obey, dev, n1 = _sweep(params, [params.p_r], weights, n_runs, seed, threads)
    obey, dev = obey[..., 0, 0, :], dev[..., 0, 0, :]
    obey_mean, dev_mean = (_mean_se(values, n1)[0] for values in (obey, dev))
    columns = zip(obey_mean, dev_mean, *_mean_se(obey - dev, n1))
    estimates = [InequalityEstimate(n, *map(float, c)) for n, c in zip(_INEQUALITIES, columns)]
    # In _BRANCHES order: compliance stage 1 does not read the bias, so heads
    # and tails come from the bias's copies (2, 3).  Stage 1 lies before
    # the cut, so its payoffs there are final for every run.
    stage1 = head[:, [2, 3, 0, 1], 1]

    def by_branch(values):
        return {b: (float(m), float(se)) for b, m, se in zip(_BRANCHES, *_mean_se(values))}

    return DeviationReport(
        *estimates,
        stage1_age_mc=by_branch(-stage1[0]),
        stage1_throughput_mc=by_branch(stage1[1]),
        stage1_profile=eq.cooperative_optimum(params.sizes, params.slots, params.initial_age)[0],
        n_runs=n_runs,
    )


@dataclass(frozen=True)
class RegionGrid:
    """Tri-state feasibility maps over an (alpha, device-bias) grid.

    Matrix entries are 1 (holds), 0 (fails), or -1 (indeterminate at two
    standard errors).  ``margins``/``ses`` stack the four inequality
    estimates in the order obey-H AON, obey-H TON, obey-T AON, obey-T TON.
    """

    alpha_axis: np.ndarray
    pr_axis: np.ndarray
    ton_prefers: np.ndarray
    aon_prefers: np.ndarray
    self_enforceable: np.ndarray
    margins: np.ndarray
    ses: np.ndarray

    def feasible_count(self) -> int:
        return int((self.self_enforceable == 1).sum())

    def monotonicity_flags(self) -> list[tuple[int, int, int]]:
        """Grid cells contradicting a feasibility threshold in alpha.

        Returns (lower alpha index, higher alpha index, bias index) triples
        where the lower cell is decidedly feasible but the higher one is
        decidedly infeasible.  Both verdicts clear two standard errors, so a
        flag can mark a real non-monotone region, not only a call for grid
        refinement: at N = 2, equal slots, p_r = 0.15 (2000 runs x 300
        stages, seed 1, stage-block Philox streams, two-level horizon) the
        AON's obey-heads / obey-tails margins are +15.6 / +11.2 SE at alpha
        0.85 and -6.9 / -8.2 SE at alpha 0.95, flag (0, 1, 0); at a low bias
        a patient AON prefers competing.
        """
        flags = []
        n_alpha = self.alpha_axis.size
        for j in range(self.pr_axis.size):
            for i_low in range(n_alpha):
                if self.self_enforceable[i_low, j] != 1:
                    continue
                for i_high in range(i_low + 1, n_alpha):
                    if self.self_enforceable[i_high, j] == 0:
                        flags.append((i_low, i_high, j))
        return flags


def region_sweep(
    params: ScenarioParams,
    alpha_grid,
    pr_grid,
    n_runs: int,
    n_stages: int,
    seed: int,
    threads: int = 1,
) -> RegionGrid:
    """Evaluate the four inequalities on every (alpha, bias) grid cell.

    All cells share the run draws of ``seed`` (common random numbers) and
    the sweep's one cut and N1, at any thread count; at one level cell
    (i, j) equals ``deviation_inequalities`` at that point and seed.
    """
    alpha_axis = np.asarray(alpha_grid, dtype=np.float64)
    pr_axis = np.asarray(pr_grid, dtype=np.float64)
    if alpha_axis.size == 0 or pr_axis.size == 0:
        raise ConfigurationError("alpha and bias grids need at least one value")
    # Written so that NaN fails too.
    if not np.all((pr_axis > 0.0) & (pr_axis < 1.0)):
        raise ConfigurationError("bias grid must lie inside (0, 1)")
    weights = _discount_weights(alpha_axis, n_stages)
    _, obey, dev, n1 = _sweep(params, pr_axis, weights, n_runs, seed, threads)
    # Inequality x bias x alpha, turned to inequality x alpha x bias.
    margins, ses = (stat.swapaxes(1, 2) for stat in _mean_se(obey - dev, n1))
    aon_h, ton_h, aon_t, ton_t = _tri_state(margins, ses)
    aon_prefers, ton_prefers = _tri_and(aon_h, aon_t), _tri_and(ton_h, ton_t)
    return RegionGrid(
        alpha_axis=alpha_axis,
        pr_axis=pr_axis,
        ton_prefers=ton_prefers,
        aon_prefers=aon_prefers,
        self_enforceable=_tri_and(aon_prefers, ton_prefers),
        margins=margins,
        ses=ses,
    )


class StageTrace(NamedTuple):
    """One audited stage: its compliance, whether it competed, the profile shown and its age."""

    stage: int
    compliance: ComplianceFlag
    competitive_play: bool
    tau_aon: float
    tau_ton: float
    network_age_after: float


@dataclass(frozen=True)
class GrimTriggerTrace:
    stages: tuple[StageTrace, ...]

    @property
    def compliance(self) -> tuple[ComplianceFlag, ...]:
        return tuple(s.compliance for s in self.stages)


def simulate_grim_trigger(
    params: ScenarioParams,
    n_stages: int,
    seed: int,
    deviate_at_stage: int,
    case: DeviationCase,
) -> GrimTriggerTrace:
    """Single trajectory with one injected deviation, for etiquette audits.

    All stages before ``deviate_at_stage`` obey the device, the deviation
    stage forces the case's recommendation and profile, and every later stage
    plays the competitive equilibrium, as the trigger requires.  An idle
    deviation reports the profile (0, 0).  The trace folds the engine's
    single-row loop (``sim._Engine.trace``) on run 0 of ``seed``, which
    replays its batch row, so its cooperative prefix equals run 0 of a
    cooperative batch bit for bit, and a deviation at stage 0 equals the
    region sweep's branch.
    """
    _check_stages(n_stages)
    k = deviate_at_stage
    if not (isinstance(k, numbers.Integral) and 0 <= k < n_stages):
        raise ConfigurationError(f"deviation stage must be an integer stage of the run, got {k}")
    engine = _Engine(params)
    schedule = [(0, [params.p_r]), (k, [JOINT if case.joint_access else IDLE]), (k + 1, [None])]
    p_r, tau_t = params.p_r, engine.tau_ton_star
    heads, tails = Recommendation.HEADS, Recommendation.TAILS
    # Every stage reads its recommendation off the device, obeys before k
    # and competes after it; stage k is then replaced.  ``tuple.__new__``
    # makes each named tuple without the Python frame of its ``__new__``.
    stages, new = engine.trace(seed, 0, n_stages, schedule), tuple.__new__
    trace = [
        new(StageTrace, (n, new(ComplianceFlag, (n, heads if device < p_r else tails, n < k)),
                         n > k, tau, tau_t, delta))
        for n, (device, tau, _, _, delta, _) in enumerate(stages)
    ]
    # The deviation forces the case's recommendation; an idle one shows (0, 0).
    _, _, _, tau, _, delta = trace[k]
    shown = (tau, tau_t) if case.joint_access else (0.0, 0.0)
    trace[k] = StageTrace(k, ComplianceFlag(k, case.recommendation, False), False, *shown, delta)
    return GrimTriggerTrace(stages=tuple(trace))
