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
on common random numbers and weights it per alpha.  Margins within two
standard errors of zero are reported as indeterminate rather than forced to
a boolean.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

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
from .seeding import run_generator
from .sim import _discount_weights, _Engine, _fanout, _mean_se, _simulate_batch
from . import model as _model

_DEFAULT_CHUNK = 2048


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


@dataclass(frozen=True)
class ComplianceFlag:
    """Whether the stage's action profile matched the recommendation."""

    stage: int
    recommendation: Recommendation
    obeyed: bool


class Feasibility(enum.Enum):
    YES = 1
    NO = 0
    INDETERMINATE = -1

    def to_int(self) -> int:
        return self.value


def feasibility_and(*states: Feasibility) -> Feasibility:
    if any(s is Feasibility.NO for s in states):
        return Feasibility.NO
    if all(s is Feasibility.YES for s in states):
        return Feasibility.YES
    return Feasibility.INDETERMINATE


@dataclass(frozen=True)
class InequalityEstimate:
    """Monte Carlo estimate of one obey-versus-deviate payoff comparison."""

    name: str
    obey_mean: float
    deviate_mean: float
    margin: float
    se: float

    @property
    def holds(self) -> bool:
        return self.margin >= 0.0

    @property
    def decided(self) -> bool:
        return abs(self.margin) >= 2.0 * self.se

    @property
    def status(self) -> Feasibility:
        if not self.decided:
            return Feasibility.INDETERMINATE
        return Feasibility.YES if self.holds else Feasibility.NO


@dataclass(frozen=True)
class DeviationReport:
    """The four inequality estimates plus stage-1 diagnostics.

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

    @property
    def aon_prefers(self) -> Feasibility:
        return feasibility_and(self.aon_obeys_heads.status, self.aon_obeys_tails.status)

    @property
    def ton_prefers(self) -> Feasibility:
        return feasibility_and(self.ton_obeys_heads.status, self.ton_obeys_tails.status)

    @property
    def self_enforceable(self) -> Feasibility:
        return feasibility_and(self.aon_prefers, self.ton_prefers)


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
    names the unilateral deviation.  The obey-tails form follows the
    published display literally, whose idle-slot weight is written with the
    AON's (silent) access probability.
    """
    _model.check_age(network_age, "network age")
    na, nt = sizes.n_aon, sizes.n_ton
    si, ss, sc = slots.idle, slots.success, slots.collision
    ta, tt = profile_hat.tau_aon, profile_hat.tau_ton
    one_a = ta * (1.0 - ta) ** (na - 1)
    one_t = tt * (1.0 - tt) ** (nt - 1)
    quiet_a = (1.0 - ta) ** na
    quiet_t = (1.0 - tt) ** nt
    if case is Recommendation.HEADS:
        return network_age * (1.0 - one_a) + sc + quiet_a * (si - sc) + na * one_a * (ss - sc)
    if case is Recommendation.TAILS:
        return network_age + sc + quiet_a * (si - sc) + nt * one_t * (ss - sc)
    if isinstance(case, DeviationCase):
        if not case.joint_access:
            # Both networks silent: the slot is idle with certainty.
            return network_age + si
        return (
            network_age * (1.0 - one_a * quiet_t)
            + sc
            + quiet_t * quiet_a * (si - sc)
            + (na * one_a * quiet_t + nt * one_t * quiet_a) * (ss - sc)
        )
    raise ConfigurationError(f"unknown stage-1 case: {case!r}")


def stage1_expected_ton_throughput(
    case: Recommendation | DeviationCase,
    sizes: NetworkSizes,
    slots: SlotLengths,
    profile_hat: AccessProfile,
    rate: float,
) -> float:
    """Closed-form expected TON network throughput in stage 1 for one case."""
    _model.check_rate(rate)
    nt = sizes.n_ton
    ta, tt = profile_hat.tau_aon, profile_hat.tau_ton
    one_t = tt * (1.0 - tt) ** (nt - 1)
    if case is Recommendation.HEADS:
        return 0.0
    if case is Recommendation.TAILS:
        return one_t * slots.success * rate
    if isinstance(case, DeviationCase):
        if not case.joint_access:
            return 0.0
        return one_t * (1.0 - ta) ** sizes.n_aon * slots.success * rate
    raise ConfigurationError(f"unknown stage-1 case: {case!r}")


# Branch tags for the paired trajectories.
_BRANCHES = ("obey_heads", "obey_tails", "deviate_joint", "deviate_idle")


def _estimate(name: str, obey: np.ndarray, dev: np.ndarray) -> InequalityEstimate:
    margin, se = _mean_se(obey - dev)
    return InequalityEstimate(name, float(obey.mean()), float(dev.mean()), margin, se)


def _sweep(
    params: ScenarioParams, alpha_axis, pr_axis, n_runs, n_stages, seed, threads, chunk_size
) -> list[list[DeviationReport]]:
    """Deviation reports on every (alpha, bias) cell from shared trajectories.

    Every cell replays the run streams ``(seed, r)``: the dynamics never read
    alpha and the deviation branches never read the bias, so one state of
    ``2 + 2 * |biases|`` copies per run chunk covers the grid (joint access
    and idle, then heads and tails per bias), and alpha only selects a
    column of discount weights.  Cell ``[i][j]`` equals the report at
    ``alpha_axis[i]``, ``pr_axis[j]`` alone.
    """
    if n_runs < 1 or n_stages < 1:
        raise ConfigurationError("need at least one run and one stage")
    engine = _Engine(params)
    profile_hat, _ = eq.cooperative_optimum(params.sizes, params.slots, params.initial_age)
    tau_hat0, tau_ton = profile_hat.tau_aon, engine.tau_ton_star
    weights = _discount_weights(alpha_axis, n_stages)
    n_alpha, n_pr = alpha_axis.size, pr_axis.size
    # Copies: joint access and an idle slot, competitive afterwards; then per
    # bias obey heads (AON alone) and obey tails (TON alone), cooperative
    # afterwards.  Each copy's stage-1 (tau_aon, tau_ton):
    p_rs = [None, None, *np.repeat(pr_axis, 2)]
    profiles = [(tau_hat0, tau_ton), (-1.0, -1.0)] + [(tau_hat0, -1.0), (-1.0, tau_ton)] * n_pr
    copies = len(p_rs)
    # Per-run payoffs, run index last so each cell reduces a contiguous row.
    dev = np.empty((2, n_alpha, 2, n_runs))  # payoff, alpha, (joint, idle), run
    obey = np.empty((2, n_alpha, n_pr, 2, n_runs))  # payoff, alpha, bias, (heads, tails), run
    stage1 = np.empty((2, 4, n_runs))  # (age, TON payoff), branch in _BRANCHES order, run

    def work(bounds):
        start, stop = bounds
        size = stop - start
        stage1_rows = np.repeat(np.transpose(profiles), size, axis=1)
        state = _simulate_batch(engine, seed, range(start, stop), p_rs, weights, stage1_rows)
        for k, pay in enumerate((state.u_aon, state.u_ton)):
            pay = np.moveaxis(pay.reshape(copies, size, n_alpha), -1, 0)
            dev[k, ..., start:stop] = pay[:, :2]
            obey[k, ..., start:stop] = pay[:, 2:].reshape(n_alpha, n_pr, 2, size)
            # In _BRANCHES order: compliance stage 1 does not read the bias, so
            # heads and tails come from the first bias's copies (2, 3).
            stage1[k, :, start:stop] = state.first[k].reshape(copies, size)[[2, 3, 0, 1]]

    _fanout(n_runs, chunk_size, work, threads)

    stage1_age_mc = {b: _mean_se(stage1[0, k]) for k, b in enumerate(_BRANCHES)}
    stage1_throughput_mc = {b: _mean_se(stage1[1, k]) for k, b in enumerate(_BRANCHES)}

    def report(i, j):
        (aon_h, aon_t), (ton_h, ton_t) = obey[0, i, j], obey[1, i, j]
        (aon_joint, aon_idle), (ton_joint, ton_idle) = dev[0, i], dev[1, i]
        return DeviationReport(
            aon_obeys_heads=_estimate("aon_obeys_heads", aon_h, aon_idle),
            ton_obeys_heads=_estimate("ton_obeys_heads", ton_h, ton_joint),
            aon_obeys_tails=_estimate("aon_obeys_tails", aon_t, aon_joint),
            ton_obeys_tails=_estimate("ton_obeys_tails", ton_t, ton_idle),
            stage1_age_mc=dict(stage1_age_mc),
            stage1_throughput_mc=dict(stage1_throughput_mc),
            stage1_profile=profile_hat,
            n_runs=n_runs,
        )

    return [[report(i, j) for j in range(n_pr)] for i in range(n_alpha)]


def deviation_inequalities(
    params: ScenarioParams,
    n_runs: int,
    n_stages: int,
    seed: int,
    threads: int = 1,
    chunk_size: int = _DEFAULT_CHUNK,
) -> DeviationReport:
    """Estimate the four obey-versus-deviate inequalities by paired Monte Carlo."""
    axes = np.array([params.alpha]), np.array([params.p_r])
    return _sweep(params, *axes, n_runs, n_stages, seed, threads, chunk_size)[0][0]


def spe_feasible(
    params: ScenarioParams,
    alpha: float,
    p_r: float,
    n_runs: int,
    n_stages: int,
    seed: int,
    threads: int = 1,
) -> Feasibility:
    """Whether obeying the device is self-enforceable at one (alpha, bias) point."""
    if not 0.0 < alpha < 1.0 or not 0.0 < p_r < 1.0:
        raise ConfigurationError("alpha and p_r must lie in (0, 1)")
    point = replace(params, alpha=alpha, p_r=p_r)
    return deviation_inequalities(point, n_runs, n_stages, seed, threads).self_enforceable


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
        stages, seed 1) the AON's obey margins are +13.9 / +9.6 SE at alpha
        0.85 and -7.7 / -9.2 SE at alpha 0.95; at a low bias a patient AON
        prefers competing.
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

    All cells share the run streams ``(seed, r)`` (common random numbers),
    and cell (i, j) equals ``deviation_inequalities`` at that point and seed
    at any thread count.
    """
    alpha_axis = np.asarray(alpha_grid, dtype=np.float64)
    pr_axis = np.asarray(pr_grid, dtype=np.float64)
    if alpha_axis.size == 0 or pr_axis.size == 0:
        raise ConfigurationError("alpha and bias grids need at least one value")
    if np.any(alpha_axis <= 0.0) or np.any(alpha_axis >= 1.0):
        raise ConfigurationError("alpha grid must lie inside (0, 1)")
    if np.any(pr_axis <= 0.0) or np.any(pr_axis >= 1.0):
        raise ConfigurationError("bias grid must lie inside (0, 1)")
    reports = _sweep(
        params, alpha_axis, pr_axis, n_runs, n_stages, seed, threads, _DEFAULT_CHUNK
    )

    def cells(value, dtype=np.float64):
        return np.array([[value(r) for r in row] for row in reports], dtype=dtype)

    def tri(verdict):
        return cells(lambda r: getattr(r, verdict).to_int(), np.int8)

    def field(attr):
        return np.array([cells(lambda r: getattr(r.inequalities[k], attr)) for k in range(4)])

    return RegionGrid(
        alpha_axis=alpha_axis,
        pr_axis=pr_axis,
        ton_prefers=tri("ton_prefers"),
        aon_prefers=tri("aon_prefers"),
        self_enforceable=tri("self_enforceable"),
        margins=field("margin"),
        ses=field("se"),
    )


@dataclass(frozen=True)
class StageTrace:
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
    plays the competitive equilibrium, as the trigger requires.
    """
    if not 0 <= deviate_at_stage < n_stages:
        raise ConfigurationError("deviation stage outside the run")
    rng = run_generator(seed, 0)
    sizes, slots = params.sizes, params.slots
    state = _model.AgeState.uniform(sizes.n_aon, params.initial_age)
    trace = []
    triggered = False
    for n in range(n_stages):
        device = (
            Recommendation.HEADS if rng.random() < params.p_r else Recommendation.TAILS
        )
        if triggered:
            profile, _ = eq.msne(sizes, slots, state.network_age)
            event = _model.sample_slot(rng, sizes, profile, recommendation=None)
            obeyed = False
        elif n == deviate_at_stage:
            device = case.recommendation
            coop, _ = eq.cooperative_optimum(sizes, slots, state.network_age)
            if case.joint_access:
                profile = coop
                event = _model.sample_slot(rng, sizes, profile, recommendation=None)
            else:
                profile = AccessProfile(0.0, 0.0)
                event = _model.SlotEvent(_model.SlotKind.IDLE)
            obeyed = False
            triggered = True
        else:
            profile, _ = eq.cooperative_optimum(sizes, slots, state.network_age)
            event = _model.sample_slot(rng, sizes, profile, recommendation=device)
            obeyed = True
        state = _model.apply_slot(state, event, slots)
        trace.append(
            StageTrace(
                stage=n,
                compliance=ComplianceFlag(stage=n, recommendation=device, obeyed=obeyed),
                competitive_play=triggered and not (n == deviate_at_stage),
                tau_aon=profile.tau_aon,
                tau_ton=profile.tau_ton,
                network_age_after=state.network_age,
            )
        )
    return GrimTriggerTrace(stages=tuple(trace))
