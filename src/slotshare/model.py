"""Domain types and slot-level dynamics of the shared collision channel.

Two networks contend for a slotted medium: an age-optimizing network (AON)
whose nodes want fresh status updates at their peers, and a
throughput-optimizing network (TON) whose nodes want successful bits.  A slot
is idle (nobody transmits), a success (exactly one transmitter), or a
collision (two or more).  This module provides the domain types and the
closed-form slot-outcome probabilities for the competitive mode (both
networks access) and the cooperative mode (a coordination device grants
exclusive access).  Slots are sampled, and ages advanced, in one place only:
the trajectory engine (``sim._Engine``), whose draws and slot law the
grim-trigger audit replays too.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

# Probability identities (partition sums, derived means) are checked to this
# absolute tolerance; violations indicate a bug, not noise.
PROB_ATOL = 1e-12


class ConfigurationError(ValueError):
    """A domain object or argument violates its invariants."""


def check_age(age: float, what: str) -> None:
    """Reject an age that is negative, infinite or NaN (the comparison fails on NaN)."""
    if not 0.0 <= age < math.inf:
        raise ConfigurationError(f"{what} must be finite and non-negative, got {age}")


def check_rate(rate: float) -> None:
    """Reject a transmission rate that is not finite and positive (NaN included)."""
    if not 0.0 < rate < math.inf:
        raise ConfigurationError("transmission rate must be finite and positive")


class Recommendation(enum.Enum):
    """Coordination-device coin toss: heads lets the AON access, tails the TON."""

    HEADS = "heads"
    TAILS = "tails"


@dataclass(frozen=True)
class SlotLengths:
    """Durations of the three slot types, in normalized time units."""

    idle: float
    success: float
    collision: float

    def __post_init__(self):
        if not all(0.0 < s < math.inf for s in (self.idle, self.success, self.collision)):
            raise ConfigurationError("slot lengths must be finite and strictly positive")
        if not self.idle < self.success:
            # Carrier sensing keeps idle slots much shorter than data slots.
            raise ConfigurationError("idle slot must be shorter than a success slot")


@dataclass(frozen=True)
class NetworkSizes:
    n_aon: int
    n_ton: int

    def __post_init__(self):
        counts = self.n_aon, self.n_ton
        if not all(isinstance(n, numbers.Integral) for n in counts):
            raise ConfigurationError(f"node counts must be integers, got {counts!r}")
        if self.n_aon < 1 or self.n_ton < 1:
            raise ConfigurationError("both networks need at least one node")


@dataclass(frozen=True)
class AccessProfile:
    """Per-network transmit probabilities for one stage."""

    tau_aon: float
    tau_ton: float

    def __post_init__(self):
        for tau in (self.tau_aon, self.tau_ton):
            if not 0.0 <= tau <= 1.0:
                raise ConfigurationError(f"access probability {tau} outside [0, 1]")


@dataclass(frozen=True)
class ScenarioParams:
    """Full parameterization of a coexistence scenario.

    ``initial_age`` defaults to the success-slot length, i.e. every AON node
    starts as if it had just delivered an update.
    """

    sizes: NetworkSizes
    slots: SlotLengths
    rate: float = 1.0
    alpha: float = 0.9
    p_r: float = 0.5
    initial_age: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError("discount factor must lie in (0, 1)")
        if not 0.0 <= self.p_r <= 1.0:
            raise ConfigurationError("device bias must lie in [0, 1]")
        check_rate(self.rate)
        if self.initial_age is None:
            object.__setattr__(self, "initial_age", self.slots.success)
        else:
            check_age(self.initial_age, "initial age")


@dataclass(frozen=True)
class SlotProbabilities:
    """Slot-outcome probabilities for one stage under a fixed access profile.

    ``p_success_node_*`` is the probability that one given node of that
    network is the single transmitter; ``p_busy_*`` that a given node stays
    silent while exactly one other node succeeds.
    """

    p_idle: float
    p_success_total: float
    p_success_node_aon: float
    p_success_node_ton: float
    p_busy_aon: float
    p_busy_ton: float
    p_collision: float


def _check_terms(terms, sizes: NetworkSizes) -> None:
    """Check slot probabilities in ``SlotProbabilities`` field order: ranges, partitions, totals."""
    if any(not (-PROB_ATOL <= p <= 1.0 + PROB_ATOL) for p in terms):
        raise ConfigurationError(f"probability outside [0, 1]: {SlotProbabilities(*terms)}")
    p_idle, p_success, node_a, node_t, busy_a, busy_t, p_collision = terms
    if abs(p_idle + p_success + p_collision - 1.0) > PROB_ATOL:
        raise ConfigurationError("slot-type probabilities do not sum to 1")
    for p_succ, p_busy in ((node_a, busy_a), (node_t, busy_t)):
        part = p_succ + p_busy + p_idle + p_collision
        if abs(part - 1.0) > PROB_ATOL:
            raise ConfigurationError("per-node event partition does not sum to 1")
    if abs(sizes.n_aon * node_a + sizes.n_ton * node_t - p_success) > PROB_ATOL:
        raise ConfigurationError("per-node successes do not aggregate to p_success_total")


def _clip_probability(p: float) -> float:
    # Rounding in 1 - p_S - p_I can leave a tiny negative residue.
    if -PROB_ATOL < p < 0.0:
        return 0.0
    return p


def _slot_terms(ta, tt, na: int, nt: int, p_r=None):
    """Slot-outcome probabilities in ``SlotProbabilities`` field order.

    ``p_r=None`` is competitive access, otherwise device access with bias
    ``p_r``.  The collision term is left unclipped.  Written with arithmetic
    operators only, so the probabilities may be Python floats or numpy
    arrays; a float's ``**`` and an array's may round differently, so the
    scalar API passes floats and the vectorized kernels pass arrays.
    """
    one_a = ta * (1.0 - ta) ** (na - 1)
    one_t = tt * (1.0 - tt) ** (nt - 1)
    quiet_a = (1.0 - ta) ** na
    quiet_t = (1.0 - tt) ** nt
    if p_r is None:
        # A lone transmitter also needs the other network silent.
        w_a, s_a, w_t, s_t = 1.0, one_a * quiet_t, 1.0, one_t * quiet_a
        p_idle = quiet_a * quiet_t
    else:
        w_a, s_a, w_t, s_t = p_r, one_a, 1.0 - p_r, one_t
        p_idle = p_r * quiet_a + w_t * quiet_t
    p_success = w_a * na * s_a + w_t * nt * s_t
    return (
        p_idle,
        p_success,
        w_a * s_a,
        w_t * s_t,
        w_a * (na - 1) * s_a + w_t * nt * s_t,
        w_t * (nt - 1) * s_t + w_a * na * s_a,
        1.0 - p_success - p_idle,
    )


def _slot_probabilities(sizes: NetworkSizes, profile: AccessProfile, p_r=None) -> tuple:
    """A profile's ``_slot_terms`` in floats, the collision clipped, checked by ``_check_terms``."""
    if p_r is not None and not 0.0 <= p_r <= 1.0:
        raise ConfigurationError("device bias must lie in [0, 1]")
    *head, p_col = _slot_terms(profile.tau_aon, profile.tau_ton, sizes.n_aon, sizes.n_ton, p_r)
    terms = (*head, _clip_probability(p_col))
    _check_terms(terms, sizes)
    return terms


def slot_probabilities_competitive(
    sizes: NetworkSizes, profile: AccessProfile
) -> SlotProbabilities:
    """Slot-outcome probabilities when both networks contend in the same slot."""
    return SlotProbabilities(*_slot_probabilities(sizes, profile))


def slot_probabilities_cooperative(
    sizes: NetworkSizes, profile: AccessProfile, p_r: float
) -> SlotProbabilities:
    """Slot-outcome probabilities under the coordination device.

    The device grants the AON exclusive access with probability ``p_r`` and
    the TON otherwise, so the channel is a ``p_r``-weighted mixture of the two
    single-network channels and the networks never collide with each other.
    """
    return SlotProbabilities(*_slot_probabilities(sizes, profile, p_r))
