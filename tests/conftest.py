"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from slotshare import NetworkSizes, Recommendation, SlotLengths
from slotshare import equilibrium as eq


@pytest.fixture
def small_collision():
    return SlotLengths(idle=0.01, success=1.01, collision=0.101)


@pytest.fixture
def equal_slots():
    return SlotLengths(idle=0.01, success=1.01, collision=1.01)


@pytest.fixture
def large_collision():
    return SlotLengths(idle=0.01, success=1.01, collision=2.02)


def enumerate_slot_probabilities(
    sizes: NetworkSizes,
    tau_aon: float,
    tau_ton: float,
    p_r: float | None = None,
):
    """Slot-outcome probabilities by exhaustive enumeration.

    Walks every transmit pattern of every node (and, cooperatively, both
    device outcomes), accumulating exact event probabilities.  Independent of
    the closed-form kernels it checks.
    """
    na, nt = sizes.n_aon, sizes.n_ton

    def channel(n_active_a, n_active_t):
        """Enumerate patterns when n_active_* nodes of each network may send."""
        acc = {
            "idle": 0.0,
            "succ_a": 0.0,
            "succ_t": 0.0,
            "succ_node_a": 0.0,
            "succ_node_t": 0.0,
            "collision": 0.0,
        }
        for bits_a in itertools.product([0, 1], repeat=n_active_a):
            pa = np.prod([tau_aon if b else 1.0 - tau_aon for b in bits_a]) if bits_a else 1.0
            for bits_t in itertools.product([0, 1], repeat=n_active_t):
                pt = (
                    np.prod([tau_ton if b else 1.0 - tau_ton for b in bits_t])
                    if bits_t
                    else 1.0
                )
                prob = float(pa * pt)
                k = sum(bits_a) + sum(bits_t)
                if k == 0:
                    acc["idle"] += prob
                elif k >= 2:
                    acc["collision"] += prob
                elif sum(bits_a) == 1:
                    acc["succ_a"] += prob
                    if bits_a[0]:
                        acc["succ_node_a"] += prob
                else:
                    acc["succ_t"] += prob
                    if bits_t[0]:
                        acc["succ_node_t"] += prob
        return acc

    if p_r is None:
        parts = [(1.0, channel(na, nt))]
    else:
        parts = [(p_r, channel(na, 0)), (1.0 - p_r, channel(0, nt))]

    def mix(key):
        return sum(w * acc[key] for w, acc in parts)

    p_succ_node_a = mix("succ_node_a")
    p_succ_node_t = mix("succ_node_t")
    p_success = mix("succ_a") + mix("succ_t")
    return {
        "p_idle": mix("idle"),
        "p_success_total": p_success,
        "p_success_node_aon": p_succ_node_a,
        "p_success_node_ton": p_succ_node_t,
        # A node is busy when it stays silent while exactly one other
        # transmitter succeeds.
        "p_busy_aon": p_success - p_succ_node_a,
        "p_busy_ton": p_success - p_succ_node_t,
        "p_collision": mix("collision"),
    }


def compact_draw(engine, uniforms):
    """The engine's compact draw ``(aon, device, ton, node)`` of (rows x width) uniforms.

    Each row is one run's stage, made by ``_Engine.compact`` as a batch makes it.
    """
    table = engine.table(len(uniforms), 1, 1)
    engine.compact(uniforms[None, :, None], table, np.empty((2, 1, 1, len(uniforms))))
    return tuple(t[0, 0] for t in table)


def ton_count(engine, uniforms, tau):
    """The TON's transmitter count at ``tau`` of each uniform row, clipped at 2.

    By inverse CDF of the row's TON uniform ``u`` (its last column), as the
    engine makes the count at ``tau_T*``: 0 below the binomial chance that
    none of the ``n_ton`` nodes sends, 1 below the chance that at most one
    does, else 2.  Any ``tau`` in [0, 1] (one value or one per row) gives
    the law of the clipped count at that tau; a negative one silences.
    """
    n, u = engine.n_ton, uniforms[..., -1]
    tau = np.maximum(tau, 0.0)
    none = math.comb(n, 0) * (1.0 - tau) ** n
    at_most_one = none + math.comb(n, 1) * tau * (1.0 - tau) ** (n - 1)
    return np.add(u >= none, u >= at_most_one, dtype=np.int8)


def with_ton_tau(engine, uniforms, draw, tau):
    """``draw`` of the ``uniforms`` rows with the TON's count at ``tau`` in place of ``tau_T*``.

    The slot plays the draw's count wherever the TON accesses, so a slot of
    this draw with the TON on plays it at ``tau`` (one value per run).
    """
    aon, device, _, node = draw
    return aon, device, ton_count(engine, uniforms, tau), node


def reference_payoffs(params, n_runs, n_stages, plays, seed):
    """Per-run discounted (AON, TON) payoffs from a naive simulator of the repeated game.

    An independent check of the engine's whole chain: it shares only the AON
    rules (``eq._rule`` / ``eq._evaluators``) with it.  ``plays`` is the
    stage-1 play and the play of every later stage, each None (compete), a
    device bias (obey it), ``"joint"`` (both networks on the air at the
    cooperative tau) or ``"idle"`` (both silent).  Every stage draws the
    device and one Bernoulli per node from ``np.random.default_rng(seed)``,
    so two calls of one seed share their draws and their runs pair.
    """
    sizes, slots = params.sizes, params.slots
    na, nt = sizes.n_aon, sizes.n_ton
    rng = np.random.default_rng(seed)
    taus = {c: eq._evaluators(sizes, slots, eq._rule(sizes, slots, c))[1] for c in (True, False)}
    ages = np.full((n_runs, na), float(params.initial_age))
    u_aon, u_ton = np.zeros(n_runs), np.zeros(n_runs)
    for n in range(n_stages):
        play = plays[0] if n == 0 else plays[1]
        device = rng.random(n_runs)
        tau_a = taus[play is None](ages.mean(1))
        if play == "idle":
            aon_on = ton_on = np.zeros(n_runs, dtype=bool)
        elif play is None or play == "joint":
            aon_on = ton_on = np.ones(n_runs, dtype=bool)
        else:
            aon_on, ton_on = device < play, device >= play
        sends_a = (rng.random((n_runs, na)) < tau_a[:, None]) & aon_on[:, None]
        sends_t = (rng.random((n_runs, nt)) < 1.0 / nt) & ton_on[:, None]
        k_a, k_t = sends_a.sum(1), sends_t.sum(1)
        k = k_a + k_t
        growth = np.where(k == 0, slots.idle, np.where(k == 1, slots.success, slots.collision))
        ages += growth[:, None]
        lone_aon = (k == 1) & (k_a == 1)
        ages[lone_aon] = np.where(sends_a[lone_aon], slots.success, ages[lone_aon])
        weight = (1.0 - params.alpha) * params.alpha**n
        u_aon -= weight * ages.mean(1)
        u_ton += weight * np.where((k == 1) & (k_t == 1), slots.success * params.rate / nt, 0.0)
    return u_aon, u_ton


def assert_ordered_beyond_se(means, ses, label=""):
    """Assert a non-decreasing sequence of means beyond 2 pooled standard errors."""
    for i in range(len(means) - 1):
        pooled = float(np.hypot(ses[i], ses[i + 1]))
        assert means[i + 1] - means[i] >= -2.0 * pooled, (
            f"{label}: mean[{i + 1}]={means[i + 1]:.5f} < mean[{i}]={means[i]:.5f}"
            f" beyond 2 pooled SE ({pooled:.5f})"
        )


HEADS = Recommendation.HEADS
TAILS = Recommendation.TAILS
