"""Bayesian reliability of a candidate that survived m test rounds.

A composite survives one strong round with probability at most 1/4, so
after m independent rounds the posterior probability of primality is
bounded below by 1 - A with A = (P(c)/P(p)) / 4^m. The smaller A, the
higher the confidence; A shrinks by raising the prior (filtering) or by
adding rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

STRONG_ROUND_ERROR = 0.25


@dataclass(frozen=True)
class ConfidenceReport:
    """Posterior bound for 'prime given m passed rounds'.

    lower_bound = 1 - slack can go negative for tiny priors and few
    rounds; it is reported verbatim (display layers may clamp it).
    exact_posterior is the Bayes posterior at the worst case, where the
    per-round error equals 1/4 exactly; the bound never exceeds it.
    """

    prior_p: float
    prior_c: float
    rounds: int
    ratio: float
    slack: float
    lower_bound: float
    exact_posterior: float


def bayes_confidence(prior_p: float, rounds: int) -> ConfidenceReport:
    """Posterior report for a candidate with prior `prior_p` after `rounds` passes."""
    if not 0.0 < prior_p < 1.0:
        raise ValueError(f"prior must be in (0, 1), got {prior_p}")
    if rounds < 1:
        raise ValueError("round count must be >= 1")
    prior_c = 1.0 - prior_p
    ratio = prior_c / prior_p
    if not math.isfinite(ratio):
        raise ValueError(f"prior odds (1 - p)/p overflow a float, got p = {prior_p}")
    miss = STRONG_ROUND_ERROR**rounds
    slack = ratio * miss
    return ConfidenceReport(
        prior_p=prior_p,
        prior_c=prior_c,
        rounds=rounds,
        ratio=ratio,
        slack=slack,
        lower_bound=1.0 - slack,
        exact_posterior=prior_p / (prior_p + prior_c * miss),
    )


def rounds_for_confidence(prior_p: float, target: float) -> int:
    """Smallest m >= 1 whose lower bound reaches `target`.

    A plain upward search on bayes_confidence's own float expression for
    the bound, 1 - ratio * 4^-m, with the prior checked once: 4^-m
    underflows to 0 by m = 538, where the bound of any finite prior odds
    is 1.0, so the loop always ends.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must be in (0, 1), got {target}")
    ratio = bayes_confidence(prior_p, 1).ratio
    m = 1
    while 1.0 - ratio * STRONG_ROUND_ERROR**m < target:
        m += 1
    return m
