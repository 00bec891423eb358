"""Probable primes from filtered random candidates.

Candidates drawn from the mod-30 wheel (the last-digit and digital-root
filters in one draw), Fermat / Euler / Miller-Rabin testing,
prime-density estimates, Bayesian confidence bounds, and a pseudoprime
lab, behind one CLI.
"""

from .arith import decompose_pow2, mod_pow
from .confidence import ConfidenceReport, bayes_confidence, rounds_for_confidence
from .density import (
    Mode,
    base_prime_prob,
    digit_prime_count,
    digit_prime_count_bounds,
    filtered_prime_prob,
)
from .errors import RefusalError
from .experiment import (
    ExperimentConfig,
    ExperimentRecord,
    ExperimentSummary,
    GeneratedPrime,
    generate_prime,
    render_report,
    run_experiment,
)
from .primality import (
    ExactOutcome,
    ExactVerdict,
    TestVerdict,
    euler_round,
    euler_test,
    fermat_round,
    fermat_test,
    miller_rabin,
    miller_rabin_round,
    mr_transcript,
    trial_division,
)
from .pseudolab import (
    LiarCensus,
    carmichael_numbers,
    fermat_pseudoprimes,
    is_absolute_euler_pseudoprime,
    liar_census,
    sqrt_of_unity,
)
from .sampling import Candidate, FilterPolicy, make_stream, pool_size, random_candidate
from .scireal import SciReal

__version__ = "0.1.0"

__all__ = [
    "Candidate",
    "ConfidenceReport",
    "ExactOutcome",
    "ExactVerdict",
    "ExperimentConfig",
    "ExperimentRecord",
    "ExperimentSummary",
    "FilterPolicy",
    "GeneratedPrime",
    "LiarCensus",
    "Mode",
    "RefusalError",
    "SciReal",
    "TestVerdict",
    "base_prime_prob",
    "bayes_confidence",
    "carmichael_numbers",
    "decompose_pow2",
    "digit_prime_count",
    "digit_prime_count_bounds",
    "euler_round",
    "euler_test",
    "fermat_pseudoprimes",
    "fermat_round",
    "fermat_test",
    "filtered_prime_prob",
    "generate_prime",
    "is_absolute_euler_pseudoprime",
    "liar_census",
    "make_stream",
    "miller_rabin",
    "miller_rabin_round",
    "mod_pow",
    "mr_transcript",
    "pool_size",
    "random_candidate",
    "render_report",
    "rounds_for_confidence",
    "run_experiment",
    "sqrt_of_unity",
    "trial_division",
]
