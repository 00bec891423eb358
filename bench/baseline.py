"""Re-measure the indicative baseline recorded in ROADMAP.md at its own sizes.

    python3 bench/baseline.py [--primes 20]

Prints the mean time per 309-digit prime and the share of it spent in
arith.mod_pow, one 2000 x 75-digit experiment batch, and `lab census`
up to 2000. These sizes are too slow or too luck-bound for a 20-second
benchmark run, so they are not workloads; NOTES.md compares the result
with the ROADMAP figures.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
from time import perf_counter

from run import SRC
from spans import Tracer
from workloads import run_cli


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--primes", type=int, default=20, help="309-digit primes to generate")
    args = p.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import primegen
    import primegen.cli  # noqa: F401

    rng = random.Random("baseline")
    seeds = [rng.getrandbits(64) for _ in range(args.primes)]
    tracer = Tracer()
    tracer.install(primegen)
    try:
        start = perf_counter()
        attempts = [primegen.experiment.generate_prime(309, 0.999, seed=s).attempts for s in seeds]
        per_prime = (perf_counter() - start) / len(seeds)
    finally:
        tracer.uninstall()
    times = tracer.self_times()
    total = sum(t[2] for t in times.values())
    print(f"generate_prime(309, 0.999): {per_prime:.3f} s per prime (traced), "
          f"{statistics.mean(attempts):.1f} attempts per prime over {len(seeds)} primes, "
          f"arith.mod_pow {times['arith.mod_pow'][2] / total:.1%} of traced self time")

    ex = primegen.experiment
    batch = []
    for seed in range(3):
        start = perf_counter()
        ex.run_experiment(ex.ExperimentConfig(75, 2000, 10, seed))
        batch.append(perf_counter() - start)
    print(f"run_experiment(75 digits, 2000 candidates, 10 rounds): median {statistics.median(batch):.3f} s of 3")

    census = []
    for _ in range(3):
        start = perf_counter()
        code, _ = run_cli(primegen, ["lab", "census", "--end", "2000"])
        census.append(perf_counter() - start)
    print(f"lab census --end 2000: median {statistics.median(census):.3f} s of 3 (exit {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
