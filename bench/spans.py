"""Spans around primegen's public functions, recorded from outside the program.

For the traced part of a run each public function is replaced at the
name its caller looks up: `miller_rabin_round` calls
`primegen.primality.mod_pow`, the CLI calls `primegen.cli.trial_division`
and `primegen.pseudolab.liar_census`, and so on. A span records its
name, start, end, parent span and op id. Spans stay in memory and are
written out when the run ends. A span's self time is its duration minus
the time covered by its child spans.

Counts that would need wrapping hot, tiny functions are computed from
arguments and results instead: modular multiplications from the
exponent, bases classified from the census rows.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("arith", "sampling", "primality", "confidence", "density", "scireal",
          "experiment", "pseudolab", "cli")

# (module under primegen, attribute the caller looks up, span name)
TARGETS = [
    ("primality", "mod_pow", "arith.mod_pow"),
    ("primality", "decompose_pow2", "arith.decompose_pow2"),
    ("primality", "miller_rabin_round", "primality.miller_rabin_round"),
    ("pseudolab", "trial_division", "primality.trial_division"),
    ("pseudolab", "liar_census", "pseudolab.liar_census"),
    ("pseudolab", "carmichael_numbers", "pseudolab.carmichael_numbers"),
    ("pseudolab", "fermat_pseudoprimes", "pseudolab.fermat_pseudoprimes"),
    ("pseudolab", "is_absolute_euler_pseudoprime", "pseudolab.is_absolute_euler_pseudoprime"),
    ("pseudolab", "sqrt_of_unity", "pseudolab.sqrt_of_unity"),
    ("experiment", "make_stream", "sampling.make_stream"),
    ("experiment", "random_candidate", "sampling.random_candidate"),
    ("experiment", "miller_rabin", "primality.miller_rabin"),
    ("experiment", "filtered_prime_prob", "density.filtered_prime_prob"),
    ("experiment", "bayes_confidence", "confidence.bayes_confidence"),
    ("experiment", "rounds_for_confidence", "confidence.rounds_for_confidence"),
    ("experiment", "generate_prime", "experiment.generate_prime"),
    ("experiment", "run_experiment", "experiment.run_experiment"),
    ("experiment", "render_report", "experiment.render_report"),
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "make_stream", "sampling.make_stream"),
    ("cli", "pool_size", "sampling.pool_size"),
    ("cli", "fermat_test", "primality.fermat_test"),
    ("cli", "euler_test", "primality.euler_test"),
    ("cli", "miller_rabin", "primality.miller_rabin"),
    ("cli", "trial_division", "primality.trial_division"),
    ("cli", "generate_prime", "experiment.generate_prime"),
    ("cli", "run_experiment", "experiment.run_experiment"),
    ("cli", "render_report", "experiment.render_report"),
    ("cli", "filtered_prime_prob", "density.filtered_prime_prob"),
    ("cli", "base_prime_prob", "density.base_prime_prob"),
    ("cli", "digit_prime_count", "density.digit_prime_count"),
    ("cli", "digit_prime_count_bounds", "density.digit_prime_count_bounds"),
    ("cli", "bayes_confidence", "confidence.bayes_confidence"),
    ("cli", "rounds_for_confidence", "confidence.rounds_for_confidence"),
]

# SciReal methods, looked up on the class by density and the CLI.
# __post_init__ is the normalizing constructor.
SCIREAL_METHODS = ("__post_init__", "from_number", "from_int", "to_float", "mantissa_at", "ln",
                   "__mul__", "__rmul__", "__truediv__", "__add__", "__radd__", "__sub__",
                   "__neg__", "__lt__", "__le__", "__gt__", "__ge__", "__str__")


def _count_mulmods(counts, args, result):
    # square-and-multiply: one squaring per exponent bit, one product per set bit
    counts["mulmods"] += args[1].bit_length() + args[1].bit_count()


def _count_bases(counts, args, result):
    counts["bases_classified"] += result.n - 1


COUNTERS = {"arith.mod_pow": _count_mulmods, "pseudolab.liar_census": _count_bases}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.current = -1
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name):
        spans = self.spans
        counter = COUNTERS.get(name)
        inner = name.startswith("scireal.")

        def traced(*args, **kwargs):
            parent = self.current
            # SciReal methods call each other many times per density row; spans
            # nested inside a SciReal span would only split the same layer's time
            if inner and parent >= 0 and spans[parent][0].startswith("scireal."):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, parent, self.op]
            self.current = len(spans)
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.current = parent
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def _count_draws(self, make_stream):
        # random_candidate draws its last digit with one rng.choice per try, so
        # counting choice calls on the streams it receives counts its draws.
        counts = self.counts

        def stream(*args, **kwargs):
            rng = make_stream(*args, **kwargs)
            choice = rng.choice

            def counted_choice(seq):
                counts["draws"] += 1
                return choice(seq)

            rng.choice = counted_choice
            return rng

        return stream

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, pg) -> None:
        for module, attr, name in TARGETS:
            owner = getattr(pg, module)
            fn = getattr(owner, attr)
            if (module, attr) == ("experiment", "make_stream"):
                fn = self._count_draws(fn)
            self._patch(owner, attr, self.wrap(fn, name))
        cls = pg.scireal.SciReal
        for attr in SCIREAL_METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(raw.__func__, f"scireal.{attr}")))
            else:
                self._patch(cls, attr, self.wrap(raw, f"scireal.{attr}"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            a = agg[name]
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child[i]
        return {name: tuple(a) for name, a in agg.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


def layer_metrics(tracer: Tracer, ops: int, attempts_per_prime: float, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced op: name -> (value, unit)."""
    per_op = 1.0 / max(ops, 1)
    times = tracer.self_times()

    def stat(name, index):
        return times.get(name, (0, 0.0, 0.0))[index]

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(t[2] for n, t in times.items() if n.split(".")[0] == layer) * per_op, "s/op")
    for name in ("arith.mod_pow", "primality.miller_rabin_round", "primality.trial_division"):
        m[f"{name}.calls"] = (stat(name, 0) * per_op, "count/op")
    m["arith.mod_pow.mulmods"] = (tracer.counts["mulmods"] * per_op, "count/op")
    for name in ("arith.mod_pow", "sampling.random_candidate", "sampling.make_stream",
                 "primality.miller_rabin", "primality.fermat_test", "primality.euler_test",
                 "primality.trial_division", "experiment.generate_prime", "experiment.run_experiment",
                 "experiment.render_report", "pseudolab.liar_census", "pseudolab.carmichael_numbers",
                 "pseudolab.fermat_pseudoprimes", "pseudolab.is_absolute_euler_pseudoprime",
                 "pseudolab.sqrt_of_unity", "cli.build_parser", "cli.main"):
        m[f"{name}.self_s"] = (stat(name, 2) * per_op, "s/op")
    candidates = stat("sampling.random_candidate", 0)
    m["sampling.draws_per_candidate"] = (tracer.counts["draws"] / candidates if candidates else 0.0, "ratio")
    m["experiment.attempts_per_prime"] = (attempts_per_prime, "count")
    census_s = stat("pseudolab.liar_census", 1)
    m["pseudolab.bases_classified"] = (tracer.counts["bases_classified"] / census_s if census_s else 0.0, "count/s")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m
