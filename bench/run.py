"""primegen benchmark: one workload, one run, one JSON line of metrics.

    python3 bench/run.py --workload gen-100 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; primegen is imported from
`src/`. The load is a closed loop with a single caller in this process.
Timings are scaled to a reference host speed by probes run between ops
(see `hostspeed.py`).
With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it runs the same ops untraced for half the time and traced for the other
half, and reports per-layer metrics (see `spans.py`). Every op's output
is checked by `oracles.py`, which does not use primegen. The last line
of stdout is the JSON result; the full record, with the environment and
the per-op seeds, goes to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
from spans import Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 10
SETUP_TIMEOUT_S = 60
# a host probe runs before the first op that starts this long after the last probe
PROBE_GAP_S = 0.1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
        "workload_seed": seed,
    }


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile, samples).

    With 10 samples or fewer no such percentile exists and the maximum is reported.
    """
    xs = sorted(values)
    at_or_below = len(xs) - 10
    if at_or_below < 1:
        return xs[-1], 100.0, len(xs)
    return xs[at_or_below - 1], 100.0 * at_or_below / len(xs), len(xs)


def setup_times(wl, repeats: int) -> list[tuple[float, float]]:
    """(wall time, scaled time) for a fresh interpreter to import primegen and finish one minimal op.

    The scaled time uses the host probes run just before and just after the interpreter.
    """
    code = f"import sys, primegen.cli; sys.exit(primegen.cli.main({wl.setup_argv!r}))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(repeats + 1):  # the first run only warms the bytecode cache
        before = hostspeed.probe()
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                              timeout=SETUP_TIMEOUT_S)
        elapsed = perf_counter() - start
        if proc.returncode != 0 or not proc.stdout:
            raise RuntimeError(f"setup op {wl.setup_argv} failed: {proc.stderr.decode(errors='replace')}")
        if i:
            times.append((elapsed, hostspeed.scale(elapsed, (before + hostspeed.probe()) / 2)))
    return times


class Segment:
    """Ops run back to back in one closed loop, with host probes between them and after the last."""

    def __init__(self):
        self.latencies: list[float] = []
        self.probes: list[float] = []  # probe durations, in the order they ran
        self.probe_before: list[int] = []  # per op: index of the last probe before it
        self.oks: list[bool] = []
        self.problems: list[str] = []
        self.inputs: list = []
        self.attempts: list[int] = []

    @property
    def ok(self) -> int:
        return sum(self.oks)

    @property
    def failed(self) -> int:
        return len(self.oks) - self.ok

    @property
    def scaled(self) -> list[float]:
        """Op latencies at the reference host speed, each scaled by the probes on either side of it."""
        return [hostspeed.scale(lat, (self.probes[j] + self.probes[j + 1]) / 2)
                for lat, j in zip(self.latencies, self.probe_before)]

    def ops_per_s(self, latencies: list[float]) -> float:
        """Ok ops per second of op time."""
        return self.ok / sum(latencies)


def run_segment(wl, pg, seed: int, seconds: float, reference: dict, tracer: Tracer | None = None,
                max_ops: int | None = None) -> Segment:
    """Run ops from the start of the seed's input stream until `seconds` have passed.

    A run ends only on a pass boundary. `reference` maps an input to a digest
    of the first output seen for it; every later op on the same input must
    give byte-identical output (C7).
    """
    seg = Segment()
    start = perf_counter()
    probed = start
    for i, op in enumerate(wl.inputs(seed)):
        if i == max_ops or (i % wl.pass_len == 0 and perf_counter() - start >= seconds):
            break
        if tracer is not None:
            tracer.op = i
        seg.inputs.append(op)
        if not seg.probes or perf_counter() - probed >= PROBE_GAP_S:
            seg.probes.append(hostspeed.probe())
            probed = perf_counter()
        seg.probe_before.append(len(seg.probes) - 1)
        t0 = perf_counter()
        try:
            result = wl.run(pg, op)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            seg.latencies.append(perf_counter() - t0)
            seg.oks.append(False)
            seg.problems.append(f"op {i} raised {exc!r}")
            continue
        seg.latencies.append(perf_counter() - t0)
        problems = wl.check(op, result)
        digest = hashlib.sha256(repr(result).encode()).digest()
        if reference.setdefault(op, digest) != digest:
            problems.append("output differs from an earlier run of the same input")
        seg.oks.append(not problems)
        seg.problems += [f"op {i}: {p}" for p in problems]
        if wl.attempts_of(result) is not None:
            seg.attempts.append(wl.attempts_of(result))
    seg.probes.append(hostspeed.probe())
    return seg


def tally(segments: list[Segment]) -> tuple[int, int]:
    """(attempted, failed) ops over the segments."""
    return sum(len(s.oks) for s in segments), sum(s.failed for s in segments)


def measure(wl, pg, args) -> tuple[dict, list[Segment], dict]:
    """Run the workload; returns the metrics, name -> (value, unit), every segment run, and wall figures.

    Timing metrics are scaled to the reference host speed (`hostspeed`); the
    wall figures are the same quantities unscaled, kept in the run's record.
    """
    reference: dict = {}
    # setup is sampled before and after the timed part, so that one slow
    # moment of the host does not decide the median
    setup = [] if args.trace else setup_times(wl, SETUP_REPEATS)
    # warm-up: op 0, untimed; every timed segment starts over from it
    warm = run_segment(wl, pg, args.seed, float("inf"), reference, max_ops=1)
    if args.trace:
        plain = run_segment(wl, pg, args.seed, args.seconds / 2, reference)
        tracer = Tracer()
        tracer.install(pg)
        try:
            traced = run_segment(wl, pg, args.seed, args.seconds / 2, reference, tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"{wl.name}-seed{args.seed}-trace1-spans.tsv")
        attempts = plain.attempts + traced.attempts
        metrics = layer_metrics(tracer, len(traced.oks), statistics.mean(attempts) if attempts else 0.0,
                                traced.ops_per_s(traced.scaled) / plain.ops_per_s(plain.scaled))
        return metrics, [warm, plain, traced], {}
    timed = run_segment(wl, pg, args.seed, args.seconds, reference)
    setup += setup_times(wl, SETUP_REPEATS)
    segments = [warm, timed]
    attempted, failed = tally(segments)
    scaled = timed.scaled
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "ops_per_s": (timed.ops_per_s(scaled), "1/s"),
        "op_latency_p50_s": (statistics.median(scaled), "s"),
        "op_latency_tail_s": (tail(scaled)[0], "s"),
        "success_ratio": (1 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = {
        "setup_s": statistics.median(w for w, _ in setup),
        "ops_per_s": timed.ops_per_s(timed.latencies),
        "op_latency_p50_s": statistics.median(timed.latencies),
        "op_latency_tail_s": tail(timed.latencies)[0],
        "probe_s_median": statistics.median(timed.probes),
    }
    return metrics, segments, wall


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "primegen" / "__init__.py").is_file():
        print(f"error: no primegen sources under {SRC}; run from a primegen checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import primegen
    import primegen.cli  # the package does not import its CLI

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]()
    env = environment(args.seed)
    problems = wl.static_checks()
    metrics, segments, wall = measure(wl, primegen, args)
    attempted, failed = tally(segments)
    problems += [p for s in segments for p in s.problems]
    timed = segments[1]
    _, tail_pct, samples = tail(timed.latencies)
    result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": wl.name, "seconds": args.seconds, "trace": args.trace, "environment": env,
        "ops": {"attempted": attempted, "failed": failed, "timed": len(timed.latencies)},
        "tail": {"percentile": tail_pct, "samples": samples},
        "attempts_per_prime": statistics.mean(timed.attempts) if timed.attempts else None,
        "metrics": result,
        "wall": wall,
        "problems": problems,
        # per-op inputs of the timed segment: 64-bit seeds, or one pass of the script
        "op_inputs": timed.inputs[: wl.pass_len] if wl.pass_len > 1 else timed.inputs,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {wl.name}  seed {args.seed}  python {env['python']}  nproc {env['nproc']}  "
          f"cpu {env['cpu_model']}  loadavg {env['loadavg_start'][0]:.2f}")
    print(f"ops {attempted} attempted, {failed} failed; timed {len(timed.latencies)}; "
          f"tail = p{tail_pct:.2f} of {samples} samples; record {OUT.name}/{stem}.json")
    for p in problems[:20]:
        print(f"problem: {p}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:.6g} {unit}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
