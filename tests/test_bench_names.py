"""The benchmark's traced runs wrap primegen functions by the names that
bench/spans.py lists. A rename or deletion in src/ breaks those runs, so
this test installs the tracer on the package, runs a small generate and
a confidence command through it, and checks that uninstalling puts every
original back. It reads bench/ and changes nothing there.
"""

from pathlib import Path

import primegen
from primegen import cli

BENCH = Path(__file__).parents[1] / "bench"


def test_tracer_wraps_every_patched_name_and_restores_it(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    def patched():
        return [getattr(getattr(primegen, module), attr) for module, attr, _ in spans.TARGETS] + [
            primegen.SciReal.__dict__[name] for name in spans.SCIREAL_METHODS]

    originals = patched()
    tracer = spans.Tracer()
    tracer.install(primegen)
    try:
        primegen.experiment.generate_prime(12, 0.999, seed=1)
        assert cli.main(["confidence", "--rounds", "2"]) == 0
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    assert {"experiment.generate_prime", "sampling.random_candidate", "arith.mod_pow"} <= recorded
    assert all(now is before for now, before in zip(patched(), originals, strict=True))
