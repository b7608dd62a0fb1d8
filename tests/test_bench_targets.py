"""Every per-layer metric of BENCHMARK.json that times or counts a function
names one the benchmark's tracer can wrap, resolved the way
bench/tracer.py does: 'module.name' is an attribute of gcdlab.module, and
'module.Class.name' is in the class's own __dict__.  A rename in src/ that
breaks `bench/run.py --trace` fails here.  The file is only read."""

import importlib
import json
from pathlib import Path

import pytest

# the stats bench/run.py takes from a traced function; other per-layer
# metrics are derived from these
TRACED_STATS = ("calls", "self_s", "total_s", "max_bits")


def _traced_targets() -> list[str]:
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    targets = []
    for metric in spec["per_layer"]:
        target, _, stat = metric["name"].rpartition(".")
        if stat in TRACED_STATS and target not in targets:
            targets.append(target)
    return targets


def test_the_polynomial_and_elimination_layers_are_traced():
    targets = _traced_targets()
    for target in ("multipoly.poly_gcd", "multipoly.coprime", "multipoly.MultiPoly.eval",
                   "hilbert.monomials_exact", "linalg.rational_rank", "linalg.LinearSpan.add"):
        assert target in targets


@pytest.mark.parametrize("target", _traced_targets())
def test_trace_target_resolves_to_a_gcdlab_function(target):
    module, *path = target.split(".")
    owner = importlib.import_module(f"gcdlab.{module}")
    if len(path) == 2:
        owner = getattr(owner, path[0])
        function = vars(owner)[path[1]]
    else:
        (name,) = path
        function = getattr(owner, name)
    assert callable(function), target
