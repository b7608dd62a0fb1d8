"""What a fresh gcdlab process loads.  mpmath is imported only where a
decimal or an interval is computed, so importing the package, hilbert-verify
and a scan that keeps no rows never load it; the subcommands that render
decimals still do, with the same bytes.  Each test runs in a fresh
interpreter, since the test process itself has mpmath loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import time_limit

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "bench" / "reference.json").read_text())

# the hilbert-verify CSV: every check's name, instance count and failure
# count, the same for every seed
HILBERT_CSV_DIGEST = "85a9e3f71dc511929f5bb862fd9663ebc9e9f4d59382fb989b49c6ffd8388702"

REPORT = """
import hashlib, json, os
out = sys.argv[1]
digest = hashlib.sha256(open(out, "rb").read()).hexdigest() if os.path.exists(out) else None
print(json.dumps({"mpmath": "mpmath" in sys.modules, "result": result, "sha256": digest}))
"""


def _fresh(tmp_path, body: str, seconds: float = 30) -> dict:
    """Run ``body`` in a fresh interpreter with src on its path; it sets
    ``result`` and may write the file named by sys.argv[1].  Returns whether
    mpmath was loaded after it, its result and that file's sha256 (None if
    it wrote none)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    with time_limit(seconds):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys\n" + body + REPORT, str(tmp_path / "out.csv")],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["gcdlab", "gcdlab.cli"])
def test_importing_gcdlab_does_not_load_mpmath(tmp_path, module):
    got = _fresh(tmp_path, f"import {module}\nresult = None")
    assert got["mpmath"] is False


def test_hilbert_verify_runs_without_mpmath(tmp_path):
    got = _fresh(tmp_path, "from gcdlab import cli\n"
                           "result = cli.main(['hilbert-verify', '--seed', '0', '--out', sys.argv[1]])")
    assert got == {"mpmath": False, "result": 0, "sha256": HILBERT_CSV_DIGEST}


def test_a_scan_without_rows_runs_without_mpmath(tmp_path):
    got = _fresh(tmp_path, """
from fractions import Fraction
from gcdlab.harness import ScanConfig, pk_sequences, run_lrs_scan
report = run_lrs_scan(ScanConfig(*pk_sequences(2), Fraction(3, 5), 300, keep_rows=False))
result = None if report.rows is None else len(report.rows)
""")
    assert got == {"mpmath": False, "result": None, "sha256": None}


_SCAN_CONFIG = {
    "F": {"terms": [{"coeff": ["0", "1"], "root": "2"}, {"coeff": ["1"], "root": "1"}]},
    "G": {"terms": [{"coeff": ["1"], "root": "2"}, {"coeff": ["1"], "root": "1"}]},
    "epsilon": "3/5", "N": 150, "mode": "full-grid",
    "extra_S": {"archimedean": False, "primes": []}, "tube_max_ab": 8, "tube_kappa": 16,
}
_POLY_GCD_CONFIG = {"f": "x1 + 1", "g": "x2", "nvars": 2,
                    "S": {"archimedean": True, "primes": [2]}, "delta": "1/5", "count": 4}

RENDERING_RUNS = [
    (["lrs-scan"], _SCAN_CONFIG,
     (0, REFERENCE["scan_csv"]["lrs-scan p=2 eps=3/5 N=150"])),
    (["poly-gcd", "--seed", "0"], _POLY_GCD_CONFIG,
     tuple(REFERENCE["audit"]["poly-gcd cfg=0 seed=0"].values())),
    (["sharpness", "--p", "2", "--delta", "1/5", "--trials", "1"], {"m_start": 10},
     tuple(REFERENCE["audit"]["sharpness p=2 delta=1/5 m_start=10"].values())),
]


@pytest.mark.parametrize("argv, config, want", RENDERING_RUNS,
                         ids=[argv[0] for argv, _, _ in RENDERING_RUNS])
def test_subcommands_that_render_decimals_load_mpmath_and_keep_their_bytes(
        tmp_path, argv, config, want):
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    argv = argv + ["--config", "cfg.json"]
    got = _fresh(tmp_path, "from gcdlab import cli\n"
                           f"result = cli.main({argv!r} + ['--out', sys.argv[1]])")
    assert got["mpmath"] is True
    assert (got["result"], got["sha256"]) == want


def test_escalating_sign_restores_the_precision_when_it_loads_mpmath(tmp_path):
    """The ladder reads mpmath.iv.prec after its own import, so a call that
    loads mpmath restores mpmath's default 53 bits, on a decided sign and on
    PrecisionExhausted alike."""
    got = _fresh(tmp_path, """
from gcdlab.logreal import PrecisionExhausted, escalating_sign
assert "mpmath" not in sys.modules

def spread(lo, hi):
    import mpmath
    return mpmath.iv.mpf([lo, hi])

signs = [escalating_sign(lambda: spread(1, 2))]
import mpmath
signs.append(mpmath.iv.prec)
try:
    escalating_sign(lambda: spread(-1, 1))
except PrecisionExhausted:
    signs.append(mpmath.iv.prec)
result = signs
""")
    assert got["result"] == [1, 53, 53]
