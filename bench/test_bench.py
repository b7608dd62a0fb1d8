"""Self-tests of the benchmark.

    python3 -m pytest -q bench/test_bench.py

A wrong gcd core and a wrong integer rank, planted through the tracer's own
patching, must make scan and hilbert report failed operations; a hanging
audit call must end as an overrun that leaves mpmath's precision as it was;
every per-layer metric of BENCHMARK.json must name a traceable
function; and calibration must subtract its probes and scale by them."""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _planted_fail_rate(name: str, target: str, make_wrong, tmp_path) -> float:
    workload = workloads.WORKLOADS[name]
    plan = workload.setup(0, tmp_path)
    tracer = Tracer()
    _, _, real = tracer.resolve(target)
    tracer.patch(target, make_wrong(real))
    try:
        records, _ = run.run_phase(workload, plan, rounds=1)
    finally:
        tracer.restore()
    return sum(r.status != "ok" for r in records) / len(records)


def test_wrong_finite_core_fails_scan(tmp_path):
    def make_wrong(real):
        def wrong(a, b):
            M, L = real(a, b)
            return 2 * M, L
        return wrong

    assert _planted_fail_rate("scan", "gengcd._finite_core", make_wrong, tmp_path) > 0


def test_wrong_int_rank_fails_hilbert(tmp_path):
    def make_wrong(real):
        return lambda rows: max(real(rows) - 1, 0)

    assert _planted_fail_rate("hilbert", "linalg.int_rank", make_wrong, tmp_path) > 0


def test_clean_scan_round_passes(tmp_path):
    workload = workloads.WORKLOADS["scan"]
    records, _ = run.run_phase(workload, workload.setup(1, tmp_path), rounds=1)
    assert [r.error for r in records if r.status != "ok"] == []


def test_overrun_restores_interval_precision(tmp_path):
    import mpmath

    plan = workloads.WORKLOADS["audit"].setup(0, tmp_path)
    hang = next(op for block in plan.rounds for op in block
                if op.label.endswith("m_start=104"))
    before = mpmath.iv.prec
    records, _ = run.run_phase(workloads.WORKLOADS["audit"],
                               workloads.Plan({}, [[hang]]), rounds=1)
    assert records[0].status == "overrun"
    assert mpmath.iv.prec == before


def test_per_layer_metrics_name_traceable_functions():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    for target in run._layer_targets([m["name"] for m in spec["per_layer"]]):
        tracer.resolve(target)


def test_calibration_scales_by_probes_around_an_operation():
    cal = calibrate.Calibrator()
    cal.starts = [0.0, 1.0, 2.0, 3.0, 10.0]
    cal.durations = [0.002, 0.004, 0.004, 0.004, 0.050]
    assert cal.probe_seconds(0.5, 3.5) == 0.012
    # window 0.5 s around [1, 3]: probes at 1, 2, 3; the far one is ignored
    assert abs(cal.scale(1.0, 3.0) - calibrate.PROBE_REF_S / 0.004) < 1e-12
    # a lone probe widens the window until three are in it (2, 3 and 10);
    # the stalled one is capped at three times their median
    assert abs(cal.scale(9.9, 10.0) - calibrate.PROBE_REF_S / ((0.004 + 0.004 + 0.012) / 3)) < 1e-12


def test_calibrated_phase_reports_positive_times(tmp_path):
    workload = workloads.WORKLOADS["scan"]
    cal = calibrate.Calibrator()
    records, _ = run.run_phase(workload, workload.setup(2, tmp_path), rounds=1, calibrator=cal)
    assert cal.durations, "no probe ran during a round of scans"
    assert all(0 < r.seconds and 0 < r.wall_s for r in records)
