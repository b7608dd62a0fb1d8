"""gcdlab benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload scan --seed 3 --seconds 22 --trace 0

Workloads (see workloads.py): scan, scan_csv, hilbert, audit.  A run is a
closed loop with one client in this process, no worker threads: it sets up,
then repeats whole rounds of operations until the measured time is as close
to --seconds as whole rounds allow (audit also runs until 1000 calls have
completed, so that p99 has 10 samples beyond it).  Every operation's output
is checked after its timed call.  setup_s is the median of SETUP_SAMPLES
set-ups, each in a fresh interpreter, half of them before the timed phase
and half after it.

Timings are calibrated (calibrate.py): the host's CPU speed drifts by up to
2x within a minute, so every time is scaled to a CPU that runs a fixed probe
in PROBE_REF_S.  The uncalibrated figures go to the result file.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json.  With --trace 1 the run spends half the budget untraced,
then replays the same rounds with the tracer on and reports the per-layer
metrics, including trace_overhead (traced over untraced wall time of the
same completed operations).  Each run also writes a result file with
provenance to .bench_results/ at the repository root."""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from calibrate import SETUP_REF_S, Calibrator, pin_to_one_cpu, reference_setup

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 11
TRACE_DEADLINE_FACTOR = 2.0
# functions traced for bookkeeping beyond those named by per-layer metrics
EXTRA_TRACED = ("gengcd._split_primes",)


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM; derives from BaseException so that no handler in
    gcdlab (cli.main catches several Exception types) can swallow it."""


def on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Record:
    label: str
    kind: str
    seconds: float       # wall seconds; calibrated by run_phase when it probes
    status: str          # ok | overrun | raised | wrong
    units: int = 0
    error: str | None = None
    start: float = 0.0   # perf_counter() at the call
    wall_s: float = 0.0  # uncalibrated wall seconds


def run_op(op, deadline_s: float, tracer=None) -> Record:
    import mpmath

    saved = (mpmath.mp.prec, mpmath.iv.prec, sys.stdout)
    result = error = None
    status = "ok"
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            result = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - t0
    except DeadlineExceeded:
        status = "overrun"
        seconds = time.perf_counter() - t0
    except Exception as exc:  # the program raised: a failed operation
        status, error = "raised", f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    if status != "ok" and tracer is not None:
        tracer.reset_stack()
    sys.stdout = saved[2]
    if (mpmath.mp.prec, mpmath.iv.prec) != saved[:2]:
        leaked = f"mpmath precision not restored: {mpmath.mp.prec}/{mpmath.iv.prec}"
        mpmath.mp.prec, mpmath.iv.prec = saved[:2]
        return Record(op.label, op.kind, seconds, "wrong", 0, leaked, t0, seconds)
    if status != "ok":
        return Record(op.label, op.kind, seconds, status, 0, error, t0, seconds)
    enabled = tracer is not None and tracer.enabled
    if enabled:
        tracer.enabled = False
    try:
        units, error = op.check(result)
    except Exception as exc:  # a check that cannot run counts as a wrong output
        units, error = 0, f"check raised {type(exc).__name__}: {exc}"
    finally:
        if enabled:
            tracer.enabled = True
    return Record(op.label, op.kind, seconds, "wrong" if error else "ok", units, error,
                  t0, seconds)


def run_phase(workload, plan, budget_s=None, rounds=None, deadline_s=None, tracer=None,
              min_completed=0, calibrator=None):
    """Whole rounds, either a fixed number or as many as fit the budget
    (and yield at least ``min_completed`` completed operations).  With a
    ``calibrator``, each record's ``seconds`` becomes calibrated seconds
    (see calibrate.py); the budget is always wall time."""
    deadline_s = deadline_s or workload.deadline_s
    records: list[Record] = []
    measured = 0.0
    done = 0
    previous = signal.signal(signal.SIGALRM, on_alarm)
    if calibrator is not None:
        calibrator.start()
    try:
        while True:
            if rounds is not None:
                if done >= rounds:
                    break
            elif done:
                completed = sum(r.status in ("ok", "wrong") for r in records)
                # stop where one more round would end farther past the budget
                # than stopping now falls short of it
                if measured + measured / done / 2 > budget_s and completed >= min_completed:
                    break
            for op in plan.round(done):
                rec = run_op(op, deadline_s, tracer)
                records.append(rec)
                measured += rec.seconds
            done += 1
    finally:
        if calibrator is not None:
            calibrator.stop()
        signal.signal(signal.SIGALRM, previous)
    if calibrator is not None:
        for r in records:
            end = r.start + r.wall_s
            net = r.wall_s - calibrator.probe_seconds(r.start, end)
            r.seconds = net * calibrator.scale(r.start, end)
    return records, done


def time_setup(name: str, seed: int, tmp: Path) -> tuple[float, float]:
    """(calibrated, wall) seconds to import gcdlab and build the inputs in a
    fresh interpreter, calibrated by reference set-ups run right before and
    right after it."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path[:0] = [{str(BENCH_DIR)!r}, {str(SRC)!r}]\n"
        "from pathlib import Path\n"
        "import workloads\n"
        f"workloads.WORKLOADS[{name!r}].setup({seed}, Path({str(tmp)!r}))\n"
        "print(time.perf_counter() - t0)\n"
    )
    tmp.mkdir(parents=True, exist_ok=True)
    before = reference_setup()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    wall = float(proc.stdout.strip().splitlines()[-1])
    after = reference_setup()
    return wall * SETUP_REF_S / ((before + after) / 2), wall


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(len(sorted_values) * q / 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def timings(records: list[Record], setup_times: list[float], seconds) -> dict:
    """The timed end-to-end metrics, with ``seconds(record)`` as a call's
    time.  Throughput counts the time of completed calls only: an overrun
    lasts the deadline whatever the program does, and is counted instead
    as a failed operation."""
    completed = sorted(seconds(r) for r in records if r.status in ("ok", "wrong"))
    p50 = statistics.median(completed) if completed else float("nan")
    p99 = percentile(completed, 99)[0] if completed else float("nan")
    return {
        "setup_s": statistics.median(setup_times),
        "units_per_s": sum(r.units for r in records) / sum(completed) if completed else 0.0,
        "call_p50_ms": p50 * 1000,
        "call_p99_ms": p99 * 1000,
    }


def end_to_end(records: list[Record], setups: list[tuple[float, float]],
               calibrator) -> tuple[dict, dict]:
    metrics = timings(records, [c for c, _ in setups], lambda r: r.seconds)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    completed = sorted(r.seconds for r in records if r.status in ("ok", "wrong"))
    failed = sum(r.status != "ok" for r in records)
    extra = {
        "fail_rate": failed / len(records),
        "latency_samples": len(completed),
        "samples_beyond_p99": percentile(completed, 99)[1] if completed else 0,
        "measured_s": sum(r.wall_s for r in records),
        "setup_samples_s": [c for c, _ in setups],
        "uncalibrated": timings(records, [w for _, w in setups], lambda r: r.wall_s),
        "probes": len(calibrator.durations),
        "probe_median_s": statistics.median(calibrator.durations) if calibrator.durations else None,
    }
    return metrics, extra


def _layer_targets(names: list[str]) -> dict[str, object]:
    targets: dict[str, object] = {t: None for t in EXTRA_TRACED}
    for t in ("gengcd._finite_core", "logreal.LogReal.cmp", "logreal.LogReal.interval"):
        targets[t] = None
    for name in names:
        if name in DERIVED:
            continue
        target, stat = name.rsplit(".", 1)
        if stat not in ("calls", "self_s", "total_s", "max_bits"):
            raise ValueError(f"unknown per-layer metric {name!r}")
        if stat == "max_bits":
            targets[target] = int.bit_length
        else:
            targets.setdefault(target, None)
    return targets


DERIVED = {
    "gengcd._finite_core.calls_per_unit":
        lambda fn, ctx: fn("gengcd._finite_core")["calls"] / max(ctx["units"], 1),
    "logreal.interval_per_cmp":
        lambda fn, ctx: fn("logreal.LogReal.interval")["calls"]
        / max(fn("logreal.LogReal.cmp")["calls"], 1),
    "logreal.precision_exhausted.count":
        lambda fn, ctx: ctx["tracer"].raised.get("PrecisionExhausted", 0),
    "trace_overhead": lambda fn, ctx: ctx["overhead"],
    "trace.accounted_share": lambda fn, ctx: ctx["accounted"],
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def traced_run(workload, plan, seconds: float, names: list[str]):
    from tracer import Tracer

    records_a, rounds = run_phase(workload, plan, budget_s=seconds / 2)
    tracer = Tracer()
    targets = _layer_targets(names)
    for target, probe in targets.items():
        tracer.trace(target, probe)
    tracer.enabled = True
    try:
        records_b, _ = run_phase(workload, plan, rounds=rounds, tracer=tracer,
                                 deadline_s=workload.deadline_s * TRACE_DEADLINE_FACTOR)
    finally:
        tracer.enabled = False
        tracer.restore()
    both = [(a, b) for a, b in zip(records_a, records_b)
            if a.status == b.status == "ok"]
    functions = tracer.functions()
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    ctx = {
        "tracer": tracer,
        "units": sum(r.units for r in records_b),
        "overhead": _ratio(sum(b.seconds for _, b in both), sum(a.seconds for a, _ in both)),
        "accounted": _ratio(sum(f["self_s"] for f in functions.values()),
                            sum(r.seconds for r in records_b)),
    }

    def fn(target):
        return functions.get(target, empty)

    metrics = {}
    for name in names:
        if name in DERIVED:
            metrics[name] = DERIVED[name](fn, ctx)
        else:
            target, stat = name.rsplit(".", 1)
            metrics[name] = tracer.max_probe.get(target, 0) if stat == "max_bits" else fn(target)[stat]
    detail = {"functions": functions, "edges": tracer.edge_table()[:200],
              "raised": tracer.raised, "rounds": rounds}
    return records_a + records_b, metrics, detail


def provenance(args, workload, plan, cpu) -> dict:
    import mpmath

    rev = dirty = None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                 capture_output=True, text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                                    env=env, capture_output=True, text=True, timeout=30)
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_revision": rev,
        "git_dirty": dirty,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "pinned_cpu": cpu,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "unit": workload.unit,
        "deadline_s": workload.deadline_s,
        "config": plan.echo,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gcdlab" / "__init__.py").is_file():
        print(f"error: gcdlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = workloads.WORKLOADS[args.workload]
    cpu = pin_to_one_cpu()

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        plan = workload.setup(args.seed, tmp)
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            records, metrics, detail = traced_run(workload, plan, args.seconds, names)
            extra = {}
        else:
            # set-ups before and after the timed phase, so that they sample
            # the host's speed over the whole run; the first is a warm-up.
            # They share one directory: with a fresh set of input files for
            # each, audit's set-up grew 40% slower over consecutive runs.
            setup_dir = tmp / "setup"
            time_setup(args.workload, args.seed, setup_dir)
            setups = [time_setup(args.workload, args.seed, setup_dir)
                      for _ in range(SETUP_SAMPLES // 2)]
            calibrator = Calibrator()
            records, _ = run_phase(workload, plan, budget_s=args.seconds,
                                   min_completed=workload.min_completed,
                                   calibrator=calibrator)
            setups += [time_setup(args.workload, args.seed, setup_dir)
                       for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
            metrics, extra = end_to_end(records, setups, calibrator)
            detail = {}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = [r for r in records if r.status != "ok"]
    result = {
        "correct": all(r.status == "overrun" for r in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if args.trace else "end_to_end"]
        },
    }
    failures: dict[str, int] = {}
    for r in failed:
        key = f"{r.status}: {r.kind}" + (f": {r.error}" if r.error else "")
        failures[key] = failures.get(key, 0) + 1
    report = {"provenance": provenance(args, workload, plan, cpu), "result": result,
              "extra": extra, "failures": failures, **detail}
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")

    if failures:
        print("failures: " + "; ".join(f"{n}x {k}" for k, n in sorted(failures.items())))
    if extra:
        print(f"{extra['latency_samples']} completed calls ({extra['samples_beyond_p99']} beyond "
              f"p99), fail_rate {extra['fail_rate']:.4f}, measured {extra['measured_s']:.2f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
