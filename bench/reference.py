"""Record the reference outputs the benchmark checks against.

    python3 bench/reference.py

runs every input of the scan_csv and audit menus once and writes the
SHA-256 of each CSV (and the audit exit codes) to bench/reference.json.
Record it on a commit whose outputs are known good; a later change that
alters any output then shows up as failed operations.  An audit input that
does not finish within RECORD_DEADLINE_S is stored as null (the sharpness
construction does not terminate for some m_start)."""

from __future__ import annotations

import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import workloads  # noqa: E402
from run import DeadlineExceeded, on_alarm  # noqa: E402

RECORD_DEADLINE_S = 10.0


def record() -> dict:
    out = {"scan_csv": {}, "audit": {}}
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    signal.signal(signal.SIGALRM, on_alarm)
    try:
        for p, menu in workloads.EPS_MENU.items():
            for eps in menu:
                label = workloads.scan_csv_label(p, eps, workloads.SCAN_CSV_N)
                cfg = workloads._write_json(
                    tmp / "scan.json", workloads.scan_csv_config(p, eps, workloads.SCAN_CSV_N))
                code, data = workloads._cli_call(["lrs-scan", "--config", str(cfg)], tmp / "s.csv")()
                if code != 0:
                    raise RuntimeError(f"{label}: exit code {code}")
                out["scan_csv"][label] = workloads._digest(data)
                print(label, file=sys.stderr)
        for kind, entries in workloads.audit_menu(tmp).items():
            for label, argv in entries:
                call = workloads._cli_call(argv, tmp / "a.csv")
                try:
                    try:
                        signal.setitimer(signal.ITIMER_REAL, RECORD_DEADLINE_S)
                        code, data = call()
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                except DeadlineExceeded:
                    out["audit"][label] = None
                else:
                    out["audit"][label] = {"exit": code, "sha256": workloads._digest(data)}
                print(label, out["audit"][label] is not None, file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


if __name__ == "__main__":
    data = record()
    workloads.REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
