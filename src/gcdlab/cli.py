"""Command-line front end.

Subcommands: lrs-scan, poly-gcd, example-pk, sharpness, rec1-scan, unit-eq,
hilbert-verify.  Each but hilbert-verify takes --config <json> (schema
documented in the README) and/or direct flags; poly-gcd and hilbert-verify
also take --seed.  Each writes CSV to --out (path or '-') and prints a short
summary.  Exit codes: 0 success, 2 precondition failure, 3 budget
truncation, 4 a sign that interval arithmetic left undecided."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager

from . import harness
from .harness import SampleConfig, ScanConfig
from .logreal import PrecisionExhausted
from .lrs import PowerSum, power_sum_from_json
from .multipoly import parse_poly
from .places import DomainError, Place, PlaceSet, format_rational, parse_rational

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_TRUNCATED = 3
EXIT_UNDECIDED = 4


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _place_set(data, default_arch=True) -> PlaceSet:
    if data is None:
        return PlaceSet(default_arch, ())
    if isinstance(data, list):
        return PlaceSet(default_arch, tuple(int(p) for p in data))
    arch = data.get("archimedean", default_arch)
    if not isinstance(arch, bool):
        raise DomainError(f"'archimedean' must be a JSON true or false, not {arch!r}")
    return PlaceSet(arch, tuple(int(p) for p in data.get("primes", ())))


@contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh


def _write_csv(path: str | None, header, rows) -> None:
    with _open_out(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def _summary(msg: str, out_path: str | None) -> None:
    # keep stdout clean when the CSV itself goes there
    stream = sys.stderr if out_path in (None, "-") else sys.stdout
    print(msg, file=stream)


def _powersum(cfg: dict, key: str) -> PowerSum:
    if key not in cfg:
        raise DomainError(f"config is missing {key!r}")
    return power_sum_from_json(cfg[key])


def cmd_lrs_scan(args) -> int:
    cfg = _load_config(args.config)
    scan = ScanConfig(
        F=_powersum(cfg, "F"),
        G=_powersum(cfg, "G"),
        epsilon=parse_rational(str(cfg.get("epsilon", "1/2"))),
        N=int(cfg.get("N", 100)),
        extra_S=_place_set(cfg.get("extra_S"), default_arch=False),
        mode=cfg.get("mode", "full-grid"),
        tube_max_ab=int(cfg.get("tube_max_ab", 8)),
        tube_kappa=int(cfg.get("tube_kappa", 16)),
    )
    report = harness.run_lrs_scan(scan)
    _write_csv(args.out, harness.SCAN_CSV_HEADER, harness.scan_csv_rows(report))
    _summary(
        f"lrs-scan: {report.nrows} pairs, {len(report.flagged)} flagged, "
        f"{len(report.clusters)} clusters, {len(report.sporadic)} sporadic, "
        f"{len(report.zero_rows)} zero rows; S0={report.S0} S={report.S_used}; "
        f"max flagged extent {report.max_flagged_extent}",
        args.out,
    )
    return EXIT_OK


def cmd_poly_gcd(args) -> int:
    cfg = _load_config(args.config)
    nvars = cfg.get("nvars")
    sample = SampleConfig(
        f=parse_poly(cfg["f"], nvars=nvars),
        g=parse_poly(cfg["g"], nvars=nvars),
        S=_place_set(cfg.get("S")),
        delta=parse_rational(str(cfg.get("delta", "1/25"))),
        count=int(cfg.get("count", 50)),
        generator_exponent_bound=int(cfg.get("generator_exponent_bound", 6)),
        perturbation_bound=int(cfg.get("perturbation_bound", 1)),
    )
    report = harness.run_poly_gcd_experiment(sample, seed=args.seed)
    _write_csv(
        args.out, harness.POLY_GCD_CSV_HEADER, harness.poly_gcd_csv_rows(report)
    )
    _summary(
        f"poly-gcd: {len(report.rows)} samples, {len(report.degenerate)} degenerate, "
        f"{report.sampler_failures} sampler failures, "
        f"{len(report.violations)} exceptional-set candidates",
        args.out,
    )
    return EXIT_OK


def cmd_example_pk(args) -> int:
    cfg = _load_config(args.config)
    p = int(cfg.get("p", args.p))
    epsilon = parse_rational(str(cfg.get("epsilon", args.epsilon)))
    kmax = int(cfg.get("kmax", args.kmax))
    report = harness.run_example_pk(p, epsilon, kmax)
    _write_csv(
        args.out, harness.EXAMPLE_PK_CSV_HEADER, harness.example_pk_csv_rows(report)
    )
    all_ok = all(r.value_equal and r.flagged and r.in_tube for r in report.rows)
    _summary(
        f"example-pk p={p}: {len(report.rows)} coincidences, all flagged+in-tube: "
        f"{all_ok}; max collinear {report.max_collinear}; kappa_hat "
        f"{report.kappa_hat:.4f}",
        args.out,
    )
    return EXIT_OK if all_ok else EXIT_PRECONDITION


def cmd_sharpness(args) -> int:
    cfg = _load_config(args.config)
    p = int(cfg.get("p", args.p))
    delta = parse_rational(str(cfg.get("delta", args.delta)))
    trials = int(cfg.get("trials", args.trials))
    m_start = int(cfg.get("m_start", 4))
    report = harness.run_sharpness(p, delta, trials, m_start)
    _write_csv(
        args.out, harness.SHARPNESS_CSV_HEADER, harness.sharpness_csv_rows(report)
    )
    _summary(
        f"sharpness p={p} delta={delta}: {len(report.rows)} window-certified "
        f"pairs, all >= delta/2*h: {all(r.bound_ok for r in report.rows)}; "
        f"{len(report.skipped)} skipped",
        args.out,
    )
    return EXIT_OK


def cmd_rec1_scan(args) -> int:
    cfg = _load_config(args.config)
    F = _powersum(cfg, "F")
    place_raw = cfg.get("place", "oo")
    v = Place.archimedean() if place_raw in ("oo", "inf", None) else Place.finite(int(place_raw))
    epsilon = parse_rational(str(cfg.get("epsilon", "1/10")))
    N = int(cfg.get("N", 500))
    report = harness.run_rec1_scan(F, v, epsilon, N)
    header = ("violator_n",)
    _write_csv(args.out, header, [(n,) for n in report.violators])
    _summary(
        f"rec1-scan at {v}: {len(report.violators)} violators up to N={N}, "
        f"max {report.max_violator}, zeros at {report.zero_indices}",
        args.out,
    )
    return EXIT_OK


def cmd_unit_eq(args) -> int:
    cfg = _load_config(args.config)
    primes = cfg.get("primes", args.primes)
    if isinstance(primes, str):
        primes = [int(p) for p in primes.split(",") if p]
    S = PlaceSet(True, tuple(int(p) for p in primes))
    n = int(cfg.get("n", args.n))
    bound = int(cfg.get("bound", args.bound))
    budget = int(cfg.get("budget", 2_000_000))
    report = harness.solve_unit_equation(S, n, bound, budget=budget)
    header = tuple(f"x{i}" for i in range(n + 1)) + ("degenerate",)
    rows = [
        tuple(format_rational(c) for c in x) + ("0",) for x in report.solutions
    ] + [
        tuple(format_rational(c) for c in x) + ("1",) for x in report.degenerate
    ]
    _write_csv(args.out, header, rows)
    freq = ", ".join(
        f"{format_rational(v)}:{c}"
        for v, c in sorted(report.coordinate_frequency.items())[:12]
    )
    _summary(
        f"unit-eq S={S} n={n} bound={bound}: {len(report.solutions)} "
        f"nondegenerate + {len(report.degenerate)} degenerate solutions"
        f"{' (TRUNCATED)' if report.truncated else ''}; coordinate freq: {freq}",
        args.out,
    )
    return EXIT_TRUNCATED if report.truncated else EXIT_OK


def cmd_hilbert_verify(args) -> int:
    checks = harness.run_hilbert_verify(seed=args.seed)
    header = ("check", "instances", "failures")
    _write_csv(args.out, header, [(c.name, c.instances, c.failures) for c in checks])
    ok = all(c.ok for c in checks)
    for c in checks:
        _summary(
            f"{'PASS' if c.ok else 'FAIL'}  {c.name}: {c.instances} instances, "
            f"{c.failures} failures",
            args.out,
        )
    return EXIT_OK if ok else EXIT_PRECONDITION


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gcdlab",
        description="Exact-arithmetic experiments on heights, generalized "
        "gcds, almost-unit points and linear recurrence sequences.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def out(p):
        p.add_argument("--out", default="-", help="CSV output path or '-'")

    def common(p):
        p.add_argument("--config", help="JSON config path or '-' for stdin")
        out(p)

    def seed(p):
        p.add_argument("--seed", type=int, default=0, help="RNG seed")

    p = sub.add_parser("lrs-scan", help="gcd grid scan of two recurrences")
    common(p)
    p.set_defaults(fn=cmd_lrs_scan)

    p = sub.add_parser("poly-gcd", help="sampled polynomial gcd inequality audit")
    common(p)
    seed(p)
    p.set_defaults(fn=cmd_poly_gcd)

    p = sub.add_parser("example-pk", help="prime-power coincidence family")
    common(p)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--epsilon", default="3/5")
    p.add_argument("--kmax", type=int, default=10)
    p.set_defaults(fn=cmd_example_pk)

    p = sub.add_parser("sharpness", help="linear-in-delta sharpness construction")
    common(p)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--delta", default="1/5")
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(fn=cmd_sharpness)

    p = sub.add_parser("rec1-scan", help="single-place decay scan of a recurrence")
    common(p)
    p.set_defaults(fn=cmd_rec1_scan)

    p = sub.add_parser("unit-eq", help="desk-scale S-unit equation enumeration")
    common(p)
    p.add_argument("--primes", default="2,3")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--bound", type=int, default=1)
    p.set_defaults(fn=cmd_unit_eq)

    p = sub.add_parser("hilbert-verify", help="combinatorial oracle sweep")
    out(p)
    seed(p)
    p.set_defaults(fn=cmd_hilbert_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except PrecisionExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
