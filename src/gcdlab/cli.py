"""Command-line front end.

Subcommands: lrs-scan, poly-gcd, example-pk, sharpness, rec1-scan, unit-eq,
hilbert-verify.  Each but hilbert-verify takes --config <json> (schema
documented in the README) and/or direct flags; poly-gcd and hilbert-verify
also take --seed.  Each writes CSV to --out (path or '-') and prints a short
summary.  Exit codes: 0 success, 2 precondition failure, 3 budget
truncation, 4 a sign that interval arithmetic left undecided.

CONFIG_KEYS holds each subcommand's config keys and their converters; each
key's default is declared by the runner or config dataclass that takes it."""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import json
import sys
from contextlib import contextmanager

from . import harness
from .harness import SampleConfig, ScanConfig
from .logreal import PrecisionExhausted
from .lrs import power_sum_from_json
from .multipoly import parse_poly
from .places import DomainError, Place, PlaceSet, format_rational, parse_rational

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_TRUNCATED = 3
EXIT_UNDECIDED = 4


def _load_config(path: str | None):
    if not path:
        return {}
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# converters: each checks the JSON type of one value and returns what the
# runner takes; _options names the key in the error

def _is(kind, name: str):
    def convert(value):
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise DomainError(f"expected a JSON {name}, not {value!r}")
        return value
    return convert


_int, _str, _list = _is(int, "int"), _is(str, "string"), _is(list, "list")


def _primes(value) -> tuple[int, ...]:
    return tuple(map(_int, _list(value)))


def _place_set(default: PlaceSet):
    """A list of primes, or {"archimedean": bool, "primes": [...]}; a part
    left out is as in ``default``."""
    def convert(value) -> PlaceSet:
        data = {"primes": value} if isinstance(value, list) else value
        if not isinstance(data, dict) or not set(data) <= {"archimedean", "primes"}:
            raise DomainError("expected a list of primes or an object with keys "
                              f"'archimedean' and 'primes', not {value!r}")
        arch = data.get("archimedean", default.contains_archimedean)
        if not isinstance(arch, bool):
            raise DomainError(f"'archimedean' must be a JSON true or false, not {arch!r}")
        primes = _primes(data["primes"]) if "primes" in data else default.finite_primes
        return PlaceSet(arch, primes)
    return convert


def _unit_eq_S(value) -> PlaceSet:
    """oo and a list of primes, or the comma-separated primes of --primes."""
    if isinstance(value, str):
        value = [int(p) for p in value.split(",") if p]
    return PlaceSet(True, _primes(value))


def _place(value) -> Place:
    return Place.archimedean() if value in ("oo", "inf") else Place.finite(_int(value))


CONFIG_KEYS = {
    "lrs-scan": {"F": power_sum_from_json, "G": power_sum_from_json, "epsilon": parse_rational,
                 "N": _int, "extra_S": _place_set(ScanConfig.extra_S), "mode": _str,
                 "tube_max_ab": _int, "tube_kappa": _int},
    "poly-gcd": {"f": _str, "g": _str, "nvars": _int, "S": _place_set(SampleConfig.S),
                 "delta": parse_rational, "count": _int, "generator_exponent_bound": _int,
                 "perturbation_bound": _int},
    "example-pk": {"p": _int, "epsilon": parse_rational, "kmax": _int},
    "sharpness": {"p": _int, "delta": parse_rational, "trials": _int, "m_start": _int},
    "rec1-scan": {"F": power_sum_from_json, "place": _place, "epsilon": parse_rational,
                  "N": _int},
    "unit-eq": {"primes": _unit_eq_S, "n": _int, "bound": _int, "budget": _int,
                "delta": parse_rational},
}


def _given(args, names) -> dict:
    """The flags among ``names`` that the command line gave."""
    return {name: getattr(args, name) for name in names if name in args}


def _options(args, target) -> dict:
    """The config keys merged over the flags the command line gave (the
    config wins), each converted; a key that ``target`` takes without a
    default must be given."""
    keys = CONFIG_KEYS[args.command]
    cfg = _load_config(args.config)
    if not isinstance(cfg, dict):
        raise DomainError(f"the config must be a JSON object, not {type(cfg).__name__}")
    for key in cfg:
        if key not in keys:
            raise DomainError(f"unknown config key {key!r}")
    given = {**_given(args, keys), **cfg}
    for name, param in inspect.signature(target).parameters.items():
        if name in keys and name not in given and param.default is param.empty:
            raise DomainError(f"config is missing {name!r}")
    opts = {}
    for key, value in given.items():
        try:
            opts[key] = keys[key](value)
        except ValueError as exc:
            raise DomainError(f"{key}: {exc}") from None
    return opts


@contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh


def _write_csv(path: str | None, header, rows) -> None:
    """Write the header and then the rows: tuples of fields, or lines that
    are already encoded, each with its line end (harness.scan_csv_rows),
    which are written as they are."""
    with _open_out(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        rows = iter(rows)
        first = next(rows, None)
        if isinstance(first, str):
            fh.write(first)
            fh.writelines(rows)
        elif first is not None:
            w.writerow(first)
            w.writerows(rows)


def _summary(msg: str, out_path: str | None) -> None:
    # keep stdout clean when the CSV itself goes there
    stream = sys.stderr if out_path in (None, "-") else sys.stdout
    print(msg, file=stream)


def cmd_lrs_scan(args) -> int:
    report = harness.run_lrs_scan(ScanConfig(**_options(args, ScanConfig)))
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
    opts = _options(args, SampleConfig)
    # the text of f and g is read against nvars, a key of its own
    nvars = [opts.pop("nvars")] if "nvars" in opts else []
    opts["f"], opts["g"] = (parse_poly(opts[key], *nvars) for key in ("f", "g"))
    report = harness.run_poly_gcd_experiment(SampleConfig(**opts), **_given(args, ["seed"]))
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
    report = harness.run_example_pk(**_options(args, harness.run_example_pk))
    _write_csv(
        args.out, harness.EXAMPLE_PK_CSV_HEADER, harness.example_pk_csv_rows(report)
    )
    all_ok = all(r.value_equal and r.flagged and r.in_tube for r in report.rows)
    _summary(
        f"example-pk p={report.p}: {len(report.rows)} coincidences, all flagged+in-tube: "
        f"{all_ok}; max collinear {report.max_collinear}; kappa_hat "
        f"{report.kappa_hat:.4f}",
        args.out,
    )
    return EXIT_OK if all_ok else EXIT_PRECONDITION


def cmd_sharpness(args) -> int:
    report = harness.run_sharpness(**_options(args, harness.run_sharpness))
    _write_csv(
        args.out, harness.SHARPNESS_CSV_HEADER, harness.sharpness_csv_rows(report)
    )
    _summary(
        f"sharpness p={report.p} delta={report.delta}: {len(report.rows)} window-certified "
        f"pairs, all >= delta/2*h: {all(r.bound_ok for r in report.rows)}; "
        f"{len(report.skipped)} skipped",
        args.out,
    )
    return EXIT_OK


def cmd_rec1_scan(args) -> int:
    report = harness.run_rec1_scan(**_options(args, harness.run_rec1_scan))
    _write_csv(args.out, harness.REC1_CSV_HEADER, harness.rec1_csv_rows(report))
    _summary(
        f"rec1-scan at {report.place}: {len(report.violators)} violators up to "
        f"N={report.N}, max {report.max_violator}, zeros at {report.zero_indices}",
        args.out,
    )
    return EXIT_OK


def cmd_unit_eq(args) -> int:
    opts = _options(args, harness.solve_unit_equation)
    opts.pop("delta", None)  # documented and ignored: unit-eq classifies no almost units
    if "primes" in opts:
        opts["S"] = opts.pop("primes")
    report = harness.solve_unit_equation(**opts)
    _write_csv(args.out, harness.unit_eq_csv_header(report), harness.unit_eq_csv_rows(report))
    freq = ", ".join(
        f"{format_rational(v)}:{c}"
        for v, c in sorted(report.coordinate_frequency.items())[:12]
    )
    _summary(
        f"unit-eq S={report.S} n={report.n} bound={report.bound}: "
        f"{len(report.solutions)} nondegenerate + {len(report.degenerate)} degenerate "
        f"solutions{' (TRUNCATED)' if report.truncated else ''}; coordinate freq: {freq}",
        args.out,
    )
    return EXIT_TRUNCATED if report.truncated else EXIT_OK


def cmd_hilbert_verify(args) -> int:
    checks = harness.run_hilbert_verify(**_given(args, ["seed"]))
    _write_csv(args.out, harness.HILBERT_CSV_HEADER, harness.hilbert_csv_rows(checks))
    ok = all(c.ok for c in checks)
    for c in checks:
        _summary(
            f"{'PASS' if c.ok else 'FAIL'}  {c.name}: {c.instances} instances, "
            f"{c.failures} failures",
            args.out,
        )
    return EXIT_OK if ok else EXIT_PRECONDITION


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gcdlab",
        description="Exact-arithmetic experiments on heights, generalized "
        "gcds, almost-unit points and linear recurrence sequences.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def out(p):
        p.add_argument("--out", help="CSV output path or '-' (the default)")

    def common(p):
        p.add_argument("--config", help="JSON config path or '-' for stdin")
        out(p)

    # a value flag left out stays out of args, so the runner's default applies
    absent = argparse.SUPPRESS

    def seed(p):
        p.add_argument("--seed", type=int, default=absent, help="RNG seed")

    p = sub.add_parser("lrs-scan", help="gcd grid scan of two recurrences")
    common(p)
    p.set_defaults(fn=cmd_lrs_scan)

    p = sub.add_parser("poly-gcd", help="sampled polynomial gcd inequality audit")
    common(p)
    seed(p)
    p.set_defaults(fn=cmd_poly_gcd)

    p = sub.add_parser("example-pk", help="prime-power coincidence family")
    common(p)
    p.add_argument("--p", type=int, default=absent)
    p.add_argument("--epsilon", default=absent)
    p.add_argument("--kmax", type=int, default=absent)
    p.set_defaults(fn=cmd_example_pk)

    p = sub.add_parser("sharpness", help="linear-in-delta sharpness construction")
    common(p)
    p.add_argument("--p", type=int, default=absent)
    p.add_argument("--delta", default=absent)
    p.add_argument("--trials", type=int, default=absent)
    p.set_defaults(fn=cmd_sharpness)

    p = sub.add_parser("rec1-scan", help="single-place decay scan of a recurrence")
    common(p)
    p.set_defaults(fn=cmd_rec1_scan)

    p = sub.add_parser("unit-eq", help="desk-scale S-unit equation enumeration")
    common(p)
    p.add_argument("--primes", default=absent)
    p.add_argument("--n", type=int, default=absent)
    p.add_argument("--bound", type=int, default=absent)
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
