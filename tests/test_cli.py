import argparse
import dataclasses
import hashlib
import inspect
import json
import signal
import time
from pathlib import Path

import pytest

from gcdlab import arith, cli, harness
from gcdlab.cli import EXIT_UNDECIDED, main
from gcdlab.logreal import PrecisionExhausted


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_example_pk_cli(capsys, tmp_path):
    out = tmp_path / "pk.csv"
    code, stdout, _ = run_cli(
        capsys, "example-pk", "--p", "2", "--epsilon", "3/5", "--kmax", "4",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("k,m,n,")
    assert len(lines) == 5
    assert "all flagged+in-tube: True" in stdout


def test_example_pk_precondition_failure(capsys):
    code, _, err = run_cli(capsys, "example-pk", "--p", "2", "--epsilon", "7/10")
    assert code == 2
    assert "error" in err


def test_lrs_scan_cli_deterministic(capsys, tmp_path):
    cfg = {
        "F": {"terms": [{"coeff": ["0", "1"], "root": "2"}, {"coeff": ["1"], "root": "1"}]},
        "G": {"terms": [{"coeff": ["1"], "root": "2"}, {"coeff": ["1"], "root": "1"}]},
        "epsilon": "3/5",
        "N": 20,
    }
    cfg_path = tmp_path / "scan.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, _, _ = run_cli(capsys, "lrs-scan", "--config", str(cfg_path), "--out", str(out1))
    code2, _, _ = run_cli(capsys, "lrs-scan", "--config", str(cfg_path), "--out", str(out2))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "m,n,lhs_logreal,lhs_decimal,threshold_decimal,flagged,cluster_id,notes"


def test_poly_gcd_cli(capsys, tmp_path):
    cfg = {
        "f": "x1 + 1",
        "g": "x2",
        "nvars": 2,
        "S": {"archimedean": True, "primes": [2]},
        "delta": "1/25",
        "count": 8,
    }
    cfg_path = tmp_path / "pg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "pg.csv"
    code, stdout, _ = run_cli(
        capsys, "poly-gcd", "--config", str(cfg_path), "--out", str(out), "--seed", "7"
    )
    assert code == 0
    assert out.read_text().splitlines()[0].startswith("index,u,")
    assert "exceptional-set candidates" in stdout


def test_sharpness_cli(capsys, tmp_path):
    out = tmp_path / "sh.csv"
    code, stdout, _ = run_cli(
        capsys, "sharpness", "--p", "2", "--delta", "1/5", "--trials", "2",
        "--out", str(out),
    )
    assert code == 0
    assert "window-certified" in stdout


def test_rec1_cli(capsys, tmp_path):
    cfg = {
        "F": {"terms": [{"coeff": ["1"], "root": "2"}, {"coeff": ["-1"], "root": "3"}]},
        "place": 5,
        "epsilon": "1/10",
        "N": 100,
    }
    cfg_path = tmp_path / "r1.json"
    cfg_path.write_text(json.dumps(cfg))
    code, stdout, _ = run_cli(capsys, "rec1-scan", "--config", str(cfg_path), "--out", "-")
    assert code == 0


def test_unit_eq_cli_and_truncation(capsys, tmp_path):
    code, stdout, _ = run_cli(
        capsys, "unit-eq", "--primes", "2,3", "--n", "1", "--bound", "1",
        "--out", str(tmp_path / "ue.csv"),
    )
    assert code == 0
    assert "9 nondegenerate" in stdout
    cfg = {"primes": [2, 3, 5], "n": 2, "bound": 2, "budget": 50}
    cfg_path = tmp_path / "ue.json"
    cfg_path.write_text(json.dumps(cfg))
    code, stdout, _ = run_cli(
        capsys, "unit-eq", "--config", str(cfg_path), "--out", str(tmp_path / "ue2.csv")
    )
    assert code == 3
    assert "TRUNCATED" in stdout


def test_uncertified_prime_is_precondition_failure(capsys, tmp_path):
    # 2^89 - 1 is prime but above the Miller-Rabin bound: reported, not hung
    code, _, err = run_cli(
        capsys, "unit-eq", "--primes", "2,618970019642690137449562111",
        "--out", str(tmp_path / "ue.csv"),
    )
    assert code == 2
    assert err.startswith("error:") and "not certified" in err


def test_bad_config_is_precondition_failure(capsys, tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"epsilon": "1/2"}))
    code, _, err = run_cli(capsys, "lrs-scan", "--config", str(cfg_path))
    assert code == 2


def test_uncertified_sign_is_exit_undecided(capsys, monkeypatch):
    def undecided(*args, **kwargs):
        raise PrecisionExhausted("sign not separated from 0")

    monkeypatch.setattr(harness, "run_example_pk", undecided)
    code, _, err = run_cli(capsys, "example-pk", "--out", "-")
    assert code == EXIT_UNDECIDED == 4
    assert err.startswith("error: sign not separated")


def test_prec_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poly-gcd", "--prec", "128"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --prec" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [[sub, "--seed", "1"] for sub in ("lrs-scan", "example-pk", "sharpness", "rec1-scan", "unit-eq")]
    + [["hilbert-verify", "--config", "cfg.json"]],
)
def test_unread_flags_are_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_unit_eq_does_not_classify_almost_units(capsys, tmp_path, monkeypatch):
    # the CSV and summary print no almost-unit flags, so none are computed
    def unused(*args, **kwargs):
        raise AssertionError("is_almost_unit called")

    monkeypatch.setattr(harness, "is_almost_unit", unused)
    cfg_path = tmp_path / "ue.json"
    cfg_path.write_text(json.dumps({"primes": [2, 3], "n": 1, "bound": 2, "delta": "1/3"}))
    code, _, _ = run_cli(
        capsys, "unit-eq", "--config", str(cfg_path), "--out", str(tmp_path / "ue.csv")
    )
    assert code == 0


def test_rho_budget_is_precondition_failure(capsys, tmp_path, monkeypatch):
    # every root numerator is a product of two primes near 2^64, so S0 needs
    # a factorization that Pollard rho cannot finish within its budget; a
    # smaller budget keeps the test quick and takes the same path
    monkeypatch.setattr(arith, "RHO_STEP_BUDGET", 1 << 12)
    pq = 18446744073709551629 * 18446744073709551653
    cfg = {
        "F": {"terms": [{"coeff": ["1"], "root": str(pq)}]},
        "G": {"terms": [{"coeff": ["1"], "root": f"{pq}/3"}]},
        "N": 3,
    }
    cfg_path = tmp_path / "scan.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run_cli(
        capsys, "lrs-scan", "--config", str(cfg_path), "--out", str(tmp_path / "s.csv")
    )
    assert code == 2
    assert err.startswith("error: factorization of") and "Pollard rho steps" in err


REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "reference.json").read_text()
)


def _csv_digest(capsys, tmp_path, *argv):
    out = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, *argv, "--out", str(out))
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


def test_csvs_match_the_benchmark_reference_digests(capsys, tmp_path):
    """Byte identity of the README scan, every example-pk input and three
    sharpness inputs against the digests the benchmark checks."""
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({
        "F": {"terms": [{"coeff": ["0", "1"], "root": "2"}, {"coeff": ["1"], "root": "1"}]},
        "G": {"terms": [{"coeff": ["1"], "root": "2"}, {"coeff": ["1"], "root": "1"}]},
        "epsilon": "3/5",
        "N": 150,
        "mode": "full-grid",
        "extra_S": {"archimedean": False, "primes": []},
        "tube_max_ab": 8,
        "tube_kappa": 16,
    }))
    assert _csv_digest(capsys, tmp_path, "lrs-scan", "--config", str(cfg)) == (
        0, REFERENCE["scan_csv"]["lrs-scan p=2 eps=3/5 N=150"]
    )
    audit = REFERENCE["audit"]
    pk_labels = [label for label in audit if label.startswith("example-pk ")]
    assert len(pk_labels) == 16
    for label in pk_labels:
        fields = dict(part.split("=") for part in label.split()[1:])
        got = _csv_digest(capsys, tmp_path, "example-pk", "--p", fields["p"],
                          "--epsilon", fields["eps"], "--kmax", fields["kmax"])
        assert got == (audit[label]["exit"], audit[label]["sha256"]), label
    for m_start in (6, 50, 126):
        label = f"sharpness p=2 delta=1/5 m_start={m_start}"
        cfg.write_text(json.dumps({"m_start": m_start}))
        got = _csv_digest(capsys, tmp_path, "sharpness", "--config", str(cfg),
                          "--p", "2", "--delta", "1/5", "--trials", "1")
        assert got == (audit[label]["exit"], audit[label]["sha256"]), label


def test_archimedean_flag_must_be_a_json_bool(capsys, tmp_path):
    """The string "false" once read as true through bool() and put oo in S."""
    cfg = tmp_path / "scan.json"
    base = {
        "F": {"terms": [{"coeff": ["0", "1"], "root": "2"}, {"coeff": ["1"], "root": "1"}]},
        "G": {"terms": [{"coeff": ["1"], "root": "2"}, {"coeff": ["1"], "root": "1"}]},
        "epsilon": "3/5",
        "N": 10,
    }
    cfg.write_text(json.dumps({**base, "extra_S": {"archimedean": "false", "primes": []}}))
    code, _, err = run_cli(capsys, "lrs-scan", "--config", str(cfg), "--out", str(tmp_path / "a.csv"))
    assert code == 2
    assert "archimedean" in err
    cfg.write_text(json.dumps({**base, "extra_S": {"archimedean": False, "primes": []}}))
    code, out, _ = run_cli(capsys, "lrs-scan", "--config", str(cfg), "--out", str(tmp_path / "b.csv"))
    assert code == 0
    assert "S={}" in out


F_PK = {"terms": [{"coeff": ["0", "1"], "root": "2"}, {"coeff": ["1"], "root": "1"}]}
G_PK = {"terms": [{"coeff": ["1"], "root": "2"}, {"coeff": ["1"], "root": "1"}]}


def _run_config(capsys, tmp_path, sub, cfg, *flags):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return run_cli(capsys, sub, "--config", str(cfg_path), *flags,
                   "--out", str(tmp_path / "out.csv"))


@pytest.mark.parametrize(
    "sub, cfg, key",
    [
        ("lrs-scan", {"F": F_PK, "G": G_PK, "epsilson": "3/5"}, "epsilson"),
        ("unit-eq", {"budjet": 5}, "budjet"),
        ("lrs-scan", {"F": F_PK, "G": G_PK, "N": 10.7}, "N"),
        ("lrs-scan", {"F": F_PK, "G": G_PK, "N": True}, "N"),
        ("example-pk", {"kmax": 3.9}, "kmax"),
        ("example-pk", {"kmax": True}, "kmax"),
        ("lrs-scan", {"F": F_PK, "G": G_PK, "extra_S": {"prime": [3]}}, "extra_S"),
        ("rec1-scan", {"F": F_PK, "place": "5"}, "place"),
        ("lrs-scan", {"F": {"terms": "x"}, "G": G_PK}, "F"),
        ("lrs-scan", {"F": F_PK, "G": [1, 2]}, "G"),
        ("lrs-scan", [F_PK, G_PK], "JSON object"),
    ],
)
def test_bad_config_values_exit_2_and_name_the_key(capsys, tmp_path, sub, cfg, key):
    """Each of these once ran with a guessed value or ended in a traceback."""
    code, _, err = _run_config(capsys, tmp_path, sub, cfg)
    assert code == 2
    assert err.startswith("error:") and key in err


def test_config_wins_over_flags_and_defaults_come_from_the_runner(capsys, tmp_path):
    code, out, _ = _run_config(capsys, tmp_path, "example-pk", {"p": 3, "kmax": 2},
                               "--p", "5", "--epsilon", "1")
    assert code == 0
    assert out.startswith("example-pk p=3: 2 coincidences")
    code, out, _ = _run_config(capsys, tmp_path, "rec1-scan", {"F": G_PK})
    assert code == 0
    assert out.startswith("rec1-scan at oo: 0 violators up to N=500")


def test_unit_eq_delta_is_read_and_ignored(capsys, tmp_path):
    code, _, err = _run_config(capsys, tmp_path, "unit-eq", {"delta": 0.5})
    assert code == 2 and "delta" in err
    code, out, _ = _run_config(capsys, tmp_path, "unit-eq", {"delta": "1/3"})
    assert code == 0 and "S={oo, 2, 3} n=1 bound=1: 9 nondegenerate" in out


def test_every_config_key_reaches_its_runner():
    """A renamed runner parameter must not leave a config key behind."""
    targets = {
        "lrs-scan": harness.ScanConfig, "poly-gcd": harness.SampleConfig,
        "example-pk": harness.run_example_pk, "sharpness": harness.run_sharpness,
        "rec1-scan": harness.run_rec1_scan, "unit-eq": harness.solve_unit_equation,
    }
    read_by_the_cli = {"poly-gcd": {"nvars"}, "unit-eq": {"delta"}}
    renamed = {"unit-eq": {"primes": "S"}}
    assert set(cli.CONFIG_KEYS) == set(targets)
    for sub, keys in cli.CONFIG_KEYS.items():
        target = targets[sub]
        if dataclasses.is_dataclass(target):
            params = {f.name for f in dataclasses.fields(target)}
        else:
            params = set(inspect.signature(target).parameters)
        for key in set(keys) - read_by_the_cli.get(sub, set()):
            assert renamed.get(sub, {}).get(key, key) in params, (sub, key)
    # and every value flag is a config key
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for sub, parser in subparsers.choices.items():
        for action in parser._actions:
            if action.dest not in ("help", "config", "out", "seed"):
                assert action.dest in cli.CONFIG_KEYS[sub], (sub, action.dest)


def test_parser_is_built_once_per_process(capsys, tmp_path):
    cli.build_parser.cache_clear()
    for _ in range(2):
        code, _, _ = run_cli(capsys, "unit-eq", "--out", str(tmp_path / "ue.csv"))
        assert code == 0
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "argv",
    [["example-pk", "--kmax", "40"], ["example-pk", "--p", "5", "--kmax", "10"]],
)
def test_example_pk_beyond_the_work_bound_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv, "--out", "-")
    assert code == 2 and "bits" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "sub, cfg, word",
    [
        ("lrs-scan", {"F": F_PK, "G": G_PK, "N": 10**6}, "bits"),
        ("lrs-scan", {"F": F_PK, "G": G_PK, "N": 10**6, "mode": "diagonal"}, "bits"),
        ("lrs-scan", {"F": F_PK, "G": G_PK, "N": 2000}, "rows"),
        ("rec1-scan", {"F": F_PK, "N": 10**6}, "bits"),
    ],
)
def test_scans_beyond_the_work_bound_exit_2_at_once(capsys, tmp_path, sub, cfg, word):
    start = time.perf_counter()
    code, _, err = _run_config(capsys, tmp_path, sub, cfg)
    assert code == 2 and word in err
    assert time.perf_counter() - start < 1


def _fuzz_strategies():
    st = pytest.importorskip("hypothesis.strategies")
    seqs = st.sampled_from([
        F_PK, G_PK,
        {"terms": [{"coeff": ["1"], "root": "2"}, {"coeff": ["-1"], "root": "3"}]},
        {"terms": [{"coeff": [1], "root": "1/2"}, {"coeff": ["3"], "root": 1}]},
    ])
    rational = st.sampled_from(["1/10", "1/4", "1/2", "3/5", 1, "3/2"])
    small = st.integers(1, 6)
    valid = {
        "lrs-scan": st.fixed_dictionaries({"F": seqs, "G": seqs}, optional={
            "epsilon": rational, "N": st.integers(1, 25),
            "mode": st.sampled_from(["full-grid", "diagonal"]),
            "extra_S": st.sampled_from([[], [3], {"archimedean": True}, {"primes": [5]}]),
            "tube_max_ab": small, "tube_kappa": small,
        }),
        "poly-gcd": st.fixed_dictionaries(
            {"f": st.sampled_from(["x1 + 1", "x1 - 2"]), "g": st.sampled_from(["x2", "x2 + 3"])},
            optional={"nvars": st.just(2), "S": st.sampled_from([[2], {"primes": [3]}]),
                      "delta": st.sampled_from(["1/5", "1/7"]), "count": st.integers(0, 3),
                      "generator_exponent_bound": st.integers(1, 3),
                      "perturbation_bound": st.integers(0, 2)}),
        "example-pk": st.fixed_dictionaries({}, optional={
            "p": st.sampled_from([2, 3, 4, 5]), "epsilon": rational, "kmax": st.integers(0, 4)}),
        "sharpness": st.fixed_dictionaries({}, optional={
            "p": st.sampled_from([2, 3]), "delta": st.sampled_from(["1/5", "1/4"]),
            "trials": st.integers(0, 2), "m_start": st.integers(4, 12)}),
        "rec1-scan": st.fixed_dictionaries({"F": seqs}, optional={
            "place": st.sampled_from(["oo", "inf", 2, 5, 7]), "epsilon": rational,
            "N": st.integers(0, 60)}),
        "unit-eq": st.fixed_dictionaries({}, optional={
            "primes": st.sampled_from([[2], [2, 3], "2,5", []]), "n": st.integers(1, 2),
            "bound": st.integers(1, 2), "budget": st.integers(1, 500), "delta": rational}),
    }
    wrong = st.one_of(
        st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=4),
        st.lists(st.integers(-3, 10), max_size=2),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    )
    # past the bits bound for every sequence above
    over = {"lrs-scan": ("N", st.integers(5000, 10**12)),
            "rec1-scan": ("N", st.integers(10**7, 10**12)),
            "example-pk": ("kmax", st.integers(30, 10**9))}
    return st, valid, wrong, over


@pytest.mark.parametrize("sub", ["lrs-scan", "poly-gcd", "example-pk", "sharpness",
                                 "rec1-scan", "unit-eq"])
def test_fuzzed_configs_exit_with_a_documented_code(capsys, tmp_path, sub):
    """Valid configs, then unknown keys, wrong JSON types, wrong shapes and
    sizes beyond the work bounds: every call exits 0, 2, 3 or 4 in time."""
    hypothesis = pytest.importorskip("hypothesis")
    st, valid, wrong, over = _fuzz_strategies()

    def timeout(*_):
        raise TimeoutError(f"{sub} did not finish within 5 s")

    @hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cfg=valid[sub], data=st.data())
    def check(cfg, data):
        kind = data.draw(st.sampled_from(["valid", "unknown", "type", "shape", "size"]))
        if kind == "unknown":
            cfg = {**cfg, data.draw(st.text(min_size=1, max_size=6)) + "~": 1}
        elif kind == "type" and cfg:
            cfg = {**cfg, data.draw(st.sampled_from(sorted(cfg))): data.draw(wrong)}
        elif kind == "shape":
            cfg = data.draw(st.sampled_from([[cfg], "cfg", 3, None]))
        elif kind == "size" and sub in over:
            key, size = over[sub]
            cfg = {**cfg, key: data.draw(size)}
        old = signal.signal(signal.SIGALRM, timeout)
        signal.setitimer(signal.ITIMER_REAL, 5)
        try:
            start = time.perf_counter()
            code, _, err = _run_config(capsys, tmp_path, sub, cfg)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        assert code in (0, 2, 3, 4), (cfg, code, err)
        assert code != 2 or err.startswith("error:"), err
        assert time.perf_counter() - start < 5

    check()
