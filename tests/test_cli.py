import argparse
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import sys
import time
from pathlib import Path

import pytest

from gcdlab import arith, cli, harness
from gcdlab.cli import EXIT_UNDECIDED, main
from gcdlab.logreal import PrecisionExhausted

from conftest import time_limit


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


@pytest.mark.parametrize("rows", [
    [(1, "a,b", ""), (2, 'say "x"', "two\nlines")],
    ['1,"a,b",\n', '2,"say ""x""","two\nlines"\n'],
    [],
])
def test_write_csv_takes_tuples_or_encoded_lines(tmp_path, rows):
    # tuples go through csv.writer, finished lines are written as they are
    out = tmp_path / "rows.csv"
    cli._write_csv(str(out), ("h1", "h2", "h3"), iter(rows))
    tail = "" if not rows else '1,"a,b",\n2,"say ""x""","two\nlines"\n'
    assert out.read_bytes().decode("utf-8") == "h1,h2,h3\n" + tail


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


def test_poly_gcd_cli_on_a_pair_no_certificate_line_settles(capsys, tmp_path):
    """Both top-degree parts vanish at every direction of coprime's line
    certificate, so the coprimality check of the config rests on poly_gcd."""
    cfg = {
        "f": "-24*x1^4 + 74*x1^3*x2 - 61*x1^2*x2^2 + 19*x1*x2^3 - 2*x2^4 - x1^2 - 3*x2*x3",
        "g": "24*x1^4 - 98*x1^3*x2 + 87*x1^2*x2^2 - 28*x1*x2^3 + 3*x2^4 - 2*x2^3 - x2",
        "nvars": 3,
        "count": 4,
    }

    with time_limit(10):
        code, stdout, err = _run_config(capsys, tmp_path, "poly-gcd", cfg, "--seed", "3")
    assert code == 0, err
    assert "poly-gcd: 4 samples" in stdout


def test_sharpness_cli(capsys, tmp_path):
    out = tmp_path / "sh.csv"
    code, stdout, _ = run_cli(
        capsys, "sharpness", "--p", "2", "--delta", "1/5", "--trials", "2",
        "--out", str(out),
    )
    assert code == 0
    assert "window-certified" in stdout


def test_sharpness_at_a_large_m_start_exits_0(capsys, tmp_path):
    # the walk's points at m = 100000 carry 2-adic valuations near 10^5, so
    # dividing out one 2 per step would cost 10^5 big divisions per value
    with time_limit(10):
        code, stdout, err = _run_config(
            capsys, tmp_path, "sharpness", {"m_start": 100000, "delta": "99/100", "trials": 1})
    assert code == 0, err
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


BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text())


def _csv_digest(capsys, tmp_path, *argv):
    out = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, *argv, "--out", str(out))
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


def test_csvs_match_the_benchmark_reference_digests(capsys, tmp_path):
    """Byte identity of every scan the benchmark renders (the README scan
    among them) and every example-pk input against the digests the
    benchmark checks."""
    cfg = tmp_path / "scan.json"
    scans = REFERENCE["scan_csv"]
    assert len(scans) == 12 and "lrs-scan p=2 eps=3/5 N=150" in scans
    for label, digest in scans.items():
        fields = dict(part.split("=") for part in label.split()[1:])
        p = fields["p"]
        cfg.write_text(json.dumps({
            "F": {"terms": [{"coeff": ["0", "1"], "root": p}, {"coeff": ["1"], "root": "1"}]},
            "G": {"terms": [{"coeff": ["1"], "root": p}, {"coeff": ["1"], "root": "1"}]},
            "epsilon": fields["eps"],
            "N": int(fields["N"]),
            "mode": "full-grid",
            "extra_S": {"archimedean": False, "primes": []},
            "tube_max_ab": 8,
            "tube_kappa": 16,
        }))
        got = _csv_digest(capsys, tmp_path, "lrs-scan", "--config", str(cfg))
        assert got == (0, digest), label
    audit = REFERENCE["audit"]
    pk_labels = [label for label in audit if label.startswith("example-pk ")]
    assert len(pk_labels) == 16
    for label in pk_labels:
        fields = dict(part.split("=") for part in label.split()[1:])
        got = _csv_digest(capsys, tmp_path, "example-pk", "--p", fields["p"],
                          "--epsilon", fields["eps"], "--kmax", fields["kmax"])
        assert got == (audit[label]["exit"], audit[label]["sha256"]), label


# CSV digests (exit code 0) of the sharpness audit inputs that the benchmark
# reference stores as null, because they overran its recording deadline
# when it was made; recorded on the commit before the LogReal sums moved
# onto linalg._accumulate
SHARPNESS_NULL_DIGESTS = {
    92: "e763777e2cabcfd0f968c779de229b059b6a8e747f243a610823eeb7af2b1d36",
    93: "1839c92166dfeae8421d480aa839ba82852526099c88cd484e67f5e9cc536360",
    101: "6d95b4c1f6ba3f0eb1e32269496ee8f68f21e98a80fe9b8e4694f346f059fc36",
    103: "c583571b8fc86075bdbf4c6f24113f993b484e82a1c1f6e25a510e044d7d64a1",
    104: "7e58003ce62ec1ca54c3fc7d2a0fd63088b39aecbac052a1ca067e7866364d4b",
    107: "67ecdd36a2a6635f64443a2e3fdc9dae0b574084f306c496089ade6046803872",
    109: "4f1e555ecf65ba57dc0b2ce013c028d57b0fb498364dc7657c172fadf4e2a568",
    113: "38f6966d70ed4a78183631710962c80bb0d8152c574dbf40a71f816c830a8942",
    116: "bc91e103032a9a1497d8f7573872d73a73603ca52636ae3c4adbcb015b787c37",
    117: "bef64e974aa0100e5c084076fd0f50a0bd78d110248d0048c4a205c48c52f2a6",
    119: "53664ff582901e77f9850ba1dd0545bda68b3be32e7b40c5866160f10709f777",
    120: "eb296fa72f60c7a00c14942166989c7cb4c8e02b96ab99ad05916700178bb6ab",
    121: "caa053427cce8ce729c66b96a4acf438563917a3a538cbf87322e9c9f29c9c1b",
    122: "7560b6dd1349b0a1ebbe8154b3b5fcdeb6e7d364dc9439d3d22577636c5981b4",
    123: "6bdaad811eea647d040313e87165ded2effd4e0b475e01a05237d4d089d8f1ed",
    124: "545c2155a69b24daf64fd1b4bbd9a1161de75515554062ef225b06133e48eed4",
    125: "688090f2491374484db298c9f20a102aeb0f354cd3e7d0b1e0876410419494ed",
    127: "86d05692593ec1375348966d693f553c786e1edb219e7dfbe77c6afe0c4e02dc",
    128: "dd00582b0d51cc82c7b2205a12de8f622de78cc7bb41f1c61a7b3e75be41c522",
}


def test_every_sharpness_audit_csv_matches_its_digest(capsys, tmp_path):
    """Byte identity of the CSV of every sharpness input the audit stream
    draws: the non-null ones against the benchmark reference, the null ones
    against SHARPNESS_NULL_DIGESTS."""
    audit = REFERENCE["audit"]
    prefix = "sharpness p=2 delta=1/5 m_start="
    labels = [label for label in audit if label.startswith("sharpness ")]
    assert len(labels) == 123 and all(label.startswith(prefix) for label in labels)
    nulls = {int(label[len(prefix):]) for label in labels if audit[label] is None}
    assert nulls == set(SHARPNESS_NULL_DIGESTS)
    cfg = tmp_path / "sharp.json"
    mismatched = []
    for label in labels:
        m_start = int(label[len(prefix):])
        want = (0, SHARPNESS_NULL_DIGESTS[m_start]) if m_start in nulls else (
            audit[label]["exit"], audit[label]["sha256"])
        cfg.write_text(json.dumps({"m_start": m_start}))
        got = _csv_digest(capsys, tmp_path, "sharpness", "--config", str(cfg),
                          "--p", "2", "--delta", "1/5", "--trials", "1")
        if got != want:
            mismatched.append(label)
    assert mismatched == []


def test_rec1_and_unit_eq_csvs_match_the_benchmark_reference_digests(capsys, tmp_path,
                                                                    monkeypatch):
    """Byte identity of the 12 rec1-scan audit inputs (power sums read
    through power_sum_from_json) and the 8 unit-eq ones, with configs built
    from the benchmark's constants, against the digests it checks."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_DIR / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    audit = REFERENCE["audit"]
    cases = {}
    for i, seq in enumerate(workloads.REC1_SEQUENCES):
        for eps in workloads.REC1_EPS:
            for place in ("oo",) + workloads.REC1_FINITE_PLACES:
                cases[f"rec1-scan F={i} place={place} eps={eps}"] = (
                    "rec1-scan", {"F": seq, "place": place, "epsilon": eps, "N": 60})
    for primes in workloads.UNIT_EQ_CASES:
        for bound in workloads.UNIT_EQ_BOUNDS:
            cases[f"unit-eq primes={','.join(map(str, primes))} bound={bound}"] = (
                "unit-eq", {"primes": list(primes), "n": 1, "bound": bound,
                            "delta": workloads.UNIT_EQ_DELTA})
    assert len(cases) == 20
    assert sorted(cases) == sorted(k for k in audit if k.startswith(("rec1-scan ", "unit-eq ")))
    cfg = tmp_path / "cfg.json"
    for label, (sub, config) in cases.items():
        cfg.write_text(json.dumps(config))
        got = _csv_digest(capsys, tmp_path, sub, "--config", str(cfg))
        assert got == (audit[label]["exit"], audit[label]["sha256"]), label


def test_poly_gcd_csvs_match_the_benchmark_reference_digests(capsys, tmp_path):
    """Byte identity of the 24 poly-gcd audit inputs (three configs, seeds
    0-7) against the digests the benchmark checks."""
    configs = (
        {"f": "x1 + 1", "g": "x2", "nvars": 2, "S": {"archimedean": True, "primes": [2]},
         "delta": "1/5", "count": 4},
        {"f": "x1 + x2 + 1", "g": "x1 - 2", "nvars": 2,
         "S": {"archimedean": True, "primes": [2, 3]}, "delta": "1/7", "count": 4},
        {"f": "x1^2 + x2", "g": "x1 - x2 + 3", "nvars": 2,
         "S": {"archimedean": True, "primes": [3]}, "delta": "2/7", "count": 3},
    )
    audit = REFERENCE["audit"]
    assert sum(label.startswith("poly-gcd ") for label in audit) == 24
    cfg = tmp_path / "poly.json"
    for i, config in enumerate(configs):
        cfg.write_text(json.dumps(config))
        for seed in range(8):
            label = f"poly-gcd cfg={i} seed={seed}"
            got = _csv_digest(capsys, tmp_path, "poly-gcd", "--config", str(cfg), "--seed", str(seed))
            assert got == (audit[label]["exit"], audit[label]["sha256"]), label


# poly-gcd CSVs with perturbation_bound > 1, recorded before the
# perturbation list was built once per run instead of once per sample
PERTURBED_POLY_GCD_DIGESTS = [
    ({"f": "x1 + 1", "g": "x2", "nvars": 2, "S": {"archimedean": True, "primes": [2]},
      "delta": "1/5", "count": 4, "perturbation_bound": 5},
     "ec5340ea99a104b53f9a5a896c6a9592aec522219b67042af240ebd07cf69697"),
    ({"f": "x1 + x2 + 1", "g": "x1 - 2", "nvars": 2,
      "S": {"archimedean": True, "primes": [2, 3]}, "delta": "1/7", "count": 6,
      "perturbation_bound": 4},
     "8bae05e6f64a26c975473ee0719d4848aaae503ebf68e9b624999f2f8fc58346"),
]


@pytest.mark.parametrize("config, digest", PERTURBED_POLY_GCD_DIGESTS)
def test_perturbed_poly_gcd_csvs_keep_their_bytes(capsys, tmp_path, config, digest):
    cfg = tmp_path / "poly.json"
    cfg.write_text(json.dumps(config))
    code, got = _csv_digest(capsys, tmp_path, "poly-gcd", "--config", str(cfg), "--seed", "3")
    assert (code, got) == (0, digest)
    rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
    assert len(rows) == config["count"]


@pytest.mark.parametrize("count, seconds", [(4, 1.5), (25, 3)])
def test_poly_gcd_builds_its_perturbations_once_per_run(capsys, tmp_path, count, seconds):
    """The 90000 perturbation choices of B = 300 are built once per run,
    not once per sample, and the work estimate counts them once, so 25
    samples are not refused."""
    cfg = {"f": "x1 + 1", "g": "x2", "nvars": 2, "S": {"archimedean": True, "primes": [2]},
           "delta": "1/5", "count": count, "perturbation_bound": 300}
    with time_limit(seconds):
        code, _, err = _run_config(capsys, tmp_path, "poly-gcd", cfg, "--seed", "3")
    assert code == 0, err


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
        ("poly-gcd", {"f": "1/0*x1", "g": "x2"}, "bad rational literal '1/0'"),
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


# the runner or config dataclass each subcommand's config keys go to
CLI_TARGETS = {
    "lrs-scan": harness.ScanConfig, "poly-gcd": harness.SampleConfig,
    "example-pk": harness.run_example_pk, "sharpness": harness.run_sharpness,
    "rec1-scan": harness.run_rec1_scan, "unit-eq": harness.solve_unit_equation,
}


def test_every_config_key_reaches_its_runner():
    """A renamed runner parameter must not leave a config key behind."""
    read_by_the_cli = {"poly-gcd": {"nvars"}, "unit-eq": {"delta"}}
    renamed = {"unit-eq": {"primes": "S"}}
    assert set(cli.CONFIG_KEYS) == set(CLI_TARGETS)
    for sub, keys in cli.CONFIG_KEYS.items():
        target = CLI_TARGETS[sub]
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


def test_required_keys_are_the_parameters_without_a_default():
    for target in CLI_TARGETS.values():
        want = tuple(name for name, param in inspect.signature(target).parameters.items()
                     if param.default is param.empty)
        assert cli._required(target) == want, target

    def runner(a, b=1, *args, c, d=2, **kwargs):
        pass

    assert cli._required(runner) == ("a", "c")


@pytest.mark.parametrize("sub, cfg, missing", [
    ("lrs-scan", {"G": G_PK}, "F"),
    ("lrs-scan", {"F": F_PK}, "G"),
    ("poly-gcd", {"g": "x2"}, "f"),
    ("rec1-scan", {"N": 5}, "F"),
])
def test_a_missing_required_key_exits_2_and_names_it(capsys, tmp_path, sub, cfg, missing):
    code, _, err = _run_config(capsys, tmp_path, sub, cfg)
    assert (code, err) == (2, f"error: config is missing {missing!r}\n")


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


@pytest.mark.parametrize(
    "cap, cfg, m",
    [
        (harness.SHARPNESS_N_CAP, {"m_start": 3000}, 3000),
        (50, {"m_start": 20}, 20),
        # rows for m = 10, 11, 12; m = 13 finds no window below the cap
        (50, {"m_start": 10, "trials": 5}, 14),
    ],
)
def test_sharpness_window_past_the_cap_exits_2_at_once(capsys, tmp_path, monkeypatch,
                                                       cap, cfg, m):
    monkeypatch.setattr(harness, "SHARPNESS_N_CAP", cap)
    with time_limit(2):
        start = time.perf_counter()
        code, _, err = _run_config(capsys, tmp_path, "sharpness", {"trials": 1, **cfg})
    assert code == 2 and f"m = {m} starts past n = {cap}" in err
    assert time.perf_counter() - start < 1


def test_sharpness_past_the_work_bound_exits_2_at_once(capsys, tmp_path):
    # one trial at m = 300000 and p = 3 walks points of about 480000 bits
    # a coordinate, which took about 7 s on a 2-core Xeon
    cfg = {"m_start": 300000, "delta": "99/100", "trials": 1, "p": 3}
    with time_limit(2):
        start = time.perf_counter()
        code, _, err = _run_config(capsys, tmp_path, "sharpness", cfg)
    assert code == 2 and "bits of points" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "sub, cfg, word",
    [
        # 2 (2b + 1)^2 values of up to 2b log2 6 bits each
        ("unit-eq", {"bound": 100000}, "word operations"),
        # 18^n tuples, which the estimate never forms
        ("unit-eq", {"n": 1000000000}, "word operations"),
        ("unit-eq", {"n": 5}, "word operations"),
        # took 9.3 s to parse before the bound
        ("poly-gcd", {"f": "(x1+x2+x3+1)^40", "g": "x2", "nvars": 3}, "term products"),
        ("poly-gcd", {"f": "x1", "g": "(x1+1)^100000"}, "term products"),
        # a product of two sums of 800 terms, 640000 term products
        ("poly-gcd", {"f": "({0})*({0})".format("+".join(f"x{i}" for i in range(1, 801))),
                      "g": "x1"}, "term products"),
    ],
)
def test_unit_eq_and_polynomials_past_the_work_bound_exit_2_at_once(capsys, tmp_path,
                                                                    sub, cfg, word):
    with time_limit(2):
        start = time.perf_counter()
        code, _, err = _run_config(capsys, tmp_path, sub, cfg)
    assert code == 2 and err.startswith("error:") and word in err
    assert time.perf_counter() - start < 1


# f and g of the poly-gcd inputs below, in 2 variables
POLY_GCD_PAIR = {"f": "x1 + 1", "g": "x2", "nvars": 2}
PAST_A_FLOAT = [
    ("sharpness", {"trials": 10**400}),
    ("sharpness", {"m_start": 10**400}),
    ("rec1-scan", {"F": F_PK, "N": 10**400}),
    ("lrs-scan", {"F": F_PK, "G": G_PK, "N": 10**400}),
    # p^64 overflows a float at this valid prime
    ("example-pk", {"p": 1000003, "kmax": 64}),
    # _cluster_flagged would list every line a*m = b*n up to it, after a quick scan
    ("lrs-scan", {"F": F_PK, "G": G_PK, "N": 5, "tube_max_ab": 10**400}),
    # parse_poly would build exponent tuples of this length
    ("poly-gcd", {**POLY_GCD_PAIR, "nvars": 10**400}),
    ("poly-gcd", {**POLY_GCD_PAIR, "count": 10**400}),
    ("poly-gcd", {**POLY_GCD_PAIR, "perturbation_bound": 10**400}),
    # with no prime in S the generator exponents go unused and the run finishes
    ("poly-gcd", {**POLY_GCD_PAIR, "S": [2], "generator_exponent_bound": 10**400}),
]


@pytest.mark.parametrize("sub, cfg", PAST_A_FLOAT)
def test_sizes_past_a_float_exit_2_at_once(capsys, tmp_path, sub, cfg):
    with time_limit(2):
        start = time.perf_counter()
        code, _, err = _run_config(capsys, tmp_path, sub, cfg)
    assert code == 2 and err.startswith("error:") and "work estimated at 2^" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("sub, cfg, message", [
    ("rec1-scan", {"F": F_PK, "N": -3}, "N must be at least 0"),
    ("sharpness", {"trials": 0}, "trials must be at least 1"),
    ("sharpness", {"trials": -2}, "trials must be at least 1"),
    ("example-pk", {"kmax": 0}, "kmax must be at least 1"),
    ("example-pk", {"kmax": -3}, "kmax must be at least 1"),
    ("poly-gcd", {**POLY_GCD_PAIR, "count": 0}, "count must be at least 1"),
    ("poly-gcd", {**POLY_GCD_PAIR, "count": -4}, "count must be at least 1"),
    ("lrs-scan", {"F": F_PK, "G": G_PK, "N": 0}, "N must be at least 1"),
    ("unit-eq", {"n": 0}, "need n >= 1"),
    ("unit-eq", {"primes": [2, 3], "n": 1, "bound": 1, "budget": 0}, "budget must be at least 1"),
    ("unit-eq", {"primes": [2, 3], "n": 1, "bound": 1, "budget": -4}, "budget must be at least 1"),
])
def test_runs_that_examine_nothing_exit_2(capsys, tmp_path, sub, cfg, message):
    """Each of these once exited 0 with a report over no index, trial,
    coincidence or sample."""
    code, out, err = _run_config(capsys, tmp_path, sub, cfg)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err


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
    # one key at a time at 10**400 or in its range past the work bound
    def past(bounds):
        return st.one_of(*(
            st.one_of(st.just({key: 10**400}),
                      *([st.fixed_dictionaries({key: st.integers(*r)})] if r else []))
            for key, r in bounds.items()))

    over = {sub: past(bounds) for sub, bounds in OVER_BOUND.items()}
    over["example-pk"] = st.one_of(over["example-pk"], st.just({"p": 1000003, "kmax": 64}))
    return st, valid, wrong, over


# per subcommand, the int keys the fuzz test sets to 10**400 and, where
# given, to ints in a range past the work bound for every valid config drawn
OVER_BOUND = {
    "lrs-scan": {"N": (5000, 10**12), "tube_max_ab": (1025, 10**12)},
    "poly-gcd": {"nvars": (10**4, 10**12), "count": (10**7, 10**12),
                 "perturbation_bound": None, "generator_exponent_bound": None},
    "rec1-scan": {"N": (10**7, 10**12)},
    "example-pk": {"kmax": (30, 10**9), "p": None},
    "sharpness": {"trials": (10**4, 10**12), "m_start": None, "p": None},
    "unit-eq": {"n": (10**3, 10**12), "bound": None},
}
# int keys that finish at 10**400: a tube width and a cap on solutions
FINISH_PAST_A_FLOAT = {("lrs-scan", "tube_kappa"), ("unit-eq", "budget")}


def test_every_int_key_has_a_case_past_a_float():
    """A config key read as an int is drawn at 10**400 by the fuzz test, or
    pinned to exit 2 there, or known to finish: a new int key without a
    work bound fails here."""
    pinned = {(sub, key) for sub, cfg in PAST_A_FLOAT for key, value in cfg.items()
              if value == 10**400}
    fuzzed = {(sub, key) for sub, bounds in OVER_BOUND.items() for key in bounds}
    for sub, keys in cli.CONFIG_KEYS.items():
        for key, convert in keys.items():
            if convert is cli._int:
                assert (sub, key) in pinned | fuzzed | FINISH_PAST_A_FLOAT, (sub, key)


@pytest.mark.parametrize("sub", ["lrs-scan", "poly-gcd", "example-pk", "sharpness",
                                 "rec1-scan", "unit-eq"])
def test_fuzzed_configs_exit_with_a_documented_code(capsys, tmp_path, sub):
    """Valid configs, then unknown keys, wrong JSON types, wrong shapes and
    sizes beyond the work bounds: every call exits 0, 2, 3 or 4 in time."""
    hypothesis = pytest.importorskip("hypothesis")
    st, valid, wrong, over = _fuzz_strategies()

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
            cfg = {**cfg, **data.draw(over[sub])}
        with time_limit(5):
            start = time.perf_counter()
            code, _, err = _run_config(capsys, tmp_path, sub, cfg)
        assert code in (0, 2, 3, 4), (cfg, code, err)
        assert code != 2 or err.startswith("error:"), err
        assert time.perf_counter() - start < 5

    check()
