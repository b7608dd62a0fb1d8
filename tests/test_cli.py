import hashlib
import json
from pathlib import Path

import pytest

from gcdlab import arith, harness
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
