from discdet.cli import CSV_HEADER, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify3_csv_matches_golden(tmp_path, capsys):
    out = tmp_path / "table.csv"
    surv = tmp_path / "stages.csv"
    code, stdout, _ = run(
        capsys, "verify3", "--min-p", "3", "--max-p", "43",
        "--out", str(out), "--survivors", str(surv),
    )
    assert code == 0
    with open("tests/data/table1_3_43.csv") as fh:
        assert out.read_text() == fh.read()
    lines = stdout.splitlines()
    assert lines[0] == CSV_HEADER.replace(",", " ")
    assert lines[5] == "13 9 2 0 0 1 0 0 0"
    assert "# T1: avg 1.76923 max 10  (13 primes)" in lines
    assert not any(l.startswith("# WITNESS") for l in lines)
    srows = surv.read_text().splitlines()
    assert srows[0] == "p,r,e,d,stage_reached"
    assert "13,4,12,1,1" in srows


def test_verify3_stage_counts_on_stdout(capsys):
    code, stdout, _ = run(capsys, "verify3", "--min-p", "193", "--max-p", "193")
    assert code == 0
    assert "193 219 32 0 20 4 1 0 0" in stdout.splitlines()


def test_th1sym_small(capsys):
    code, stdout, _ = run(capsys, "th1sym", "--max-p", "5", "--max-r", "3")
    assert code == 0
    lines = stdout.splitlines()
    assert "5 2 3 1 True 3 2" in lines
    assert all(l.split()[4] == "True" for l in lines)


def test_th5_explicit_coeffs(capsys):
    code, stdout, _ = run(
        capsys, "th5", "--p", "7", "--r", "3", "--e", "4", "--coeffs", "0,0,6"
    )
    assert code == 0
    assert "f=[0,0,6] factorization: PASS" in stdout.splitlines()
    assert "FAIL" not in stdout


def test_th5_random_trials(capsys):
    code, stdout, _ = run(
        capsys, "th5", "--p", "11", "--r", "2", "--e", "7",
        "--trials", "3", "--seed", "1",
    )
    assert code == 0
    assert "FAIL" not in stdout


def test_exp1_small(capsys):
    code, stdout, _ = run(
        capsys, "exp1", "--p", "5", "--max-r", "3", "--trials", "2", "--seed", "0"
    )
    assert code == 0
    assert "FAIL" not in stdout
    assert stdout.splitlines()[-1].startswith("exp1 p=5:")


def test_exp2_small(capsys):
    code, stdout, _ = run(
        capsys, "exp2", "--p", "5", "--r", "2", "--trials", "3", "--seed", "0"
    )
    assert code == 0
    assert "FAIL" not in stdout
    assert "exp2 p=5 r=2:" in stdout.splitlines()[-1]


def test_ppm_enumerate_and_oracle_agree(capsys):
    code, fast, _ = run(capsys, "ppm", "--h", "2", "--k", "3", "--d", "10")
    assert code == 0
    code, slow, _ = run(capsys, "ppm", "--h", "2", "--k", "3", "--d", "10", "--oracle")
    assert code == 0
    assert fast == slow
    assert "3 1 4 2 5 8 6 9 7 10" in fast.splitlines()


def test_ppm_nonexistence_is_empty_success(capsys):
    code, stdout, _ = run(capsys, "ppm", "--h", "2", "--k", "3", "--d", "7")
    assert code == 0 and stdout == ""


def test_kappa_pinned_rows(capsys):
    code, stdout, _ = run(capsys, "kappa", "--s-max", "3", "--p-max", "500")
    assert code == 0
    lines = stdout.splitlines()
    assert "3 2 5/48 7 (2,5,1) in-B0" in lines
    assert "3 2 5/48 43 (14,29,1) not-in-B" in lines
    assert "1 1 -1/2 3 (2,2,1) in-B0" in lines


def test_kappa_no_survivor_placeholder(capsys):
    code, stdout, _ = run(capsys, "kappa", "--s-max", "2", "--p-max", "3")
    assert code == 0
    assert any(l.startswith("2 2 4/9 -") for l in stdout.splitlines())


def test_usage_errors_exit_64(capsys):
    import pytest

    with pytest.raises(SystemExit) as exc:
        main(["verify3", "--min-p", "3"])  # missing --max-p
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcmd"])
    assert exc.value.code == 64
    # domain errors are reported, not raised
    assert main(["verify3", "--min-p", "9", "--max-p", "3"]) == 64
    assert main(["verify3", "--min-p", "10", "--max-p", "5"]) == 64
    assert main(["verify3", "--min-p", "3", "--max-p", "50", "--jobs", "0"]) == 64
    assert main(["th5", "--p", "6", "--r", "2", "--e", "3"]) == 64
    # f = x^3 has Delta = 0 and a singular M_2(f^4): bad input, not a fault
    assert main(["th5", "--p", "7", "--r", "3", "--e", "4", "--coeffs", "0,0,0"]) == 64
    capsys.readouterr()


def test_internal_arithmetic_faults_exit_70(monkeypatch, capsys):
    from discdet import cli
    from discdet.fpmat import Singular
    from discdet.theorem5 import SingularM

    for fault in (ZeroDivisionError, Singular, SingularM):
        def command(args, fault=fault):
            raise fault("internal")

        monkeypatch.setitem(cli._COMMANDS, "verify3", command)
        assert main(["verify3", "--min-p", "3", "--max-p", "5"]) == 70, fault
    assert "ZeroDivisionError" in capsys.readouterr().err
