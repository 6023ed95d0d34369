import hashlib

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


def test_verify3_keeps_old_outputs_until_a_run_succeeds(tmp_path, capsys):
    out = tmp_path / "keep.csv"
    surv = tmp_path / "keep_stages.csv"
    out.write_text("old\n")
    surv.write_text("old stages\n")
    files = ("--out", str(out), "--survivors", str(surv))
    code, _, _ = run(capsys, "verify3", "--min-p", "9", "--max-p", "3", *files)
    assert code == 64
    assert out.read_text() == "old\n" and surv.read_text() == "old stages\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["keep.csv", "keep_stages.csv"]
    code, _, _ = run(capsys, "verify3", "--min-p", "3", "--max-p", "13", *files)
    assert code == 0
    assert out.read_text().splitlines()[0] == CSV_HEADER
    assert surv.read_text().splitlines()[0] == "p,r,e,d,stage_reached"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["keep.csv", "keep_stages.csv"]


def test_verify3_stage_counts_on_stdout(capsys):
    code, stdout, _ = run(capsys, "verify3", "--min-p", "193", "--max-p", "193")
    assert code == 0
    assert "193 219 32 0 20 4 1 0 0" in stdout.splitlines()


def test_th1sym_small(capsys):
    code, stdout, _ = run(capsys, "th1sym", "--max-p", "7", "--max-r", "4")
    assert code == 0
    lines = stdout.splitlines()
    assert "5 2 3 1 True 3 2" in lines
    assert all(l.split()[4] == "True" for l in lines)
    # sha256 of stdout, pinned from the tuple-key MultiPoly product
    digest = "19a3e3b57c7a451496f2f0b4dfa77eb328144e2c7f36752f296bb97cae3b9fc1"
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


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


def test_th5_and_exp1_stdout_pinned(capsys):
    # sha256 of stdout, pinned from the aux checks built with [-R2 R1^{-1} | I];
    # guards the order and format of the factorization and aux report lines
    pinned = {
        ("th5", "--p", "13", "--r", "3", "--e", "9"):
            "990232e17936b83ccfe5daf18aca644b4bfaa239c47ef75f1f0a085d1e0f8031",
        ("th5", "--p", "23", "--r", "6", "--e", "19", "--trials", "3", "--seed", "2"):
            "ead958d0dc2f684d186452977c23acbfcf20cbfbd0346346273d6c1bfd8fdb0b",
        ("th5", "--p", "13", "--r", "4", "--e", "10", "--coeffs", "1,5,2,7"):
            "c8957fc062a219df879989ae5d80bd635a39daa0948647c271c79bbc6e46b4fc",
        ("exp1", "--p", "7", "--max-r", "4", "--seed", "0"):
            "2cf364d053ceb2d980c8cce6a2f5934fdd70d399ffd59bdbe7a4fcba20dbe700",
    }
    for argv, digest in pinned.items():
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest, argv


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
    # sha256 of stdout, pinned from the earlier row-by-row expansion of G^e
    pinned = {
        ("--p", "11", "--r", "3", "--trials", "20"):
            "1908e5f0e448292967156ea66626992349b45fcdefee44996d79baaff747c513",
        ("--p", "13", "--r", "4", "--trials", "1"):
            "ac437ed1629c74abdec45fb7d82f3722593824b65505aa5937db217d41713f14",
    }
    for args, digest in pinned.items():
        code, stdout, _ = run(capsys, "exp2", *args, "--seed", "0")
        assert code == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest, args


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


def test_exp2_eliminates_each_matrix_once(capsys, monkeypatch):
    from discdet import experimental, fpmat

    calls = {"det": 0, "inverse": 0}

    def counted(name, fn):
        def wrapper(A):
            calls[name] += 1
            return fn(A)
        return wrapper

    real_det = fpmat.det
    for module in (fpmat, experimental):
        monkeypatch.setattr(module, "det", counted("det", real_det))
    monkeypatch.setattr(experimental, "inverse", counted("inverse", experimental.inverse))
    code, stdout, _ = run(capsys, "exp2", "--p", "7", "--r", "3", "--trials", "5", "--seed", "1")
    assert code == 0 and "FAIL" not in stdout
    # five nonsingular draws and one singular one: det once per draw,
    # adj A once per nonsingular draw
    assert calls == {"det": 6, "inverse": 5}, calls


def test_usage_errors_exit_64(capsys, monkeypatch):
    import pytest

    from discdet import experimental, fpmat

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
    # th1sym bounds past the desk scale are refused before any row is printed
    capsys.readouterr()
    for bounds in (["--max-p", "11", "--max-r", "2"], ["--max-p", "7", "--max-r", "6"]):
        assert main(["th1sym", *bounds]) == 64, bounds
        out = capsys.readouterr()
        assert out.out == "", out.out
        assert out.err.count("\n") == 1 and "desk scale" in out.err, out.err
    # an output path that cannot be opened is rejected before the run
    capsys.readouterr()
    for flag in ("--out", "--survivors"):
        for path in ("/nonexistent/dir/x.csv", "tests"):
            assert main(["verify3", "--min-p", "3", "--max-p", "50", flag, path]) == 64
            out = capsys.readouterr()
            assert out.out == "", out.out
            assert out.err.count("\n") == 1 and "cannot open output file" in out.err, out.err
    for argv in (["th5", "--p", "7", "--r", "3", "--e", "4"],
                 ["exp1", "--p", "5", "--max-r", "3"],
                 ["exp2", "--p", "5", "--r", "2"]):
        for trials in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--trials", trials])
            assert exc.value.code == 64, (argv, trials)
    assert main(["th5", "--p", "6", "--r", "2", "--e", "3"]) == 64
    # f = x^3 has Delta = 0 and a singular M_2(f^4): bad input, not a fault
    assert main(["th5", "--p", "7", "--r", "3", "--e", "4", "--coeffs", "0,0,0"]) == 64
    # exp2 past the Glynn grid limit (3^15 > 10^7 at e = p - 1) is refused
    # before a matrix is drawn or a determinant taken
    dets = []
    real_det = fpmat.det
    for module in (fpmat, experimental):
        monkeypatch.setattr(module, "det", lambda A: dets.append(A) or real_det(A))
    capsys.readouterr()
    assert main(["exp2", "--p", "3", "--r", "15"]) == 64
    out = capsys.readouterr()
    assert out.out == "", out.out
    assert out.err.count("\n") == 1 and "exceeds 10000000" in out.err, out.err
    assert dets == []
    # a matrix size below 1 is refused at argument parsing
    for r in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["exp2", "--p", "5", "--r", r])
        assert exc.value.code == 64, r
        assert capsys.readouterr().out == ""
    assert dets == []


def test_internal_arithmetic_faults_exit_70(monkeypatch, capsys):
    from discdet import cli
    from discdet.fpmat import Singular

    for fault in (ZeroDivisionError, Singular):
        def command(args, fault=fault):
            raise fault("internal")

        monkeypatch.setitem(cli._COMMANDS, "verify3", command)
        assert main(["verify3", "--min-p", "3", "--max-p", "5"]) == 70, fault
    assert "ZeroDivisionError" in capsys.readouterr().err
