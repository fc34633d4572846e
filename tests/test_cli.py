import pytest

from kishnn.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["evaluate", "--dataset", "x", "--frobnicate"])
    assert err.value.code == 1


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1


def test_missing_dataset_file_is_runtime_error(capsys):
    code, _, err = run(capsys, "evaluate", "--dataset", "/nonexistent.csv")
    assert code == 2
    assert "error" in err


def test_evaluate_plain_prints_f1(capsys, wdbc_path):
    code, out, _ = run(capsys, "evaluate", "--dataset", wdbc_path,
                       "--grid", "100", "--k", "13", "--mode", "plain")
    assert code == 0
    f1 = float(out.split("F1=")[1].split()[0])
    assert abs(f1 - 0.98) <= 0.015


def test_evaluate_writes_csv(capsys, wdbc_path, tmp_path):
    out_path = tmp_path / "report.csv"
    code, _, _ = run(capsys, "evaluate", "--dataset", wdbc_path,
                     "--grid", "100", "--mode", "plain",
                     "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "index,label,predicted"
    assert len(lines) == 570


def test_query_loopback_prints_bit(capsys, wdbc_path):
    code, out, _ = run(capsys, "query", "40", "40",
                       "--transport", "loopback", "--dataset", wdbc_path,
                       "--grid", "50", "--k", "13", "--reps", "3",
                       "--seed", "1")
    assert code == 0
    assert out.strip() in ("0", "1")


def test_query_loopback_needs_dataset(capsys):
    code, _, err = run(capsys, "query", "1", "2", "--transport", "loopback")
    assert code == 2
    assert "dataset" in err


def test_diagnose_writes_histogram(capsys, wdbc_path, tmp_path):
    out_path = tmp_path / "hist.csv"
    code, out, _ = run(capsys, "diagnose", "--dataset", wdbc_path,
                       "--grid", "100", "--out", str(out_path))
    assert code == 0
    assert "sd_gaussian=" in out
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "distance,count"
    assert len(lines) > 10


def test_seeded_runs_are_reproducible(capsys, wdbc_path):
    args = ("query", "10", "12", "--transport", "loopback", "--dataset",
            wdbc_path, "--grid", "50", "--reps", "3", "--seed", "7")
    c1, out1, _ = run(capsys, *args)
    c2, out2, _ = run(capsys, *args)
    assert c1 == c2 == 0 and out1 == out2
