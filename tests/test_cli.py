import threading

import pytest

from kishnn import data_eval, protocol_io
from kishnn.classifier import classify_with_majority, make_protocol_params
from kishnn.cli import main
from kishnn.ring import select_ring_params


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


def test_query_help_says_what_tcp_reads(capsys):
    # a tuple metavar on the coordinates once made argparse raise here
    with pytest.raises(SystemExit) as err:
        main(["query", "--help"])
    assert err.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--k and --reps shape only the loopback server" in out


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
    assert "sd_gaussian" not in out  # diagnose's figure, not evaluate's


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


@pytest.mark.parametrize("point", [("-1", "5"), ("50", "5")])
def test_query_loopback_refuses_a_point_off_the_grid(capsys, wdbc_path,
                                                     point):
    # -1 used to be reduced mod P and answered as P - 1 with exit code 0
    code, out, err = run(capsys, "query", *point, "--transport", "loopback",
                         "--dataset", wdbc_path, "--grid", "50", "--reps", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "not a grid point" in err


def test_evaluate_refuses_a_negative_repetition_count(capsys, wdbc_path):
    # used to end in a traceback from inside the circuit
    code, out, err = run(capsys, "evaluate", "--dataset", wdbc_path,
                         "--grid", "100", "--mode", "secure", "--reps", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "repetition" in err


@pytest.mark.parametrize("k", ["-3", "0"])
def test_evaluate_plain_refuses_k_below_one(capsys, wdbc_path, k):
    # plain mode used to exit 0 with F1=0.5429 for -3 and 0.0000 for 0
    code, out, err = run(capsys, "evaluate", "--dataset", wdbc_path,
                         "--grid", "100", "--mode", "plain", "--k", k)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "1 <= k" in err


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


def test_query_tcp_talks_to_a_served_database(capsys, wdbc_path):
    # the client half of README's server/client pair, against serve_tcp
    gd = data_eval.grid_dataset(data_eval.load_wdbc(wdbc_path), 100)
    ring = select_ring_params(100, dim=2, n=gd.n)
    pp = make_protocol_params(ring, k=13, n=gd.n, repetitions=5, rng_seed=0)
    db = gd.database()
    ready = threading.Event()
    addr = {}

    def serve():
        protocol_io.serve_tcp("127.0.0.1", 0, db, pp, max_connections=2,
                              ready=lambda a: (addr.update(port=a[1]),
                                               ready.set()))

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    assert ready.wait(timeout=10)
    args = ["query", "40", "60", "--transport", "tcp", "--connect",
            f"127.0.0.1:{addr['port']}", "--grid", "100", "--k", "13",
            "--reps", "5", "--seed", "0"]
    code, out, _ = run(capsys, *args, "--n", "569")
    assert code == 0
    assert out.strip() == str(classify_with_majority((40, 60), db, pp))
    code, out, err = run(capsys, *args, "--n", "568")
    assert code == 2 and out == ""
    assert "server rejected the query" in err
    t.join(timeout=10)
    assert not t.is_alive()


@pytest.mark.parametrize("port", ["99999", "70000", "-5", "abc"])
@pytest.mark.parametrize("command", ["serve", "query"])
def test_a_port_outside_0_to_65535_is_refused(capsys, wdbc_path, command,
                                              port):
    # serve once raised OverflowError at 99999; query dialed 70000 - 65536
    argv = (["serve", "--dataset", wdbc_path, "--listen"]
            if command == "serve" else ["query", "1", "2", "--n", "569",
                                        "--connect"])
    code, out, err = run(capsys, *argv, f"127.0.0.1:{port}")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "0-65535" in err
