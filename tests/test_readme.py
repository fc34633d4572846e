import pathlib
import re
import shlex

from kishnn import cli, interp, primitives
from kishnn.ring import select_ring_params

from conftest import two_cluster_db
from test_pinned_bits import (CIPHER_MULTS, DEPTH, LOO_GATES, SERVED_GATES,
                              STAGES)

README = pathlib.Path(__file__).parent.parent / "README.md"


def _library_snippet() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _cli_commands() -> list:
    """The argv of every `kishnn ...` line in README's CLI block."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## CLI", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    block = block.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("kishnn ")]


def test_readme_library_example_runs():
    points, labels = two_cluster_db(20, 100, gap=1, seed=5)
    scope = {"points": points, "labels": labels}
    exec(compile(_library_snippet(), str(README), "exec"), scope)
    assert scope["label"] in (0, 1)
    assert scope["bit"] in (0, 1)
    assert scope["pp"].n == len(points) == scope["ring"].n


def test_readme_cli_examples_parse():
    # a subcommand or flag the parser no longer knows exits with a usage
    # error; every subcommand appears in the block
    commands = _cli_commands()
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # every example that needs no server, with its output file under
    # tmp_path; the dataset path is relative to the repository root
    monkeypatch.chdir(README.parent)
    ran = []
    for argv in _cli_commands():
        if argv[0] == "serve" or "tcp" in argv:  # the server and its client
            continue
        outs = [i + 1 for i, a in enumerate(argv) if a == "--out"]
        for i in outs:
            argv[i] = str(tmp_path / argv[i])
        assert cli.main(argv) == 0, argv
        for i in outs:
            assert pathlib.Path(argv[i]).stat().st_size > 0
        ran.append(argv[0])
    out = capsys.readouterr().out
    assert sorted(ran) == ["diagnose", "evaluate", "query"]
    assert "F1=" in out and "sd_gaussian=" in out
    assert out.splitlines()[-1] in ("0", "1")


def _figure(text: str) -> int:
    return int(text.replace(",", ""))


def test_readme_cost_figures_are_the_pinned_ones():
    # the cost paragraphs' one-repetition query (grid 250, n = 568) and
    # served shape (n = 569, R = 5), against test_pinned_bits and the
    # tables' schedule (interp.ps_cost): a change to the circuit's cost
    # must carry README with it
    text = " ".join(README.read_text(encoding="utf-8").split())
    one = re.findall(r"one repetition costs ([\d,]+) mult gates at depth "
                     r"(\d+)", text)
    served = re.findall(r"repetitions cost (\d+) · ([\d,]+) − (\d+) · "
                        r"([\d,]+) = ([\d,]+) gates at depth (\d+)", text)
    assert [(_figure(g), int(d)) for g, d in one] == [(LOO_GATES[1], DEPTH)]
    assert len(served) == 1
    reps, g1, rest, shared, total, depth = (_figure(f) for f in served[0])
    assert (total, depth) == (SERVED_GATES, DEPTH)
    assert reps * g1 - rest * shared == total and rest == reps - 1
    assert f"instead of {reps} · {served[0][1]} = {reps * g1:,}" in text
    assert re.findall(r"costs ([\d,]+) ciphertext mults", text) == [
        str(CIPHER_MULTS)]

    # per-table figures at P = 997: the split, its powers and products
    # per slot at full degree, and at the distances' degree B for their
    # three tables and for a lone table, the query's |.| table at its
    # degree on the grid, the distances' formula and the served
    # identity's three parts
    ring = select_ring_params(250, dim=2, n=569)
    tables = interp.build_named_tables(ring)
    full = interp.ps_cost(tables.is_neg.degree, 0)
    B = ring.dist_bound
    span = interp.ps_cost(min(tables.is_neg.degree, B), 0, 3)
    assert interp.ps_cost(min(tables.is_neg.degree, B), 0)[:3] == span[:3]
    map_block = interp.ps_cost(min(tables.dist_map.degree, B), 0, 3)[2]
    split, power, block, _, depth = interp.ps_cost(ring.coord_bound - 1, 0)
    assert re.findall(r"At P = 997 a table of degree (\d+) takes l = (\d+), "
                      r"the split \((\d+), (\d+)\): (\d+) powers and (\d+) "
                      r"products at depth (\d+)", text) == [tuple(map(str, (
                          tables.is_neg.degree, full[0][0], *full[0],
                          full[1], full[2], full[4])))]
    # the sign test on a cipher of no record, odd, at P = 997 and 397
    assert tables.is_neg.odd
    odd = interp.ps_cost(tables.is_neg.degree, 0, 1, True)
    small = interp.build_named_tables(select_ring_params(100, dim=2, n=569))
    small_full = interp.ps_cost(small.is_neg.degree, 0)
    small_odd = interp.ps_cost(small.is_neg.degree, 0, 1, True)
    assert re.findall(r"At P = 997 the sign test takes the odd schedule's "
                      r"split \((\d+), (\d+)\): (\d+) powers and (\d+) "
                      r"products at depth (\d+); at P = 397 it takes "
                      r"\((\d+), (\d+)\), (\d+) and (\d+), against the "
                      r"full schedule's \((\d+), (\d+)\), (\d+) and (\d+)",
                      text) == [tuple(map(str, (
                          *odd[0], odd[1], odd[2], odd[4], *small_odd[0],
                          *small_odd[1:3], *small_full[0],
                          *small_full[1:3])))]
    assert re.findall(r"At P = 997 and B = (\d+) that is the split "
                      r"\((\d+), (\d+)\) for the three tables: (\d+) powers "
                      r"once and (\d+) products per table per slot, the split "
                      r"a lone table of degree \1 takes too, at depth (\d+), "
                      r"against (\d+) and (\d+) at degree (\d+)",
                      text) == [tuple(map(str, (
                          B, *span[0], span[1], span[2], span[4], full[1],
                          full[2], tables.is_neg.degree)))]
    assert re.findall(r"at degree p − 1 = (\d+): the split \((\d+), (\d+)\), "
                      r"(\d+) powers\. Each of the d·n coordinate slots pays "
                      r"(\d+) products", text) == [tuple(map(str, (
                          ring.coord_bound - 1, *split, power, block)))]
    dists = re.findall(r"(\d+)·d \+ (\d+)·d·n gates, ([\d,]+) at "
                       r"n = 568", text)
    assert dists == [(str(power), str(block),
                      f"{STAGES[primitives, 'compute_dists'][0]:,}")]
    assert _figure(dists[0][2]) == 2 * power + 2 * 568 * block
    parts = re.findall(r"products take ([\d,]+) \+ ([\d,]+) \+ ([\d,]+) = "
                       r"([\d,]+) gates", text)
    assert [tuple(map(_figure, p)) for p in parts] == [(
        2 * power + 2 * 569 * block, 569 * span[1],
        569 * map_block, shared)]
    assert sum(map(_figure, parts[0][:3])) == shared
