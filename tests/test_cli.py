import io
import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import boxball.isomorphisms
import boxball.verify
from boxball.cli import (
    MAX_TABLE_STEPS,
    _print_table,
    main,
    parse_state,
    separation_document,
    state_document,
)
from boxball.separation import combine, separate
from boxball.dynamics import (
    BasicPath,
    InhomPath,
    InvalidWordError,
    carrier_evolution,
    decoding_pass,
)
from conftest import seeded_basic_path
from fixtures_data import COLOURED_ROWS, MONO_ROWS, S_TABLES, WORD


def stdin_of(data):
    """A process's `sys.stdin` holding `data`, bytes or text (UTF-8 encoded)."""
    data = data.encode() if isinstance(data, str) else data
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def run_cli(monkeypatch, capsys, argv, stdin_text=""):
    monkeypatch.setattr("sys.stdin", stdin_of(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_evolve_monochrome_golden(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch, capsys, ["evolve", "--steps", "3", "--operator", "T"], MONO_ROWS[0] + "\n"
    )
    assert code == 0
    assert out.splitlines() == [f"t={t:<4} {row}" for t, row in enumerate(MONO_ROWS)]


def test_evolve_coloured_golden(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch, capsys, ["evolve", "--steps", "3"], COLOURED_ROWS[0] + "\n"
    )
    assert code == 0
    assert out.splitlines() == [f"t={t:<4} {row}" for t, row in enumerate(COLOURED_ROWS)]


def test_evolve_zero_steps_echoes_canonical_input(monkeypatch, capsys):
    for text in (".22..\n", "\n.22..\n\n  \n"):  # blank lines around the path are ignored
        code, out, _ = run_cli(monkeypatch, capsys, ["evolve", "--steps", "0"], text)
        assert code == 0
        assert out.splitlines() == ["t=0    .22.."]


def test_evolve_reads_positional_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "state.txt"
    path.write_text(".22.\n", encoding="utf-8")
    code, out, _ = run_cli(
        monkeypatch, capsys, ["evolve", str(path), "--steps", "1", "--operator", "Tl:1"]
    )
    assert code == 0
    assert out.splitlines()[1] == "t=1    ..22"


def test_evolve_parse_error_names_character(monkeypatch, capsys):
    # digits of other scripts and superscripts are bad characters, not letters, and so are
    # "1" (an empty box is ".") and control characters, "\x01" (letter 1's byte) among them
    cases = [("..x.", "x", 3), ("\u0663.\u0662", "\u0663", 1), ("2\u00b2", "\u00b2", 2),
             ("..1", "1", 3), ("2\x01", "\x01", 2), ("\x05.2", "\x05", 1), ("2.\t3", "\t", 3)]
    for text, char, pos in cases:
        code, _, err = run_cli(monkeypatch, capsys, ["evolve"], text + "\n")
        assert code == 2
        assert err == f"error: bad path character {char!r} at position {pos}\n"


def test_evolve_bad_operator(monkeypatch, capsys):
    code, _, err = run_cli(monkeypatch, capsys, ["evolve", "--operator", "Tx"], "..2\n")
    assert code == 2
    assert "operator" in err


@pytest.mark.parametrize("operator", ["Tl:inf", "Tl:infinity"])
def test_evolve_unbounded_carrier_is_time_step(monkeypatch, capsys, operator):
    rows = []
    for op in ("T", operator):
        code, out, _ = run_cli(
            monkeypatch, capsys, ["evolve", "--steps", "3", "--operator", op], COLOURED_ROWS[0]
        )
        assert code == 0
        rows.append(out.splitlines())
    assert rows[0] == rows[1] == [f"t={t:<4} {row}" for t, row in enumerate(COLOURED_ROWS)]


def test_evolve_decoding_operator(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch, capsys, ["evolve", "--steps", "1", "--operator", "Tnat"], "55432..\n"
    )
    assert code == 0
    assert out.splitlines() == ["t=0    55432..", "t=1    .55422."]


def test_evolve_json_output(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch, capsys, ["evolve", "--steps", "1", "--json"], MONO_ROWS[0] + "\n"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["state"] == MONO_ROWS[0].rstrip(".")
    assert doc["rows"][1]["state"] == MONO_ROWS[1].rstrip(".")
    assert doc["rows"][0]["n"] == 2


def test_evolve_json_document_input(monkeypatch, capsys):
    doc = json.dumps({"n": 5, "mode": "basic", "state": COLOURED_ROWS[0]})
    code, out, _ = run_cli(monkeypatch, capsys, ["evolve", "--steps", "1"], doc)
    assert code == 0
    assert out.splitlines()[1].split()[1] == COLOURED_ROWS[1].rstrip(".")


def test_evolve_inhom_document(monkeypatch, capsys):
    doc = json.dumps(
        {
            "n": 3,
            "mode": "inhom",
            "tail_capacity": 1,
            "sites": [
                {"capacity": 2, "counts": [1, 0, 1]},
                {"capacity": 1, "counts": [1, 0, 0]},
            ],
        }
    )
    code, out, _ = run_cli(monkeypatch, capsys, ["evolve", "--steps", "1"], doc)
    assert code == 0
    assert out.splitlines() == ["t=0    [1,0,1]", "t=1    [2,0,0][0,0,1]"]


def test_evolve_inhom_capacity_mismatch(monkeypatch, capsys):
    doc = json.dumps(
        {"n": 3, "mode": "inhom", "sites": [{"capacity": 3, "counts": [1, 0, 1]}]}
    )
    code, _, err = run_cli(monkeypatch, capsys, ["evolve"], doc)
    assert code == 2
    assert "sum" in err


def test_separate_golden_table(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["separate"], COLOURED_ROWS[0] + "\n")
    assert code == 0
    rows, removals = S_TABLES[0]
    expected = [
        f"s={s:<4} {row}" + (f" {removals[s]}" if s < len(removals) else "")
        for s, row in enumerate(rows)
    ]
    expected.append("word  " + WORD)
    assert out.splitlines() == expected


def test_separate_monochrome_input(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["separate"], "..2\n")
    assert code == 0
    assert out.splitlines() == ["s=0    ..2", "word  "]


VACUUM_GOLDEN = {  # a vacuum path of either kind prints one empty box
    "evolve": (["evolve", "--steps", "2"], "t=0    .\nt=1    .\nt=2    .\n"),
    "separate": (["separate"], "s=0    .\nword  \n"),
}
VACUUM_DOCUMENTS = [
    {"n": 3, "state": [1, 1]}, {"n": 3, "state": "."}, {"n": 12, "state": [1]},
    {"n": 12, "state": []}, {"n": 3, "mode": "inhom", "sites": []},
    {"n": 12, "mode": "inhom", "tail_capacity": 2, "sites": []},
]


@pytest.mark.parametrize("doc", VACUUM_DOCUMENTS, ids=json.dumps)
@pytest.mark.parametrize("command", list(VACUUM_GOLDEN))
def test_a_vacuum_document_prints_one_empty_box(monkeypatch, capsys, command, doc):
    argv, expected = VACUUM_GOLDEN[command]
    assert run_cli(monkeypatch, capsys, argv, json.dumps(doc)) == (0, expected, "")
    assert parse_state(expected.split()[1]) == BasicPath((), 2)  # the cell reads back


def test_separate_large_alphabet_word_is_comma_separated(monkeypatch, capsys):
    doc = json.dumps({"n": 12, "state": [12, 3, 1, 2, 11]})
    code, out, _ = run_cli(monkeypatch, capsys, ["separate"], doc)
    assert code == 0
    assert out.splitlines() == [
        "s=0    12,3,.,2,11,.,.,. 11",
        "s=1    .,12,2,3,.,2,.,. 2",
        "s=2    .,.,2,12,2,3,.,. 3",
        "s=3    .,.,2,.,2,12,2,. 12",
        "s=4    .,.,2,.,2,.,2,2",
        "word  12,3,2,11",
    ]


def test_separate_json_round_trip(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch, capsys, ["separate", "--json"], COLOURED_ROWS[0] + "\n"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["word"] == WORD
    rebuilt = combine(
        BasicPath.from_string(doc["monochrome"], doc["n"]),
        tuple(int(c) for c in doc["word"]),
    )
    assert rebuilt == BasicPath.from_string(COLOURED_ROWS[0])
    assert doc["steps"][0]["removed"] == 2


INHOM_TAIL_2 = {
    "n": 3,
    "mode": "inhom",
    "tail_capacity": 2,
    "sites": [
        {"capacity": 2, "counts": [0, 1, 1]},
        {"capacity": 1, "counts": [0, 0, 1]},
        {"capacity": 3, "counts": [2, 1, 0]},
    ],
}

JSON_GOLDEN = {
    "separate-inhom": (
        ["separate", "--json"],
        INHOM_TAIL_2,
        '{"n": 3, "mode": "inhom", "monochrome": [[1, 1, 0], [1, 0, 0], [0, 3, 0]], '
        '"word": "33", "steps": [{"s": 0, "state": [[0, 1, 1], [0, 0, 1], [2, 1, 0]], '
        '"removed": 3}, {"s": 1, "state": [[1, 1, 0], [0, 0, 1], [1, 2, 0]], "removed": 3}, '
        '{"s": 2, "state": [[1, 1, 0], [1, 0, 0], [0, 3, 0]]}], "tail_capacity": 2}\n',
    ),
    "evolve-inhom": (
        ["evolve", "--json", "--steps", "2"],
        INHOM_TAIL_2,
        '{"steps": 2, "rows": [{"n": 3, "mode": "inhom", "tail_capacity": 2, "sites": '
        '[{"capacity": 2, "counts": [0, 1, 1]}, {"capacity": 1, "counts": [0, 0, 1]}, '
        '{"capacity": 3, "counts": [2, 1, 0]}]}, {"n": 3, "mode": "inhom", "tail_capacity": 2, '
        '"sites": [{"capacity": 2, "counts": [2, 0, 0]}, {"capacity": 1, "counts": [0, 1, 0]}, '
        '{"capacity": 3, "counts": [1, 0, 2]}, {"capacity": 2, "counts": [1, 1, 0]}]}, '
        '{"n": 3, "mode": "inhom", "tail_capacity": 2, "sites": [{"capacity": 2, "counts": '
        '[2, 0, 0]}, {"capacity": 1, "counts": [1, 0, 0]}, {"capacity": 3, "counts": [2, 1, 0]}, '
        '{"capacity": 2, "counts": [1, 0, 1]}, {"capacity": 2, "counts": [0, 1, 1]}]}]}\n',
    ),
    "evolve-n12": (
        ["evolve", "--json", "--steps", "2"],
        {"n": 12, "state": [12, 3, 1, 11, 2]},
        '{"steps": 2, "rows": [{"n": 12, "mode": "basic", "state": [12, 3, 1, 11, 2]}, '
        '{"n": 12, "mode": "basic", "state": [1, 1, 12, 3, 1, 11, 2]}, '
        '{"n": 12, "mode": "basic", "state": [1, 1, 1, 1, 12, 3, 1, 11, 2]}]}\n',
    ),
}


@pytest.mark.parametrize("argv, doc, expected", JSON_GOLDEN.values(), ids=list(JSON_GOLDEN))
def test_json_output_golden_bytes(monkeypatch, capsys, argv, doc, expected):
    code, out, _ = run_cli(monkeypatch, capsys, argv, json.dumps(doc))
    assert code == 0
    assert out == expected


INHOM_TRACE_DOC = (
    '{"n": 3, "mode": "inhom", "tail_capacity": 2, "sites": [{"capacity": 2, "counts": [0, 1, 1]}]}'
)
TRACE_GOLDEN = {
    "55432..": """\
s=0    55432.... 3
s=1    .55422... 4
s=2    ..55222.. 5
s=3    ...52222. 5
s=4    ....22222
word  5543
trace s=0 ([1/3]) 1:d 2:f 3:f 4:f 5:e 6:b
trace s=1 ([1/4]) 1:a 2:d 3:f 4:f 5:e 6:e 7:b
trace s=2 ([1/5]) 1:a 2:a 3:d 4:f 5:e 6:e 7:e 8:b
trace s=3 ([1/5]) 1:a 2:a 3:a 4:d 5:e 6:e 7:e 8:e 9:b
""",
    "55432.....542....2": """\
s=0    55432.....542....2.. 2
s=1    .55422.....532...4.. 4
s=2    ..55222.....432..5.. 5
s=3    ...52222....543...2. 2
s=4    ....22222...554...3. 3
s=5    ....22222....552..4. 4
s=6    ....22222.....522.5. 5
s=7    ....22222......2225. 5
s=8    ....22222......222.2
word  55432542
trace s=0 ([1/2]) 1:d 2:f 3:f 4:f 5:e 6:b 7:a 8:a 9:a 10:a 11:d 12:f 13:e 14:b 15:a 16:a 17:a 18:c
trace s=1 ([1/4]) 1:a 2:d 3:f 4:f 5:e 6:e 7:b 8:a 9:a 10:a 11:a 12:d 13:e 14:e 15:b 16:a 17:a 18:c
trace s=2 ([1/5]) 1:a 2:a 3:d 4:f 5:e 6:e 7:e 8:b 9:a 10:a 11:a 12:a 13:c 14:c 15:c 16:a 17:a 18:d 19:b
trace s=3 ([1/2]) 1:a 2:a 3:a 4:d 5:e 6:e 7:e 8:e 9:b 10:a 11:a 12:a 13:c 14:c 15:c 16:a 17:a 18:a 19:c
trace s=4 ([1/3]) 1:a 2:a 3:a 4:a 5:c 6:c 7:c 8:c 9:c 10:a 11:a 12:a 13:d 14:f 15:f 16:b 17:a 18:a 19:c
trace s=5 ([1/4]) 1:a 2:a 3:a 4:a 5:c 6:c 7:c 8:c 9:c 10:a 11:a 12:a 13:a 14:d 15:f 16:e 17:b 18:a 19:c
trace s=6 ([1/5]) 1:a 2:a 3:a 4:a 5:c 6:c 7:c 8:c 9:c 10:a 11:a 12:a 13:a 14:a 15:d 16:e 17:e 18:b 19:c
trace s=7 ([1/5]) 1:a 2:a 3:a 4:a 5:c 6:c 7:c 8:c 9:c 10:a 11:a 12:a 13:a 14:a 15:a 16:c 17:c 18:c 19:d 20:b
""",
    '{"n": 12, "state": [12, 3, 1, 11, 2]}': """\
s=0    12,3,.,11,2,.,.,. 11
s=1    .,12,2,.,3,2,.,. 2
s=2    .,.,2,2,12,3,.,. 3
s=3    .,.,2,2,.,12,2,. 12
s=4    .,.,2,2,.,.,2,2
word  12,3,2,11
trace s=0 ([1/11]) 1:d 2:f 3:b 4:d 5:e 6:b
trace s=1 ([1/2]) 1:a 2:d 3:e 4:b 5:c 6:c
trace s=2 ([1/3]) 1:a 2:a 3:c 4:c 5:d 6:f 7:b
trace s=3 ([1/12]) 1:a 2:a 3:c 4:c 5:a 6:d 7:e 8:b
""",
    INHOM_TRACE_DOC: """\
s=0    [0,1,1] 3
s=1    [1,1,0][1,1,0]
word  3
trace s=0 ([1/3]) 1:IV 2:I
""",
}


@pytest.mark.parametrize("text, expected", TRACE_GOLDEN.items(),
                         ids=["short", "basic", "n12-json", "inhom-json"])
def test_separate_trace_lists_case_tags(monkeypatch, capsys, text, expected):
    code, out, _ = run_cli(monkeypatch, capsys, ["separate", "--trace"], text + "\n")
    assert code == 0
    trace_lines = [line for line in out.splitlines() if line.startswith("trace")]
    first = "1:IV" if "inhom" in text else "1:d"
    assert trace_lines and first in trace_lines[0]
    assert out == expected


def test_verify_chains_cli(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["verify", "chains"])
    assert code == 0
    assert out.startswith("pass")


def test_verify_braid_cli(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch, capsys, ["verify", "braid", "--n", "3", "--shapes", "3,1,c"]
    )
    assert code == 0
    assert "symmetric-group" in out


def test_verify_composition_cli(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch,
        capsys,
        ["verify", "composition", "--l", "2", "--carriers", "1", "--boxes", "1", "--n", "3"],
    )
    assert code == 0


def test_verify_decomposition_cli(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["verify", "decomposition", "--json"])
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert all(r["result"] == "pass" for r in reports)
    assert len(reports) == 6


def test_verify_theorem_cli(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch,
        capsys,
        ["verify", "theorem", "--n", "4", "--count", "20", "--seed", "42", "--json"],
    )
    assert code == 0
    assert json.loads(out.splitlines()[0])["result"] == "pass"


def test_verify_theorem_cli_inhom(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch,
        capsys,
        ["verify", "theorem", "--mode", "inhom", "--n", "4", "--count", "10",
         "--seed", "1", "--capacities", "1,inf"],
    )
    assert code == 0


VERIFY_GOLDEN = [  # argv, then the (relation, domain) of each report, in order
    ("braid --n 3 --shapes 3,1,c",
     [("symmetric-group[(3,),(1,),(1, 1); n=3; exhaustive]", 90)]),
    ("braid --n 4 --shapes 2,2,2 --count 50 --seed 42",
     [("symmetric-group[(2,),(2,),(2,); n=4; random]", 50)]),
    ("composition --l 2 --carriers 2 --boxes 2 --n 3",
     [("carrier-composition[l=2,N=2,L=2,n=3;exhaustive]", 486)]),
    ("composition --l 2 --carriers 2 --boxes 2 --n 3 --count 30 --seed 7",
     [("carrier-composition[l=2,N=2,L=2,n=3;random]", 30)]),
    ("theorem --count 5", [("theorem[mode=basic, n<=3, count=5, seed=0]", 20)]),
    ("theorem --mode inhom --count 5", [("theorem[mode=inhom, n<=3, count=5, seed=0]", 20)]),
    ("image --mode inhom --size 3", [("image[mode=inhom, n=3, size=3]", 464)]),
    ("chains", [("highest-weight-chains", 36)]),
    ("decomposition", [
        ("decomposition[(2,)x(1,), n=3]", 18),
        ("decomposition[(3,)x(1,)x(1, 1), n=5]", 1750),
        ("decomposition[(3,)x(1,)x(1, 1), n=3]", 90),
        ("decomposition[(3,)x(2,)x(1, 1), n=5]", 5250),
        ("decomposition[(3,)x(2,)x(1, 1), n=3]", 180),
        ("decomposition[(2,)x(2,)x(1, 1), n=3]", 108),
    ]),
]


@pytest.mark.parametrize("args, reports", VERIFY_GOLDEN, ids=[args for args, _ in VERIFY_GOLDEN])
def test_verify_json_golden(monkeypatch, capsys, args, reports):
    """Each verify parser row runs its own check: a row wired to another runner fails."""
    code, out, _ = run_cli(monkeypatch, capsys, ["verify", *args.split(), "--json"])
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert [(d["relation"], d["domain"], d["result"]) for d in docs] == [
        (relation, domain, "pass") for relation, domain in reports
    ]


def test_verify_failure_sets_exit_code(monkeypatch, capsys):
    stub = boxball.verify.RelationReport("stub", 1, "boom", 0.0)
    monkeypatch.setattr(boxball.verify, "check_highest_weight_chains", lambda: stub)
    code, out, _ = run_cli(monkeypatch, capsys, ["verify", "chains"])
    assert code == 1
    assert "fail" in out and "boom" in out


def test_verify_oracle_checks_one_pair_or_the_default_pairs(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["verify", "oracle", "--json"])
    assert (code, err) == (0, "")
    assert [(d["relation"], d["result"]) for d in map(json.loads, out.splitlines())] == [
        (f"oracle[{a}x{b}, n={n}]", "pass") for a, b, n in boxball.verify.ORACLE_PAIRS]
    assert len(boxball.verify.ORACLE_PAIRS) == 7
    code, out, _ = run_cli(monkeypatch, capsys,
                           ["verify", "oracle", "--shapes", "3,c", "--n", "4"])
    assert code == 0 and out.startswith("pass  oracle[(3,)x(1, 1), n=4] (domain 120, ")
    code, out, _ = run_cli(monkeypatch, capsys, ["verify", "oracle", "--shapes", "2,1"])
    assert code == 0 and out.startswith("pass  oracle[(2,)x(1,), n=3] (domain 18, ")
    for flags, message in [
        ("--n 4", "--n needs --shapes; the default pairs name their own alphabets"),
        ("--shapes 3,c,1", "--shapes '3,c,1' names 3 shapes; the oracle takes 2"),
    ]:
        assert run_cli(monkeypatch, capsys, ["verify", "oracle", *flags.split()]) == (
            2, "", f"error: {message}\n")


def test_a_planted_swap_pair_fault_fails_verify_oracle(monkeypatch, capsys):
    """A `swap_pair` that swaps a row and a box plainly in the bump case: `verify oracle`
    exits 1 and names one counterexample line under each pair it breaks."""
    real = boxball.verify.swap_pair

    def planted(left, right):
        res = real(left, right)
        plain = boxball.isomorphisms.SwapResult(right, left, res.case_tag)
        return plain if res.case_tag == "bump" else res

    monkeypatch.setattr(boxball.verify, "swap_pair", planted)
    code, out, err = run_cli(monkeypatch, capsys,
                             ["verify", "oracle", "--shapes", "3,1", "--n", "4"])
    assert (code, err) == (1, "")
    head, counterexample = out.splitlines()
    assert head.startswith("fail  oracle[(3,)x(1,), n=4] (domain 80, ")
    assert counterexample == "      <111>*<2> -> <2>*<111>, oracle says <1>*<112>"
    code, out, _ = run_cli(monkeypatch, capsys, ["verify", "oracle"])
    lines = out.splitlines()
    assert code == 1 and len(lines) == 9
    assert [line[:4] for line in lines if not line.startswith(" ")] == [
        "fail", "pass", "pass", "pass", "fail", "pass", "pass"]


def test_a_path_relation_is_a_subcommand(monkeypatch, capsys):
    def planted(p, record, cap):  # fails on paths of more than 5 boxes
        return f"{len(p.sites)} boxes" if len(p.sites) > 5 else None

    monkeypatch.setitem(boxball.verify.PATH_RELATIONS, "planted", planted)
    argv = ["verify", "planted", "--mode", "inhom", "--capacities", "1,inf",
            "--n", "4", "--count", "20", "--seed", "3"]
    code, out, _ = run_cli(monkeypatch, capsys, argv)
    assert code == 1
    assert out.startswith("fail  planted[mode=inhom, n<=4, count=20, seed=3] (domain 40, ")
    assert out.splitlines()[1].endswith(" boxes")


def test_a_fault_raised_in_a_suite_fails_it(monkeypatch, capsys, full_carrier_swaps_plainly):
    argv = ["verify", "theorem", "--mode", "inhom", "--n", "4", "--count", "50"]
    code, out, err = run_cli(monkeypatch, capsys, argv)
    assert (code, err) == (1, "")
    assert out.startswith("fail  theorem[mode=inhom, n<=4, count=50, seed=0]")
    assert out.splitlines()[1].startswith("      path #0 ")
    assert out.splitlines()[1].endswith(": raised RuntimeError: carrier sweep failed to unload; "
                                         "this is a bug")


@pytest.mark.parametrize("check, flags", [("theorem", "--count 3"), ("image", "--size 2")],
                         ids=["theorem", "image"])
def test_any_exception_of_separate_fails_a_suite_without_a_traceback(monkeypatch, capsys,
                                                                      check, flags):
    def planted(p):
        raise IndexError("planted")

    monkeypatch.setattr(boxball.verify, "separate", planted)
    code, out, err = run_cli(monkeypatch, capsys, ["verify", check, *flags.split()])
    assert (code, err) == (1, "")
    assert out.startswith(f"fail  {check}[")
    assert out.splitlines()[1].endswith(" raised IndexError: planted")


@pytest.mark.parametrize("check, core, fires", [
    ("braid", "col_box_core", lambda top, bottom, g: g == top),
    ("composition", "col_box_core", lambda top, bottom, g: g == top),
    ("chains", "col_row_core", lambda *args: True),
], ids=["braid", "composition", "chains"])
def test_a_core_that_raises_fails_a_crystal_suite_without_a_traceback(monkeypatch, capsys,
                                                                     check, core, fires):
    real = getattr(boxball.isomorphisms, core)

    def planted(*args):
        if fires(*args):
            raise IndexError(f"planted in {core}")
        return real(*args)

    monkeypatch.setattr(boxball.isomorphisms, core, planted)
    code, out, err = run_cli(monkeypatch, capsys, ["verify", check])
    assert (code, err) == (1, "")
    assert out.startswith("fail  ")
    assert out.splitlines()[1].strip() == f"raised IndexError: planted in {core}"


def test_a_combine_that_accepts_nothing_fails_the_image_check(monkeypatch, capsys):
    """`combine` must give back every path of the domain from its `separate` record: a
    check of the pairs it accepts alone passes when it accepts none."""
    def planted(mono, word):
        raise InvalidWordError("planted")

    monkeypatch.setattr(boxball.verify, "combine", planted)
    rep = boxball.verify.check_image("basic", 3, 4)
    assert (rep.passed, rep.domain) == (False, 0)
    # the first path is the vacuum path
    assert rep.counterexample == "combine(separate()) raised InvalidWordError: planted"
    code, out, err = run_cli(monkeypatch, capsys, ["verify", "image"])
    assert (code, err) == (1, "")
    assert out.startswith("fail  image[mode=basic, n=3, size=4]")


def test_domain_cap_env_is_respected(monkeypatch, capsys):
    # 2,131,746,903 elements, far past crystals.MAX_DOMAIN
    code, _, err = run_cli(
        monkeypatch, capsys, ["verify", "braid", "--n", "9", "--shapes", "5,5,5"]
    )
    assert code == 2
    assert "cap" in err


def test_a_random_domain_above_the_cap_is_refused(monkeypatch, capsys):
    def no_draw(*args):
        raise AssertionError("a random element was drawn")

    monkeypatch.setattr("boxball.verify.random_tensor", no_draw)
    code, out, err = run_cli(monkeypatch, capsys, ["verify", "braid", "--count", "1000001"])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "cap is 1000000" in err


def test_bad_shapes_flag(monkeypatch, capsys):
    code, _, err = run_cli(
        monkeypatch, capsys, ["verify", "braid", "--shapes", "3,zz"]
    )
    assert code == 2
    assert "shape" in err


def test_empty_input_rejected(monkeypatch, capsys):
    code, _, err = run_cli(monkeypatch, capsys, ["evolve"], "\n")
    assert code == 2
    assert "empty" in err


BAD_INPUTS = {
    "missing-file": (["evolve", "missing.txt"], {}),
    "file-not-utf8": (["evolve", "binary.txt"], {}),
    "stdin-not-utf8": (["separate"], {}),  # reads `BAD_STDIN`, not ".2.\n"
    "capacity-not-int": (["verify", "theorem", "--capacities", "1,x"], {}),
    "capacity-zero": (["verify", "theorem", "--capacities", "0"], {}),
    "braid-n1": (["verify", "braid", "--n", "1"], {}),
    "composition-n1": (["verify", "composition", "--n", "1"], {}),
    "theorem-n1": (["verify", "theorem", "--n", "1"], {}),
    "conservation-removed": (["verify", "conservation"], {}),  # theorem checks the word
    "shape-zero": (["verify", "braid", "--shapes", "0"], {}),
    "row-capacity-zero": (["verify", "composition", "--l", "0"], {}),
    "carriers-negative": (["verify", "composition", "--carriers", "-1"], {}),
    "carriers-zero": (["verify", "composition", "--carriers", "0"], {}),
    "boxes-zero": (["verify", "composition", "--boxes", "0"], {}),
    "braid-one-shape": (["verify", "braid", "--shapes", "c"], {}),
    "chains-reads-no-n": (["verify", "chains", "--n", "3"], {}),
    "decomposition-reads-no-count": (["verify", "decomposition", "--count", "5"], {}),
    "steps-negative": (["evolve", "--steps", "-3"], {}),
    "steps-past-ssize-t": (["evolve", "--steps", "99999999999999999999"], {}),
    "steps-over-the-table-cap": (["evolve", "--steps", "1000000000000000000"], {}),
    "operator-capacity-zero": (["evolve", "--operator", "Tl:0"], {}),
    "operator-capacity-not-int": (["evolve", "--operator", "Tl:x"], {}),
    "count-negative": (["verify", "theorem", "--count", "-5"], {}),
    "steps-not-int": (["evolve", "--steps", "x"], {}),
    "unknown-flag": (["evolve", "--bogus"], {}),
    "shapes-missing-value": (["verify", "braid", "--shapes", "-1,1"], {}),
    "count-zero-theorem": (["verify", "theorem", "--count", "0"], {}),
    "count-zero-braid": (["verify", "braid", "--count", "0"], {}),
    "doc-n-float": (["evolve", "n-float.json"], {}),
    "doc-n-string": (["evolve", "n-string.json"], {}),
    "doc-capacity-float": (["evolve", "capacity-float.json"], {}),
    "doc-counts-float": (["evolve", "counts-float.json"], {}),
    "doc-counts-string": (["evolve", "counts-string.json"], {}),
    "doc-tail-float": (["evolve", "tail-float.json"], {}),
    "doc-tail-bool": (["evolve", "tail-bool.json"], {}),
    "doc-sites-object": (["evolve", "sites-object.json"], {}),
    "doc-sites-string": (["evolve", "sites-string.json"], {}),
    "doc-site-int": (["evolve", "site-int.json"], {}),
    "doc-counts-int": (["evolve", "counts-int.json"], {}),
    "doc-state-object": (["evolve", "state-object.json"], {}),
    "doc-state-empty": (["evolve", "state-empty.json"], {}),
    "doc-state-int": (["evolve", "state-int.json"], {}),
    "digit-arabic-indic": (["separate", "arabic-indic.txt"], {}),
    "digit-superscript": (["separate", "superscript.txt"], {}),
    "ascii-second-line": (["separate", "two-lines.txt"], {}),
    "separate-json-trace": (["separate", "--json", "--trace"], {}),  # JSON carries no trace
    "doc-nested-too-deep": (["separate", "nested.json"], {}),
    "doc-letter-huge": (["separate", "letter-huge.json"], {}),
    "doc-n-huge": (["evolve", "n-huge.json"], {}),
    "doc-tail-huge": (["evolve", "tail-huge.json"], {}),
    "doc-mode-unknown": (["evolve", "mode-unknown.json"], {}),
    "doc-mode-null": (["evolve", "mode-null.json"], {}),
    "doc-mode-list": (["evolve", "mode-list.json"], {}),
    "doc-state-missing": (["evolve", "state-missing.json"], {}),
    "doc-n-missing": (["evolve", "n-missing.json"], {}),
    "doc-capacity-missing": (["evolve", "capacity-missing.json"], {}),
    "doc-letter-out-of-range": (["evolve", "letter-out-of-range.json"], {}),
    "doc-counts-short": (["evolve", "counts-short.json"], {}),
    "doc-ascii-payload-n12": (["evolve", "ascii-payload-n12.json"], {}),
    "ascii-n12": (["separate", "--n", "12"], {}),
    "theorem-n-huge": (["verify", "theorem", "--n", "1000000", "--count", "3"], {}),
    "braid-n-over-cap": (["verify", "braid", "--n", "256", "--count", "3"], {}),
    "evolve-n-over-cap": (["evolve", "--n", "256"], {}),
    "doc-n-over-cap": (["evolve", "--operator", "Tl:inf", "n-over-cap.json"], {}),
    "image-n1": (["verify", "image", "--n", "1"], {}),
    "image-size-zero": (["verify", "image", "--size", "0"], {}),
    "image-over-cap": (["verify", "image", "--mode", "basic", "--n", "9", "--size", "12"], {}),
    "image-pairs-over-cap": (["verify", "image", "--mode", "inhom", "--n", "8", "--size", "1"], {}),
    "theorem-count-over-cap": (["verify", "theorem", "--count", "2000000"], {}),
    "carriers-over-cap": (["verify", "composition", "--carriers", "1000000000"], {}),
    "boxes-over-cap": (["verify", "composition", "--boxes", "1000000000"], {}),
    "row-over-cap": (["verify", "composition", "--l", "1000000000000", "--count", "1"], {}),
    "braid-columns-over-cap": (["verify", "braid", "--shapes", ",".join(["c"] * 1000),
                                "--n", "255"], {}),
    "composition-columns-over-cap": (["verify", "composition", "--carriers", "60000",
                                      "--n", "255"], {}),
    "composition-work-over-cap": (["verify", "composition", "--carriers", "999", "--boxes",
                                   "999", "--count", "1000000"], {}),
    "composition-exhaustive-work-over-cap": (["verify", "composition", "--n", "2",
                                              "--carriers", "200", "--boxes", "10"], {}),
}

BAD_STDIN = {"stdin-not-utf8": b".2\xff\n"}

# ASCII paths admit only '.' and the ASCII digits 2..9, on one line; a JSON document
# nested deeper than the decoder's recursion limit is bad JSON too
BAD_TEXTS = {
    "arabic-indic.txt": "\u0663.\u0662\n",
    "superscript.txt": "2\u00b2\n",
    "two-lines.txt": "2.3\n4..\n",
    "nested.json": '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}",
    # ints of 5,000 digits, which json.loads refuses under Python's int-to-str digit limit
    "letter-huge.json": '{"n": 5, "state": [' + "1" * 5000 + "]}",
    "n-huge.json": '{"n": ' + "1" * 5000 + ', "state": [2]}',
    "tail-huge.json": '{"n": 3, "mode": "inhom", "tail_capacity": ' + "1" * 5000
                      + ', "sites": [{"capacity": 1, "counts": [0, 1, 0]}]}',
}


def _inhom_document(capacity=1, counts=(0, 1, 0), tail=1):
    sites = [{"capacity": capacity, "counts": list(counts)}]
    return {"n": 3, "mode": "inhom", "tail_capacity": tail, "sites": sites}


BAD_DOCUMENTS = {
    "n-float.json": {"n": 2.7, "state": ".2."},
    "n-string.json": {"n": "5", "state": ".2."},
    "capacity-float.json": _inhom_document(capacity=1.0),
    "counts-float.json": _inhom_document(counts=(0, 1.0, 0)),
    "counts-string.json": _inhom_document(counts=(0, "1", 0)),
    "tail-float.json": _inhom_document(tail=2.7),
    "tail-bool.json": _inhom_document(tail=True),
    "sites-object.json": {"n": 3, "mode": "inhom", "sites": {}},
    "sites-string.json": {"n": 3, "mode": "inhom", "sites": "ab"},
    "site-int.json": {"n": 3, "mode": "inhom", "sites": [5]},
    "counts-int.json": {"n": 3, "mode": "inhom", "sites": [{"capacity": 1, "counts": 5}]},
    "state-object.json": {"n": 3, "state": {"2": 1}},
    "state-empty.json": {"n": 3, "state": ""},
    "state-int.json": {"n": 3, "state": 5},
    "mode-unknown.json": {"n": 3, "mode": "foo", "state": "."},
    "mode-null.json": {"n": 3, "mode": None, "state": "."},
    "mode-list.json": {"n": 3, "mode": ["basic"], "state": "."},
    "state-missing.json": {"n": 3, "mode": "basic"},
    "n-missing.json": {"state": "2."},
    "capacity-missing.json": {"n": 3, "mode": "inhom", "sites": [{"counts": [0, 1, 0]}]},
    "letter-out-of-range.json": {"n": 3, "state": [7]},
    "counts-short.json": _inhom_document(counts=(0, 1)),
    "ascii-payload-n12.json": {"n": 12, "state": "2."},
    "n-over-cap.json": {"n": 100_000_000, "state": [3]},  # a 10^8-entry carrier, if built
}


@pytest.mark.parametrize(
    "name, message",
    [
        ("sites-object.json", "sites must be a list, got {}"),
        ("sites-string.json", 'sites must be a list, got "ab"'),
        ("site-int.json", "site 1 must be an object, got 5"),
        ("counts-int.json", "site 1 counts must be a list, got 5"),
        ("state-object.json", 'state must be a string or a list, got {"2": 1}'),
        ("state-empty.json", "empty input state"),
        ("state-int.json", "state must be a string or a list, got 5"),
        ("mode-unknown.json", "unknown mode 'foo'"),
        ("mode-null.json", "mode must be a string, got null"),
        ("mode-list.json", 'mode must be a string, got ["basic"]'),
        ("state-missing.json", "state document is missing field 'state'"),
        ("n-missing.json", "state document is missing field 'n'"),
        ("capacity-missing.json", "state document is missing field 'capacity'"),
        ("letter-out-of-range.json", "letters must be ints in 1..3: (7,)"),
        ("counts-short.json", "bad count vector at site 1: (0, 1)"),
        ("ascii-payload-n12.json", "ASCII payload needs n <= 9"),
    ],
)
def test_document_field_types_are_checked(name, message):
    from boxball.cli import CliError, parse_state

    with pytest.raises(CliError) as exc:
        parse_state(json.dumps(BAD_DOCUMENTS[name]))
    assert str(exc.value) == message


def test_ascii_input_refuses_an_alphabet_past_9(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["separate", "--n", "12"], "2.\n")
    assert (code, out) == (2, "")
    assert err == "error: ASCII mode supports n <= 9; use the JSON document form\n"


@pytest.mark.parametrize(
    "name, message",
    [
        ("theorem-n-huge", "alphabet of 1000000 letters, cap is 255"),
        ("braid-n-over-cap", "alphabet of 256 letters, cap is 255"),
        ("evolve-n-over-cap", "alphabet of 256 letters, cap is 255"),
        ("doc-n-over-cap", "alphabet of 100000000 letters, cap is 255"),
        ("image-over-cap", "basic paths of n=9 up to size 12: over the cap of 1000000"),
        ("theorem-count-over-cap", "path suite domain of 8000000 checks, cap is 1000000"),
        ("carriers-over-cap", "swap words of 2000000001 swaps, cap is 1000000"),
        ("boxes-over-cap", "swap words of 2000000001 swaps, cap is 1000000"),
        ("row-over-cap", "random elements of 1000000000003 letters, cap is 1000000"),
        ("braid-columns-over-cap",
         "product crystal of 1000 factors at n=255: over the cap of 1000000 elements"),
        ("composition-columns-over-cap",
         "product crystal of 60002 factors at n=255: over the cap of 1000000 elements"),
        ("composition-work-over-cap",
         "1000000 elements x 999999 swaps in each word, cap is 1000000"),
        ("composition-exhaustive-work-over-cap",
         "3072 elements x 2210 swaps in each word, cap is 1000000"),
    ],
)
def test_an_alphabet_over_the_cap_exits_2_with_its_message(tmp_path, monkeypatch, capsys,
                                                           name, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "n-over-cap.json").write_text(json.dumps(BAD_DOCUMENTS["n-over-cap.json"]))
    code, out, err = run_cli(monkeypatch, capsys, BAD_INPUTS[name][0], ".2.\n")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_text_table_over_its_cap_exits_2_before_any_step(monkeypatch, capsys):
    """A text table is aligned to its widest row, so `evolve` holds it whole: past
    `MAX_TABLE_STEPS` it refuses before it reads its input; `--json` streams on."""
    monkeypatch.setattr("boxball.cli._read_input", lambda args: pytest.fail("read the input"))
    over = str(MAX_TABLE_STEPS + 1)
    code, out, err = run_cli(monkeypatch, capsys, ["evolve", "--steps", over], ".2.\n")
    assert (code, out, err) == (2, "", f"error: a text table takes at most {MAX_TABLE_STEPS} "
                                       f"steps, got {over}; --json streams any number\n")
    past = str(sys.maxsize + 1)  # the `itertools.repeat` bound keeps its message, table or not
    for argv in (["evolve", "--steps", past], ["evolve", "--steps", past, "--json"]):
        code, out, err = run_cli(monkeypatch, capsys, argv, ".2.\n")
        assert (code, out, err) == (2, "", f"error: --steps must be <= {sys.maxsize}, got {past}\n")
    monkeypatch.undo()
    code, out, err = run_cli(monkeypatch, capsys, ["evolve", "--steps", over, "--json"], ".2.\n")
    assert (code, err) == (0, "") and len(json.loads(out)["rows"]) == MAX_TABLE_STEPS + 2


def test_the_largest_alphabet_is_taken(monkeypatch, capsys):
    doc = json.dumps({"n": 255, "state": [255, 1, 3]})
    code, out, err = run_cli(monkeypatch, capsys, ["separate", "--json"], doc)
    assert (code, err) == (0, "") and json.loads(out)["word"] == [255, 3]


@pytest.mark.parametrize("name", list(BAD_INPUTS))
def test_bad_input_exits_2_with_one_line(tmp_path, monkeypatch, capsys, name):
    argv, env = BAD_INPUTS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe.2\n")
    for file, doc in BAD_DOCUMENTS.items():
        (tmp_path / file).write_text(json.dumps(doc))
    for file, text in BAD_TEXTS.items():
        (tmp_path / file).write_text(text, encoding="utf-8")
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = run_cli(monkeypatch, capsys, argv, BAD_STDIN.get(name, ".2.\n"))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_stdin_that_is_not_utf8_is_reported_as_a_file_is(tmp_path, monkeypatch, capsys):
    (tmp_path / "bad.txt").write_bytes(BAD_STDIN["stdin-not-utf8"])
    for argv, source in ((["separate"], "stdin"), (["separate", str(tmp_path / "bad.txt")],
                                                    tmp_path / "bad.txt")):
        code, out, err = run_cli(monkeypatch, capsys, argv, BAD_STDIN["stdin-not-utf8"])
        assert (code, out, err) == (2, "", f"error: {source} is not UTF-8 text: "
                                           "invalid start byte\n")


_JUNK = (st.none() | st.booleans() | st.floats() | st.integers(-3, 300) | st.text(max_size=3)
         | st.lists(st.integers(-1, 3), max_size=3) | st.just({}))
# JSON a drawn field may hold through its mark: an int past Python's int-to-str digit limit,
# which json.dumps cannot write, and lists nested 1,000 deep
_HUGE = {"@int": "1" * 5000, "@nest": "[" * 1000 + "]" * 1000}


@st.composite
def state_documents(draw):
    """JSON state documents of n <= 5 and at most 4 sites of capacity <= 5, vacuum ones too,
    with up to two fields (a site's too) missing or of the wrong type, null and `_HUGE`
    included."""
    n = draw(st.integers(2, 5))
    letters = st.lists(st.integers(1, n), min_size=1, max_size=5)
    if draw(st.booleans()):
        doc = {"n": n, "state": draw(st.text(".23456789"[:n], max_size=6) | letters)}
    else:
        counts = st.builds(lambda vs: [vs.count(v) for v in range(1, n + 1)], letters)
        sites = [{"capacity": sum(c), "counts": c} for c in draw(st.lists(counts, max_size=4))]
        doc = {"n": n, "mode": "inhom", "tail_capacity": draw(st.integers(1, 3)), "sites": sites}
    objects = [doc, *doc.get("sites", [])]
    for _ in range(draw(st.integers(0, 2))):
        fields = draw(st.sampled_from(objects))
        if fields:
            key = draw(st.sampled_from(sorted(fields)))
            if draw(st.booleans()):
                del fields[key]
            else:
                fields[key] = draw(_JUNK | st.sampled_from(list(_HUGE)))
    text = json.dumps(doc)
    for mark, raw in _HUGE.items():
        text = text.replace(json.dumps(mark), raw)
    return text


ASCII_TEXTS = st.text(".23456789\n ", max_size=12) | st.text(st.characters(max_codepoint=127),
                                                             max_size=12)
_NUMBERS = st.sampled_from(["-1", "0", "1", "2", "3", str(10**12)])  # a numeric flag's values
_ALPHABETS = st.sampled_from(["-1", "1", "2", "3", "256"])
_LISTS = st.text("123c,x- ", max_size=4)  # short junk for --shapes and --capacities
_MODES = st.sampled_from(["basic", "inhom", "x"])
_SEEDED = {"--n": _ALPHABETS, "--seed": _NUMBERS, "--count": _NUMBERS}
# each command's flags and the values drawn for them (None: a switch, or one of the mutually
# exclusive switches "a | b"); evolve takes at most 2 steps, as its text table holds every
# row (ROADMAP item 21)
COMMAND_FLAGS = {
    "separate": {"--n": _ALPHABETS, "--trace | --json": None},
    "evolve": {"--n": _ALPHABETS, "--steps": st.sampled_from("012"), "--json": None,
               "--operator": st.sampled_from(["T", "Tnat", "Tl:0", "Tl:2", "Tl:inf", "Tl:x"])},
    "verify braid": {**_SEEDED, "--shapes": _LISTS, "--json": None},
    "verify composition": {**_SEEDED, "--l": _NUMBERS, "--carriers": _NUMBERS,
                           "--boxes": _NUMBERS, "--json": None},
    "verify theorem": {**_SEEDED, "--mode": _MODES, "--capacities": _LISTS | st.just("1,inf"),
                       "--json": None},
    "verify image": {"--n": _ALPHABETS, "--mode": _MODES, "--size": _NUMBERS, "--json": None},
    "verify oracle": {"--shapes": _LISTS, "--n": _ALPHABETS, "--json": None},
    "verify chains": {"--json": None},
    "verify decomposition": {"--json": None},
}


# the positional inputs `commands` draws, by their names in a temporary directory: a missing
# path, the directory itself, and a regular file holding the drawn bytes
_SOURCES = {"@missing": "missing", "@directory": "", "@file": "input"}


@st.composite
def commands(draw):
    """A command line of `COMMAND_FLAGS`, a command and some of its flags: `separate` or
    `evolve` half of the time, as only those read the drawn input, from stdin or from the
    positional input: `-`, or a mark of the test's `_SOURCES`."""
    command = draw(st.sampled_from(["separate", "evolve"]) | st.sampled_from(list(COMMAND_FLAGS)))
    argv = command.split()
    if argv[0] != "verify":
        argv += draw(st.sampled_from([[], ["-"], *([mark] for mark in _SOURCES)]))
    for flag, values in COMMAND_FLAGS[command].items():
        if draw(st.booleans()):
            if values is None:
                argv.append(draw(st.sampled_from(flag.split(" | "))))
            else:
                argv += [flag, draw(values)]
    return argv


COMMANDS = commands()
# stdin's bytes: the drawn documents and texts, UTF-8 encoded, or any bytes at all
INPUTS = (state_documents() | ASCII_TEXTS).map(str.encode) | st.binary(max_size=12)


def _is_utf8(data: bytes) -> bool:
    try:
        data.decode()
    except UnicodeDecodeError:
        return False
    return True


@settings(max_examples=800, deadline=None)
@given(COMMANDS, INPUTS)
def test_hostile_input_exits_0_or_2_and_prints_whole_rows(argv, data):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {mark: os.path.join(tmp, name) for mark, name in _SOURCES.items()}
        with open(paths["@file"], "wb") as fh:
            fh.write(data)
        source = next((paths[a] for a in argv if a in paths), "stdin")
        argv = [paths.get(a, a) for a in argv]
        with mock.patch("sys.stdin", stdin_of(data)), redirect_stdout(out), redirect_stderr(err):
            code = main(argv)  # no exception escapes
    out, err = out.getvalue(), err.getvalue()
    # a command whose flags pass reads its input first, and names an unreadable one
    if argv[0] != "verify" and ("--n" not in argv or argv[argv.index("--n") + 1] in ("2", "3")):
        if source in (paths["@missing"], paths["@directory"]):
            assert err.startswith(f"error: cannot read {source}: "), err
        elif not _is_utf8(data):
            assert err.startswith(f"error: {source} is not UTF-8 text: "), err
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        return
    assert (code, err) == (0, "")
    if argv[0] == "verify":  # every report passes
        lines = out.splitlines()
        if "--json" in argv:
            assert lines and all(json.loads(line)["result"] == "pass" for line in lines)
        else:
            assert lines and all(line.startswith("pass  ") for line in lines)
        return
    text = data.decode()  # the command read it, so it is UTF-8
    n = int(argv[argv.index("--n") + 1]) if "--n" in argv else None
    if "--json" in argv and argv[0] == "evolve":
        doc = json.loads(out)
        assert len(doc["rows"]) == doc["steps"] + 1
        assert parse_state(json.dumps(doc["rows"][0])) == parse_state(text, n)
        return
    if "--json" in argv:
        doc = json.loads(out)
        n, mono = doc["n"], doc["monochrome"]
        if doc["mode"] == "inhom":
            mono = InhomPath(tuple(map(tuple, mono)), n, doc["tail_capacity"])
        else:
            mono = BasicPath.from_string(mono, n) if n <= 9 else BasicPath(mono, n)
        assert combine(mono, tuple(map(int, doc["word"]))) == parse_state(text, n)
        return
    rows = [line for line in out.splitlines() if line[:2] in ("t=", "s=")]
    assert rows and all(line[7:8].strip() for line in rows), out  # every row has a cell


def test_state_render_parse_round_trip():
    import random

    from boxball.cli import parse_state
    from boxball.verify import random_basic_path, random_inhom_path

    rng = random.Random(5)
    for _ in range(50):
        p = random_basic_path(rng, rng.randint(2, 5), 30, 10)
        assert parse_state(p.render() or ".", p.n) == p
        assert parse_state(json.dumps(state_document(p))) == p
        q = random_inhom_path(rng, rng.randint(2, 5))
        assert parse_state(json.dumps(state_document(q))) == q
    for _ in range(20):
        p = random_basic_path(rng, 12, 30, 10)
        assert parse_state(json.dumps(state_document(p))) == p


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "boxball", "evolve", "--steps", "1", "-"],
        input=".22.\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "t=1    ...22"


@pytest.mark.parametrize("flags", [[], ["--json"], ["--trace"]])
def test_separate_decodes_once(monkeypatch, capsys, flags):
    passes = []

    def counted(p):
        passes.append(p)
        return decoding_pass(p)

    monkeypatch.setattr("boxball.separation.decoding_pass", counted)
    code, _, _ = run_cli(monkeypatch, capsys, ["separate", *flags], COLOURED_ROWS[0] + "\n")
    assert code == 0
    assert len(passes) == len(WORD)


def _seeded_inhom(seed, length, n=5):
    """`length` boxes of capacity 1..4, each slot holding a ball half the time."""
    rng = random.Random(seed)
    sites = []
    for _ in range(length):
        counts = [0] * n
        for _ in range(rng.randint(1, 4)):
            counts[rng.randint(2, n) - 1 if rng.random() < 0.5 else 0] += 1
        sites.append(tuple(counts))
    return InhomPath(tuple(sites), n, 2)


def _whole_document(argv, text):
    """What the CLI printed when it kept every row as a path: one `json.dumps`
    of the whole document, or a table of rows, basic ones as `render(width)` pads them."""
    state = parse_state(text)
    if argv[0] == "separate":
        steps = []
        record = separate(state, steps)
        if "--json" in argv:
            return json.dumps(separation_document(record, steps)) + "\n"
        rows = [(f"s={s.index:<4} ", s.state, "" if s.removed is None else f" {s.removed}")
                for s in steps]
        tail = "word  " + ("" if state.n <= 9 else ",").join(map(str, record.word)) + "\n"
    else:
        steps = int(argv[argv.index("--steps") + 1])
        ell = 3 if "Tl:3" in argv else None
        paths = [state]
        for _ in range(steps):
            paths.append(carrier_evolution(paths[-1], ell))  # T_inf is T
        if "--json" in argv:
            doc = {"steps": steps, "rows": [state_document(r) for r in paths]}
            return json.dumps(doc) + "\n"
        rows, tail = [(f"t={t:<4} ", r, "") for t, r in enumerate(paths)], ""
    ascii_width = 0 if text.startswith("{") else len(text.strip())
    width = max(ascii_width, *(len(r.sites) for _, r, _ in rows))
    cells = [r.render(width) if r.mode == "basic" else r.render() for _, r, _ in rows]
    return "".join(f"{head}{c}{end}\n" for (head, _, end), c in zip(rows, cells)) + tail


STREAM_INPUTS = {
    # ASCII with trailing dots: every row is padded to the input at first
    "basic": (seeded_basic_path(1, 60, 18, 6).render() or ".") + "......\n",
    # letters past 9 render comma-separated, and early rows pad with ',.'
    "n12": json.dumps(state_document(seeded_basic_path(2, 40, 12, 12))),
    "inhom": json.dumps(state_document(_seeded_inhom(3, 30))),
}
STREAM_COMMANDS = [
    ["separate"],
    ["separate", "--json"],
    ["evolve", "--steps", "12"],
    ["evolve", "--steps", "12", "--json"],
    ["evolve", "--steps", "12", "--operator", "Tl:3"],
    ["evolve", "--steps", "12", "--operator", "Tl:3", "--json"],
]


@pytest.mark.parametrize("argv", STREAM_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("kind", list(STREAM_INPUTS))
def test_streamed_output_equals_the_whole_document(monkeypatch, capsys, kind, argv):
    text = STREAM_INPUTS[kind]
    code, out, err = run_cli(monkeypatch, capsys, argv, text)
    assert code == 0 and err == ""
    assert out == _whole_document(argv, text)
    if argv[0] == "evolve" and "--json" not in argv and kind != "inhom":
        lines = out.splitlines()  # the rows grow past the input, so the first is padded
        assert lines[0].endswith(",.,." if kind == "n12" else "..")
        assert kind == "n12" or len(lines[-1]) - len("t=12   ") > len(text.strip())


def test_padded_large_alphabet_rows_match_render():
    paths = [BasicPath((), 12), BasicPath((12,), 12), BasicPath((1, 11, 3), 12)]
    rows = [("{}", p.render()) for p in paths]
    for text, width in (("{}", 3), ("." * 5, 5)):  # a JSON input, and a wider ASCII one
        out = io.StringIO()
        with redirect_stdout(out):
            _print_table(paths[0], text, rows)
        assert out.getvalue().splitlines() == [p.render(width) for p in paths]
    assert BasicPath((), 12).render(3) == ".,.,."


PIPE_CASES = {
    "evolve": (["evolve", "--steps", "300"], 2000),
    "separate": (["separate"], 2000),
    # output that fits one buffer meets the closed pipe at the final flush
    "final-flush": (["evolve", "--steps", "1"], 40),
}


@pytest.mark.parametrize("argv, length", PIPE_CASES.values(), ids=list(PIPE_CASES))
def test_closed_pipe_ends_quietly(tmp_path, argv, length):
    path = tmp_path / "long.txt"
    path.write_text(seeded_basic_path(4, length, length // 4, 6).render() + "\n")
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered stdout, as in a plain shell pipeline
    command = [sys.executable, "-m", "boxball", *argv, str(path)]
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    with subprocess.Popen(command, env=env, **pipes) as proc:
        if length > 1000:  # far past a pipe's buffer: the command is still writing
            assert proc.stdout.readline()[:2] in (b"t=", b"s=")
        proc.stdout.close()  # as `| head -n 1` does
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b""


def test_a_closed_pipe_in_process_returns_1_and_sends_stdout_to_devnull(tmp_path, monkeypatch,
                                                                       capsys):
    class ClosedPipe(io.StringIO):
        def __init__(self, fd):
            super().__init__()
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):  # a temporary file's descriptor, never this process's fd 1
            return self.fd

    def lowest_free_fd():
        fd = os.open(os.devnull, os.O_RDONLY)
        os.close(fd)
        return fd

    with open(tmp_path / "stdout.txt", "wb") as fh:
        monkeypatch.setattr("sys.stdout", ClosedPipe(fh.fileno()))
        monkeypatch.setattr("sys.stdin", io.StringIO("..2\n"))
        free = lowest_free_fd()
        assert main(["separate"]) == 1
        assert lowest_free_fd() == free  # the null device's descriptor is closed again
        os.write(fh.fileno(), b"after the pipe closed")  # goes to the null device now
    assert (tmp_path / "stdout.txt").read_bytes() == b""
    assert capsys.readouterr().err == ""


MEMORY_CASES = {
    "separate": ("basic", ["separate"]),
    "separate-json": ("basic", ["separate", "--json"]),
    "separate-json-inhom": ("inhom", ["separate", "--json"]),
    "evolve": ("basic", ["evolve", "--steps", "100"]),
    "evolve-json": ("basic", ["evolve", "--steps", "100", "--json"]),
}


@pytest.mark.parametrize("kind, argv", MEMORY_CASES.values(), ids=list(MEMORY_CASES))
def test_cli_memory_stays_bounded(tmp_path, monkeypatch, kind, argv):
    """The peak traced memory of a command is at most 3x the bytes it prints:
    rows are held as their text, not as paths.  The command runs once before
    it is measured, so one-time imports and the bounded core caches are not
    counted."""
    p = seeded_basic_path(5, 1000, 250, 6) if kind == "basic" else _seeded_inhom(6, 100)
    path = tmp_path / "state.txt"
    path.write_text(json.dumps(state_document(p)) if kind == "inhom" else p.render())
    argv = [*argv, str(path)]
    monkeypatch.setattr("sys.stdout", io.StringIO())
    assert main(argv) == 0  # the warm-up run
    out = io.StringIO()
    monkeypatch.setattr("sys.stdout", out)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    printed = len(out.getvalue())
    assert peak <= 3 * printed, f"peak {peak} bytes for {printed} bytes printed"
