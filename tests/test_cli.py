import io
import json
import subprocess
import sys

import pytest

import boxball.verify
from boxball.cli import main, state_document
from boxball.separation import combine
from boxball.dynamics import BasicPath, decoding_pass
from fixtures_data import COLOURED_ROWS, MONO_ROWS, S_TABLES, WORD


def run_cli(monkeypatch, capsys, argv, stdin_text=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
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
    # digits of other scripts and superscripts are bad characters, not letters
    cases = [("..x.", "x", 3), ("\u0663.\u0662", "\u0663", 1), ("2\u00b2", "\u00b2", 2)]
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


def test_separate_trace_lists_case_tags(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["separate", "--trace"], "55432..\n")
    assert code == 0
    trace_lines = [line for line in out.splitlines() if line.startswith("trace")]
    assert trace_lines and "1:d" in trace_lines[0]


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


def test_verify_conservation_cli_inhom(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch,
        capsys,
        ["verify", "conservation", "--mode", "inhom", "--n", "4", "--count", "10",
         "--seed", "1", "--capacities", "1,inf"],
    )
    assert code == 0


VERIFY_GOLDEN = [
    ("braid --n 3 --shapes 3,1,c",
     "symmetric-group[(3,),(1,),(1, 1); n=3; exhaustive]", 90),
    ("braid --n 4 --shapes 2,2,2 --count 50 --seed 42",
     "symmetric-group[(2,),(2,),(2,); n=4; random]", 50),
    ("composition --l 2 --carriers 2 --boxes 2 --n 3",
     "carrier-composition[l=2,N=2,L=2,n=3;exhaustive]", 486),
    ("composition --l 2 --carriers 2 --boxes 2 --n 3 --count 30 --seed 7",
     "carrier-composition[l=2,N=2,L=2,n=3;random]", 30),
    ("theorem --count 5", "theorem[mode=basic, n<=3, count=5, seed=0]", 20),
]


@pytest.mark.parametrize("args, relation, domain", VERIFY_GOLDEN,
                         ids=[args for args, _, _ in VERIFY_GOLDEN])
def test_verify_json_golden(monkeypatch, capsys, args, relation, domain):
    code, out, _ = run_cli(monkeypatch, capsys, ["verify", *args.split(), "--json"])
    assert code == 0
    (doc,) = [json.loads(line) for line in out.splitlines()]
    assert (doc["relation"], doc["domain"], doc["result"]) == (relation, domain, "pass")


def test_verify_failure_sets_exit_code(monkeypatch, capsys):
    stub = boxball.verify.RelationReport("stub", 1, "boom", 0.0)
    monkeypatch.setattr(boxball.verify, "check_highest_weight_chains", lambda: stub)
    code, out, _ = run_cli(monkeypatch, capsys, ["verify", "chains"])
    assert code == 1
    assert "fail" in out and "boom" in out


def test_domain_cap_env_is_respected(monkeypatch, capsys):
    # 2,131,746,903 elements, far past crystals.MAX_DOMAIN
    code, _, err = run_cli(
        monkeypatch, capsys, ["verify", "braid", "--n", "9", "--shapes", "5,5,5"]
    )
    assert code == 2
    assert "cap" in err


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
    "capacity-not-int": (["verify", "theorem", "--capacities", "1,x"], {}),
    "capacity-zero": (["verify", "theorem", "--capacities", "0"], {}),
    "braid-n1": (["verify", "braid", "--n", "1"], {}),
    "composition-n1": (["verify", "composition", "--n", "1"], {}),
    "theorem-n1": (["verify", "theorem", "--n", "1"], {}),
    "conservation-n1": (["verify", "conservation", "--n", "1"], {}),
    "shape-zero": (["verify", "braid", "--shapes", "0"], {}),
    "row-capacity-zero": (["verify", "composition", "--l", "0"], {}),
    "carriers-negative": (["verify", "composition", "--carriers", "-1"], {}),
    "carriers-zero": (["verify", "composition", "--carriers", "0"], {}),
    "boxes-zero": (["verify", "composition", "--boxes", "0"], {}),
    "braid-one-shape": (["verify", "braid", "--shapes", "c"], {}),
    "chains-reads-no-n": (["verify", "chains", "--n", "3"], {}),
    "decomposition-reads-no-count": (["verify", "decomposition", "--count", "5"], {}),
    "steps-negative": (["evolve", "--steps", "-3"], {}),
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
}

# ASCII paths admit only '.' and the ASCII digits 2..9, on one line
BAD_TEXTS = {
    "arabic-indic.txt": "\u0663.\u0662\n",
    "superscript.txt": "2\u00b2\n",
    "two-lines.txt": "2.3\n4..\n",
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
    ],
)
def test_document_field_types_are_checked(name, message):
    from boxball.cli import CliError, parse_state

    with pytest.raises(CliError) as exc:
        parse_state(json.dumps(BAD_DOCUMENTS[name]))
    assert str(exc.value) == message


@pytest.mark.parametrize("argv, env", BAD_INPUTS.values(), ids=list(BAD_INPUTS))
def test_bad_input_exits_2_with_one_line(tmp_path, monkeypatch, capsys, argv, env):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe.2\n")
    for name, doc in BAD_DOCUMENTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    for name, text in BAD_TEXTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = run_cli(monkeypatch, capsys, argv, ".2.\n")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


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
