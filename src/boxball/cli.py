"""Command line front end: evolve states, print separation tables, and run
the verification suites.

State documents are either a bare ASCII path on one line ('.'=empty, digits
2..9) or a JSON object; `parse_state` reads them, and `state_document` and
`separation_document` write the JSON forms:

    {"n": 5, "mode": "basic", "state": "55432.....542....2"}
    {"n": 12, "mode": "basic", "state": [12, 3, 1, 1, 2]}
    {"n": 4, "mode": "inhom", "tail_capacity": 1,
     "sites": [{"capacity": 3, "counts": [1, 0, 2, 0]}, ...]}

`evolve` and `separate` keep each row only as its output text (its table line or
JSON fragment) and write row by row: O(L) memory per row of text, never the rows
as paths.  A table row is its text, and its width is read from that text.  A text
table is aligned to its widest row, so it is held whole: `evolve` takes at most
`MAX_TABLE_STEPS` steps without `--json`, which streams any number.  A closed
output pipe ends a command quietly, with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import accumulate, chain, repeat
from types import SimpleNamespace

from . import verify
from .crystals import DomainSizeError, _cap_alphabet
from .dynamics import (
    BasicPath,
    InhomPath,
    InvalidWordError,
    carrier_evolution,
    decoding_pass,
)
from .separation import separate


MAX_TABLE_STEPS = 10_000  # the most steps `evolve` holds as text rows to align its table


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line like any other bad input, without the usage."""

    def error(self, message: str):
        raise CliError(message)


def _read_input(args) -> str:
    source = args.input if args.input and args.input != "-" else None
    try:
        if source is None:  # its bytes, decoded as a file's; a text stream without them as is
            raw = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {source or 'stdin'}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{source or 'stdin'} is not UTF-8 text: {exc.reason}") from exc


def parse_state(text: str, n_override: int | None = None):
    text = text.strip()
    if not text:
        raise CliError("empty input state")
    if text.startswith("{"):
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int of too many digits
            raise CliError(f"bad JSON state document: {exc}") from exc
        return _state_from_document(doc, n_override)
    if n_override is not None and n_override > 9:
        raise CliError("ASCII mode supports n <= 9; use the JSON document form")
    first, *rest = (line.strip() for line in text.splitlines() if line.strip())
    if rest:
        raise CliError(f"ASCII input holds one path, got a second line {rest[0]!r}")
    try:
        return BasicPath.from_string(first, n_override)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _state_json(p):
    """A path's `state`: letters (a string when n <= 9), or count vectors."""
    if p.mode == "inhom":
        return [list(c) for c in p.sites]
    return (p.render() or ".") if p.n <= 9 else list(p.sites)


def state_document(p) -> dict:
    """The JSON document of `p` that `parse_state` reads back."""
    if p.mode == "inhom":
        sites = [{"capacity": sum(c), "counts": c} for c in _state_json(p)]
        return {"n": p.n, "mode": p.mode, "tail_capacity": p.tail_capacity, "sites": sites}
    return {"n": p.n, "mode": p.mode, "state": _state_json(p)}


def _step_json(s) -> dict:
    """One row of the `steps` table of `separation_document`."""
    row = {"s": s.index, "state": _state_json(s.state)}
    return row if s.removed is None else row | {"removed": s.removed}


def separation_document(record, steps) -> dict:
    """What `separate --json` prints for `record` and its step table `steps`."""
    p = record.source
    doc = {
        "n": p.n,
        "mode": p.mode,
        "monochrome": _state_json(record.monochrome),
        "word": "".join(str(v) for v in record.word) if p.n <= 9 else list(record.word),
        "steps": [_step_json(s) for s in steps],
    }
    if p.mode == "inhom":
        doc["tail_capacity"] = p.tail_capacity
    return doc


def report_document(rep) -> dict:
    """What `verify --json` prints for one `verify.RelationReport`."""
    doc = {
        "relation": rep.relation,
        "domain": rep.domain,
        "result": "pass" if rep.passed else "fail",
        "elapsed": round(rep.elapsed, 6),
    }
    if rep.counterexample is not None:
        doc["counterexample"] = rep.counterexample
    return doc


_JSON_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _typed(value, what: str, *kinds: type):
    """A JSON field of one of `kinds`; floats and booleans are not integers here."""
    if type(value) not in kinds:
        wanted = " or ".join(_JSON_KINDS[k] for k in kinds)
        raise CliError(f"{what} must be {wanted}, got {json.dumps(value)}")
    return value


def _state_from_document(doc: dict, n_override: int | None):
    try:
        n = n_override if n_override is not None else _typed(doc["n"], "n", int)
        _cap_alphabet(n)
        mode = _typed(doc.get("mode", "basic"), "mode", str)
        if mode == "basic":
            state = _typed(doc["state"], "state", str, list)
            if isinstance(state, list):
                return BasicPath(tuple(_typed(v, "state letter", int) for v in state), n)
            if not state:
                raise CliError("empty input state")
            if n <= 9:
                return BasicPath.from_string(state, n)
            raise CliError("ASCII payload needs n <= 9")
        if mode == "inhom":
            sites = []
            for k, site in enumerate(_typed(doc["sites"], "sites", list)):
                what = f"site {k + 1}"
                site = _typed(site, what, dict)
                counts = _typed(site["counts"], f"{what} counts", list)
                counts = tuple(_typed(v, f"{what} counts", int) for v in counts)
                capacity = _typed(site["capacity"], f"{what} capacity", int)
                if sum(counts) != capacity:
                    raise CliError(
                        f"{what}: counts {list(counts)} do not sum to capacity {capacity}"
                    )
                sites.append(counts)
            tail = _typed(doc.get("tail_capacity", 1), "tail_capacity", int)
            return InhomPath(tuple(sites), n, tail)
        raise CliError(f"unknown mode {mode!r}")
    except KeyError as exc:
        raise CliError(f"state document is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CliError(str(exc)) from exc


def _operator(name: str):
    if name == "T":
        return lambda p: p.time_step()
    if name == "Tnat":
        return lambda p: decoding_pass(p)[0]
    if name.startswith("Tl:"):
        ell = _capacity(name[3:])
        return lambda p: carrier_evolution(p, ell)
    raise CliError(f"bad operator {name!r}; want T, Tnat, or Tl:<capacity>")


def _write_json(doc: dict, key: str, fragments) -> None:
    """Write `json.dumps(doc)`, its empty list `doc[key]` holding the JSON `fragments`,
    one write each as they are made, to `sys.stdout` as of the call (callers swap it)."""
    head, tail = json.dumps(doc).split(f'"{key}": []')
    body = (", " + fragment if k else fragment for k, fragment in enumerate(fragments))
    sys.stdout.writelines(chain([f'{head}"{key}": ['], body, [f"]{tail}\n"]))


def _print_table(state, text: str, rows) -> None:
    """Print rows `(line, cells)`, `line` holding `{}` for the state's `cells` padded as
    `render(width)` pads, to the widest row and the ASCII input `text`.  A basic row's boxes
    are read off its cells: a character each, or comma-separated when n > 9."""
    text = text.strip()  # rows align with an ASCII input, its trailing dots included
    sep = "" if state.n <= 9 else ","
    counts = [cells.count(sep) + 1 if sep and cells else len(cells) for _, cells in rows]
    width = max(0 if text.startswith("{") else len(text.splitlines()[0]), *counts)
    for (line, cells), boxes in zip(rows, counts):
        if state.mode == "basic":  # an empty n > 9 row pads to '.,.', with no leading comma
            cells = sep.join([cells] * (boxes > 0) + ["."] * (width - boxes))
        print(line.format(cells or "."))  # a vacuum row is one empty box, of either kind


def cmd_evolve(args) -> int:
    text = _read_input(args)
    state = parse_state(text, args.n)
    ops = repeat(_operator(args.operator), args.steps)
    rows = accumulate(ops, lambda r, op: op(r), initial=state)  # made as they are read
    if args.json:
        docs = (json.dumps(state_document(r)) for r in rows)
        _write_json({"steps": args.steps, "rows": []}, "rows", docs)
    else:
        _print_table(state, text, [(f"t={t:<4} {{}}", r.render()) for t, r in enumerate(rows)])
    return 0


def cmd_separate(args) -> int:
    text = _read_input(args)
    state = parse_state(text, args.n)
    rows, traces = [], []

    def keep(step):  # each row becomes its output text as the decoding makes it
        if args.json:
            rows.append(json.dumps(_step_json(step)))
            return
        line = f"s={step.index:<4} {{}}" + ("" if step.removed is None else f" {step.removed}")
        rows.append((line, step.state.render()))
        if args.trace and step.removed is not None:
            trace = []
            _, carrier = decoding_pass(step.state, trace)
            tags = " ".join(f"{st.site}:{st.tag}" for st in trace)
            traces.append(f"trace s={step.index} ({carrier}) {tags}\n")

    # one decode gives the record and the table; `separate` appends each row to `steps`
    record = separate(state, SimpleNamespace(append=keep))
    if args.json:
        _write_json(separation_document(record, []), "steps", rows)
        return 0
    _print_table(state, text, rows)
    print("word  " + ("" if state.n <= 9 else ",").join(str(v) for v in record.word))
    sys.stdout.writelines(traces)
    return 0


def _positive(part: str, what: str, want: str = "a positive integer") -> int:
    try:
        value = int(part)
    except ValueError:
        value = 0
    if value < 1:
        raise CliError(f"bad {what} {part!r}; want {want}")
    return value


def _parse_shapes(text: str):
    parts = [part.strip() for part in text.split(",")]
    if len(parts) < 2:
        raise CliError(f"--shapes {text!r} names one shape; the relations need at least 2")
    want = "positive integers or 'c'"
    return [(1, 1) if p == "c" else (_positive(p, "shape", want),) for p in parts]


def _capacity(part: str) -> int | None:
    """A positive integer, or None (an unbounded carrier) for inf / infinity."""
    if part in ("inf", "infinity"):
        return None
    return _positive(part, "capacity", "a positive integer or inf")


def _path_suite(args) -> list:  # the runner of every `verify.PATH_RELATIONS` row
    caps = [_capacity(part.strip()) for part in args.capacities.split(",")]
    return [verify.check_path_suite(args.check, args.mode, args.n, args.count, args.seed, caps)]


def _oracle(args) -> list:  # one pair from --shapes and --n, else `verify.ORACLE_PAIRS`
    if args.shapes is None:
        if args.n is not None:
            raise CliError("--n needs --shapes; the default pairs name their own alphabets")
        return [verify.check_swap_against_oracle(*pair) for pair in verify.ORACLE_PAIRS]
    shapes = _parse_shapes(args.shapes)
    if len(shapes) != 2:
        raise CliError(f"--shapes {args.shapes!r} names {len(shapes)} shapes; the oracle takes 2")
    return [verify.check_swap_against_oracle(*shapes, 3 if args.n is None else args.n)]


def cmd_verify(args) -> int:
    reports = args.run(args)  # the runner its parser row names
    for rep in reports:
        if args.json:
            print(json.dumps(report_document(rep)))
        else:
            status = "pass" if rep.passed else "fail"
            line = f"{status}  {rep.relation} (domain {rep.domain}, {rep.elapsed:.3f}s)"
            if rep.counterexample:
                line += f"\n      {rep.counterexample}"
            print(line)
    return 0 if all(rep.passed for rep in reports) else 1


def _check_flags(args) -> None:
    """Reject a numeric flag below its least value, and an `--n` over the alphabet cap."""
    minima = {"n": 2, "steps": 0, "count": 1, "l": 1, "carriers": 1, "boxes": 1, "size": 1}
    for flag, least in minima.items():
        value = getattr(args, flag, None)
        if value is not None and value < least:
            raise CliError(f"--{flag} must be >= {least}, got {value}")
    if getattr(args, "steps", 0) > sys.maxsize:  # the most `itertools.repeat` takes
        raise CliError(f"--steps must be <= {sys.maxsize}, got {args.steps}")
    if getattr(args, "steps", 0) > MAX_TABLE_STEPS and not args.json:  # a table is held whole
        raise CliError(f"a text table takes at most {MAX_TABLE_STEPS} steps, got {args.steps}; "
                       "--json streams any number")
    if getattr(args, "n", None) is not None:
        _cap_alphabet(args.n)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="boxball", description="Coloured box-ball evolutions and colour separation"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evolve", help="apply a time evolution repeatedly")
    ev.add_argument("input", nargs="?", help="state file (default: stdin)")
    ev.add_argument("--steps", type=int, default=1)
    ev.add_argument("--operator", default="T", help="T, Tnat, or Tl:<capacity or inf>")
    ev.add_argument("--n", type=int, default=None)
    ev.add_argument("--json", action="store_true")
    ev.set_defaults(func=cmd_evolve)

    sep = sub.add_parser("separate", help="decode a path into monochrome part + word")
    sep.add_argument("input", nargs="?", help="state file (default: stdin)")
    sep.add_argument("--n", type=int, default=None)
    output = sep.add_mutually_exclusive_group()  # a JSON document carries no trace
    output.add_argument("--json", action="store_true")
    output.add_argument("--trace", action="store_true", help="print per-site case tags")
    sep.set_defaults(func=cmd_separate)

    # each check takes only the flags it reads; its runner looks up `verify.<check>` per call
    ver = sub.add_parser("verify", help="run a verification suite")
    ver.set_defaults(func=cmd_verify)
    checks = ver.add_subparsers(dest="check", required=True)
    json_flag = _Parser(add_help=False)
    json_flag.add_argument("--json", action="store_true")
    seeded = _Parser(add_help=False, parents=[json_flag])
    seeded.add_argument("--n", type=int, default=3)
    seeded.add_argument("--seed", type=int, default=0)
    sampled = _Parser(add_help=False, parents=[seeded])
    sampled.add_argument("--count", type=int, default=None, help="default: every element")
    braid = checks.add_parser("braid", parents=[sampled])
    braid.add_argument("--shapes", default="3,1,c", help="e.g. 3,1,c (c = column)")
    braid.set_defaults(run=lambda a: [verify.check_symmetric_group(
        _parse_shapes(a.shapes), a.n, a.seed, a.count)])
    comp = checks.add_parser("composition", parents=[sampled])
    comp.add_argument("--l", type=int, default=2, help="row capacity")
    comp.add_argument("--carriers", type=int, default=1)
    comp.add_argument("--boxes", type=int, default=1)
    comp.set_defaults(run=lambda a: [verify.check_carrier_composition(
        a.l, a.carriers, a.boxes, a.n, a.seed, a.count)])
    kinds = list(verify.PATH_KINDS)
    for name, check in verify.PATH_RELATIONS.items():  # each relation is a subcommand
        suite = checks.add_parser(name, parents=[seeded], help=check.__doc__)
        suite.add_argument("--count", type=int, default=100)
        suite.add_argument("--mode", choices=kinds, default=kinds[0])
        suite.add_argument("--capacities", default="1,2,3,inf")
        suite.set_defaults(run=_path_suite)
    domains = list(verify.PATH_DOMAINS)
    image = checks.add_parser("image", parents=[json_flag])
    image.add_argument("--mode", choices=domains, default=domains[0])
    image.add_argument("--n", type=int, default=3)
    image.add_argument("--size", type=int, default=4, help="most boxes (basic) or sites (inhom)")
    image.set_defaults(run=lambda a: [verify.check_image(a.mode, a.n, a.size)])
    oracle = checks.add_parser("oracle", parents=[json_flag])
    oracle.add_argument("--shapes", default=None,
                        help="two shapes, e.g. 3,c (default: the verify workload's pairs)")
    oracle.add_argument("--n", type=int, default=None, help="default: 3 with --shapes")
    oracle.set_defaults(run=_oracle)
    checks.add_parser("chains", parents=[json_flag]).set_defaults(
        run=lambda a: [verify.check_highest_weight_chains()])
    checks.add_parser("decomposition", parents=[json_flag]).set_defaults(
        run=lambda a: [verify.check_decomposition(f)
                       for f in verify.standard_decomposition_fixtures()])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_flags(args)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's last flush
        return code
    except (CliError, InvalidWordError, DomainSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader left: end quietly, and let the final flush go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
