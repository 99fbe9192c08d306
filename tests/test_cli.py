"""CLI oracles: golden outputs, exit codes, and determinism.

Golden strings are frozen byte-for-byte for the smallest cells, so any
change to row ordering, formatting, or the schema envelope shows up as
a test failure rather than silent drift.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tamesigns.cli as cli
import tamesigns.cyclotomic as cyclotomic
import tamesigns.division
import tamesigns.metacyclic
import tamesigns.signs
from tamesigns.cli import (
    expand_q_range,
    fmt_root,
    main,
    parse_range,
    parse_sign,
)
from tamesigns.division import (
    TameCharacter,
    division_model,
    is_prime_power,
    selfdual_row_count,
)
from tamesigns.errors import InternalConsistencyError, UsageError
from tamesigns.rationality import CharacterField
from tamesigns.signs import FlipRow
from tamesigns.weil import sign_weil_closed_form


def call_main(argv):
    """(exit code, stdout, stderr) of main(argv), without a pytest fixture."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_parse_range():
    assert tuple(parse_range("3", "n", 3)) == (3,)
    assert tuple(parse_range("2..5", "n", 9)) == (2, 3, 4, 5)
    with pytest.raises(UsageError, match="empty range"):
        parse_range("5..2", "n", 9)
    for text in ("x", "2..", "..3"):
        with pytest.raises(UsageError, match="cannot parse"):
            parse_range(text, "n", 9)
    with pytest.raises(UsageError, match="n=10 exceeds the limit MAX_GRID_N = 9"):
        parse_range("2..10", "n", 9)


def test_expand_q_range():
    assert expand_q_range("2..10") == (2, 3, 4, 5, 7, 8, 9)
    assert expand_q_range("9") == (9,)
    with pytest.raises(UsageError, match=r"2 \* 3"):
        expand_q_range("6")
    with pytest.raises(UsageError):
        expand_q_range("14..15")
    # values below 2 are skipped without being formed
    assert expand_q_range("-999999999999..3") == (2, 3)


def test_q_range_does_not_fill_the_factorize_cache():
    # factorize's cache keeps every argument: filtering a range must not
    # add one entry per q, and a run adds at most one per kept q (the
    # cell's prime_power_base)
    cache = cyclotomic.factorize.cache_info
    before = cache().currsize
    kept = expand_q_range("40000..42000")
    assert cache().currsize == before
    code, out, err = call_main(["enumerate", "--q", "40000..42000", "--n", "1"])
    assert (code, err) == (0, "") and len(out.splitlines()) == 3
    assert cache().currsize - before <= len(kept) + 1
    factorized = range(40000, 42001)
    assert kept == tuple(q for q in factorized if len(cyclotomic.factorize(q)) == 1)


def test_parse_sign():
    assert parse_sign("+1") == 1
    assert parse_sign("1") == 1
    assert parse_sign("-1") == -1
    with pytest.raises(UsageError):
        parse_sign("2")


def test_fmt_root():
    assert fmt_root(4, 0) == "+1"
    assert fmt_root(4, 2) == "-1"
    assert fmt_root(4, 1) == "zeta4^1"
    assert fmt_root(1, 0) == "+1"
    assert fmt_root(6, 7) == "zeta6^1"


GOLDEN_ENUMERATE = """\
# schema_version=1
# generator_convention=abstract-unramified-generator
q,n,f,e,a,w,regular,selfdual,sign_closed,sign_oracle,agree
2,2,2,1,1,+1,true,true,+1,+1,true
2,2,2,1,1,-1,true,true,-1,-1,true
"""


def test_enumerate_golden():
    code, out, err = call_main(["enumerate", "--q", "2", "--n", "2"])
    assert code == 0
    assert err == ""
    assert out == GOLDEN_ENUMERATE


GOLDEN_FLIP_SZ = """\
# schema_version=1
# generator_convention=abstract-unramified-generator
q,n,recipe,f,e,a,w,sign_closed,sign_oracle,param_w,param_sign,predicted,consistent
2,4,SZ,2,2,1,+1,+1,+1,-1,+1,-1,false
2,4,SZ,2,2,1,-1,-1,-1,+1,-1,+1,false
2,4,SZ,4,1,3,+1,+1,+1,-1,-1,+1,true
2,4,SZ,4,1,3,-1,-1,-1,+1,+1,-1,true
"""


def test_verify_flip_sz_golden():
    code, out, err = call_main(["verify-flip", "--q", "2", "--n", "4", "--recipe", "SZ"])
    assert code == 0  # SZ inconsistencies are reported, not fatal
    assert out == GOLDEN_FLIP_SZ


def test_verify_flip_pr_all_consistent():
    code, out, _ = call_main(["verify-flip", "--q", "2..5", "--n", "2..4"])
    assert code == 0
    data_rows = [l for l in out.splitlines() if not l.startswith(("#", "q,"))]
    assert data_rows
    assert all(row.endswith(",true") for row in data_rows)


def test_verify_flip_both_order():
    code, out, _ = call_main(
        ["verify-flip", "--q", "2", "--n", "4", "--recipe", "both"]
    )
    assert code == 0
    recipes = [
        row.split(",")[2]
        for row in out.splitlines()
        if not row.startswith(("#", "q,"))
    ]
    assert recipes == ["PR"] * 4 + ["SZ"] * 4


# sha256 of whole CLI outputs over small grids; any change to a row's
# values, order or formatting changes the digest
GOLDEN_DIGESTS = [
    (["enumerate", "--q", "2..9", "--n", "1..8", "--format", "json"],
     "1433a38a7d42fb797285d646e76c57a654c2a6a5f747e2b93f3f6cd10e3e3de0"),
    (["verify-flip", "--q", "2..9", "--n", "2..6", "--recipe", "both"],
     "87c82f3e74ee3c7927092226e78f5d255dc714c58bfee91c673a327ce9804483"),
    (["verify-flip", "--q", "2..9", "--n", "2..6", "--recipe", "both",
      "--format", "json"],
     "f0505bdbc7c676a5f0aee6563218147fed25b7d97c0e7819494666b710450a22"),
    # the flip_grid benchmark's whole CSV (bench/reference.json's sha256);
    # its n = 8 cells hold most of its 34,886 entries
    (["verify-flip", "--q", "2..16", "--n", "2..8", "--recipe", "both"],
     "9527ecc3d3553353fe053ad585fc1355aafe034bbfdcb7685081c4219a3308ed"),
    # the CSV of every other command: enumerate's bool columns, the weil
    # side's empty n, and a non-self-dual datum's empty closed form and
    # zero oracle
    (["enumerate", "--q", "2..9", "--n", "1..8"],
     "4711d69b7a3f2834cf6eb8517e857be97517935eed205ad3d566807dcc321773"),
    (["sign", "--side", "weil", "--q", "2", "--f", "2", "--a", "1", "--w", "-1"],
     "474fa3178319ed18b5ad7be26ee7cb222be39a5f36e22f47af57d88c960dd57f"),
    (["sign", "--side", "division", "--q", "3", "--n", "2", "--f", "2", "--a", "1",
      "--w", "+1"],
     "89adb6141a70f25ed46d39f1172daa9062f3688b6680a5c4d5576126cded2134"),
    # the JSON of the same data: the weil side's null n, and a
    # non-self-dual datum's null closed form and zero oracle
    (["sign", "--side", "weil", "--q", "2", "--f", "2", "--a", "1", "--w", "-1",
      "--format", "json"],
     "ebf43adf5970aa6c09685b42d7365f5055ec4ff00407a03f5186ff06f7d54185"),
    (["sign", "--side", "division", "--q", "3", "--n", "2", "--f", "2", "--a", "1",
      "--w", "+1", "--format", "json"],
     "105410540d2f61e2b46830d26a7ab64257f31ec025bd2fe8fdc4eaeb4195fe6a"),
]


@pytest.mark.parametrize(
    "argv,digest",
    GOLDEN_DIGESTS,
    ids=[
        "enumerate-json", "flip-csv", "flip-json", "flip-grid-csv",
        "enumerate-csv", "sign-weil-csv", "sign-non-selfdual-csv",
        "sign-weil-json", "sign-non-selfdual-json",
    ],
)
def test_golden_digests(argv, digest):
    code, out, err = call_main(argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


GOLDEN_SIGN_DIVISION = """\
# schema_version=1
# generator_convention=abstract-unramified-generator
side,q,n,f,a,w,regular,selfdual,sign_closed,sign_oracle,det_x,det_t,scalar_tf,field_conductor,field_degree
division,2,4,2,1,-1,true,true,-1,-1,+1,+1,-1,60,1
"""


def test_sign_division_golden():
    code, out, _ = call_main(
        ["sign", "--side", "division", "--q", "2", "--n", "4",
         "--f", "2", "--a", "1", "--w", "-1"],
    )
    assert code == 0
    assert out == GOLDEN_SIGN_DIVISION


def test_sign_weil_json():
    code, out, _ = call_main(
        ["sign", "--side", "weil", "--q", "2", "--f", "2", "--a", "1",
         "--w", "-1", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["generator_convention"] == "abstract-unramified-generator"
    assert payload["command"] == "sign"
    row = payload["rows"][0]
    assert row["n"] is None
    assert row["sign_closed"] == -1
    assert row["sign_oracle"] == -1
    assert row["det_t"] == "+1"
    assert row["scalar_tf"] == "-1"
    assert row["field_degree"] == 1


def test_sign_weil_orthogonal_det_nontrivial():
    code, out, _ = call_main(
        ["sign", "--side", "weil", "--q", "2", "--f", "2", "--a", "1",
         "--w", "+1", "--format", "json"],
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["sign_closed"] == 1
    assert row["det_t"] == "-1"
    assert row["scalar_tf"] == "+1"


def test_sign_non_selfdual_reports_zero():
    # q=3, f=2, a=1: regular but not self-dual; the model indicator is 0
    code, out, _ = call_main(
        ["sign", "--side", "weil", "--q", "3", "--f", "2", "--a", "1",
         "--w", "+1"],
    )
    assert code == 0
    data = out.splitlines()[-1].split(",")
    cols = dict(zip(out.splitlines()[2].split(","), data))
    assert cols["selfdual"] == "false"
    assert cols["sign_closed"] == ""
    assert cols["sign_oracle"] == "0"


def test_sign_selfdual_matches_nonzero_indicator_at_f_one():
    # f = 1 with a = 0 or a = (q-1)/2 is a quadratic character: its model
    # has indicator +1 for either w, so it is self-dual although f is odd
    for side, q, n, a, w in [
        ("division", 3, 2, 1, 1),
        ("division", 3, 2, 0, -1),
        ("division", 4, 2, 0, 1),
        ("weil", 5, None, 2, -1),
        ("weil", 2, None, 0, 1),
    ]:
        argv = ["sign", "--side", side, "--q", str(q), "--f", "1",
                "--a", str(a), "--w", str(w), "--format", "json"]
        if n is not None:
            argv += ["--n", str(n)]
        code, out, _ = call_main(argv)
        assert code == 0, argv
        row = json.loads(out)["rows"][0]
        assert row["selfdual"] == (row["sign_oracle"] != 0), argv


def test_sign_rejects_non_regular():
    code, out, err = call_main(
        ["sign", "--side", "weil", "--q", "2", "--f", "2", "--a", "0",
         "--w", "+1"],
    )
    assert code == 1
    assert out == ""
    assert "regular" in err


def test_every_column_has_one_kind():
    # a column is a sign, a bool, text, or an int (None too where
    # OPTIONAL_CELLS allows it), CELL_KINDS names real columns, and every
    # kind has a writer in both formats
    named = {column for columns in cli.COLUMNS.values() for column in columns}
    assert set(cli.CELL_KINDS) <= named
    for command, column in cli.OPTIONAL_CELLS:
        assert column in cli.COLUMNS[command]
        assert column not in cli.CELL_KINDS
    kinds = {
        cli.cell_kind(command, column)
        for command, columns in cli.COLUMNS.items() for column in columns
    }
    assert kinds == {"sign", "bool", "text", "optional", "int"}
    for fmt in ("csv", "json"):
        assert set(cli._CELL_WRITERS[fmt]) == kinds, fmt
    of_kind = {kind: set() for kind in kinds}
    for column, kind in cli.CELL_KINDS.items():
        of_kind[kind].add(column)
    assert of_kind["bool"] == {"regular", "selfdual", "agree", "consistent"}
    assert of_kind["text"] == {"recipe", "side", "det_x", "det_t", "scalar_tf"}


ROOT = Path(__file__).resolve().parent.parent


def subcommands() -> set[str]:
    """The subcommand names main accepts."""
    return set(cli.DISPATCH)


def test_readme_examples_print_what_they_show():
    # each `$ tamesigns ...` line in README with output lines after it,
    # up to the next `$` line or the end of its code block
    examples = re.findall(
        r"^\$ tamesigns (.*)\n((?:(?!\$|```).*\n)+)",
        (ROOT / "README.md").read_text(),
        re.MULTILINE,
    )
    for command, output in examples:
        assert call_main(shlex.split(command)) == (0, output, ""), command
    assert {command.split()[0] for command, _ in examples} == subcommands()


def test_schema_tables_are_the_commands_columns():
    # a `<command>` columns section per subcommand, whose table's rows
    # name that command's columns, some rows several joined by commas
    sections = re.findall(
        r"^## `([^`]+)` columns\n(.*?)(?=^## )",
        (ROOT / "SCHEMA.md").read_text(),
        re.MULTILINE | re.DOTALL,
    )
    assert {command for command, _ in sections} == subcommands() == set(cli.DISPATCH)
    assert subcommands() == set(cli.COLUMNS)
    for command, text in sections:
        names = re.findall(r"^\| ([^|]+?) \|", text, re.MULTILINE)
        assert names[:2] == ["column", "---"], command
        columns = tuple(name for row in names[2:] for name in row.split(", "))
        assert columns == cli.COLUMNS[command], command


def recorded_renders(monkeypatch):
    """(command, rows) of each render call, over runs of every command."""
    seen = []
    real = cli.render

    def recording(fmt, command, rows):
        seen.append((command, rows))
        return real(fmt, command, rows)

    monkeypatch.setattr(cli, "render", recording)
    for argv in (
        ["enumerate", "--q", "2..5", "--n", "1..4"],
        ["verify-flip", "--q", "2..5", "--n", "2..4", "--recipe", "both"],
        ["sign", "--side", "weil", "--q", "2", "--f", "2", "--a", "1", "--w", "-1"],
        ["sign", "--side", "division", "--q", "2", "--n", "4", "--f", "2",
         "--a", "1", "--w", "-1"],
        ["sign", "--side", "division", "--q", "3", "--n", "2", "--f", "2",
         "--a", "1", "--w", "+1"],
        ["sign", "--side", "weil", "--q", "3", "--f", "2", "--a", "1", "--w", "-1"],
        ["sign", "--side", "weil", "--q", "5", "--f", "1", "--a", "2", "--w", "-1"],
    ):
        assert call_main(argv)[0] == 0, argv
    monkeypatch.undo()
    assert {command for command, _ in seen} == set(cli.COLUMNS)
    return seen


def test_rows_hold_what_their_column_kind_writes(monkeypatch):
    # {True: "true"}[1] and a sign writer given True would print an int as
    # a bool and a bool as a sign, and a JSON int writer given a str (or a
    # text writer given an int) would quote an int or leave text bare, so
    # each kind's column holds only its own type
    nones = set()
    for command, rows in recorded_renders(monkeypatch):
        columns = cli.COLUMNS[command]
        for row in rows:
            assert len(row) == len(columns)
            assert getattr(row, "_fields", columns) == columns
            for column, value in zip(columns, row):
                kind = cli.cell_kind(command, column)
                if kind == "bool":
                    assert type(value) is bool, (command, column, value)
                elif kind == "sign":
                    assert type(value) in (int, type(None)), (command, column)
                    assert value in (1, -1, 0, None), (command, column, value)
                elif kind == "text":
                    assert type(value) is str, (command, column, value)
                elif value is None:
                    nones.add((command, column))
                else:
                    assert type(value) is int, (command, column, value)
    assert nones == cli.OPTIONAL_CELLS


def json_oracle(command, rows):
    """What render("json", ...) must return: json.dumps of the payload."""
    payload = {
        "schema_version": cli.SCHEMA_VERSION,
        "generator_convention": cli.GENERATOR_CONVENTION,
        "command": command,
        "rows": [dict(zip(cli.COLUMNS[command], row)) for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def test_json_is_what_json_dumps_writes(monkeypatch):
    for command, rows in recorded_renders(monkeypatch):
        assert cli.render("json", command, rows) == json_oracle(command, rows)
    for command in cli.COLUMNS:
        assert cli.render("json", command, []) == json_oracle(command, [])


def kind_value(command, column):
    """A strategy for one cell of the column, drawn by its kind."""
    kind = cli.cell_kind(command, column)
    if kind == "sign":
        return st.sampled_from((1, -1, 0, None))
    if kind == "bool":
        return st.booleans()
    if kind == "text":
        return st.text(alphabet=st.sampled_from(["a", "^", "9", '"', "\\", "\n", "é"]))
    ints = st.integers(min_value=-(2**70), max_value=2**70)
    if kind == "optional":
        return st.none() | ints
    return ints


@st.composite
def kind_rows(draw):
    command = draw(st.sampled_from(sorted(cli.COLUMNS)))
    row = st.tuples(*(kind_value(command, column) for column in cli.COLUMNS[command]))
    return command, draw(st.lists(row, max_size=3))


@settings(max_examples=200, deadline=None)
@given(kind_rows())
@example((
    "sign",
    [('"\\\né', -3, None, 2**64 + 1, -(2**64), 0, False, True, None, 0,
      "zeta7^3", "", "é", 10**30, -1)],
))
def test_json_of_drawn_rows_is_what_json_dumps_writes(case):
    command, rows = case
    assert cli.render("json", command, rows) == json_oracle(command, rows)


def test_product_check_is_an_unknown_subcommand():
    # every subcommand computes a sign from a model; one that only
    # multiplied typed signs is refused by argparse
    code, out, err = call_main(["product-check", "+1"])
    assert (code, out) == (1, "")
    assert err.startswith("usage error: argument command: invalid choice: ")
    assert "'product-check'" in err


def test_usage_errors_exit_one():
    for argv in (
        ["enumerate", "--q", "6", "--n", "2"],
        ["enumerate", "--q", "2"],
        ["sign", "--side", "weil", "--q", "2", "--n", "2", "--f", "2",
         "--a", "1", "--w", "+1"],
        ["sign", "--side", "division", "--q", "2", "--f", "2", "--a", "1",
         "--w", "+1"],
        ["verify-flip", "--q", "2", "--n", "2", "--recipe", "XX"],
        ["verify-flip", "--q", "2", "--n", "2", "--jobs", "0"],
        ["nonsense"],
    ):
        code, out, err = call_main(argv)
        assert code == 1, argv
        assert out == ""


def test_module_entry_point_maps_usage_errors(run_cli):
    proc = run_cli(["verify-flip", "--q", "5..3", "--n", "2"], timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == b""
    err = proc.stderr.decode()
    assert "usage error: empty range for q: 5..3" in err
    assert "Traceback" not in err


def test_no_command_and_an_unknown_one_exit_one(run_cli):
    # the messages argparse's subcommand action gave
    for argv, message in (
        ([], "the following arguments are required: command"),
        (["x"], "argument command: invalid choice: 'x' "
                "(choose from 'enumerate', 'verify-flip', 'sign')"),
    ):
        proc = run_cli(argv, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, b""), argv
        assert proc.stderr.decode() == f"usage error: {message}\n", argv


def test_top_level_help_lists_every_command(run_cli):
    outputs = set()
    for flag in ("-h", "--help", "--he"):
        proc = run_cli([flag], timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b""), flag
        outputs.add(proc.stdout.decode())
    (text,) = outputs
    assert text.startswith("usage: tamesigns [-h] {enumerate,verify-flip,sign} ...\n")
    for command in cli.DISPATCH:
        assert re.search(
            rf"^ +{re.escape(command)} +{re.escape(cli.COMMAND_HELP[command])}$",
            text, re.MULTILINE,
        ), command
    assert set(cli.COMMAND_HELP) == set(cli.DISPATCH)


@pytest.mark.parametrize("command", sorted(cli.DISPATCH))
def test_each_command_has_its_own_help(run_cli, command):
    # structure only: argparse's help layout differs across versions
    proc = run_cli([command, "--help"], timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode().startswith(f"usage: tamesigns {command} ")


@pytest.mark.parametrize("command", sorted(cli.DISPATCH))
def test_each_command_help_returns_zero_in_process(command):
    # main returns help's exit code instead of letting argparse's
    # SystemExit escape
    for flag in ("--help", "-h"):
        code, out, err = call_main([command, flag])
        assert (code, err) == (0, ""), flag
        assert out.startswith(f"usage: tamesigns {command} "), flag


def test_format_option_spellings_print_the_same_bytes(run_cli):
    procs = [
        run_cli(WEIL_SELFDUAL + tail, timeout=60)
        for tail in (["--format", "json"], ["--format=json"], ["--form", "json"])
    ]
    replies = {(proc.returncode, proc.stdout, proc.stderr) for proc in procs}
    assert replies == {(0, procs[0].stdout, b"")}
    assert procs[0].stdout.startswith(b"{\n")


def test_one_sign_call_builds_one_parser():
    # a fresh process: in this one other tests have built parsers too
    script = (
        "import sys\n"
        "from tamesigns import cli\n"
        f"sys.argv = ['tamesigns', *{WEIL_SELFDUAL!r}]\n"
        "code = cli.main()\n"
        "print(code, cli.build_parser.cache_info().currsize, file=sys.stderr)\n"
    )
    src_root = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src_root},
    )
    assert proc.stderr.decode() == "0 1\n"


def test_internal_consistency_exits_two(monkeypatch):
    def boom(G, psi):
        raise InternalConsistencyError("forced failure")

    # cli reads the indicator itself only for a datum that is not self-dual
    monkeypatch.setattr(cli, "fs_indicator", boom)
    code, out, err = call_main(WEIL_NOT_SELFDUAL)
    assert code == 2
    assert "internal consistency" in err


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--q", "2", "--n", "4"], ["verify-flip", "--q", "2", "--n", "4"]],
)
def test_enumeration_fault_exits_two(monkeypatch, argv):
    # emit (2, 4, 3) as a = 4: regular but not self-dual, so the sign
    # routes refuse it; and as a = 5: orbit {5, 10}, not regular, so the
    # constructor refuses it. Either refusal is an enumeration fault.
    real = tamesigns.division.TameCharacter
    for bad_a in (4, 5):

        def faulty(q, f, a, w):
            return real(q, f, bad_a if (q, f, a) == (2, 4, 3) else a, w)

        monkeypatch.setattr(tamesigns.division, "TameCharacter", faulty)
        code, out, err = call_main(argv)
        assert code == 2, bad_a
        assert out == ""
        assert err.startswith("internal consistency failure: ")
        assert "q=2, n=4" in err and f"a={bad_a}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--q", "2", "--n", "4"],
        ["verify-flip", "--q", "2", "--n", "4", "--recipe", "SZ"],
        ["verify-flip", "--q", "2", "--n", "4", "--recipe", "PR"],
        ["sign", "--side", "division", "--q", "2", "--n", "4", "--f", "2",
         "--a", "1", "--w", "+1"],
        ["sign", "--side", "weil", "--q", "2", "--f", "2", "--a", "1", "--w", "+1"],
    ],
)
def test_closed_form_oracle_disagreement_exits_two(monkeypatch, argv):
    # negate the indicator of every f = 2 model where division compares
    # it with the closed form; that comparison is the one indicator read
    # of a self-dual datum, so only it can catch this. The model's
    # degree n is --n, or f on the weil side
    n = argv[argv.index("--n" if "--n" in argv else "--f") + 1]
    real = tamesigns.division.fs_indicator

    def negated(G, psi):
        ind = real(G, psi)
        return -ind if psi.f == 2 else ind

    monkeypatch.setattr(tamesigns.division, "fs_indicator", negated)
    code, out, err = call_main(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("internal consistency failure: closed-form sign ")
    assert "TameCharacter(q=2, f=2, a=1, w=1)" in err and f"n={n}" in err


def test_closed_form_disagreement_names_the_model(monkeypatch):
    # the scan's closed form against its oracle, in checked_sign: the
    # message names chi, n, the model's inducing data and its group
    monkeypatch.setattr(
        tamesigns.division, "sign_division_closed_form", lambda chi: -chi.w
    )
    code, out, err = call_main(["enumerate", "--q", "2", "--n", "4"])
    assert (code, out) == (2, "")
    assert err == (
        "internal consistency failure: closed-form sign -1 disagrees with "
        "the Frobenius-Schur indicator 1 for TameCharacter(q=2, f=2, a=1, w=1) "
        "at n=4: psi=Irrep(f=2, a=5, c=0, "
        "group=MetacyclicGroup(m=15, N=8, s=2))\n"
    )


def test_invalid_model_datum_is_refused_by_every_consumer(monkeypatch):
    # division_model range-checks its scalar c, so an out-of-range
    # c = N/f is refused on every route, exit 1
    monkeypatch.setattr(tamesigns.division, "_model_c", lambda n, f, w: 2 * n // f)
    chi = TameCharacter(2, 2, 1, 1)
    for call, message in [
        (lambda: tamesigns.division.sign_division_oracle(4, chi), "got c=4"),
        (
            lambda: sign_weil_closed_form(chi, division_model(chi.f, chi)),
            "N/f = 2, got c=2",
        ),
    ]:
        with pytest.raises(UsageError, match="need 0 <= c < N/f") as info:
            call()
        assert str(info.value).endswith(message)
    argv = ["sign", "--side", "division", "--q", "2", "--n", "4", "--f", "2",
            "--a", "1", "--w", "+1"]
    code, out, err = call_main(argv)
    assert (code, out) == (1, "")
    assert err == "usage error: need 0 <= c < N/f = 4, got c=4\n"


def test_enumeration_emitting_an_invalid_datum_exits_two(monkeypatch):
    # a datum the scan built but the closed form refuses is an enumeration
    # fault: pinned from the library and from the CLI
    monkeypatch.setattr(tamesigns.division, "is_selfdual_division", lambda chi: False)
    message = (
        "enumeration at q=2, n=2 emitted an invalid datum (f=2, a=1, w=1): "
        "closed-form sign needs a self-dual datum, got "
        "TameCharacter(q=2, f=2, a=1, w=1)"
    )
    with pytest.raises(InternalConsistencyError) as info:
        tamesigns.division.enumerate_level1_selfdual(2, 2)
    assert str(info.value) == message
    code, out, err = call_main(["enumerate", "--q", "2", "--n", "2"])
    assert (code, out) == (2, "")
    assert err == f"internal consistency failure: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--q", "2", "--n", "4"],
        ["verify-flip", "--q", "2", "--n", "4", "--recipe", "both"],
    ],
)
def test_vanishing_scan_oracle_exits_two(monkeypatch, argv):
    # a vanishing indicator is one more value off the closed form in
    # checked_sign, and its message names n, psi's (f, a, c) and G
    monkeypatch.setattr(tamesigns.division, "fs_indicator", lambda G, psi: 0)
    code, out, err = call_main(argv)
    assert code == 2
    assert out == ""
    assert err == (
        "internal consistency failure: closed-form sign 1 disagrees with the "
        "Frobenius-Schur indicator 0 for TameCharacter(q=2, f=2, a=1, w=1) "
        "at n=4: psi=Irrep(f=2, a=5, c=0, "
        "group=MetacyclicGroup(m=15, N=8, s=2))\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--q", "2", "--n", "4"],
        ["verify-flip", "--q", "2", "--n", "4", "--recipe", "both"],
    ],
)
def test_dropped_orbit_fails_the_cell_count_and_exits_two(monkeypatch, argv):
    # misreport the f = 4 orbit of k = 1 mod 5 (a = 3 mod 15), the only
    # orbit of its size, as size 8: the scan drops it, and the Moebius
    # count catches it
    real = tamesigns.division.orbit_partition

    def misreported(s, m):
        sizes = real(s, m)
        assert m != 5 or sizes[4] == [1]
        return {8 if (m, f) == (5, 4) else f: ks for f, ks in sizes.items()}

    monkeypatch.setattr(tamesigns.division, "orbit_partition", misreported)
    code, out, err = call_main(argv)
    assert code == 2
    assert out == ""
    assert err == (
        "internal consistency failure: enumeration at q=2, n=4 found 2 "
        "self-dual rows, but the Moebius count predicts 4\n"
    )


def test_flip_case_analysis_disagreement_exits_two(monkeypatch):
    # every flip prediction is the case analysis at m = 1, checked
    # against the transfer formula: break the formula there
    real = tamesigns.signs.transfer_sign
    monkeypatch.setattr(
        tamesigns.signs,
        "transfer_sign",
        lambda m, r, sign: -real(m, r, sign) if m == 1 else real(m, r, sign),
    )
    code, out, err = call_main(
        ["verify-flip", "--q", "2", "--n", "4", "--recipe", "both"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("internal consistency failure: case analysis ")


def _remainder_fault(monkeypatch):
    real = cyclotomic._poly_divexact
    monkeypatch.setattr(
        cyclotomic, "_poly_divexact",
        lambda num, den, r, p: real([num[0] + 1, *num[1:]], den, r, p),
    )


def _non_monic_fault(monkeypatch):
    real = cyclotomic.cyclotomic_polynomial
    monkeypatch.setattr(
        cyclotomic, "cyclotomic_polynomial", lambda M: (*real(M)[:-1], (real(M)[-1][0], 2))
    )


@pytest.mark.parametrize(
    "inject,message",
    [(_remainder_fault, "left a remainder"), (_non_monic_fault, "is not monic")],
    ids=["poly_divexact", "phi_tail"],
)
def test_cyclotomic_fault_exits_two(monkeypatch, fresh_polynomial_caches,
                                    fresh_groups, inject, message):
    inject(monkeypatch)
    code, out, err = call_main(WEIL_SELFDUAL)
    assert code == 2
    assert out == ""
    assert err.startswith("internal consistency failure: ") and message in err
    assert "Traceback" not in err


def test_pr_falsification_exits_three(monkeypatch):
    bad_row = FlipRow(
        q=2, n=2, recipe="PR", f=2, e=1, a=1, w=1,
        sign_closed=1, sign_oracle=1, param_w=-1, param_sign=-1,
        predicted=-1, consistent=False,
    )

    def fake_verify(q, n, recipe):
        return (bad_row,)

    monkeypatch.setattr(cli, "verify_flip", fake_verify)
    code, out, _ = call_main(["verify-flip", "--q", "2", "--n", "2"])
    assert code == 3
    assert out.splitlines()[-1].endswith(",false")


def test_enumerate_skips_non_prime_powers_in_range():
    code, out, _ = call_main(["enumerate", "--q", "2..6", "--n", "2"])
    assert code == 0
    qs = {row.split(",")[0] for row in out.splitlines() if row[0].isdigit()}
    assert qs == {"2", "3", "4", "5"}


def test_enumerate_odd_n_has_no_rows():
    code, out, _ = call_main(["enumerate", "--q", "2", "--n", "3"])
    assert code == 0
    assert [l for l in out.splitlines() if l and l[0].isdigit()] == []


WEIL_SELFDUAL = ["sign", "--side", "weil", "--q", "2", "--f", "2", "--a", "1", "--w", "-1"]
WEIL_NOT_SELFDUAL = [
    "sign", "--side", "weil", "--q", "3", "--f", "2", "--a", "1", "--w", "-1"
]


@pytest.mark.parametrize(
    "route, message",
    [
        ("character_field",
         "selfdual=True, field of values real=False and Frobenius-Schur "
         "indicator -1 disagree for TameCharacter(q=2, f=2, a=1, w=-1): "
         "psi=Irrep(f=2, a=1, c=1, group=MetacyclicGroup(m=3, N=4, s=2))"),
        ("fs_indicator",
         "selfdual=False, field of values real=False and Frobenius-Schur "
         "indicator 1 disagree for TameCharacter(q=3, f=2, a=1, w=-1): "
         "psi=Irrep(f=2, a=1, c=1, group=MetacyclicGroup(m=8, N=4, s=3))"),
    ],
    ids=["character_field", "fs_indicator"],
)
def test_sign_realness_cross_check_exits_two(monkeypatch, route, message):
    # the field is real exactly when the indicator is nonzero; break one
    # route. cli reads the indicator only for a datum that is not
    # self-dual, and there a nonzero indicator meets a non-real field
    argv = WEIL_SELFDUAL
    if route == "character_field":
        real_field = cli.character_field

        def broken(G, psi):
            field = real_field(G, psi)
            minus_one = field.modulus - 1
            stab = tuple(j for j in field.stabilizer if j != minus_one)
            return CharacterField(field.conductor, field.modulus, stab, field.degree)

        monkeypatch.setattr(cli, "character_field", broken)
    else:
        monkeypatch.setattr(cli, "fs_indicator", lambda G, psi: 1)
        argv = WEIL_NOT_SELFDUAL
    code, out, err = call_main(argv)
    assert (code, out) == (2, "")
    assert err == f"internal consistency failure: {message}\n"


@pytest.mark.parametrize(
    "rule, datum, message",
    [
        # at q = 3, f = 2, a = 2 is self-dual; with n = f = 2 both sides
        # read the one model C_8 x| C_4, whose indicator cli reads for a
        # datum it takes for not self-dual
        (False, ("3", "2", "2"),
         "selfdual=False, field of values real=True and Frobenius-Schur "
         "indicator -1 disagree for TameCharacter(q=3, f=2, a=2, w=-1): "
         "psi=Irrep(f=2, a=2, c=1, group=MetacyclicGroup(m=8, N=4, s=3))"),
        # at q = 2, f = 4, a = 1 is not self-dual; with n = f = 4 both
        # sides read the one model C_15 x| C_8, and checked_sign compares
        # its indicator 0 with the closed form w. (At q = 3, a = 1 the
        # closed form's own (q - 1) | a check would refuse it first.)
        (True, ("2", "4", "1"),
         "closed-form sign -1 disagrees with the Frobenius-Schur indicator 0 "
         "for TameCharacter(q=2, f=4, a=1, w=-1) at n=4: "
         "psi=Irrep(f=4, a=1, c=1, group=MetacyclicGroup(m=15, N=8, s=2))"),
    ],
    ids=["selfdual-read-as-not", "not-selfdual-read-as-selfdual"],
)
@pytest.mark.parametrize("side", ["division", "weil"])
def test_sign_selfduality_cross_check_exits_two(
    monkeypatch, side, rule, datum, message
):
    # the rule's decision must match a nonzero indicator of the model
    monkeypatch.setattr(tamesigns.division, "_selfdual_rule", lambda *datum: rule)
    q, f, a = datum
    n = ["--n", f] if side == "division" else []
    argv = ["sign", "--side", side, "--q", q, *n, "--f", f, "--a", a, "--w", "-1"]
    code, out, err = call_main(argv)
    assert (code, out) == (2, "")
    assert err == f"internal consistency failure: {message}\n"


def test_off_by_one_fs_sum_fails_the_indicator_and_exits_two(
    monkeypatch, fresh_groups
):
    # the FS builder reads its sum as |G| * c: a sum off by one is not a
    # multiple of |G| = 12 on the weil-side model C_3 x| C_4
    real = tamesigns.metacyclic.root_sum

    def off_by_one(conductor, counts):
        return cyclotomic.cyc_add(
            real(conductor, counts), cyclotomic.cyc_integer(1, conductor)
        )

    monkeypatch.setattr(tamesigns.metacyclic, "root_sum", off_by_one)
    G = tamesigns.metacyclic.make_group(3, 4, 2)
    psi = tamesigns.metacyclic.Irrep(2, 1, 1, G)
    with pytest.raises(InternalConsistencyError) as info:
        tamesigns.metacyclic.fs_indicator(G, psi)
    message = (
        "FS sum for psi=Irrep(f=2, a=1, c=1, group=MetacyclicGroup(m=3, N=4, "
        "s=2)) is not |G| * c with c in {-1, 0, 1}: |G| = 12, "
        "sum = CycInt(2, (-11,))"
    )
    assert str(info.value) == message
    # sign checks its model once, as an Irrep, and the text names it
    code, out, err = call_main(WEIL_SELFDUAL)
    assert (code, out) == (2, "")
    assert err == f"internal consistency failure: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        WEIL_SELFDUAL,
        ["sign", "--side", "division", "--q", "2", "--n", "4",
         "--f", "2", "--a", "1", "--w", "-1"],
        ["sign", "--side", "division", "--q", "3", "--n", "2",
         "--f", "2", "--a", "1", "--w", "1"],
    ],
    ids=["weil", "division", "not-selfdual"],
)
def test_sign_checks_its_model_irreducible_once(
    monkeypatch, fresh_groups, argv
):
    # on a fresh group, the model is checked once, when division_model
    # builds its Irrep; the routes then trust it on its group
    real = tamesigns.metacyclic.is_irreducible_induced
    checks = []
    monkeypatch.setattr(
        tamesigns.metacyclic,
        "is_irreducible_induced",
        lambda G, psi: checks.append(psi) or real(G, psi),
    )
    code, _, _ = call_main(argv)
    assert code == 0
    assert len(checks) == 1


def test_sign_builds_its_model_once(monkeypatch):
    # one division_model call, and so one orbit_irreps call, per query on
    # either side: sign_weil_closed_form reads the model cmd_sign built
    real_model = tamesigns.cli.division_model
    real_irreps = tamesigns.division.orbit_irreps
    models, irreps = [], []
    monkeypatch.setattr(
        tamesigns.cli,
        "division_model",
        lambda n, chi: models.append((n, chi)) or real_model(n, chi),
    )
    monkeypatch.setattr(
        tamesigns.division,
        "orbit_irreps",
        lambda *args: irreps.append(args) or real_irreps(*args),
    )
    for argv in (
        WEIL_SELFDUAL,
        ["sign", "--side", "weil", "--q", "5", "--f", "1", "--a", "2", "--w", "-1"],
        ["sign", "--side", "weil", "--q", "4", "--f", "2", "--a", "6", "--w", "1"],
        ["sign", "--side", "weil", "--q", "3", "--f", "2", "--a", "1", "--w", "1"],
        ["sign", "--side", "division", "--q", "2", "--n", "4",
         "--f", "2", "--a", "1", "--w", "-1"],
    ):
        models.clear()
        irreps.clear()
        code, _, _ = call_main(argv)
        assert code == 0, argv
        assert len(models) == len(irreps) == 1, argv


@pytest.mark.parametrize(
    "argv",
    [
        WEIL_SELFDUAL,
        ["sign", "--side", "weil", "--q", "5", "--f", "1", "--a", "2", "--w", "-1"],
        WEIL_NOT_SELFDUAL,
        ["sign", "--side", "division", "--q", "2", "--n", "4",
         "--f", "2", "--a", "1", "--w", "-1"],
        ["sign", "--side", "division", "--q", "3", "--n", "2",
         "--f", "2", "--a", "1", "--w", "1"],
    ],
    ids=["weil", "weil-f1", "weil-not-selfdual", "division", "division-not-selfdual"],
)
def test_sign_reads_the_indicator_once(monkeypatch, argv):
    # a self-dual datum's indicator is read in checked_sign, which returns
    # it only when it equals the closed form, and any other datum's by cli
    # itself; either way once, and that value is the printed sign_oracle
    reads = []
    for module in (cli, tamesigns.division):

        def counted(G, psi, real=module.fs_indicator):
            reads.append(real(G, psi))
            return reads[-1]

        monkeypatch.setattr(module, "fs_indicator", counted)
    code, out, _ = call_main([*argv, "--format", "json"])
    assert code == 0
    assert reads == [json.loads(out)["rows"][0]["sign_oracle"]]


@pytest.mark.parametrize(
    "argv, datum",
    [
        (
            ["sign", "--side", "division", "--q", "2", "--n", "4",
             "--f", "2", "--a", "1", "--w", "-1"],
            "TameCharacter(q=2, f=2, a=1, w=-1) at n=4: psi=Irrep(f=2, a=5, "
            "c=2, group=MetacyclicGroup(m=15, N=8, s=2))",
        ),
        (
            WEIL_SELFDUAL,
            "TameCharacter(q=2, f=2, a=1, w=-1) at n=2: psi=Irrep(f=2, a=1, "
            "c=1, group=MetacyclicGroup(m=3, N=4, s=2))",
        ),
    ],
    ids=["division", "weil"],
)
def test_sign_closed_form_oracle_disagreement_exits_two(monkeypatch, argv, datum):
    # a negated indicator is still nonzero, so sign's self-duality
    # prediction holds, and only the comparison with the closed form, in
    # division's checked_sign, can catch it
    real = tamesigns.division.fs_indicator
    monkeypatch.setattr(
        tamesigns.division, "fs_indicator", lambda G, psi: -real(G, psi)
    )
    code, out, err = call_main(argv)
    assert (code, out) == (2, "")
    assert err == (
        "internal consistency failure: closed-form sign -1 disagrees with "
        f"the Frobenius-Schur indicator 1 for {datum}\n"
    )


def test_sign_refuses_models_above_the_limit(run_cli):
    assert cli.MAX_SIGN_CONDUCTOR >= 531_440  # the largest benchmarked conductor
    for argv in (
        ["sign", "--side", "weil", "--q", "2", "--f", "1000000000", "--a", "1", "--w", "1"],
        ["sign", "--side", "division", "--q", "2", "--n", "1000000000", "--f", "2",
         "--a", "1", "--w", "1"],
        ["sign", "--side", "division", "--q", "2", "--n", "4", "--f", "1000000000",
         "--a", "1", "--w", "1"],
        ["sign", "--side", "weil", "--q", "1000000000039", "--f", "2", "--a", "1",
         "--w", "1"],
    ):
        proc = run_cli(argv, timeout=60)
        assert proc.returncode == 1, argv
        assert proc.stdout == b""
        err = proc.stderr.decode()
        assert "usage error: model too large" in err, err
        assert f"MAX_SIGN_CONDUCTOR = {cli.MAX_SIGN_CONDUCTOR}" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,conductor",
    [
        # lcm(2^4 - 1, 2*4/2) and lcm(2^2 - 1, 2)
        (["sign", "--side", "division", "--q", "2", "--n", "4", "--f", "2",
          "--a", "1", "--w", "-1"], 60),
        (WEIL_SELFDUAL, 6),
    ],
)
def test_sign_limit_admits_its_own_conductor(monkeypatch, argv, conductor):
    monkeypatch.setattr(cli, "MAX_SIGN_CONDUCTOR", conductor)
    code, out, _ = call_main(argv)
    assert code == 0
    assert out.splitlines()[-1].split(",")[-2] == str(conductor)
    monkeypatch.setattr(cli, "MAX_SIGN_CONDUCTOR", conductor - 1)
    code, out, err = call_main(argv)
    assert code == 1
    assert out == ""
    assert f"MAX_SIGN_CONDUCTOR = {conductor - 1}" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["enumerate", "--q", "2", "--n", "200"],
         "grid too large: its cells through q=2, n=200 hold more than "
         f"MAX_GRID_ROWS = {cli.MAX_GRID_ROWS} self-dual entries"),
        (["verify-flip", "--q", "2", "--n", "200"],
         "grid too large: its cells through q=2, n=200 hold more than "
         f"MAX_GRID_ROWS = {cli.MAX_GRID_ROWS} self-dual entries"),
        # the top of both ranges: the count itself has about 2,470 digits
        (["enumerate", "--q", "65536", "--n", "1024"],
         "grid too large: its cells through q=65536, n=1024 hold more than "
         f"MAX_GRID_ROWS = {cli.MAX_GRID_ROWS} self-dual entries"),
        (["enumerate", "--q", "2..3", "--n", "1..999999999999"],
         f"n=999999999999 exceeds the limit MAX_GRID_N = {cli.MAX_GRID_N}"),
        (["enumerate", "--q", "2", "--n=-999999999999..3"],
         "n must be >= 1, got range '-999999999999..3'"),
        (["enumerate", "--q", "2305843009213693951", "--n", "1"],
         f"q=2305843009213693951 exceeds the limit MAX_GRID_Q = {cli.MAX_GRID_Q}"),
    ],
    ids=["rows-enumerate", "rows-verify-flip", "rows-top", "n-range", "n-below-one",
         "q"],
)
def test_grid_is_refused_before_it_starts(run_cli, argv, message):
    proc = run_cli(argv, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode() == f"usage error: {message}\n"


def test_grid_limit_admits_its_own_row_count(monkeypatch):
    # flip_grid is the largest grid that the tests and the benchmark run
    flip_grid = [(q, n) for q in range(2, 17) if is_prime_power(q) for n in range(2, 9)]
    assert sum(selfdual_row_count(q, n) for q, n in flip_grid) == 34_886
    assert 34_886 <= cli.MAX_GRID_ROWS
    argv = ["enumerate", "--q", "2", "--n", "4"]  # 4 rows
    monkeypatch.setattr(cli, "MAX_GRID_ROWS", 4)
    code, out, _ = call_main(argv)
    assert code == 0 and len(out.splitlines()) == 3 + 4
    monkeypatch.setattr(cli, "MAX_GRID_ROWS", 3)
    code, out, err = call_main(argv)
    assert (code, out) == (1, "")
    assert err.endswith("hold more than MAX_GRID_ROWS = 3 self-dual entries\n")


def test_grid_refusal_does_not_build_the_grid():
    # the count stops at cell (2, 48) of 618,496; a list of every (q, n)
    # cell, built before the count, would peak near 38 MiB
    tracemalloc.start()
    try:
        code, out, err = call_main(["enumerate", "--q", "2..4096", "--n", "1..1024"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == (
        "usage error: grid too large: its cells through q=2, n=48 hold more "
        f"than MAX_GRID_ROWS = {cli.MAX_GRID_ROWS} self-dual entries\n"
    )
    assert peak < 2 * 2**20, peak


def test_parser_reuse_matches_a_fresh_process(run_cli):
    sequence = (
        ["sign", "--side", "mixed", "--q", "3", "--f", "2", "--a", "2", "--w", "1"],
        WEIL_SELFDUAL,
        ["sign", "--side", "division", "--q", "2", "--f", "2", "--a", "1", "--w", "1"],
        ["enumerate", "--q", "2", "--n", "2", "--jobs", "1"],
        WEIL_SELFDUAL + ["--format", "json"],
        [],
        ["product-check", "+1"],
    )
    in_process = [call_main(argv) for argv in sequence]
    assert cli.build_parser("sign") is cli.build_parser("sign")
    for argv, (code, out, err) in zip(sequence, in_process):
        proc = run_cli(argv, timeout=60)
        assert (code, out, err) == (
            proc.returncode, proc.stdout.decode(), proc.stderr.decode()
        ), argv
    assert [code for code, _, _ in in_process] == [1, 0, 1, 1, 0, 1, 1]


@st.composite
def sign_argv(draw):
    """A `sign` argv with small q, n, f; one option may be broken or dropped."""
    side = draw(st.sampled_from(["division", "weil"]))
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    f = draw(st.integers(1, 3))
    options = {
        "--side": side,
        "--q": str(q),
        "--n": str(f * draw(st.integers(1, 2))) if side == "division" else None,
        "--f": str(f),
        "--a": str(draw(st.integers(0, q**f - 1))),
        "--w": draw(st.sampled_from(["+1", "-1"])),
        "--format": draw(st.sampled_from([None, "csv", "json"])),
    }
    broken = draw(st.sampled_from([None] * 6 + list(options)))
    if broken is not None:
        options[broken] = draw(
            st.sampled_from([None, "x", "0", "-1", "6", "1000000000"])
        )
    return ["sign"] + [
        token
        for name, value in options.items()
        if value is not None
        for token in (name, value)
    ]


@settings(max_examples=150, deadline=None)
@given(sign_argv())
def test_sign_argv_fuzz_exits_cleanly_and_repeats(argv):
    first = call_main(argv)
    code, out, err = first
    assert code in (0, 1), (argv, first)
    if code == 0:
        assert out and err == ""
    else:
        assert out == "" and err.startswith("usage error: "), (argv, first)
    assert call_main(argv) == first


RANGE_WIDTH = 3  # at most this many values per --q or --n range


@st.composite
def small_range(draw, hi):
    """'k' or 'lo..hi' with 1 <= lo <= hi <= hi, at most RANGE_WIDTH wide."""
    lo = draw(st.integers(1, hi))
    top = draw(st.integers(lo, min(hi, lo + RANGE_WIDTH - 1)))
    return str(lo) if lo == top else f"{lo}..{top}"


@st.composite
def grid_argv(draw):
    """An enumerate or verify-flip argv over a tiny grid; one option may
    be broken or dropped."""
    command = draw(st.sampled_from(["enumerate", "verify-flip"]))
    options = {
        "--q": draw(small_range(9)),
        "--n": draw(small_range(6)),
        "--recipe": (
            draw(st.sampled_from([None, "PR", "SZ", "both"]))
            if command == "verify-flip" else None
        ),
        "--format": draw(st.sampled_from([None, "csv", "json"])),
    }
    broken = draw(st.sampled_from([None] * 4 + list(options)))
    if broken is not None:
        options[broken] = draw(st.sampled_from([None, "x", "0", "-1", "5..3", "2..x"]))
    return [command] + [
        token
        for name, value in options.items()
        if value is not None
        for token in (name, value)
    ]


@settings(max_examples=100, deadline=None)
@given(grid_argv())
def test_grid_argv_fuzz_exits_cleanly_and_repeats(argv):
    first = call_main(argv)
    code, out, err = first
    assert code in (0, 1), (argv, first)
    if code == 0:
        assert out and err == ""
    else:
        assert out == "" and err.startswith("usage error: "), (argv, first)
    assert call_main(argv) == first
