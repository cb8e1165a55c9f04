"""The parser of plain invocations against argparse: the same fields where
it parses, None wherever argparse would exit, and every documented call
parsed without argparse."""

import contextlib
import importlib.util
import io
import shlex
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import schroder.cli as cli


def argparse_fields(argv):
    """vars() of argparse's parse of `argv`, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


FLAGS = ["--n", "--k", "--out", "--bound", "--format"]
NUMBERS = ["0", "1", "2", "3", "12", "+3", " 4", "3_0", "\u0663"]
NAMES = ["x", "", "json", "tsv", "xml", "-", "a.json", "a b", "3.0"]
DASHED = ["-1", "--", "-h", "--n=3"]
TOKENS = [
    *cli._COMMANDS, *FLAGS, *NUMBERS, *NAMES, *DASHED,
    "-2", "--b", "--bou", "--fo", "--o", "--ou", "--h", "-n", "--help",
    "--k=1", "--out=x", "--bound=2", "--format=json",
]
# What each subcommand needs to parse at all.
CORE = {
    "enumerate": [("--n", "3")], "classify": [("--n", "3")], "iso": [("a",), ("b",)]
}


def plain_shaped(command):
    """A subcommand, then its core, flags with values and positionals, in any
    order; the flags are mostly its own."""
    flags = [name for name, _ in cli._COMMANDS[command][1] if name.startswith("--")]
    flag = st.tuples(
        st.sampled_from(flags * 3 + FLAGS), st.sampled_from(NUMBERS + NAMES)
    )
    group = st.one_of(
        flag, flag, flag, st.tuples(st.sampled_from(NAMES + NUMBERS + DASHED))
    )
    return (
        st.lists(group, max_size=3)
        .flatmap(lambda groups: st.permutations(CORE.get(command, []) + groups))
        .map(lambda groups: [command] + [word for g in groups for word in g])
    )


# Any words at all, and, twice as often, words shaped like a plain call.
PLAIN_SHAPED = st.sampled_from(list(cli._COMMANDS)).flatmap(plain_shaped)
ANY_WORDS = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=8)
ARGV = st.one_of(ANY_WORDS, PLAIN_SHAPED, PLAIN_SHAPED)


@settings(max_examples=1500, deadline=None)
@given(ARGV)
def test_quick_parse_agrees_with_argparse(argv):
    quick = cli._quick_parse(argv)
    expected = argparse_fields(argv)
    if expected is None:
        assert quick is None
    elif quick is not None:
        assert vars(quick) == expected


def readme_argvs():
    """The argv of every `schroder` call in the README's shell examples."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    return [
        shlex.split(line.split("schroder ", 1)[1].split("|")[0])
        for block in readme.split("```sh\n")[1:]
        for line in block.split("```")[0].splitlines()
        if "schroder " in line and not line.startswith("#")
    ]


def perfbench_argvs(monkeypatch, tmp_path):
    """The argv of every CLI call that perfbench's run_* functions make."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_server", bench / "server.py")
    server = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(server)
    argvs = []
    monkeypatch.setattr(server, "_cli", lambda argv, *rest: argvs.append(argv))
    ops = {
        "enumerate": {"n": 3},
        "classify": {"n": 3},
        "certify": {"n": 3, "diagonals": [[1, 3]]},
        "iso": {"bound": 2},
    }
    for kind, op in ops.items():
        server.KINDS[kind][1](op, str(tmp_path))
    return argvs


def test_documented_calls_take_the_quick_path(monkeypatch, tmp_path):
    readme, bench = readme_argvs(), perfbench_argvs(monkeypatch, tmp_path)
    assert len(readme) == 7 and len(bench) == 5
    for argv in readme + bench:
        quick = cli._quick_parse(argv)
        assert quick is not None, argv
        assert vars(quick) == argparse_fields(argv)
