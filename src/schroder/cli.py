"""Command line front end.

Streams are JSON lines, single results are one JSON document, tables are
TSV.  Identical invocations produce byte-identical output, so every
subcommand enumerates and serializes in a fixed order.  Exit codes: 0 for
success or YES, 1 for NO or a failed verification, 2 for usage errors,
malformed input, an --out file that cannot be opened or a classify grid past
its point limit, 3 for UNKNOWN, 4 for an internal error (a failed
self-check, i.e. a bug).  A reader that closes the pipe early (``| head``)
cuts the output short but changes neither the exit code nor stderr.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
from types import SimpleNamespace

from .classify import cohomology_isomorphic_bounded, verify_theorem1
from .cohomology import schroeder_presentation
from .combinatorics import (
    Dissection,
    _dissection_records,
    class_trees,
    dissection_to_tree,
    kirkman_cayley,
    riordan_table,
    tree_to_dissection,
)
from .errors import InternalError
from .fan import is_fano


# json.dumps(obj, sort_keys=True), without a new encoder for every call or
# the circular-reference check: every document is a fresh tree of lists/dicts.
_sorted_json = json.JSONEncoder(sort_keys=True, check_circular=False).encode


class _InputError(Exception):
    """Unusable command input: missing file, bad JSON, invalid dissection,
    an --out path that cannot be opened, a classify grid past its limit."""


@contextlib.contextmanager
def _output(out: str | None):
    """The stream a command writes to: the file `out`, or stdout.

    When the reader of stdout goes away, the rest of the output goes to the
    null device instead, so neither the command's remaining writes nor the
    flush at interpreter exit can fail; the command skips to its end.
    """
    if out is not None:
        try:
            fh = open(out, "w", encoding="utf-8")
        except OSError as exc:
            raise _InputError(f"cannot write {out}: {exc}") from None
        with fh:
            yield fh
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


def _load_dissection(path: str) -> Dissection:
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _InputError(f"not a dissection document ({path}): {exc}") from None
    try:
        return Dissection.from_json(json.loads(raw))
    except (json.JSONDecodeError, ValueError, TypeError, RecursionError) as exc:
        raise _InputError(f"not a dissection document ({path}): {exc}") from None


def cmd_enumerate(args) -> int:
    """Write each record as soon as it is made, then the count trailer.

    A record is assembled from its JSON texts as _sorted_json would write
    its document: keys "diagonals", "n", "tree" in that order, the default
    separators.
    """
    with _output(args.out) as fh:
        count = 0
        middle = f', "n": {args.n}, "tree": '
        for _, diagonals, tree in _dissection_records(args.n, args.k):
            fh.write('{"diagonals": ' + diagonals + middle + tree + "}\n")
            count += 1
        ks = range(1, args.n + 1) if args.k is None else [args.k]
        if count != sum(kirkman_cayley(args.n, k) for k in ks):
            raise InternalError("enumeration count disagrees with the closed form")
        fh.write(json.dumps({"count": count}) + "\n")
    return 0


def cmd_table(args) -> int:
    table = riordan_table(args.n)
    rows = []
    for n in range(1, args.n + 1):
        row = ",".join(str(c) for c in table.row(n))
        rows.append(f"{n}\t{row}\t{table.total(n)}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def cmd_cohomology(args) -> int:
    ring = schroeder_presentation(dissection_to_tree(_load_dissection(args.file)))
    _emit(_sorted_json(ring.to_json()) + "\n", args.out)
    return 0


def cmd_fano(args) -> int:
    certificate = is_fano(_load_dissection(args.file))
    _emit(_sorted_json(certificate.to_json()) + "\n", args.out)
    return 0 if certificate else 1


def cmd_iso(args) -> int:
    verdict = cohomology_isomorphic_bounded(
        _load_dissection(args.first), _load_dissection(args.second), args.bound
    )
    _emit(_sorted_json(verdict.to_json()) + "\n", args.out)
    return {"YES": 0, "NO": 1, "UNKNOWN": 3}[verdict.status]


def cmd_classify(args) -> int:
    ks = range(1, args.n + 1) if args.k is None else [args.k]
    try:
        # Largest k first: only the k = n grid can pass the point limit, and
        # then neither the smaller slices nor the tables need to run.
        reports = [
            verify_theorem1(args.n, k, args.bound)
            for k in reversed(ks)
            if k <= 3 or k == args.n
        ][::-1]
    except ValueError as exc:  # a fingerprint grid past the point limit
        raise _InputError(str(exc)) from None
    by_k: dict[int, list] = {k: [] for k in ks}
    for tree in class_trees(args.n, args.k):
        by_k[tree.internal_count].append(tree_to_dissection(tree).diagonals)
    tables = [
        {
            "k": k,
            "count": len(reps),
            "representatives": [[list(e) for e in diags] for diags in sorted(reps)],
        }
        for k, reps in by_k.items()
    ]
    if args.format == "tsv":
        lines = []
        for t in tables:
            reps = ";".join(
                json.dumps(r, separators=(",", ":")) for r in t["representatives"]
            )
            lines.append(f"{args.n}\t{t['k']}\t{t['count']}\t{reps}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        doc = {
            "n": args.n,
            "tables": tables,
            "reports": [r.to_json() for r in reports],
        }
        _emit(_sorted_json(doc) + "\n", args.out)
    return 0 if all(r.ok for r in reports) else 1


# Every subcommand, in help order: name -> (help, argument specs), a spec
# being the arguments of one `add_argument` call.  Subcommand NAME runs
# cmd_NAME, looked up when it is parsed, so a wrapped command is the one run.
_DOC = "dissection JSON ('-' = stdin)"
_N = ("--n", dict(type=int, required=True, help="polygon has n+2 vertices"))
_K = ("--k", dict(type=int, help="only dissections with k cells"))
_OUT = ("--out", dict(help="write to this file instead of stdout"))
_FILE = ("file", dict(nargs="?", default="-", help=_DOC))
_COMMANDS = {
    "enumerate": ("stream all dissections as JSON lines", (_N, _K, _OUT)),
    "table": ("TSV table of class counts per n and k", (
        ("--n", dict(type=int, default=10, help="last row of the table")), _OUT)),
    "cohomology": ("cohomology ring of one dissection", (_FILE, _OUT)),
    "fano": ("Fano certificate of one dissection", (_FILE, _OUT)),
    "classify": ("isomorphism class tables and verification", (
        _N, _K,
        ("--bound", dict(type=int, help="also search for witnesses within classes")),
        ("--format", dict(choices=("json", "tsv"), default="tsv", help="output shape")),
        _OUT)),
    "iso": ("bounded ring isomorphism check for two dissections", (
        ("first", dict(help=_DOC)), ("second", dict(help=_DOC)),
        ("--bound", dict(type=int, default=2, help="coefficient bound for the search")),
        _OUT)),
}


def _quick_parse(argv):
    """The arguments of a plain invocation, exactly as argparse parses them.

    Plain: a known subcommand, then exact flags, each with its value as the
    next word, and positionals; no word but "-" starts with a dash.  Anything
    else (help, abbreviations, --opt=value, --, usage errors) gives None.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    specs = _COMMANDS[argv[0]][1]
    flags = {name: kw for name, kw in specs if name.startswith("--")}
    slots = [(name, kw) for name, kw in specs if name not in flags]
    fields = {name.lstrip("-"): kw.get("default") for name, kw in specs}
    seen, words, rest = set(), [], iter(argv[1:])
    for word in rest:
        kw = flags.get(word)
        value = word if kw is None else next(rest, "--")  # "--": no value left
        if value.startswith("-") and value != "-":
            return None
        if kw is None:
            words.append(value)
            continue
        try:
            value = kw.get("type", str)(value)
        except ValueError:
            return None
        if value not in kw.get("choices", (value,)):
            return None
        fields[word[2:]] = value
        seen.add(word)
    least = sum("nargs" not in kw for _, kw in slots)
    if not least <= len(words) <= len(slots) or any(
        kw.get("required") and name not in seen for name, kw in flags.items()
    ):
        return None
    fields.update(zip((name for name, _ in slots), words))
    return SimpleNamespace(command=argv[0], func=globals()["cmd_" + argv[0]], **fields)


@functools.cache
def _build_parser():
    """The argparse parser, for the invocations `_quick_parse` leaves:
    built on first use and kept, since parsing never changes it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="schroder",
        description="Toric varieties from polygon dissections: enumeration, "
        "Fano certificates, cohomology rings, classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, specs) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, kw in specs:
            p.add_argument(name, **kw)
        p.set_defaults(func=globals()["cmd_" + command])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _quick_parse(argv) or _build_parser().parse_args(argv)
    if getattr(args, "n", 1) < 1:
        print("--n must be at least 1", file=sys.stderr)
        return 2
    if getattr(args, "k", None) is not None and not 1 <= args.k <= args.n:
        print(f"--k must be in 1..{args.n} (the value of --n)", file=sys.stderr)
        return 2
    if getattr(args, "bound", None) is not None and args.bound < 0:
        print("--bound must be nonnegative", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except _InputError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
