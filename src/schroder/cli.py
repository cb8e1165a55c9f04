"""Command line front end.

Streams are JSON lines, single results are one JSON document, tables are
TSV.  Identical invocations produce byte-identical output, so every
subcommand enumerates and serializes in a fixed order.  Exit codes: 0 for
success or YES, 1 for NO or a failed verification, 2 for usage errors or
malformed input, 3 for UNKNOWN, 4 for an internal error (a failed self-check,
i.e. a bug).
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import classes, cohomology_isomorphic_bounded, verify_theorem1
from .cohomology import schroeder_presentation
from .combinatorics import (
    Dissection,
    canonical_form,
    dissection_to_tree,
    dissection_trees,
    kirkman_cayley,
    riordan_table,
    tree_to_dissection,
)
from .errors import InternalError
from .fan import is_fano


class _InputError(Exception):
    """Unusable command input: missing file, bad JSON, invalid dissection."""


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
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
    try:
        return Dissection.from_json(json.loads(raw))
    except (json.JSONDecodeError, ValueError, TypeError) as exc:
        raise _InputError(f"not a dissection document ({path}): {exc}") from None


def cmd_enumerate(args) -> int:
    lines = []
    count = 0
    for tree in dissection_trees(args.n, args.k):
        d = tree_to_dissection(tree)
        record = {
            "n": d.n,
            "diagonals": [list(e) for e in d.diagonals],
            "tree": tree.to_json(),
        }
        lines.append(json.dumps(record, sort_keys=True))
        count += 1
    ks = range(1, args.n + 1) if args.k is None else [args.k]
    if count != sum(kirkman_cayley(args.n, k) for k in ks):
        raise InternalError("enumeration count disagrees with the closed form")
    lines.append(json.dumps({"count": count}))
    _emit("\n".join(lines) + "\n", args.out)
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
    _emit(json.dumps(ring.to_json(), sort_keys=True) + "\n", args.out)
    return 0


def cmd_fano(args) -> int:
    certificate = is_fano(_load_dissection(args.file))
    _emit(json.dumps(certificate.to_json(), sort_keys=True) + "\n", args.out)
    return 0 if certificate else 1


def cmd_iso(args) -> int:
    verdict = cohomology_isomorphic_bounded(
        _load_dissection(args.first), _load_dissection(args.second), args.bound
    )
    _emit(json.dumps(verdict.to_json(), sort_keys=True) + "\n", args.out)
    return {"YES": 0, "NO": 1, "UNKNOWN": 3}[verdict.status]


def cmd_classify(args) -> int:
    ks = range(1, args.n + 1) if args.k is None else [args.k]
    by_k: dict[int, list] = {k: [] for k in ks}
    for trees in classes(args.n, args.k).values():
        rep = tree_to_dissection(canonical_form(trees[0]))
        by_k[trees[0].internal_count].append(rep.diagonals)
    tables = [
        {
            "k": k,
            "count": len(reps),
            "representatives": [[list(e) for e in diags] for diags in sorted(reps)],
        }
        for k, reps in by_k.items()
    ]
    reports = [
        verify_theorem1(args.n, k, args.bound)
        for k in ks
        if k <= 3 or k == args.n
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
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    return 0 if all(r.ok for r in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schroder",
        description="Toric varieties from polygon dissections: enumeration, "
        "Fano certificates, cohomology rings, classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream all dissections as JSON lines")
    p.add_argument("--n", type=int, required=True, help="polygon has n+2 vertices")
    p.add_argument("--k", type=int, help="only dissections with k cells")
    p.add_argument("--out", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("table", help="TSV table of class counts per n and k")
    p.add_argument("--n", type=int, default=10, help="last row of the table")
    p.add_argument("--out", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("cohomology", help="cohomology ring of one dissection")
    p.add_argument("file", nargs="?", default="-", help="dissection JSON ('-' = stdin)")
    p.add_argument("--out", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("fano", help="Fano certificate of one dissection")
    p.add_argument("file", nargs="?", default="-", help="dissection JSON ('-' = stdin)")
    p.add_argument("--out", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_fano)

    p = sub.add_parser("classify", help="isomorphism class tables and verification")
    p.add_argument("--n", type=int, required=True, help="polygon has n+2 vertices")
    p.add_argument("--k", type=int, help="only dissections with k cells")
    p.add_argument("--bound", type=int, help="also search for witnesses within classes")
    p.add_argument(
        "--format", choices=("json", "tsv"), default="tsv", help="output shape"
    )
    p.add_argument("--out", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("iso", help="bounded ring isomorphism check for two dissections")
    p.add_argument("first", help="dissection JSON ('-' = stdin)")
    p.add_argument("second", help="dissection JSON ('-' = stdin)")
    p.add_argument("--bound", type=int, default=2, help="coefficient bound for the search")
    p.add_argument("--out", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_iso)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
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
