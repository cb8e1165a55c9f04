"""Command line behavior: formats, exit codes, determinism, round trips."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import schroder
import schroder.classify as classify
import schroder.cli as cli
import schroder.combinatorics as combinatorics
from schroder.classify import verify_theorem1
from schroder.cli import main
from schroder.combinatorics import Dissection
from schroder.errors import InternalError

RUNNING_DOC = '{"n": 8, "diagonals": [[0, 3], [0, 7], [3, 7]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_enumerate_streams_records_and_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert json.loads(lines[-1]) == {"count": 11}
    records = [json.loads(line) for line in lines[:-1]]
    assert len(records) == 11
    for rec in records:
        d = Dissection.from_json(rec)
        assert d.n == 3
        assert "tree" in rec


def test_enumerate_respects_k(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--k", "3")
    assert code == 0
    assert json.loads(out.splitlines()[-1]) == {"count": 5}
    code, out, _ = run(capsys, "enumerate", "--n", "1")
    assert code == 0
    assert out.splitlines() == ['{"diagonals": [], "n": 1, "tree": [0, 0]}', '{"count": 1}']


def test_enumerate_lines_are_sorted_json(capsys):
    # The records are assembled by hand; each must read back and encode to
    # the same text.
    for n in range(1, 8):
        for k in [None, *range(1, n + 1)]:
            argv = ["enumerate", "--n", str(n)] + ([] if k is None else ["--k", str(k)])
            code, out, _ = run(capsys, *argv)
            assert code == 0
            for line in out.splitlines():
                assert line == cli._sorted_json(json.loads(line))


def test_table_rows(capsys):
    code, out, _ = run(capsys, "table", "--n", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1\t\t1"
    assert lines[5] == "6\t1,4,10,12,6\t33"


def test_table_default_depth(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert out.splitlines()[-1].startswith("10\t1,8,44,157,382,615,634,373,98\t")


def test_cohomology_single_cell(capsys, tmp_path):
    path = write(tmp_path, "d.json", '{"n": 3, "diagonals": []}')
    code, out, _ = run(capsys, "cohomology", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["gens"] == ["x3_4"]
    assert doc["staircase"] == [4]
    assert doc["relations"] == [
        {"vars": ["x3_4"], "terms": [{"exp": [4], "coef": 1}]}
    ]


def test_cohomology_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(RUNNING_DOC))
    code, out, _ = run(capsys, "cohomology")
    assert code == 0
    assert json.loads(out)["gens"] == ["x8_9", "x3_7", "x2_3", "x6_7"]


def test_fano_certificate_and_exit(capsys, tmp_path):
    path = write(tmp_path, "d.json", RUNNING_DOC)
    code, out, _ = run(capsys, "fano", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["fano"] is True
    assert [r["degree"] for r in doc["relations"]] == [3, 1, 2, 3]


def test_iso_exit_codes(capsys, tmp_path):
    mirror_a = write(tmp_path, "a.json", '{"n": 3, "diagonals": [[1, 3]]}')
    mirror_b = write(tmp_path, "b.json", '{"n": 3, "diagonals": [[0, 2]]}')
    other = write(tmp_path, "c.json", '{"n": 3, "diagonals": []}')
    code, out, _ = run(capsys, "iso", mirror_a, mirror_b)
    assert code == 0
    assert json.loads(out)["status"] == "YES"
    code, out, _ = run(capsys, "iso", mirror_a, other)
    assert code == 1
    assert json.loads(out)["status"] == "NO"
    code, out, _ = run(capsys, "iso", "--bound", "0", mirror_a, mirror_b)
    assert code == 3
    assert json.loads(out)["status"] == "UNKNOWN"


def test_iso_declines_oversized_grid(capsys, tmp_path):
    # 100 cells: the candidate grid would have 5^100 rows.
    n = 100
    doc = json.dumps({"n": n, "diagonals": [[0, j] for j in range(2, n + 1)]})
    fan = write(tmp_path, "fan.json", doc)
    code, out, err = run(capsys, "iso", fan, fan, "--bound", "2")
    assert (code, err) == (3, "")
    assert json.loads(out) == {
        "status": "UNKNOWN",
        "detail": "grid [-2, 2]^100 exceeds the limit of 1048576 points",
        "witness": None,
    }


_TOO_WIDE = "vertices with more than 255 children are unsupported"


@pytest.mark.parametrize(
    "first, second, code, status, detail",
    [
        ((255, []), (255, []), 3, "UNKNOWN", _TOO_WIDE),
        ((254, []), (254, []), 0, "YES", None),
        ((255, []), (255, [[0, 2]]), 1, "NO", "generator counts differ: 1 vs 2"),
        (
            (255, [[0, 2]]),
            (255, [[0, 3]]),
            1,
            "NO",
            "staircase exponent multisets differ: [2, 255] vs [3, 254]",
        ),
        ((256, [[0, 2]]), (256, [[1, 3]]), 3, "UNKNOWN", _TOO_WIDE),
    ],
    ids=["256-children", "255-children", "counts", "staircase", "256-children-pair"],
)
def test_iso_on_one_wide_cell(capsys, tmp_path, first, second, code, status, detail):
    """Canonical codes hold a child count in one byte: past 255 children the
    answer is UNKNOWN, not a traceback, and only once the generator counts
    and staircases agree."""
    paths = [
        write(tmp_path, f"{i}.json", json.dumps({"n": n, "diagonals": diagonals}))
        for i, (n, diagonals) in enumerate((first, second))
    ]
    got, out, err = run(capsys, "iso", *paths, "--bound", "1")
    assert (got, err) == (code, "")
    doc = json.loads(out)
    assert doc["status"] == status
    if detail is not None:
        assert doc["detail"] == detail


def test_classify_refuses_before_other_slices(capsys, monkeypatch):
    """The k = n slice is verified first, so a grid past the limit stops
    classify before the k <= 3 slices run."""
    seen = []

    def recording(n, k, bound=None):
        seen.append(k)
        return verify_theorem1(n, k, bound)

    monkeypatch.setattr(cli, "verify_theorem1", recording)
    code, out, err = run(capsys, "classify", "--n", "11")
    assert (code, out) == (2, "")
    assert err == "grid [-2, 2]^11 exceeds the limit of 16777216 points\n"
    assert seen == [11]


def test_classify_table(capsys):
    code, out, _ = run(capsys, "classify", "--n", "4", "--k", "2")
    assert code == 0
    n, k, count, reps = out.strip().split("\t")
    assert (n, k, count) == ("4", "2", "3")
    assert len(reps.split(";")) == 3


def test_classify_json_reports(capsys):
    code, out, _ = run(capsys, "classify", "--n", "6", "--k", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tables"][0]["count"] == 16
    assert doc["reports"][0]["ok"] is True


def test_classify_with_colliding_fingerprints_is_exit_one(capsys, monkeypatch):
    monkeypatch.setattr("schroder.classify.fingerprint", lambda d: "constant")
    code, out, err = run(capsys, "classify", "--n", "4", "--k", "2", "--format", "json")
    assert (code, err) == (1, "")
    report = json.loads(out)["reports"][0]
    assert report["ok"] is False
    assert len(report["failures"]) == 3


def test_classify_with_witness_search(capsys):
    code, out, _ = run(
        capsys, "classify", "--n", "3", "--k", "2", "--format", "json", "--bound", "2"
    )
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["searches"] == 5
    assert report["failures"] == []


def test_malformed_input_is_exit_two(capsys, tmp_path):
    not_utf8 = b'\xff\xfe{"n": 3, "diagonals": []}'
    for raw in (b"not json at all", b"[" * 100000 + b"]" * 100000, not_utf8):
        (tmp_path / "bad.json").write_bytes(raw)
        bad = str(tmp_path / "bad.json")
        for argv in (["fano", bad], ["iso", bad, bad], ["cohomology", bad]):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert not out
            assert err.startswith(f"not a dissection document ({bad}): ")
    crossing = write(tmp_path, "x.json", '{"n": 3, "diagonals": [[0, 2], [1, 3]]}')
    code, _, err = run(capsys, "iso", crossing, crossing)
    assert code == 2
    assert "cross" in err
    code, _, err = run(capsys, "cohomology", str(tmp_path / "missing.json"))
    assert code == 2
    assert "cannot read" in err
    for doc in (
        '{"n": true, "diagonals": []}',
        '{"n": 3.0, "diagonals": []}',
        '{"n": 3, "diagonals": [[1.7, 3]]}',
        '{"n": 3, "diagonals": [["1", 3]]}',
        '{"n": 3, "diagonals": [[1, false]]}',
    ):
        code, out, err = run(capsys, "fano", write(tmp_path, "loose.json", doc))
        assert code == 2
        assert not out
        assert "expected an integer" in err


# JSON leaves, with integers kept small wherever they could become n: a
# valid n takes the program time that grows with n, which is not what this
# tests.  Large integers go only where a polygon vertex is read, and into
# the large near-valid documents that only fano reads.
_SMALL = st.integers(-2, 7)
_LEAVES = st.none() | st.booleans() | _SMALL | st.floats() | st.text(max_size=3)
_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)
_VERTEX = st.integers() | _LEAVES
_DIAGONALS = (
    st.lists(st.tuples(_SMALL, _SMALL).map(list), max_size=3)
    | st.lists(st.lists(_VERTEX, max_size=3), max_size=4)
    | _JSON
)
_DISSECTION_LIKE = st.fixed_dictionaries(
    {"n": _SMALL | _JSON, "diagonals": _DIAGONALS}, optional={"extra": _JSON}
)
# Mostly valid: n in range, diagonals as pairs of polygon vertices.
_NEAR_VALID = st.fixed_dictionaries({
    "n": st.integers(1, 7),
    "diagonals": st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=3),
})
_DOCUMENT_BYTES = (
    st.one_of(_NEAR_VALID, _DISSECTION_LIKE, _JSON).map(lambda doc: json.dumps(doc).encode())
    | st.binary(max_size=40)
    | st.builds(
        lambda doc, cut: json.dumps(doc).encode()[:cut], _DISSECTION_LIKE, st.integers(0, 30)
    )
)


@st.composite
def _large_near_valid(draw):
    """A polygon with up to 5000 sides: a fan of diagonals from vertex 0,
    which leaves one large cell beside many small ones, and a few more
    pairs of vertices, which may cross it or be no diagonal at all."""
    n = draw(st.integers(1, 5000))
    fan = [[0, j] for j in range(2, draw(st.integers(2, n + 1)))]
    vertex = st.integers(0, n + 2)
    extra = draw(st.lists(st.tuples(vertex, vertex).map(list), max_size=3))
    return json.dumps({"n": n, "diagonals": fan + extra}).encode()


# fano is linear in n, and iso reads its verdicts on large trees from child
# counts and canonical codes, so their first document may be large;
# cohomology writes a presentation whose size grows faster than n and keeps
# n small.
_FIRST_DOCUMENT = {
    "fano": _DOCUMENT_BYTES | _large_near_valid(),
    "cohomology": _DOCUMENT_BYTES,
    "iso": _DOCUMENT_BYTES | _large_near_valid(),
}


@given(
    call=st.sampled_from(["fano", "cohomology", "iso"]).flatmap(
        lambda command: st.tuples(st.just(command), _FIRST_DOCUMENT[command])
    ),
    second=_DOCUMENT_BYTES,
)
@settings(max_examples=400, deadline=None)
def test_any_document_keeps_the_exit_code_contract(tmp_path_factory, call, second):
    """Random JSON documents, dissection-shaped or not, and arbitrary bytes
    (not JSON, not UTF-8, cut short) never escape the exit codes 0..3."""
    command, first = call
    tmp = tmp_path_factory.mktemp("doc")
    paths = []
    for name, raw in (("first.json", first), ("second.json", second)):
        (tmp / name).write_bytes(raw)
        paths.append(str(tmp / name))
    argv = [command, *paths] if command == "iso" else [command, paths[0]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue()
    assert bool(out.getvalue()) == (code != 2)


def test_argument_guards(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "0")
    assert code == 2
    assert "--n" in err
    code, _, err = run(capsys, "enumerate", "--n", "3", "--k", "0")
    assert code == 2
    code, _, err = run(capsys, "iso", "--bound", "-1", "a", "b")
    assert code == 2
    for command in ("enumerate", "classify"):
        code, out, err = run(capsys, command, "--n", "3", "--k", "5")
        assert code == 2
        assert not out
        assert "--k" in err and "Traceback" not in err
    # k = n = 11 needs fingerprints over 5^11 points, past the 2^24 limit.
    code, out, err = run(capsys, "classify", "--n", "11", "--k", "11")
    assert code == 2
    assert not out
    assert err == "grid [-2, 2]^11 exceeds the limit of 16777216 points\n"


# sha256 of the stdout of these commands, which must stay byte for byte the
# same, with their exit codes.  `--bound 0` fails every witness search, so it
# pins the order of the failure messages.
GOLDEN = [
    (
        ("classify", "--n", "6", "--format", "json"),
        0,
        "02978efa844073ac9cd55a210c32cdf29a6e3ce46f1b5b3a0fe447d55115626d",
    ),
    (
        ("classify", "--n", "5"),
        0,
        "42e74728d60ec0b3500e30f36d6094d8064b1c64e58f6edade9f2eb6854aee82",
    ),
    (
        ("classify", "--n", "4", "--format", "json", "--bound", "2"),
        0,
        "b7d6fd04f522b43a26a2e6cfebe6486480893446419f03194fe49c93a2b1862b",
    ),
    (
        ("classify", "--n", "5", "--format", "json", "--bound", "2"),
        0,
        "f41937910394214137cb7088e7b12df632b2be1768484b48706d245f57bb74b6",
    ),
    (
        ("enumerate", "--n", "7"),
        0,
        "d3c279d5678b536c65f1faa38fdfb779f04e945864a6c4326fd0c42800a2aa95",
    ),
    (
        ("classify", "--n", "6", "--format", "json", "--bound", "0"),
        1,
        "7d2476268a32f55ff741359ee223669c852010759ccaa4cdbdf98104d5c33934",
    ),
    (
        ("enumerate", "--n", "7", "--k", "3"),
        0,
        "71231535485ad7dd72018a2090b1733b86fbffc8db245a040c13dc8832ebe5e0",
    ),
    (
        ("enumerate", "--n", "1"),
        0,
        "f7c9ba4cc856b469a0130ad3996d4ec0de7cb7c5456faf37086d7c33ed6b4b28",
    ),
]


@pytest.mark.parametrize(
    "argv, exit_code, digest", GOLDEN, ids=[" ".join(a) for a, _, _ in GOLDEN]
)
def test_golden_stdout(capsys, argv, exit_code, digest):
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# `iso` on two dissection documents: (first, second, extra flags, exit code,
# sha256 of stdout), one per way the verdict is reached.
GOLDEN_ISO = [
    (  # the README's pentagon pair: YES with a witness
        '{"n":3,"diagonals":[[1,4]]}',
        '{"n":3,"diagonals":[[0,3]]}',
        ("--bound", "2"),
        0,
        "f793c8e1d1bf267fab845de06a69010259d6a95d29cfdd28065c7e82632517eb",
    ),
    (  # NO on the staircase exponents
        '{"n":4,"diagonals":[[1,4]]}',
        '{"n":4,"diagonals":[[1,3]]}',
        (),
        1,
        "9b64cd3809cd7150c227a19f457e7353a711a6d21b777eb8f57249c1c3418aeb",
    ),
    (  # NO on the fingerprints
        '{"n":3,"diagonals":[[1,4]]}',
        '{"n":3,"diagonals":[[2,4]]}',
        (),
        1,
        "f5fddc2a474e2811d9912428d03303e10fac7cdbb6b050242a4795c1ab7b146f",
    ),
    (  # UNKNOWN: no search
        RUNNING_DOC,
        RUNNING_DOC,
        ("--bound", "0"),
        3,
        "95b1b0ce6ce8b2971c07940fb1a137f4a31d0b58016269344e801828fe83f00c",
    ),
]


@pytest.mark.parametrize(
    "first, second, flags, exit_code, digest",
    GOLDEN_ISO,
    ids=["yes-pentagon", "no-staircase", "no-fingerprint", "unknown-running"],
)
def test_golden_iso_stdout(capsys, tmp_path, first, second, flags, exit_code, digest):
    paths = write(tmp_path, "first.json", first), write(tmp_path, "second.json", second)
    code, out, _ = run(capsys, "iso", *flags, *paths)
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# `fano` and `cohomology` on one dissection document: (command, document,
# exit code, sha256 of stdout).  The first document is the README's running
# example.
GOLDEN_DOC = [
    (command, doc, 0, digest)
    for doc, fano, cohomology in [
        (
            RUNNING_DOC,
            "3e9c39606e6a29f4d1e243468a25c756c8ab92f6adeb096a319664f34dc62634",
            "6261af2bdd1f311ecbe805c3d8224779fd2c3721ec6208ec3d53950d58d8a342",
        ),
        (
            '{"n":7,"diagonals":[[0,4],[1,3],[4,7]]}',
            "d4522dba7001ef79926aae78ec628c6cfec7878c8df2399d9ab8604b7eb02913",
            "ab554ebc32c23afe7dd7189ca5ca3a49ae710a963f66cfede5d2abb4c6701c4d",
        ),
        (
            '{"n":8,"diagonals":[[0,2],[2,5],[2,8],[5,8]]}',
            "090af5725eb14830e555544e8d73a178020cfcf0d114a8785fb90dec6f67586e",
            "ad6f1ab3483f79518853412f4b4d7ea9dab020861a5cfcd70ef621b39a3f3856",
        ),
        (
            '{"n":9,"diagonals":[[0,2],[0,3],[0,4],[0,5],[0,6],[0,7],[0,8],[0,9]]}',
            "bc23d0dcbca480dec0ea7042ea2675c7069307191e411bd7cda7e3909e2e7054",
            "f4698995c517aa4724d2ea994493e2a31cf82beaed891a7a765b24714d28bc4c",
        ),
        (
            '{"n":10,"diagonals":[[1,4],[1,10],[4,7],[4,10],[7,10]]}',
            "79ca944e0a9340adab3ef5ca8d3a191f563d3a8510e2a0eead9e3516597dfa16",
            "6c0a4ab4564566ac0ea61faea5f393aaf6e2f050173e9a299f67532a45e89b45",
        ),
        (
            '{"n":10,"diagonals":[]}',
            "54161807febd8b2c45d571762fc488b52aa8eba049384c5123b325ac9f6116a3",
            "e570658f58f7705769582e47d0727a4e64483e14beb7464908578c54c6628ac2",
        ),
    ]
    for command, digest in (("fano", fano), ("cohomology", cohomology))
]


@pytest.mark.parametrize(
    "command, doc, exit_code, digest",
    GOLDEN_DOC,
    ids=[f"{c}-{json.loads(d)['n']}-{len(json.loads(d)['diagonals'])}" for c, d, _, _ in GOLDEN_DOC],
)
def test_golden_document_stdout(capsys, tmp_path, command, doc, exit_code, digest):
    code, out, _ = run(capsys, command, write(tmp_path, "d.json", doc))
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_golden_calls_take_the_quick_path():
    argvs = (
        [list(argv) for argv, _, _ in GOLDEN]
        + [["iso", *flags, "a.json", "b.json"] for _, _, flags, _, _ in GOLDEN_ISO]
        + [[command, "d.json"] for command, _, _, _ in GOLDEN_DOC]
    )
    for argv in argvs:
        quick = cli._quick_parse(argv)
        assert quick is not None, argv
        assert vars(quick) == vars(cli._build_parser().parse_args(argv))


def _fan_triangulation(n):
    return json.dumps({"n": n, "diagonals": [[0, j] for j in range(2, n + 1)]})


def test_fano_certificate_without_cone_enumeration(capsys, tmp_path):
    # 41 cells of two rays each: the fan has 2^41 maximal cones.
    path = write(tmp_path, "d.json", _fan_triangulation(41))
    start = time.perf_counter()
    code, out, _ = run(capsys, "fano", path)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    doc = json.loads(out)
    assert doc["fano"] is True
    assert [r["degree"] for r in doc["relations"]] == [2] + [1] * 40


def test_deep_tree_cohomology(capsys, tmp_path):
    # The tree of this dissection has depth 1500, past the recursion limit.
    target = tmp_path / "ring.json"
    path = write(tmp_path, "d.json", _fan_triangulation(1500))
    code, out, err = run(capsys, "cohomology", path, "--out", str(target))
    assert (code, out, err) == (0, "", "")
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["gens"][:2] == ["x1500_1501", "x1499_1500"]
    assert doc["staircase"] == [2] * 1500


def test_internal_error_is_exit_four(capsys, monkeypatch, tmp_path):
    def broken(d):
        raise InternalError("self-check failed")

    monkeypatch.setattr("schroder.cli.is_fano", broken)
    code, out, err = run(capsys, "fano", write(tmp_path, "d.json", RUNNING_DOC))
    assert code == 4
    assert not out
    assert err == "internal error: self-check failed\n"
    assert "Traceback" not in err


def test_non_finite_step_is_exit_four(capsys, monkeypatch):
    # A first step matrix of infs makes inf * 0 = NaN in `_advance`.  A NaN
    # is nonzero to the table, so unguarded it would keep forms alive and
    # print a wrong profile with exit 0.
    real = classify._step_matrices

    def poisoned(ring, degree):
        ((mats, growth), *rest), bases = real(ring, degree)
        return [(np.full(mats.shape, np.inf), growth), *rest], bases

    monkeypatch.setattr(classify, "_step_matrices", poisoned)
    with pytest.raises(InternalError, match="_advance made a non-finite value"):
        classify.fingerprint(Dissection(3, ((1, 3),)))
    code, out, err = run(capsys, "classify", "--n", "3", "--k", "2")
    assert (code, out) == (4, "")
    assert err.startswith("internal error: _advance made a non-finite value: invalid value")
    assert err.count("\n") == 1


def test_enumerate_record_failing_its_check_is_exit_four(capsys, monkeypatch):
    # The first 4-leaf fragment becomes one whose labels (0, 2), (0, 4),
    # (1, 3) cross; shifted by one leaf it makes the record (1, 3), (1, 5),
    # (2, 4) for n = 4.
    real = combinatorics._fragments
    crossing = ((0, 2, 0, 4, 1, 3), "[[0, 0, 0], 0]")
    monkeypatch.setattr(
        combinatorics, "_fragments", lambda m: (crossing, *real(m)[1:]) if m == 4 else real(m)
    )
    code, _, err = run(capsys, "enumerate", "--n", "4")
    assert code == 4
    message = (
        "enumerate record [[1, 3], [1, 5], [2, 4]] is not a dissection: "
        "diagonals (1, 3) and (2, 4) cross"
    )
    assert err == f"internal error: {message}\n"
    assert "Traceback" not in err
    # The library's dissection lists come from the same records and check.
    with pytest.raises(InternalError) as info:
        combinatorics.enumerate_dissections(4)
    assert str(info.value) == message


def test_enumerate_count_disagreeing_with_closed_form_is_exit_four(capsys, monkeypatch):
    # One record skipped: the count no longer matches the closed form.
    real = cli._dissection_records
    monkeypatch.setattr(cli, "_dissection_records", lambda n, k: list(real(n, k))[1:])
    code, out, err = run(capsys, "enumerate", "--n", "4")
    assert code == 4
    # 44 of the 45 records, and no count trailer.
    assert len(out.splitlines()) == 44 and '"count"' not in out
    assert err == "internal error: enumeration count disagrees with the closed form\n"


def test_output_is_deterministic(capsys):
    first = run(capsys, "enumerate", "--n", "5")
    second = run(capsys, "enumerate", "--n", "5")
    assert first == second
    assert run(capsys, "classify", "--n", "5") == run(capsys, "classify", "--n", "5")


def test_out_flag_writes_identical_bytes(capsys, tmp_path):
    target = tmp_path / "out.txt"
    for argv in [
        ("table", "--n", "6"),
        ("enumerate", "--n", "5"),
        ("enumerate", "--n", "4", "--k", "3"),
    ]:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert target.read_text(encoding="utf-8") == out


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--n", "3"),
        ("table", "--n", "3"),
        ("cohomology", "{doc}"),
        ("fano", "{doc}"),
        ("classify", "--n", "3"),
        ("iso", "{doc}", "{doc}"),
    ],
    ids=lambda argv: argv[0],
)
def test_unopenable_out_is_exit_two(capsys, tmp_path, argv):
    doc = write(tmp_path, "d.json", RUNNING_DOC)
    target = str(tmp_path / "missing" / "x.txt")
    argv = [a.format(doc=doc) for a in argv]
    code, out, err = run(capsys, *argv, "--out", target)
    assert code == 2
    assert not out
    assert err.startswith(f"cannot write {target}: ")
    assert err.count("\n") == 1


def child_env():
    """The environment of a child interpreter that imports this schroder."""
    env = dict(os.environ)
    src = str(Path(schroder.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def schroder_process(*argv):
    """`python -m schroder ARGV` in a child with its three streams piped."""
    return subprocess.Popen(
        [sys.executable, "-m", "schroder", *argv],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )


def test_closed_pipe_exits_quietly(tmp_path):
    # A reader that stops after one line, like `schroder enumerate | head -1`.
    proc = schroder_process("enumerate", "--n", "8")
    proc.stdin.close()
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""
    assert json.loads(first)["diagonals"] == []

    # A reader gone before the verdict is written leaves the NO exit code.
    other = write(tmp_path, "c.json", '{"n": 3, "diagonals": []}')
    proc = schroder_process("iso", "-", other)
    proc.stdout.close()
    proc.stdin.write(b'{"n": 3, "diagonals": [[1, 3]]}')
    proc.stdin.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


# sha256 of json.dumps([exit code, stdout, stderr]) at COLUMNS=80, the same
# with and without the plain-invocation parser: help, usage errors, and an
# abbreviation argparse accepts.  argparse's layout differs between Python
# versions, so the digests hold for the Python the project tests on.
GOLDEN_USAGE = [
    (("--help",),
     "553c68e856f81de9cbc42e408aede164975edd8e3e9598497c2cd968c342b0c5"),
    (("enumerate", "--help"),
     "d603c6ba7f2fbf77920c81894d50ef2ea3534f92841ddeddda7d97279b0e4f08"),
    (("table", "--help"),
     "fca5265d558431d624056a9bab3e4db16275a54dcae8c550967e6ce8877c7793"),
    (("cohomology", "--help"),
     "745ba0d28690c4a91948e4347ae84afffccb0dd35cca57fcfb03dbdab2714bf2"),
    (("fano", "--help"),
     "70c5991aff857200481ae32adf664b501a8c070afff2e413a2d7f2772845626a"),
    (("classify", "--help"),
     "a772151db85bb1cf080d1a2167360b0262fa57aa8d380196c8d76d74348b49fa"),
    (("iso", "--help"),
     "4982bcbdf60946a8eb04ab947ae9b507890912e7bc4ad4ef28cbd92afe08554d"),
    ((),
     "10079517716b924fd9811866fd2f44207754f7a10f411d49f37c11367455e076"),
    (("frobnicate",),
     "fc9e8a17e0cc6f14ec392eef6a9075e5e8cd842f32a7323f05d51376108fa091"),
    (("enumerate",),
     "538574ef58c7304ac34061b044e22fcc44da2985ba8594f54d17b4f617af2717"),
    (("enumerate", "--n", "x"),
     "962bb00e5ef7b5b826add252ccdef8bc44d0fa6ff04be5673a9ccefe19c4f6d0"),
    (("classify", "--n", "3", "--format", "xml"),
     "b5255b0f04dfd8c9a47ca3f1cf785348d66be4b79a1a9bf33a9bc4912b94da00"),
    (("fano", "a.json", "b.json"),
     "f08f7b959acb71cfa20c12fb1b86f81944f6ec93e64f87bd49b022e0694affc7"),
    (("classify", "--n", "2", "--bou", "2"),
     "c04d6d9b34b50a430e9b07be170e361ca6c20ada8e5f8ea6e5474a596d1414fc"),
]


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="digests of Python 3.11's argparse layout"
)
@pytest.mark.parametrize(
    "argv, digest", GOLDEN_USAGE, ids=[" ".join(a) or "(none)" for a, _ in GOLDEN_USAGE]
)
def test_golden_help_and_usage(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest() == digest


def test_parser_is_built_once(capsys):
    cli._build_parser.cache_clear()
    assert run(capsys, "table", "--n", "2")[0] == 0
    assert cli._build_parser.cache_info().misses == 0
    # --opt=value is left to argparse
    assert run(capsys, "table", "--n=2")[0] == 0
    assert run(capsys, "table", "--n=3")[0] == 0
    assert cli._build_parser.cache_info().misses == 1


PENTAGON = '{"n":3,"diagonals":[[1,4]]}', '{"n":3,"diagonals":[[0,3]]}'
FRESH_CALL = """
import json, sys
import schroder.cli as cli
import schroder.combinatorics as combinatorics
state = lambda: ["argparse" in sys.modules, cli._build_parser.cache_info().misses]
code = cli.main(sys.argv[2:])
plain = state()
for n in "23":
    cli.main(["table", "--n=" + n, "--out", sys.argv[1]])
print(json.dumps([code, plain, state()]))
"""


@pytest.mark.parametrize(
    "argv",
    [["table", "--n", "3"], ["fano", "{a}"], ["iso", "{a}", "{b}"]],
    ids=lambda argv: argv[0],
)
def test_plain_call_never_imports_argparse(tmp_path, argv):
    # In a fresh interpreter: a plain call neither imports argparse nor builds
    # the parser; two calls that need it build it once.
    a, b = (write(tmp_path, f"{name}.json", doc) for name, doc in zip("ab", PENTAGON))
    out = str(tmp_path / "out.txt")
    argv = [word.format(a=a, b=b) for word in argv] + ["--out", out]
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_CALL, out, *argv],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == [0, [False, 0], [True, 1]]


def test_enumerate_records_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--k", "3")
    assert code == 0
    lines = out.splitlines()[:-1]
    for i, line in enumerate(lines):
        path = write(tmp_path, f"d{i}.json", line)
        assert run(capsys, "fano", path)[0] == 0
    first = write(tmp_path, "first.json", lines[0])
    code, out, _ = run(capsys, "iso", first, first)
    assert code == 0
