"""Command line behavior: formats, exit codes, determinism, round trips."""

import hashlib
import io
import json

import pytest

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


def test_classify_with_witness_search(capsys):
    code, out, _ = run(
        capsys, "classify", "--n", "3", "--k", "2", "--format", "json", "--bound", "2"
    )
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["searches"] == 5
    assert report["failures"] == []


def test_malformed_input_is_exit_two(capsys, tmp_path):
    bad = write(tmp_path, "bad.json", "not json at all")
    code, out, err = run(capsys, "fano", bad)
    assert code == 2
    assert not out
    assert "not a dissection" in err
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
        ("enumerate", "--n", "7"),
        0,
        "d3c279d5678b536c65f1faa38fdfb779f04e945864a6c4326fd0c42800a2aa95",
    ),
    (
        ("classify", "--n", "6", "--format", "json", "--bound", "0"),
        1,
        "7d2476268a32f55ff741359ee223669c852010759ccaa4cdbdf98104d5c33934",
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


def test_internal_error_is_exit_four(capsys, monkeypatch, tmp_path):
    def broken(d):
        raise InternalError("self-check failed")

    monkeypatch.setattr("schroder.cli.is_fano", broken)
    code, out, err = run(capsys, "fano", write(tmp_path, "d.json", RUNNING_DOC))
    assert code == 4
    assert not out
    assert err == "internal error: self-check failed\n"
    assert "Traceback" not in err


def test_output_is_deterministic(capsys):
    first = run(capsys, "enumerate", "--n", "5")
    second = run(capsys, "enumerate", "--n", "5")
    assert first == second
    assert run(capsys, "classify", "--n", "5") == run(capsys, "classify", "--n", "5")


def test_out_flag_writes_identical_bytes(capsys, tmp_path):
    target = tmp_path / "table.tsv"
    code, out, _ = run(capsys, "table", "--n", "6")
    assert code == 0
    assert run(capsys, "table", "--n", "6", "--out", str(target))[0] == 0
    assert target.read_text(encoding="utf-8") == out


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
