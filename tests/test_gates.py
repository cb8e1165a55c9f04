"""tools/gates.py: a digest gate passes on the true sha256 and fails on any other."""

import importlib.util
import os
from pathlib import Path

import pytest

import schroder

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("gates", ROOT / "tools" / "gates.py")
gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gates)

ENUMERATE_3 = "12c69a1a9b9fa129b69ddec476bb83762340a122e32037021295a9d699bb5a69"
FANO_3 = "eb288ac8781cac1e2c67801ae58985f2a06c2a62edaf3d8a0776fdfd5869963f"


def altered(digest):
    """`digest` with its last hex digit changed."""
    return digest[:-1] + ("1" if digest[-1] == "0" else "0")


def test_cold_digest_gate(capsys, monkeypatch, tmp_path):
    src = str(Path(schroder.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    gates.cold_digest("enumerate --n 3", ENUMERATE_3, str(tmp_path))
    assert capsys.readouterr().out.startswith("`schroder enumerate --n 3`: ")
    wrong = altered(ENUMERATE_3)
    with pytest.raises(AssertionError, match=f"has sha256 {ENUMERATE_3}, expected {wrong}"):
        gates.cold_digest("enumerate --n 3", wrong, str(tmp_path))


def test_in_process_digest_gate(capsys):
    def calls():
        return ((["fano"], doc) for doc in gates.dissections(3))

    gates.cli_digest("fano", 3, "dissections", calls(), FANO_3)
    assert capsys.readouterr().out.startswith("`schroder fano` on all 15 dissections with n <= 3: ")
    wrong = altered(FANO_3)
    with pytest.raises(AssertionError, match=f"has sha256 {FANO_3}, expected {wrong}"):
        gates.cli_digest("fano", 3, "dissections", calls(), wrong)
