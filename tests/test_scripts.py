"""scripts/openblas_runtime.py names numpy's OpenBLAS kernel and thread
count, and prints what it cannot read instead of failing."""

import ctypes
import runpy
import subprocess
import sys
from pathlib import Path

import numpy

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "openblas_runtime.py"


def test_openblas_runtime_prints_each_getter():
    done = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("OpenBLAS")
    if lines[0].startswith("OpenBLAS library: "):
        for label in ("core", "config", "threads"):
            assert any(line.startswith(f"OpenBLAS {label}: ") for line in lines), label


def test_openblas_runtime_prints_what_is_missing(capsys, monkeypatch, tmp_path):
    # a fresh namespace, whose GETTERS list main() reads
    script = runpy.run_path(str(SCRIPT))
    script["GETTERS"].append(("absent", "no_such_openblas_getter", ctypes.c_int))
    script["main"]()
    out = capsys.readouterr().out
    if "OpenBLAS library: " in out:
        assert "OpenBLAS absent: no symbol no_such_openblas_getter" in out
    monkeypatch.setattr(numpy, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    script["main"]()
    assert capsys.readouterr().out == "OpenBLAS: no bundled library in numpy.libs\n"
