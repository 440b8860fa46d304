#!/usr/bin/env python3
"""Print the kernel, build config and thread count of the OpenBLAS that numpy loads.

    python scripts/openblas_runtime.py

OpenBLAS's kernel and thread count decide some pinned digests' bytes
(ROADMAP Baseline), and numpy.show_config() names neither. numpy's
wheels bundle scipy-openblas in `numpy.libs/` beside the package; its
own getters are read through ctypes, with nothing else installed. A
missing library or getter is printed, not raised.
"""

import ctypes
from pathlib import Path

import numpy

GETTERS = [
    ("core", "scipy_openblas_get_corename64_", ctypes.c_char_p),
    ("config", "scipy_openblas_get_config64_", ctypes.c_char_p),
    ("threads", "scipy_openblas_get_num_threads64_", ctypes.c_int),
]


def main() -> None:
    libs = sorted((Path(numpy.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"))
    if not libs:
        print("OpenBLAS: no bundled library in numpy.libs")
        return
    try:
        lib = ctypes.CDLL(str(libs[0]))
    except OSError as exc:
        print(f"OpenBLAS: cannot load {libs[0].name}: {exc}")
        return
    print(f"OpenBLAS library: {libs[0].name}")
    for label, symbol, restype in GETTERS:
        try:
            getter = getattr(lib, symbol)
        except AttributeError:
            print(f"OpenBLAS {label}: no symbol {symbol}")
            continue
        getter.argtypes = []
        getter.restype = restype
        value = getter()
        print(f"OpenBLAS {label}: {value.decode() if isinstance(value, bytes) else value}")


if __name__ == "__main__":
    main()
