"""Puts ``tests/`` on the import path, so that every test module can
``import pins``: the pin table, its sampler-free fixture and its
recorder (``tests/pins.py``)."""

import pathlib
import sys

_HERE = str(pathlib.Path(__file__).resolve().parent)
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)
