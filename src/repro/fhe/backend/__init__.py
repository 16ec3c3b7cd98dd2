"""Pluggable compute backends for the RNS-CKKS substrate.

See ``README.md`` in this directory for the architecture and how to add a
backend.  Importing this package registers the built-in backends:

* ``reference`` — exact per-limb loops (the seed implementation),
* ``stacked`` — all limbs as one ``(limbs, N)`` array, batched kernels.
"""

from __future__ import annotations

from .base import ComputeBackend
from .registry import (BACKEND_ENV_VAR, DEFAULT_BACKEND, available_backends,
                       create_backend, register_backend, resolve_backend_name)

# Importing the implementation modules runs their @register_backend hooks.
from . import reference as _reference  # noqa: E402,F401
from . import stacked as _stacked      # noqa: E402,F401

__all__ = [
    "BACKEND_ENV_VAR",
    "ComputeBackend",
    "DEFAULT_BACKEND",
    "available_backends",
    "create_backend",
    "register_backend",
    "resolve_backend_name",
]
