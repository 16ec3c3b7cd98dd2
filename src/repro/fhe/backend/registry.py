"""Handler-style registry of compute backends.

Backends self-register at import time via the :func:`register_backend`
decorator (the same central-registry idiom as block handlers in parsers:
one dict, one decorator, explicit error for unknown names).  Selection
precedence, highest first:

1. an explicit ``backend=`` argument to :class:`~repro.fhe.poly.PolyContext`
   (used by the equivalence tests to pin a backend),
2. the ``REPRO_FHE_BACKEND`` environment variable (CI / test override),
3. ``CkksParameters.backend``,
4. :data:`DEFAULT_BACKEND`.

A name that is not registered is an error wherever it came from — there
is no fallback: :func:`create_backend` raises ``ValueError`` listing
:func:`available_backends`, and :func:`resolve_backend_name` raises one
that names the environment variable when the bad value came from there.
"""

from __future__ import annotations

import os

from .base import ComputeBackend

#: Environment variable consulted by :func:`resolve_backend_name`.
BACKEND_ENV_VAR = "REPRO_FHE_BACKEND"

#: Backend used when neither the caller nor the environment picks one.
DEFAULT_BACKEND = "stacked"

_REGISTRY: dict[str, type[ComputeBackend]] = {}


def register_backend(name: str):
    """Class decorator registering a :class:`ComputeBackend` under ``name``."""

    def decorator(cls: type[ComputeBackend]) -> type[ComputeBackend]:
        if name in _REGISTRY:
            raise ValueError(f"compute backend {name!r} already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def available_backends() -> tuple[str, ...]:
    """Sorted names of every registered (usable) backend."""
    return tuple(sorted(_REGISTRY))


def resolve_backend_name(requested: str | None = None) -> str:
    """Resolve a backend name: env var > ``requested`` > default."""
    env = os.environ.get(BACKEND_ENV_VAR, "").strip()
    if env:
        if env not in _REGISTRY:
            raise ValueError(
                f"{BACKEND_ENV_VAR}={env!r} names no compute backend; "
                f"available: {', '.join(available_backends())}")
        return env
    if requested:
        return requested
    return DEFAULT_BACKEND


def create_backend(name: str, params) -> ComputeBackend:
    """Instantiate the backend registered under ``name`` for ``params``."""
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValueError(
            f"unknown compute backend {name!r}; "
            f"available: {', '.join(available_backends())}")
    return cls(params)
