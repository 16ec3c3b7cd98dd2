"""Legacy setup shim.

The execution environment has no network access and no ``wheel`` package,
so pip's PEP 517/660 editable path is unavailable there; offline, use the
legacy route directly (verified working)::

    python setup.py develop

On CI runners (network + wheel available) the normal editable install
works and removes the ``PYTHONPATH=src`` hack (which keeps working too)::

    pip install -e .[test]
    python -m pytest -x -q -m "not slow"

The repo deliberately has no pyproject.toml (tool config lives in
pytest.ini / .ruff.toml): its mere presence switches pip to isolated
PEP 517 builds, which need network access to fetch setuptools.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    description=(
        "Reproduction of GME: GPU-based microarchitectural extensions to "
        "accelerate homomorphic encryption (MICRO 2023)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy",
    ],
    extras_require={
        "test": [
            "pytest",
            "pytest-benchmark",
            "hypothesis",
            # The oracle tests/test_dag.py holds repro.dag to; nothing
            # under src/ imports it.
            "networkx",
        ],
        "lint": [
            "ruff",
        ],
    },
    # Ship non-code package assets (e.g. the backend architecture README).
    include_package_data=True,
    package_data={"repro.fhe.backend": ["README.md"]},
    zip_safe=False,
)
