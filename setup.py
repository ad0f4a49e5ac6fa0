"""Packaging for the D-ATC (DATE 2015) reproduction toolkit.

The install needs numpy and scipy (scipy only for the UWB pulse-shape
and energy-detector models, imported on first use).  The ``dev`` extra
adds the test tooling::

    pip install -e .          # numpy + scipy
    pip install -e .[dev]     # + pytest, hypothesis, pytest-benchmark
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.2.0",
    description=(
        "Reproduction of the DATE 2015 dynamic average threshold "
        "crossing (D-ATC) sEMG event-encoding system"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    extras_require={
        "dev": ["pytest", "hypothesis", "pytest-benchmark"],
    },
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
