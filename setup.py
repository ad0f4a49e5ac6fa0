"""Packaging for the D-ATC (DATE 2015) reproduction toolkit.

The default install needs numpy and scipy (scipy only for the UWB
pulse-shape and energy-detector models, imported on first use).  The
``compiled`` extra pulls in numba for the opt-in jitted kernel tier
(``repro.kernels``, see docs/KERNELS.md)::

    pip install -e .             # numpy + scipy reference paths
    pip install -e .[compiled]   # + numba-jitted kernels
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
        # The compiled kernel tier degrades gracefully when absent:
        # dispatch warns once and serves the numpy reference kernels.
        "compiled": ["numba>=0.57"],
        "dev": ["pytest", "hypothesis", "pytest-benchmark"],
    },
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
