"""Legacy setup shim: enables `pip install -e .` on hosts without the
`wheel` package (offline PEP 517 editable installs need bdist_wheel).
All metadata lives in pyproject.toml (PEP 621); setuptools reads it.

Installing builds no extension: the compiled kernel backend
(`repro.kernels._native`) is built from the shipped `_native.c` on
first use, into the cache directory (see `repro.kernels.native`).
"""
from setuptools import setup

setup()
