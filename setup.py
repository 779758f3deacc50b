"""Setuptools configuration: ``pip install -e .`` installs ``repro``.

The distribution name, its version and the package directory are each
declared once, here; the version is read from ``__version__`` in
``src/repro/__init__.py`` without importing the package.  Where the
``wheel`` package is missing, PEP 660 editable installs are unavailable
and ``pip install -e .`` falls back to the legacy ``setup.py develop``
path, which this file serves.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)
