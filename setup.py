"""Packaging for ``repro`` and its ``skeleton-agreement`` command.

A plain ``setup.py``, so ``pip install -e .`` also works offline: pip
falls back to the legacy editable install, which needs no ``wheel``
package.  The version is read from ``src/repro/__init__.py`` as text,
so building metadata never imports the package or NumPy.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"


def read_version() -> str:
    match = re.search(
        r'^__version__ = "([^"]+)"$',
        INIT.read_text(encoding="utf-8"),
        re.MULTILINE,
    )
    if match is None:
        raise RuntimeError(f"no __version__ line in {INIT}")
    return match.group(1)


setup(
    name="skeleton-agreement",
    version=read_version(),
    description="Solving k-set agreement with stable skeleton graphs: "
    "Algorithm 1, its adversaries and a campaign engine",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    entry_points={
        "console_scripts": ["skeleton-agreement = repro.cli:main"],
    },
)
