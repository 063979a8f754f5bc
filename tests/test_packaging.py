"""``setup.py`` carries the package's metadata and its command.

Both tests run ``setup.py`` in a subprocess, as pip does, and touch
nothing in the source tree (``egg_info`` writes to a temp directory).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def _setup(*args: str) -> str:
    return subprocess.run(
        [sys.executable, "setup.py", *args],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=120,
    ).stdout


def test_name_and_version():
    assert _setup("--name", "--version").split() == [
        "skeleton-agreement",
        repro.__version__,
    ]


def test_egg_info_lists_every_package_numpy_and_the_command(tmp_path):
    _setup("-q", "egg_info", "--egg-base", str(tmp_path))
    [info] = tmp_path.glob("*.egg-info")
    entry_points = (info / "entry_points.txt").read_text().split("\n")
    assert "skeleton-agreement = repro.cli:main" in entry_points
    assert (info / "requires.txt").read_text().split() == ["numpy"]
    sources = set((info / "SOURCES.txt").read_text().split())
    modules = {
        path.relative_to(ROOT).as_posix()
        for path in (ROOT / "src" / "repro").rglob("*.py")
    }
    assert modules <= sources
