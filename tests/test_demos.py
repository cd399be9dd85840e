"""Each demo prints the same bytes as when its output was last checked."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DEMO_SHA1 = {
    "01_compile_and_check.py": "76737f8859dc5cce86a78f554c840980c531ed60",
    "02_type_monoid.py": "264891576f203d73e5d190cbb1486dc2b935cc20",
    "03_minimal_dimension.py": "3b681691a02cfe04202957ae7e2ed11f8de2b53b",
    "04_growth_witnesses.py": "3a7bf8dfd1fc927a56a3c22d3b9251f31aa1e161",
    "05_interpretation_reduction.py": "71f80135b5f73e2a42f4b9eef00dca429cb1764b",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA1)


@pytest.mark.parametrize("name", sorted(DEMO_SHA1))
def test_demo_output_is_pinned(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                         capture_output=True, check=True).stdout
    assert hashlib.sha1(out).hexdigest() == DEMO_SHA1[name]
