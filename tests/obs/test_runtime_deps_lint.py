"""Anti-drift lint: the library imports no test-only package.

``pyproject.toml`` declares no runtime dependency, so importing every
``repro`` module must pull in nothing from the ``test`` extra.  The
check runs in a fresh interpreter: this test process has pytest (and
whatever the other tests imported) loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"

#: Packages installed only through ``pip install -e ".[test]"``.
TEST_ONLY = ("networkx", "hypothesis", "pytest")

PROBE = f"""
import pkgutil, sys
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    __import__(module.name)
print(",".join(sorted(
    name for name in {TEST_ONLY!r}
    if any(m == name or m.startswith(name + ".") for m in sys.modules)
)))
"""


def test_repro_imports_no_test_only_package():
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC_ROOT), os.environ.get("PYTHONPATH")])
        ),
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "", (
        f"repro imports test-only packages: {result.stdout.strip()}"
    )
