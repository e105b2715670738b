"""Start-up guards: the package must not pull in scipy.optimize.

Importing scipy.optimize costs a noticeable share of every CLI start, and
nothing in the library needs it.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "meanfield_lab"


def test_import_does_not_load_scipy_optimize():
    probe = "import sys, meanfield_lab; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_no_source_file_names_scipy_optimize():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        assert "scipy.optimize" not in path.read_text(), path.name
