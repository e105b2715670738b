import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from untested_lines import executable_lines  # noqa: E402


def test_executable_lines_take_nested_code_and_skip_docstrings_and_blanks(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('x = 1\n\n\ndef f(a):\n    """doc"""\n    def g():\n        return a\n'
                    "    return g\n")
    assert executable_lines(path) == {1, 4, 6, 7, 8}
