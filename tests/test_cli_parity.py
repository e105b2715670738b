import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from cli_parity import number_diff  # noqa: E402


def test_number_diff_counts_moved_numbers():
    old = '{"a": 0.5, "b": [1e-3, -2, 3]}\nz_1,p\n0.25,nan\n'
    assert number_diff(old, old) == (0, 0.0, 0.0)
    moved, gap, rel = number_diff(old, old.replace("1e-3", "1.0000000000000002e-3")
                                  .replace("0.25", "0.5"))
    assert moved == 2
    assert gap == 0.25
    assert rel == 0.5
    assert number_diff("x,-0\n", "x,0\n") == (1, 0.0, 0.0)


def test_number_diff_refuses_other_text_changes():
    assert number_diff('{"a": 1}', '{"b": 1}') is None
    assert number_diff("1,2\n", "1,2,3\n") is None
    assert number_diff("p,nan\n", "p,0.5\n") is None
    assert number_diff("null", "1.5") is None
