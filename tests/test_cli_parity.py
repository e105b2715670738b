import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from cli_parity import column_moves, number_diff  # noqa: E402


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


def test_column_moves_names_each_moved_column_by_its_header():
    old = "z,probability,exact_cdf,law_cdf\n-1,0.25,0.25,0.5\n1,0.75,1,0.75\n"
    new = old.replace("0.5\n", "0.50000000000000011\n").replace(",0.75\n", ",0.7\n")
    assert column_moves(old, old) == ""
    assert column_moves(old, new) == "law_cdf: 2 moved, max abs 0.05"
    # a sample file has metadata lines and no header row
    sample = "# meanfield-lab samples v1\n# n=2\n3,4\n5,6\n"
    assert column_moves(sample, sample.replace("6", "7")) == "column 2: 1 moved, max abs 1"
