import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from src_delta import counts  # noqa: E402


def test_counts_take_lines_bytes_and_tokens_less_comments_and_layout():
    source = (b'x = 1  # one\n\n\ndef f(a):\n    """doc"""\n    # two\n'
              b"    return (a +\n            1)\n")
    # x = 1 / def f ( a ) : / """doc""" / return ( a + 1 )
    assert counts(source) == (8, len(source), 16)


def test_counts_of_an_empty_source_are_zero():
    assert counts(b"") == (0, 0, 0)
