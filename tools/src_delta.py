"""Usage: python tools/src_delta.py REV -- the package's size at REV against the working tree.

For each ``src/meanfield_lab/*.py`` at REV (read with ``git show``) or in the
working tree, and for all of them together, prints three counts at REV, in
the tree and their change: lines (newline characters, as ``wc -l`` counts),
bytes, and code tokens.  Code tokens are the ``tokenize`` tokens less
comments, NL and NEWLINE, INDENT and DEDENT, ENCODING and ENDMARKER, so a
docstring is one token and neither layout nor comments move the count.  A
file on one side only counts 0 on the other.
"""

import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/meanfield_lab"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def counts(source: bytes) -> tuple[int, int, int]:
    """(lines, bytes, code tokens) of one Python source."""
    tokens = tokenize.tokenize(io.BytesIO(source).readline)
    return source.count(b"\n"), len(source), sum(t.type not in LAYOUT for t in tokens)


def sources(rev: str | None) -> dict[str, bytes]:
    """The package's top-level modules by file name, at ``rev`` or (None) in the tree."""
    if rev is None:
        return {p.name: p.read_bytes() for p in (ROOT / PACKAGE).glob("*.py")}
    names = subprocess.run(["git", "ls-tree", "--name-only", rev, f"{PACKAGE}/"], cwd=ROOT,
                           check=True, capture_output=True, text=True).stdout.split()
    return {Path(name).name: subprocess.run(["git", "show", f"{rev}:{name}"], cwd=ROOT,
                                            check=True, capture_output=True).stdout
            for name in names if name.endswith(".py")}


def main(rev: str) -> int:
    old, new = sources(rev), sources(None)
    rows = {name: (counts(old.get(name, b"")), counts(new.get(name, b"")))
            for name in sorted(old.keys() | new.keys())}
    rows["total"] = tuple(tuple(map(sum, zip(*(row[side] for row in rows.values()))))
                          for side in (0, 1))
    width = max(map(len, rows))
    print(f"{'file':<{width}}" + "".join(f"  {what:>22}" for what in ("lines", "bytes",
                                                                      "tokens")))
    for name, (a, b) in rows.items():
        print(f"{name:<{width}}" + "".join(f"  {f'{x} -> {y} ({y - x:+d})':>22}"
                                           for x, y in zip(a, b)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
