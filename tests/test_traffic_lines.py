import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "traffic_lines.py"
EXACT = ROOT / "src" / "meanfield_lab" / "exact.py"

sys.path.insert(0, str(ROOT / "tools"))

from untested_lines import executable_lines  # noqa: E402


def line_of(path: Path, text: str) -> int:
    """The number of the one line of the file that contains ``text``."""
    hits = [i for i, line in enumerate(path.read_text().splitlines(), 1) if text in line]
    assert len(hits) == 1, (text, hits)
    return hits[0]


def test_all_four_workloads_list_only_executable_lines_they_never_ran():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    missed, executable = set(), {}
    for row in out.stdout.splitlines():
        match = re.fullmatch(r"(src/meanfield_lab/\w+\.py):(\d+): .*", row)
        assert match, row
        path, line = ROOT / match[1], int(match[2])
        if path not in executable:
            executable[path] = executable_lines(path)
        assert line in executable[path], row
        missed.add((path.name, line))
    # the traffic reads no file without the sample header; it sums lattices and writes samples
    assert ("exact.py", line_of(EXACT, 'is not a v1 sample file")')) in missed
    assert ("exact.py", line_of(EXACT, "return _lse_blocks(_Weights(J, h, lattice)")) not in missed
    assert ("exact.py", line_of(EXACT, "def write_samples_csv(")) not in missed


def test_an_unknown_workload_is_a_usage_error():
    out = subprocess.run([sys.executable, str(TOOL), "forward", "nope"], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 2
    assert "unknown workload nope" in out.stderr and not out.stdout
