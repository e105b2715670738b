import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "hwm_trace.py"
FORWARD_TASKS = ["cw12", "cw10", "ref2", "crit2", "ref3", "ref4", "phase"]


def test_forward_prints_each_tasks_high_water_mark_once():
    out = subprocess.run([sys.executable, str(TOOL), "forward", "--passes", "1"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("set-up") and lines[0].endswith(" MB")
    assert [line.split()[2] for line in lines[1:]] == FORWARD_TASKS
    for line in lines[1:]:
        _, k, _, mark, unit, rise = line.split()
        assert k == "1" and unit == "MB" and float(mark) > 0 and float(rise) >= 0
