import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "hwm_trace.py"
FORWARD_TASKS = ["cw12", "cw10", "ref2", "crit2", "ref3", "ref4", "phase"]
CLI_COMMANDS = ["solve", "pressure", "sample", "limits", "invert", "phase"]


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


def test_cli_prints_the_spawners_mark_after_it_reads_each_output_back():
    out = subprocess.run([sys.executable, str(TOOL), "cli", "--passes", "1"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    name, floor, unit = lines[0].split()
    assert name == "spawner" and unit == "MB"
    assert [line.split()[2] for line in lines[1:]] == CLI_COMMANDS
    marks = [float(floor)]
    for line in lines[1:]:
        _, k, _, child, unit, label, spawner, spawner_unit = line.split()
        assert (k, unit, label, spawner_unit) == ("1", "MB", "spawner", "MB")
        assert float(child) > 0
        marks.append(float(spawner))
    assert marks == sorted(marks)
    # limits writes a CSV of several MB, which the benchmark's worker reads back whole
    limits = 1 + CLI_COMMANDS.index("limits")
    assert marks[limits] - marks[limits - 1] >= 1.0, lines
