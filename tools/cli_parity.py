"""Usage: python tools/cli_parity.py REV -- CLI output of REV against the working tree.

Runs one fixed list on REV (built with ``git archive``) and on this tree, with
OPENBLAS_NUM_THREADS=1: the benchmark's ``cli`` commands at seed 11, ``limits``
on six more configs (among them a two-species law conditioned on a ball and
cw05 at N = 150000, whose CSV spans many row blocks), ``solve`` on four
one-species models (one with a three-atom measure) and on a two-species model
whose first field, h = 400, saturates tanh, ``phase`` at h = 0.05 on
J = 0.5..1.5 (step 0.005) and on the critical grid J = 1.000..1.004, a
three-species ``pressure`` (ref3 at N = 300 and 600, so the exact sums run over
row blocks of a 3-axis lattice), a one-species ``sample`` then ``invert`` from a
model-only config, with and without ``--ball``, an ``invert`` from a hand-written
sample file with blank and whitespace-only lines between its rows, a ``sample``
with M = 0 (a header-only file), and the demos.  Prints per
output file "identical" or the count of moved numbers with their largest
absolute and relative change, and for a CSV file the same per column, named
by its header row ("column 2" in a sample file, which has none), e.g.
"(law_cdf: 6 moved, max abs 1.1e-16)"; exits 1 if any file's non-numeric
text differs.
"""

import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
CW05 = {"n": 1, "alpha": [1.0], "J": [[0.5]], "h": [0.1]}
CW08 = {"n": 1, "alpha": [1.0], "J": [[0.8]], "h": [0.3]}
ATOM3 = {"n": 1, "alpha": [1.0], "J": [[1.0]], "h": [0.2],
         "measure": {"atoms": [[-1.0, 0.25], [0.0, 0.5], [1.0, 0.25]]}}
SAT2 = {"n": 2, "alpha": [0.5, 0.5], "J": [[1.0, 0.5], [0.5, 1.0]], "h": [400.0, 0.1]}
TWIN2 = {"n": 2, "alpha": [0.5, 0.5], "J": [[1.5, 1.0], [1.0, 1.5]], "h": [0.0, 0.0]}


def number_diff(old: str, new: str):
    """(moved, max abs, max rel change) of the numbers; None if the other text differs."""
    if NUMBER.split(old) != NUMBER.split(new):
        return None
    pairs = [(float(a), float(b)) for a, b in zip(NUMBER.findall(old), NUMBER.findall(new))
             if a != b]
    gaps = [abs(a - b) for a, b in pairs]
    rels = [g / max(abs(a), abs(b)) if g else 0.0 for g, (a, b) in zip(gaps, pairs)]
    return len(pairs), max(gaps, default=0.0), max(rels, default=0.0)


def column_moves(old: str, new: str) -> str:
    """Moved numbers per column of two CSV texts whose non-numeric text agrees."""
    rows = [(a.split(","), b.split(",")) for a, b in zip(old.splitlines(), new.splitlines())
            if a.strip() and not a.startswith("#")]
    header = rows[0][0] if rows else []
    if all(NUMBER.fullmatch(cell.strip()) for cell in header):      # no header row
        header = [f"column {i + 1}" for i in range(len(header))]
    else:
        rows = rows[1:]
    gaps = {}
    for a, b in rows:
        for name, x, y in zip(header, a, b):
            if x != y:
                gaps.setdefault(name, []).append(abs(float(x) - float(y)))
    return "; ".join(f"{name}: {len(g)} moved, max abs {max(g):.2g}" for name, g in gaps.items())


def run_tree(tree: Path, work: Path) -> dict[str, str]:
    """Each output file of the fixed list, and each demo's stdout, by name."""
    from workloads import MODELS, cli_commands

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(tree / "src")}
    runs = [(c.argv, c.outputs) for c in cli_commands(11, str(work))]
    for name, doc in {"cw10": {"model": MODELS["cw10"], "sizes": [400]},
                      "crit2": {"model": MODELS["crit2"], "sizes": [40, 40]},
                      "cw12-ball": {"model": MODELS["cw12"], "sizes": [400],
                                    "conditioned": {"center": [0.66], "radius": 0.3}},
                      "cw05": {"model": CW05, "sizes": [400]},
                      "twin2-ball": {"model": TWIN2, "sizes": [200, 200],
                                     "conditioned": {"center": [0.7, 0.7], "radius": 0.3}},
                      "cw05-big": {"model": CW05, "sizes": [150000]}}.items():
        config, out = work / f"config-{name}.json", work / f"limits-{name}.json"
        config.write_text(json.dumps(doc))
        runs.append((["limits", "--config", str(config), "--out", str(out)],
                     [out, out.with_suffix(".csv")]))
    for name, doc in {"cw12": MODELS["cw12"], "cw10": MODELS["cw10"], "cw08": CW08,
                      "atom3": ATOM3, "sat2": SAT2}.items():
        config, out = work / f"config-solve-{name}.json", work / f"solve-{name}.json"
        config.write_text(json.dumps({"model": doc}))
        runs.append((["solve", "--config", str(config), "--out", str(out)], [out]))
    for name, doc in {"h005": {"J_grid": [round(0.5 + 0.005 * i, 10) for i in range(201)],
                               "h": 0.05},
                      "crit": {"J_grid": [1.0, 1.001, 1.002, 1.003, 1.004], "h": 0.0}}.items():
        config, out = work / f"config-phase-{name}.json", work / f"phase-{name}.csv"
        config.write_text(json.dumps(doc))
        runs.append((["phase", "--config", str(config), "--out", str(out)], [out]))
    config, out = work / "config-pressure-ref3.json", work / "pressure-ref3.csv"
    config.write_text(json.dumps({"model": MODELS["ref3"], "N_values": [300, 600]}))
    runs.append((["pressure", "--config", str(config), "--out", str(out)], [out]))
    config, model_only = work / "config-sample-cw12.json", work / "config-invert-cw12.json"
    config.write_text(json.dumps({"model": MODELS["cw12"], "sizes": [400], "M": 2000}))
    model_only.write_text(json.dumps({"model": MODELS["cw12"]}))
    samples, out = work / "sample-cw12.csv", work / "invert-cw12.json"
    ball_out = work / "invert-cw12-ball.json"
    runs += [(["sample", "--config", str(config), "--seed", "11", "--out", str(samples)],
              [samples]),
             (["invert", "--config", str(model_only), "--samples", str(samples),
               "--out", str(out)], [out]),
             (["invert", "--config", str(model_only), "--samples", str(samples),
               "--ball", "0.66,0.3", "--out", str(ball_out)], [ball_out])]
    config, empty = work / "config-sample-empty.json", work / "sample-empty.csv"
    config.write_text(json.dumps({"model": MODELS["cw12"], "sizes": [400], "M": 0}))
    hand, out = work / "sample-hand.csv", work / "invert-hand.json"
    hand.write_text("# meanfield-lab samples v1\n# n=1\n# N=[40]\n# seed=0\n"
                    "12\n\n8\n  \n16\n\t\n10\n \n\n14\n-2\n\n")
    runs += [(["sample", "--config", str(config), "--seed", "11", "--out", str(empty)],
              [empty]),
             (["invert", "--config", str(model_only), "--samples", str(hand),
               "--out", str(out)], [out])]
    outputs = {}
    for argv, files in runs:
        subprocess.run([sys.executable, "-m", "meanfield_lab.cli", *argv], env=env,
                       cwd=work, check=True)
        outputs.update((Path(f).name, Path(f).read_text()) for f in files)
    for demo in sorted((tree / "demos").glob("*.py")):
        outputs[f"{demo.name} stdout"] = subprocess.run(
            [sys.executable, str(demo)], env=env, cwd=work, check=True,
            capture_output=True, text=True).stdout
    return outputs


def main(rev: str) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        tarfile.open(fileobj=io.BytesIO(archive)).extractall(base / "rev", filter="data")
        for side in ("old", "new"):
            (base / side).mkdir()
        old, new = run_tree(base / "rev", base / "old"), run_tree(ROOT, base / "new")
    failed = False
    for name in sorted(old.keys() | new.keys()):
        diff = number_diff(old[name], new[name]) if name in old and name in new else None
        failed |= diff is None
        columns = diff and diff[0] and name.endswith(".csv") and column_moves(old[name],
                                                                                new[name])
        print(f"{name}: " + ("non-numeric text differs" if diff is None else "identical"
                             if not diff[0] else "%d numbers moved, max abs %.2g, "
                             "max rel %.2g" % diff) + (f" ({columns})" if columns else ""))
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
