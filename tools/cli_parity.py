"""Usage: python tools/cli_parity.py REV -- CLI output of REV against the working tree.

Runs one fixed list on REV (built with ``git archive``) and on this tree, with
OPENBLAS_NUM_THREADS=1: the benchmark's ``cli`` commands at seed 11, ``limits``
on six more configs (among them a two-species law conditioned on a ball and
cw05 at N = 150000, whose CSV spans many row blocks), ``solve`` on four
one-species models (one with a three-atom measure), on the three-atom measures
(-1, e), (0, 1 - 2e), (1, e) at J = 1/(2e) (critical at x = 0): e = 1/4 at h = 0
(one k = 2 maximum), e = 1/6 at h = 0 (one k = 3 maximum) and at h = 1e-15 (the
atom route's deflated candidates and its k >= 2 Taylor terms), on two two-species
atom models (spin-1 at alpha = (0.4, 0.6) in a field, and two decoupled copies of
the skewed k = 2 model of tests/test_degenerate_roots.py, each species ending on
its own deflated candidate), on a two-species model
whose first field, h = 400, saturates tanh, on crit2 (a degenerate n = 2 root:
its 121 starts end on deflated candidates within 5 Newton steps), on ref4 at
grid_points 6 (1296 starts in R^4), on cw J = 1, h = 1e-12 (its start x = 0 has
an exactly singular Jacobian, so Newton's batch solve falls back to the slogdet
filter), on cw J = 1.001 and J = 1 + 1e-10 (x = 0 is a simple root there, and
no candidate may take the other two), on cw J = 1 + 1e-8 (the minimum x = 0
ties the two maxima to ~1e-16 and must not count as one) and on a two-species
ferromagnet with four maxima, one global (the direct route's merge of climbers
must keep each basin's), on two strongly coupled two-species models whose
global maximum lies on the edge of the hull [-1, 1]^2 and in its corner (1, 1)
(Newton steps toward them overshoot the hull and are clamped back), ``solve`` and
``limits`` on cw J = 1 at grid_points 10 (no start on the degenerate root),
``solve``, ``pressure`` (N = 200 and 400) and ``limits`` (on a ball around one of
its two global maxima) on the bipartite antiferromagnet alpha = (1/2, 1/2),
J_11 = J_22 = 0, J_12 = -2.5, h = (0.3, 0.3), ``solve`` and ``limits`` on the
bipartite ferromagnet J_12 = 2.5 at the same field (one Gaussian maximum),
``solve`` on cw J = 1 +- 1e-12, h = 0 and on alpha = (1/2, 1/2),
J = diag(2 - 2e-11, 1), h = 0, and ``limits`` on cw J = 1 - 1e-12 at N = 400
(curvatures far above the rounding of forming them, though 1e-11 or less: each
maximum is Gaussian, and x = 0 is a minimum above J = 1), ``solve`` with the
removed solver key ``tol`` on cw J = 1.2, h = 0 at 1e-3 and on cw J = 3, h = -0.2
at 1e-16 (a config error, exit 2: a loose target counted 7 fixed points where
there are 3, a tight one lost the global root), ``solve`` on ref3 at grid_points
10^6 (10^18 starts, past the cap of 2^18: exit 3 before any array is built),
``solve`` on ref2 with a ragged J (rows of 1 and 2 entries: exit 3), ``solve`` on
the atoms (-1e308, 1/2), (1e308, 1/2) at J = 1, h = 0 (f's quadratic term
overflows on the support hull: exit 3, with no RuntimeWarning),
``phase`` at h = 0.05 on J = 0.5..1.5 (step 0.005), on the critical grid
J = 1.000..1.004, at h = -0.05 on J = 1.40..1.60 (step 0.05; the largest fixed
point is metastable there), on the uneven grid J = 1.2, 1.25, 1.4, 1.45, 1.7, at
h = 1e308 on J = 1e308, 1.5e308 (the field u = Jx + h overflows to inf in the +-1
Newton map), at h = 1e-12 on 600 points J = 0.05..3.0 (the one-batch scan at
scale, just off the h = 0 tie of its two branches) and on J = inf, 1.0 (not
finite and out of order: a config error, exit 2), ``pressure`` on ref3 at
N = 300 and 600 (the exact sums run over row blocks of a 3-axis lattice), on the
two-species model alpha = (1/2, 1/2), J = ((1.5, 0.5), (0.5, 1.5)), h = 0 at
N = 20 and 40 (its maximum x = 0 is neither type 1 nor homogeneous, which
``solve`` refuses) and on cw J = 1 + 1e-10, h = 0 at N = 200 and 400 (``solve``
classifies its maxima x = +-1.7e-5 as inflections), ``pressure`` on cw12 at
N = 2^63 - 1 and N = 10^400 (past int64: exit 3 before any cast), a one-species ``sample``
then ``invert`` from a model-only config, with and without ``--ball``, and
with ``--ball`` from alpha = [NaN] (a species fraction that fits no sample: exit 3), an
``invert`` from each of three hand-written sample files (one with blank and
whitespace-only lines between its rows, one with CRLF line ends and
whitespace-only lines, which numpy's C reader refuses, so it is parsed again
line by line, and one without a final newline), an ``invert --ball`` from a
hand-written file whose one impossible row (S = 42 at N = 40) lies outside the
ball (every row is checked: exit 3), an ``invert --ball`` from a file with a row
S = -2^63 (whose np.abs is negative; exit 3), a ``sample`` with M = 0 (a
header-only file), a three-species ``sample`` (ref3 at [60, 90, 150],
M = 140000: three streams over a lattice of many row blocks) then ``invert`` on
its file, and the demos.
Prints per
output file "identical" or the count of moved numbers with their largest
absolute and relative change, and for a CSV file the same per column, named
by its header row ("column 2" in a sample file, which has none), e.g.
"(law_cdf: 6 moved, max abs 1.1e-16)"; a run that exits non-zero gives each of
its output files the text "exit N" and its stderr.  Exits 1 if any file's
non-numeric text differs.
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
CW1_TILT = {"n": 1, "alpha": [1.0], "J": [[1.0]], "h": [1e-12]}
TWIN2 = {"n": 2, "alpha": [0.5, 0.5], "J": [[1.5, 1.0], [1.0, 1.5]], "h": [0.0, 0.0]}
CW1001 = {"n": 1, "alpha": [1.0], "J": [[1.001]], "h": [0.0]}
CW1_1E10 = {"n": 1, "alpha": [1.0], "J": [[1.0000000001]], "h": [0.0]}
MIXED2 = {"n": 2, "alpha": [0.5, 0.5], "J": [[1.5, 0.5], [0.5, 1.5]], "h": [0.0, 0.0]}
CW1_1E8 = {"n": 1, "alpha": [1.0], "J": [[1.00000001]], "h": [0.0]}
FERRO2 = {"n": 2, "alpha": [0.5, 0.5], "J": [[2.42, 0.02], [0.02, 2.42]], "h": [0.03, -0.01]}
EDGE2 = {"n": 2, "alpha": [0.561253703716457, 0.438746296283543],
         "J": [[18.720167598325204, -15.449730462626501],
               [-15.449730462626501, 16.08911628704083]],
         "h": [0.25672875100201714, -0.185410305011926]}
CORNER2 = {"n": 2, "alpha": [0.27975668663814557, 0.7202433133618544],
           "J": [[15.22768163018051, 15.612241497692947],
                 [15.612241497692947, 18.641785415867613]],
           "h": [0.012448950262779368, 0.2224703971485656]}
BIP_AF = {"n": 2, "alpha": [0.5, 0.5], "J": [[0.0, -2.5], [-2.5, 0.0]], "h": [0.3, 0.3]}
BIP_F = {"n": 2, "alpha": [0.5, 0.5], "J": [[0.0, 2.5], [2.5, 0.0]], "h": [0.3, 0.3]}
CW1P12 = {"n": 1, "alpha": [1.0], "J": [[1.0 + 1e-12]], "h": [0.0]}
CW1M12 = {"n": 1, "alpha": [1.0], "J": [[1.0 - 1e-12]], "h": [0.0]}
NEAR2 = {"n": 2, "alpha": [0.5, 0.5], "J": [[2.0 - 2e-11, 0.0], [0.0, 1.0]], "h": [0.0, 0.0]}
CW3 = {"n": 1, "alpha": [1.0], "J": [[3.0]], "h": [-0.2]}
SPIN1_2 = {"n": 2, "alpha": [0.4, 0.6], "J": [[1.5, 0.5], [0.5, 1.0]], "h": [0.1, -0.05],
           "measure": {"atoms": [[-1.0, 1.0 / 3.0], [0.0, 1.0 / 3.0], [1.0, 1.0 / 3.0]]}}
J_SKEWED, H_SKEWED = 0.8980536560709589, -0.3138717919994247
SKEWED2 = {"n": 2, "alpha": [0.5, 0.5], "J": [[2.0 * J_SKEWED, 0.0], [0.0, 2.0 * J_SKEWED]],
           "h": [H_SKEWED, H_SKEWED], "measure": {"atoms": [[-1.0, 0.3], [0.5, 0.5], [2.0, 0.2]]}}
SOLVER = {"ref4": {"grid_points": 6}, "cw10-g10": {"grid_points": 10},
          "cw12-tol": {"tol": 1e-3}, "cw3-tol": {"tol": 1e-16},
          "ref3-g1e6": {"grid_points": 10 ** 6}}


def three_atoms(e: float, h: float) -> dict:
    """Atoms (-1, e), (0, 1 - 2e), (1, e) at J = 1/(2e), as the degenerate-root tests build it."""
    return {"n": 1, "alpha": [1.0], "J": [[1.0 / (2.0 * e)]], "h": [h],
            "measure": {"atoms": [[-1.0, e], [0.0, 1.0 - 2.0 * e], [1.0, e]]}}


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
                      "cw05-big": {"model": CW05, "sizes": [150000]},
                      "cw10-g10": {"model": MODELS["cw10"], "sizes": [400],
                                   "solver": {"grid_points": 10}},
                      "bip-af-ball": {"model": BIP_AF, "sizes": [200, 200],
                                      "conditioned": {"center": [0.77, -0.58],
                                                      "radius": 0.3}},
                      "bip-f": {"model": BIP_F, "sizes": [200, 200]},
                      "cw1m1e-12": {"model": CW1M12, "sizes": [400]}}.items():
        config, out = work / f"config-{name}.json", work / f"limits-{name}.json"
        config.write_text(json.dumps(doc))
        runs.append((["limits", "--config", str(config), "--out", str(out)],
                     [out, out.with_suffix(".csv")]))
    for name, doc in {"cw12": MODELS["cw12"], "cw10": MODELS["cw10"], "cw08": CW08,
                      "atom3": ATOM3, "sat2": SAT2, "crit2": MODELS["crit2"],
                      "ref4": MODELS["ref4"], "cw1-tilt": CW1_TILT, "cw10-g10": MODELS["cw10"],
                      "cw1001": CW1001, "cw1-1e-10": CW1_1E10, "cw1-1e-8": CW1_1E8,
                      "ferro2": FERRO2, "edge2": EDGE2, "corner2": CORNER2,
                      "bip-af": BIP_AF, "bip-f": BIP_F, "cw1p1e-12": CW1P12,
                      "cw1m1e-12": CW1M12, "near2": NEAR2, "cw12-tol": MODELS["cw12"],
                      "cw3-tol": CW3, "atom3-k2": three_atoms(0.25, 0.0),
                      "atom3-k3": three_atoms(1.0 / 6.0, 0.0),
                      "atom3-k3-tilt": three_atoms(1.0 / 6.0, 1e-15), "spin1-2": SPIN1_2,
                      "skewed2": SKEWED2, "ref3-g1e6": MODELS["ref3"],
                      "ragged-J": {**MODELS["ref2"], "J": [[1.0], [1.0, 2.0]]},
                      "atoms-1e308": {**MODELS["cw12"], "J": [[1.0]], "measure": {
                          "atoms": [[-1e308, 0.5], [1e308, 0.5]]}}}.items():
        config, out = work / f"config-solve-{name}.json", work / f"solve-{name}.json"
        opts = {"solver": SOLVER[name]} if name in SOLVER else {}
        config.write_text(json.dumps({"model": doc, **opts}))
        runs.append((["solve", "--config", str(config), "--out", str(out)], [out]))
    for name, doc in {"h005": {"J_grid": [round(0.5 + 0.005 * i, 10) for i in range(201)],
                               "h": 0.05},
                      "crit": {"J_grid": [1.0, 1.001, 1.002, 1.003, 1.004], "h": 0.0},
                      "hm005": {"J_grid": [1.4, 1.45, 1.5, 1.55, 1.6], "h": -0.05},
                      "uneven": {"J_grid": [1.2, 1.25, 1.4, 1.45, 1.7], "h": 0.0},
                      "sat": {"J_grid": [1e308, 1.5e308], "h": 1e308},
                      "600": {"J_grid": [0.05 + 2.95 * i / 599 for i in range(600)],
                              "h": 1e-12},
                      "inf": {"J_grid": [float("inf"), 1.0], "h": 0.0}}.items():
        config, out = work / f"config-phase-{name}.json", work / f"phase-{name}.csv"
        config.write_text(json.dumps(doc))
        runs.append((["phase", "--config", str(config), "--out", str(out)], [out]))
    for name, doc in {"ref3": {"model": MODELS["ref3"], "N_values": [300, 600]},
                      "mixed2": {"model": MIXED2, "N_values": [20, 40]},
                      "cw1-1e-10": {"model": CW1_1E10, "N_values": [200, 400]},
                      "bip-af": {"model": BIP_AF, "N_values": [200, 400]},
                      "int64-max": {"model": MODELS["cw12"], "N_values": [2 ** 63 - 1]},
                      "1e400": {"model": MODELS["cw12"], "N_values": [10 ** 400]}}.items():
        config, out = work / f"config-pressure-{name}.json", work / f"pressure-{name}.csv"
        config.write_text(json.dumps(doc))
        runs.append((["pressure", "--config", str(config), "--out", str(out)], [out]))
    config, model_only = work / "config-sample-cw12.json", work / "config-invert-cw12.json"
    config.write_text(json.dumps({"model": MODELS["cw12"], "sizes": [400], "M": 2000}))
    model_only.write_text(json.dumps({"model": MODELS["cw12"]}))
    samples, out = work / "sample-cw12.csv", work / "invert-cw12.json"
    ball_out, nan_config = work / "invert-cw12-ball.json", work / "config-invert-nan.json"
    nan_config.write_text(json.dumps({"alpha": [float("nan")]}))
    nan_out = work / "invert-cw12-nan-ball.json"
    runs += [(["sample", "--config", str(config), "--seed", "11", "--out", str(samples)],
              [samples]),
             (["invert", "--config", str(model_only), "--samples", str(samples),
               "--out", str(out)], [out]),
             (["invert", "--config", str(model_only), "--samples", str(samples),
               "--ball", "0.66,0.3", "--out", str(ball_out)], [ball_out]),
             (["invert", "--config", str(nan_config), "--samples", str(samples),
               "--ball", "0.66,0.3", "--out", str(nan_out)], [nan_out])]
    config, empty = work / "config-sample-empty.json", work / "sample-empty.csv"
    config.write_text(json.dumps({"model": MODELS["cw12"], "sizes": [400], "M": 0}))
    hand, out = work / "sample-hand.csv", work / "invert-hand.json"
    hand.write_text("# meanfield-lab samples v1\n# n=1\n# N=[40]\n# seed=0\n"
                    "12\n\n8\n  \n16\n\t\n10\n \n\n14\n-2\n\n")
    impossible, ball_out = work / "sample-impossible.csv", work / "invert-impossible-ball.json"
    impossible.write_text("# meanfield-lab samples v1\n# n=1\n# N=[40]\n# seed=0\n"
                          "12\n8\n16\n10\n14\n42\n")
    crlf, crlf_out = work / "sample-crlf.csv", work / "invert-crlf.json"
    crlf.write_bytes(b"# meanfield-lab samples v1\r\n# n=1\r\n# N=[40]\r\n# seed=0\r\n"
                     b"12\r\n \r\n8\r\n16\r\n\t \r\n\r\n10\r\n14\r\n-2\r\n")
    int64_min, int64_out = work / "sample-int64-min.csv", work / "invert-int64-min-ball.json"
    int64_min.write_text("# meanfield-lab samples v1\n# n=1\n# N=[40]\n# seed=0\n"
                         "2\n-9223372036854775808\n4\n6\n0\n8\n2\n")
    unended, unended_out = work / "sample-unended.csv", work / "invert-unended.json"
    unended.write_text("# meanfield-lab samples v1\n# n=1\n# N=[40]\n# seed=0\n"
                       "12\n8\n16\n10\n14\n-2")
    runs += [(["sample", "--config", str(config), "--seed", "11", "--out", str(empty)],
              [empty]),
             (["invert", "--config", str(model_only), "--samples", str(hand),
               "--out", str(out)], [out]),
             (["invert", "--config", str(model_only), "--samples", str(crlf),
               "--out", str(crlf_out)], [crlf_out]),
             (["invert", "--config", str(model_only), "--samples", str(unended),
               "--out", str(unended_out)], [unended_out]),
             (["invert", "--config", str(model_only), "--samples", str(impossible),
               "--ball", "0.3,0.2", "--out", str(ball_out)], [ball_out]),
             (["invert", "--config", str(model_only), "--samples", str(int64_min),
               "--ball", "0.1,0.5", "--out", str(int64_out)], [int64_out])]
    config, model_only = work / "config-sample-ref3.json", work / "config-invert-ref3.json"
    config.write_text(json.dumps({"model": MODELS["ref3"], "sizes": [60, 90, 150], "M": 140_000}))
    model_only.write_text(json.dumps({"model": MODELS["ref3"]}))
    samples, out = work / "sample-ref3.csv", work / "invert-ref3.json"
    runs += [(["sample", "--config", str(config), "--seed", "11", "--out", str(samples)],
              [samples]),
             (["invert", "--config", str(model_only), "--samples", str(samples),
               "--out", str(out)], [out])]
    outputs = {}
    for argv, files in runs:
        run = subprocess.run([sys.executable, "-m", "meanfield_lab.cli", *argv], env=env,
                             cwd=work, capture_output=True, text=True)
        outputs.update((Path(f).name, Path(f).read_text() if not run.returncode
                        else f"exit {run.returncode}\n{run.stderr}") for f in files)
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
