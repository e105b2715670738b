"""Start-up guards: the package runs on numpy alone and loads no scipy module.

scipy.special alone costs about half of a CLI start.  The k >= 2 normaliser
and the one-dimensional law CDFs take their special functions from the
package's own numpy kernels (``meanfield_lab._special``), and scipy.optimize
is needed nowhere.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "meanfield_lab"

REF2 = {"n": 2, "alpha": [0.5, 0.5], "J": [[1.0, 0.5], [0.5, 1.0]],
        "h": [0.2, -0.1]}
CW10 = {"n": 1, "alpha": [1.0], "J": [[1.0]], "h": [0.0]}


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=120)


def test_import_does_not_load_scipy_optimize():
    probe = "import sys, meanfield_lab; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_no_source_file_names_scipy_optimize():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        assert "scipy.optimize" not in path.read_text(), path.name


def test_the_forward_layer_imports_nothing_from_the_lattice_engine():
    for name in ("solver.py", "_ascent.py", "_cluster.py"):
        imported = []
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if isinstance(node, ast.Import):
                imported += [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported += [f"{node.module or ''}.{a.name}" for a in node.names]
        assert imported, name
        assert not [m for m in imported if "exact" in m.split(".")], name


def test_cli_import_loads_no_scipy_module():
    probe = ("import sys, meanfield_lab.cli\n"
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = run_python(probe)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# Runs every subcommand on ref2 in one interpreter that cannot import scipy.
WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from meanfield_lab.cli import main
tmp, model = sys.argv[1], json.loads(sys.argv[2])
def cfg(name, doc):
    path = f"{tmp}/{name}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path
runs = [
    ["solve", "--config", cfg("solve", {"model": model}), "--out", f"{tmp}/solve.out"],
    ["pressure", "--config", cfg("pressure", {"model": model, "N_values": [20, 40]}),
     "--out", f"{tmp}/pressure.csv"],
    ["sample", "--config", cfg("sample", {"model": model, "sizes": [20, 20], "M": 300}),
     "--seed", "3", "--out", f"{tmp}/samples.csv"],
    ["invert", "--config", cfg("invert", {"model": model}),
     "--samples", f"{tmp}/samples.csv", "--out", f"{tmp}/invert.out"],
    ["phase", "--config", cfg("phase", {"J_grid": [0.5, 0.6, 0.7]}),
     "--out", f"{tmp}/phase.csv"],
    ["limits", "--config", cfg("limits", {"model": model, "sizes": [20, 20]}),
     "--out", f"{tmp}/limits.json"],
]
print(json.dumps({argv[0]: main(argv) for argv in runs}))
"""


def test_every_subcommand_runs_on_ref2_without_scipy(tmp_path):
    out = run_python(WITHOUT_SCIPY, str(tmp_path), json.dumps(REF2))
    assert out.returncode == 0, out.stderr
    codes = json.loads(out.stdout)
    assert codes == {name: 0 for name in
                     ("solve", "pressure", "sample", "invert", "phase", "limits")}


def test_no_source_file_imports_scipy():
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert "import scipy" not in text and "from scipy" not in text, path.name


def test_limits_on_the_critical_curie_weiss_model_loads_no_scipy_module(tmp_path):
    # k = 2 needs ln Gamma(5/4) and the one-dimensional CDF P(1/4, x)
    cfg = tmp_path / "cw10.json"
    cfg.write_text(json.dumps({"model": CW10, "sizes": [400]}))
    probe = ("import sys\nfrom meanfield_lab.cli import main\n"
             "code = main(['limits', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
             "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = run_python(probe, str(cfg), str(tmp_path / "law.json"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "[]"]
    report = json.loads((tmp_path / "law.json").read_text())
    assert report["law"]["log_normalizer"] == 1.2161020065851322


# The one-species laws (k = 2 and Gaussian) and a two-species k = 2 law, each
# through CLI limits, in one interpreter that cannot import scipy.
LIMITS_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from meanfield_lab.cli import main
tmp, docs = sys.argv[1], json.loads(sys.argv[2])
codes = {}
for name, doc in docs.items():
    with open(f"{tmp}/{name}.json", "w") as fh:
        json.dump(doc, fh)
    codes[name] = main(["limits", "--config", f"{tmp}/{name}.json",
                        "--out", f"{tmp}/{name}-law.json"])
print(json.dumps(codes))
"""


def test_limits_runs_on_every_law_kind_without_scipy(tmp_path):
    docs = {"cw10": {"model": CW10, "sizes": [400]},
            "cw05": {"model": {**CW10, "J": [[0.5]], "h": [0.1]}, "sizes": [400]},
            "crit2": {"model": {"n": 2, "alpha": [0.5, 0.5], "J": [[2.0, 0.0], [0.0, 2.0]],
                                "h": [0.0, 0.0]}, "sizes": [40, 40]}}
    out = run_python(LIMITS_WITHOUT_SCIPY, str(tmp_path), json.dumps(docs))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"cw10": 0, "cw05": 0, "crit2": 0}
    kinds = {name: json.loads((tmp_path / f"{name}-law.json").read_text())["law"]["kind"]
             for name in docs}
    assert kinds == {"cw10": "higher_order", "cw05": "gaussian", "crit2": "higher_order"}
    assert (tmp_path / "cw05-law.csv").read_text().startswith("z,probability,exact_cdf,law_cdf\n")
