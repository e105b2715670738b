"""The benchmark's workloads: fixed configs, task lists and oracle checks.

Each in-process workload is a list of tasks run in order; a task calls
the library through module attributes (so the tracer sees the call) and
its check compares the result with an oracle.  The run seed only sets
the sampler seeds: models are fixed, so the oracle values are exact.
The ``cli`` workload runs the same kind of configs through the
command-line front end in fresh interpreters (see ``cli_commands``).

Oracle constants copied from tests/conftest.py, where they were produced
with 50-digit mpmath arithmetic and bisection of mu - tanh(J mu):
MU0_J12, P_LIMIT_J12, CHI_J12.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from meanfield_lab import exact, inverse, limits, solver
from meanfield_lab import model as mdl

# tests/conftest.py: bisection of mu - tanh(1.2 mu) on (0, 1), 200 halvings at 50 digits
MU0_J12 = 0.6585696604057540
P_LIMIT_J12 = 0.024099613346311573
CHI_J12 = 1.7671212078121626
# mpmath, 40 digits: integral of exp(-x^4/12) over R = 12^(1/4) Gamma(1/4) / 2
Z_CW10 = 3.374010197800025
# mpmath, 40 digits: ln of the product of two such integrals (crit2 decouples)
LOG_Z_CRIT2 = 2.4322040131702645
# Values of pressure_limit at the commit that defined this benchmark; they
# only centre loose bands (sandwich bounds, finite-N mean within 0.01).
P_LIMIT_REF2 = 0.01911282998465854
MU_REF2 = (0.356391794345789, -0.02179719670106824)
MU_REF3 = (0.11500946228069833, -0.32429390056940616, 0.012967253108137875)
# Fixed points found by solve_fixed_points at the same commit.
FIXED_POINTS = {"cw12": 3, "cw10": 1, "ref2": 1, "crit2": 1, "ref3": 1, "ref4": 1}

MODELS = {
    "cw12": {"n": 1, "alpha": [1.0], "J": [[1.2]], "h": [0.0]},
    "cw10": {"n": 1, "alpha": [1.0], "J": [[1.0]], "h": [0.0]},
    "ref2": {"n": 2, "alpha": [0.5, 0.5], "J": [[1.0, 0.5], [0.5, 1.0]],
             "h": [0.2, -0.1]},
    "crit2": {"n": 2, "alpha": [0.5, 0.5], "J": [[2.0, 0.0], [0.0, 2.0]],
              "h": [0.0, 0.0]},
    "ref3": {"n": 3, "alpha": [0.2, 0.3, 0.5],
             "J": [[2.0, 0.3, -0.2], [0.3, 1.5, 0.4], [-0.2, 0.4, 1.0]],
             "h": [0.1, -0.2, 0.05]},
    "ref4": {"n": 4, "alpha": [0.1, 0.2, 0.3, 0.4],
             "J": [[2.0, 0.3, -0.2, 0.1], [0.3, 1.5, 0.4, 0.0],
                   [-0.2, 0.4, 1.0, 0.2], [0.1, 0.0, 0.2, 1.2]],
             "h": [0.1, -0.2, 0.05, 0.0]},
}

# Everything that sizes a workload; its hash is recorded in provenance.json.
CONFIGS = {
    "forward": {
        "pressure_limit": ["cw12", "cw10", "ref2", "crit2", "ref3", "ref4"],
        "grid_points": {"ref4": 6},
        "phase_J": [0.5, 1.5, 41], "phase_h": 0.0,
    },
    "finite-size": {
        "N_ladder": [200, 400, 800, 1600, 3200],
        "moments": {"ref2": [1000, 1000], "ref3": [120, 180, 300]},
        "sample_ref2": {"sizes": [500, 500], "M": 200_000},
        "sample_cw12": {"sizes": [1000], "M": 200_000, "ball": 0.3},
    },
    "limit-laws": {
        "ks_cw10_N": 4000, "cov_ref2_sizes": [1000, 1000],
        "ball_cw12": {"N": 2000, "radius": 0.3},
    },
    "cli": {
        "solve": {"model": "ref3", "grid_points": 7}, "pressure": {"model": "ref2", "N_values": [200, 400, 800, 1600, 3200]},
        "sample": {"model": "ref2", "sizes": [500, 500], "M": 200_000},
        "limits": {"model": "ref2", "sizes": [300, 300]}, "invert": "ref2",
        "phase": {"J": [0.5, 1.5, 41], "h": 0.0},
    },
}

WORKLOADS = tuple(CONFIGS)

# Seconds of one untraced pass on the host the benchmark was defined on
# (2 cores, Python 3.11, single-threaded OpenBLAS).  They only turn
# --seconds into a fixed pass count, which the host's or the code's speed
# never changes; see pass_count.
PASS_S = {"forward": 4.0, "finite-size": 4.4, "limit-laws": 3.0, "cli": 7.0}


def pass_count(workload: str, seconds: float, trace: bool) -> int:
    """Untraced passes a run measures (three at least, for a median).

    A traced run measures half as many, each followed by a traced pass,
    so that it takes about as long.
    """
    count = max(3, round(seconds / PASS_S[workload]))
    return max(1, count // 2) if trace else count


def config_hash(workload: str) -> str:
    """sha256 of the workload's config together with the models it names."""
    doc = {"config": CONFIGS[workload], "models": MODELS}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class OracleFailure(Exception):
    """A result disagreed with its oracle."""


def expect(ok, what: str):
    if not ok:
        raise OracleFailure(what)


def close(value, target, tol, what: str, rel: bool = False):
    scale = abs(target) if rel else 1.0
    expect(abs(value - target) <= tol * scale,
           f"{what}: {value!r} vs {target!r} (tol {tol:g}{' rel' if rel else ''})")


@dataclass
class Task:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], None]     # check(result, state)


@dataclass
class Check:
    """An oracle check run once per run, after the warm-up pass, untimed."""
    name: str
    run: Callable[[], None]


def build_model(name: str):
    return mdl.validate_model(mdl.model_from_dict(MODELS[name]))


def _phase_grid(spec) -> np.ndarray:
    lo, hi, count = spec
    return np.linspace(lo, hi, count)


# --- forward -------------------------------------------------------------------


def _check_pressure(name, k, limit=None, mu=None, strength=None):
    def check(res, state):
        expect(len(res.maxima) == (len(mu) if mu else 1),
               f"{name}: {len(res.maxima)} global maxima")
        for cls in res.maxima:
            expect(cls.k == k, f"{name}: type k={cls.k}, expected {k}")
            if strength is not None:
                close(cls.strength, strength, 1e-10, f"{name} strength")
        if limit is not None:
            close(res.limit_value, limit, 1e-10, f"{name} pressure limit")
        if mu:
            got = sorted(float(c.point.x[0]) for c in res.maxima)
            for g, want in zip(got, sorted(mu)):
                close(g, want, 1e-10, f"{name} maximum")
        if not math.isnan(res.method_agreement):
            expect(res.method_agreement <= 1e-9,
                   f"{name}: method agreement {res.method_agreement:.3g}")
    return check


def _check_phase(table, state):
    i = int(np.argmin(np.abs(table["J"] - 1.2)))
    close(table["mu"][i], MU0_J12, 1e-10, "phase scan mu at J=1.2")
    close(table["pressure"][i], P_LIMIT_J12, 1e-10, "phase scan pressure at J=1.2")


def _check_fixed_points(model, opts, name):
    def run():
        found = len(solver.solve_fixed_points(model, opts))
        expect(found == FIXED_POINTS[name],
               f"{name}: {found} fixed points, recorded {FIXED_POINTS[name]}")
    return Check(f"fixed_points_{name}", run)


def forward(seed: int, workdir: str) -> tuple[list[Task], list[Check]]:
    cfg = CONFIGS["forward"]
    models = {name: build_model(name) for name in cfg["pressure_limit"]}
    opts = {name: solver.SolverOptions(grid_points=g)
            for name, g in cfg["grid_points"].items()}
    grid = _phase_grid(cfg["phase_J"])
    checks = {
        "cw12": _check_pressure("cw12", 1, limit=P_LIMIT_J12,
                                mu=(-MU0_J12, MU0_J12)),
        "cw10": _check_pressure("cw10", 2, limit=0.0, strength=-2.0),
        "ref2": _check_pressure("ref2", 1, limit=P_LIMIT_REF2),
        "crit2": _check_pressure("crit2", 2, limit=0.0),
        "ref3": _check_pressure("ref3", 1),
        "ref4": _check_pressure("ref4", 1),
    }
    tasks = [Task(name, lambda st, name=name: solver.pressure_limit(
                      models[name], opts.get(name)), checks[name])
             for name in cfg["pressure_limit"]]
    tasks.append(Task("phase", lambda st: solver.cw_phase_scan(grid, cfg["phase_h"]),
                      _check_phase))
    checks = [_check_fixed_points(models[name], opts.get(name), name)
              for name in cfg["pressure_limit"]]
    return tasks, checks


# --- finite-size ---------------------------------------------------------------


def finite_size(seed: int, workdir: str) -> tuple[list[Task], list[Check]]:
    cfg = CONFIGS["finite-size"]
    ref2, ref3, cw12 = build_model("ref2"), build_model("ref3"), build_model("cw12")
    csv_path = os.path.join(workdir, "finite-size-samples.csv")
    tasks = []

    for N in cfg["N_ladder"]:
        sizes = ref2.species_sizes(N)
        lower = P_LIMIT_REF2 - (math.log(3.0) + 0.5 * float(np.sum(np.log(sizes)))) / N
        upper = P_LIMIT_REF2 + float(np.sum(np.log(sizes + 1))) / N

        def check(p, st, N=N, lower=lower, upper=upper):
            expect(lower <= p <= upper, f"p_N at N={N}: {p!r} outside [{lower!r}, {upper!r}]")

        tasks.append(Task(f"p{N}", lambda st, sizes=sizes: exact.finite_pressure(ref2, sizes),
                          check))

    for name, m, mu in (("ref2", ref2, MU_REF2), ("ref3", ref3, MU_REF3)):
        sizes = cfg["moments"][name]

        def check(mom, st, name=name, mu=mu):
            expect(np.max(np.abs(mom.mean - np.asarray(mu))) <= 0.01,
                   f"{name} exact mean {mom.mean} far from {mu}")

        tasks.append(Task(f"moments_{name}",
                          lambda st, m=m, sizes=sizes: exact.exact_moments(m, sizes), check))

    s2 = cfg["sample_ref2"]

    def sample_ref2(st):
        st["ref2_sample"] = exact.exact_sample(ref2, s2["sizes"], s2["M"], seed)
        return st["ref2_sample"]

    def check_rows(M):
        return lambda sample, st: expect(sample.sums.shape == (M, sample.n),
                                                 f"sample shape {sample.sums.shape}")

    def check_round_trip(back, st):
        sent = st["ref2_sample"]
        expect(np.array_equal(back.sums, sent.sums)
               and np.array_equal(back.sizes, sent.sizes) and back.seed == sent.seed,
               "CSV round trip changed the sample")

    def check_fit(est, st):
        expect(np.max(np.abs(est.J_hat - ref2.J)) <= 0.1
               and np.max(np.abs(est.h_hat - ref2.h)) <= 0.05,
               f"mle_fit outside the criterion-9 band: "
               f"J={est.J_hat.tolist()} h={est.h_hat.tolist()}")

    tasks += [
        Task("sample_ref2", sample_ref2, check_rows(s2["M"])),
        Task("write_csv", lambda st: exact.write_samples_csv(st["ref2_sample"], csv_path),
             lambda r, st: expect(os.path.getsize(csv_path) > 0, "empty CSV")),
        Task("read_csv", lambda st: exact.read_samples_csv(csv_path), check_round_trip),
        Task("mle_fit", lambda st: inverse.mle_fit(st["ref2_sample"], ref2.alpha), check_fit),
    ]

    s1 = cfg["sample_cw12"]

    def sample_cw12(st):
        st["cw12_sample"] = exact.exact_sample(cw12, s1["sizes"], s1["M"], seed + 1)
        return st["cw12_sample"]

    def check_conditioned(est, st):
        expect(abs(est.J_hat[0, 0] - 1.2) <= 0.1 and abs(est.h_hat[0]) <= 0.05,
               f"conditioned fit outside the criterion-9 band: "
               f"J={est.J_hat[0, 0]!r} h={est.h_hat[0]!r}")

    tasks += [
        Task("sample_cw12", sample_cw12, check_rows(s1["M"])),
        Task("invert_conditioned",
             lambda st: inverse.invert_conditioned(st["cw12_sample"], [MU0_J12], s1["ball"],
                                                   cw12.alpha),
             check_conditioned),
    ]
    return tasks, []


# --- limit-laws ------------------------------------------------------------------


def limit_laws(seed: int, workdir: str) -> tuple[list[Task], list[Check]]:
    cfg = CONFIGS["limit-laws"]
    m = {name: build_model(name) for name in ("ref2", "cw10", "crit2", "cw12")}

    def law_at_maximum(name):
        def run(st):
            cls = solver.pressure_limit(m[name]).maxima[0]
            st[name + "_max"] = cls
            st[name + "_law"] = limits.build_limit_law(m[name], cls)
            return st[name + "_law"]
        return run

    def check_gaussian(law, st):
        expect(isinstance(law, limits.Gaussian), f"ref2 law is {type(law).__name__}")
        expect(np.all(np.linalg.eigvalsh(law.cov) > 0), "ref2 covariance not positive definite")

    def check_quartic(name, normaliser, log):
        def check(law, st):
            expect(isinstance(law, limits.HigherOrder) and law.k == 2,
                   f"{name} law is not a k=2 higher-order law")
            value = law.log_normalizer if log else math.exp(law.log_normalizer)
            close(value, normaliser, 1e-9, f"{name} normaliser", rel=True)
        return check

    def check_mixture_cw12(law, st):
        expect(len(law.weights) == 2, f"cw12 mixture has {len(law.weights)} atoms")
        for w in law.weights:
            close(float(w), 0.5, 1e-12, "cw12 mixture weight")
        for x, want in zip(sorted(law.points[:, 0]), (-MU0_J12, MU0_J12)):
            close(float(x), want, 1e-10, "cw12 mixture atom")

    def check_mixture_crit2(law, st):
        expect(len(law.weights) == 1, f"crit2 mixture has {len(law.weights)} atoms")
        close(float(law.weights[0]), 1.0, 1e-12, "crit2 mixture weight")

    def conditioned(st):
        cls = max(solver.pressure_limit(m["cw12"]).maxima, key=lambda c: c.point.x[0])
        return limits.build_limit_law(m["cw12"], cls, conditioned=True)

    def check_conditioned(law, st):
        expect(isinstance(law, limits.Gaussian), "conditioned cw12 law is not Gaussian")
        close(float(law.cov[0, 0]), CHI_J12, 1e-9, "conditioned cw12 variance", rel=True)

    def ks(st):
        z = exact.normalized_sum_law(m["cw10"], [cfg["ks_cw10_N"]], [0.0], 2)
        return limits.ks_distance(z, st["cw10_law"])

    def cov_ref2(st):
        cls = st["ref2_max"]
        z = exact.normalized_sum_law(m["ref2"], cfg["cov_ref2_sizes"], cls.point.x, 1)
        return z, limits.covariance_tilde(m["ref2"], cls.point.x, cls)

    def check_cov(result, st):
        z, cov = result
        rel = float(np.max(np.abs(z.cov() - cov) / np.abs(cov)))
        expect(rel < 0.05, f"ref2 exact covariance {rel:.4f} from covariance_tilde")

    ball = cfg["ball_cw12"]

    def check_ball(z, st):
        close(z.variance(), CHI_J12, 0.05, "ball-conditioned cw12 variance", rel=True)

    tasks = [
        Task("gauss_ref2", law_at_maximum("ref2"), check_gaussian),
        Task("quartic_cw10", law_at_maximum("cw10"), check_quartic("cw10", Z_CW10, False)),
        Task("quartic_crit2", law_at_maximum("crit2"),
             check_quartic("crit2", LOG_Z_CRIT2, True)),
        Task("mixture_cw12", lambda st: limits.build_limit_law(m["cw12"]), check_mixture_cw12),
        Task("mixture_crit2", lambda st: limits.build_limit_law(m["crit2"]),
             check_mixture_crit2),
        Task("conditioned_cw12", conditioned, check_conditioned),
        Task("ks_cw10", ks, lambda d, st: expect(d < 0.05, f"KS distance {d:.4f}")),
        Task("cov_ref2", cov_ref2, check_cov),
        Task("ball_cw12", lambda st: exact.normalized_sum_law(
            m["cw12"], [ball["N"]], [MU0_J12], 1, condition_ball=ball["radius"]), check_ball),
    ]
    return tasks, []


IN_PROCESS = {"forward": forward, "finite-size": finite_size, "limit-laws": limit_laws}


# --- cli -------------------------------------------------------------------------


@dataclass
class CliCommand:
    name: str
    argv: list[str]
    outputs: list[str]      # files the command writes


def cli_commands(seed: int, workdir: str) -> list[CliCommand]:
    """Write the subcommand configs into ``workdir`` and return the runs."""
    cfg = CONFIGS["cli"]

    def path(name):
        return os.path.join(workdir, name)

    def config(name, doc):
        with open(path(f"cli-config-{name}.json"), "w") as fh:
            json.dump(doc, fh)
        return path(f"cli-config-{name}.json")

    # validate every model the configs carry, as the CLI will
    for name in {cfg["solve"]["model"], cfg["invert"], cfg["pressure"]["model"],
                 cfg["sample"]["model"], cfg["limits"]["model"]}:
        build_model(name)
    lo, hi, count = cfg["phase"]["J"]
    docs = {
        "solve": {"model": MODELS[cfg["solve"]["model"]],
                  "solver": {"grid_points": cfg["solve"]["grid_points"]}},
        "pressure": {"model": MODELS[cfg["pressure"]["model"]],
                     "N_values": cfg["pressure"]["N_values"]},
        "sample": {"model": MODELS[cfg["sample"]["model"]], "sizes": cfg["sample"]["sizes"],
                   "M": cfg["sample"]["M"]},
        "limits": {"model": MODELS[cfg["limits"]["model"]], "sizes": cfg["limits"]["sizes"]},
        "invert": {"model": MODELS[cfg["invert"]]},
        "phase": {"J_grid": np.linspace(lo, hi, count).tolist(), "h": cfg["phase"]["h"]},
    }
    cfgs = {name: config(name, doc) for name, doc in docs.items()}
    samples = path("cli-sample.csv")
    return [
        CliCommand("solve", ["solve", "--config", cfgs["solve"], "--out", path("cli-solve.json")],
                   [path("cli-solve.json")]),
        CliCommand("pressure", ["pressure", "--config", cfgs["pressure"], "--out",
                                path("cli-pressure.csv")], [path("cli-pressure.csv")]),
        CliCommand("sample", ["sample", "--config", cfgs["sample"], "--seed", str(seed),
                              "--out", samples], [samples]),
        CliCommand("limits", ["limits", "--config", cfgs["limits"], "--out",
                              path("cli-limits.json")],
                   [path("cli-limits.json"), path("cli-limits.csv")]),
        CliCommand("invert", ["invert", "--config", cfgs["invert"], "--samples", samples,
                              "--out", path("cli-invert.json")], [path("cli-invert.json")]),
        CliCommand("phase", ["phase", "--config", cfgs["phase"], "--out", path("cli-phase.csv")],
                   [path("cli-phase.csv")]),
    ]


def check_cli_solve(out_path: str) -> None:
    """The ``solve`` report's pressure limit equals the library's value."""
    with open(out_path) as fh:
        reported = json.load(fh)["pressure_limit"]
    cfg = CONFIGS["cli"]["solve"]
    want = solver.pressure_limit(build_model(cfg["model"]),
                                 solver.SolverOptions(grid_points=cfg["grid_points"])).limit_value
    expect(reported == want, f"cli solve pressure_limit {reported!r} vs library {want!r}")
