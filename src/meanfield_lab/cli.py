"""Command-line front end: reproducible runs driven by JSON configs.

Subcommands: solve | pressure | sample | limits | invert | phase.
Exit codes: 0 ok, 2 bad config, 3 numeric precondition failed, 4 i/o
error, 5 internal error.  Structured results are JSON, grids and samples
are CSV; every float is emitted with 17 significant digits so files
round-trip exactly.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import exact, inverse, limits, model, solver
from .errors import ConfigError, ConfigParse, IoError, PreconditionError
from .model import _integer, _list, _number, _numbers, _require

_EPILOG = """exit codes:
  0  success
  2  configuration error (bad JSON, schema, model invariants)
  3  numeric precondition not met (degenerate maximum, lattice cap, ...)
  4  file could not be read or written
  5  internal error
"""


# --- emission ---------------------------------------------------------------


def _fmt_float(v: float) -> str:
    if math.isnan(v) or math.isinf(v):
        return "null"
    return format(v, ".17g")


def dumps17(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits (round-trip safe)."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {dumps17(v, indent + 2)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, np.integer, np.floating)) for v in seq)
        if flat:
            return "[" + ", ".join(dumps17(v) for v in seq) + "]"
        items = [f"{pad}  {dumps17(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(obj)


def _csv(header: list[str], *blocks) -> str:
    """CSV text: the header, then ``exact._csv_rows`` of the blocks."""
    return ",".join(header) + "\n" + exact._csv_rows(*blocks)


def _ball(center, radius: float, n: int, what: str) -> tuple[np.ndarray, float]:
    """``model._check_ball`` with a center of length n and a finite radius; else ConfigParse."""
    if len(center) != n or not math.isfinite(radius):
        raise ConfigParse(f"{what} needs a finite center of length {n} "
                          "and a finite radius >= 0")
    return model._check_ball(center, radius, n, what)


# --- config helpers ----------------------------------------------------------


def _load_config(path: str | None) -> dict:
    if path is None:
        raise ConfigParse("--config is required")
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParse(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigParse("config must be a JSON object")
    return doc


def _model_from_config(doc: dict) -> model.ValidatedModel:
    if "model" not in doc:
        raise ConfigParse('config needs a "model" key')
    return model.validate_model(model.model_from_dict(doc["model"]))


def _solver_options(doc: dict) -> solver.SolverOptions:
    opts_doc = doc.get("solver", {})
    if not isinstance(opts_doc, dict):
        raise ConfigParse('"solver" must be an object')
    try:
        return solver.SolverOptions(**opts_doc)
    except TypeError as exc:
        raise ConfigParse(f"bad solver options: {exc}") from exc


def _classification_dict(cls: solver.MaximumClassification) -> dict:
    return {
        "x": cls.point.x,
        "k": cls.k,
        "strength": cls.strength,
        "hessian": None if cls.hessian is None else cls.hessian,
        "f_value": cls.point.f_value,
        "fbar_value": cls.point.fbar_value,
        "is_global": cls.is_global,
    }


# --- subcommands --------------------------------------------------------------


def cmd_solve(args, doc: dict) -> int:
    m = _model_from_config(doc)
    result = solver.pressure_limit(m, _solver_options(doc))
    report = {
        "fixed_points": [{"x": p.x, "residual": p.residual,
                          "f_value": p.f_value, "fbar_value": p.fbar_value}
                         for p in result.fixed_points],
        "pressure_limit": result.limit_value,
        "method_agreement": result.method_agreement,
        "maxima": [_classification_dict(c) for c in result.maxima],
    }
    exact._write(args.out, [dumps17(report), "\n"])
    return 0


def cmd_pressure(args, doc: dict) -> int:
    m = _model_from_config(doc)
    n_values = [_integer(v, "N_values entry", 1) for v in _list(doc, "N_values")]
    limit = solver.pressure_limit(m, _solver_options(doc)).limit_value
    rows = []
    for N in n_values:
        sizes = m.species_sizes(N)
        p_n = exact.finite_pressure(m, sizes)
        lower = limit - (math.log(3.0) + 0.5 * float(np.sum(np.log(sizes)))) / N
        upper = limit + float(np.sum(np.log(sizes + 1))) / N
        rows.append([p_n, limit, lower, upper])
    exact._write(args.out, [_csv(["N", "p_N", "limit", "lower_bound", "upper_bound"],
                                 np.array(n_values, dtype=int), np.array(rows))])
    return 0


def cmd_sample(args, doc: dict) -> int:
    if args.out is None:
        raise ConfigParse("sample requires --out")
    m = _model_from_config(doc)
    seed = args.seed if args.seed is not None else doc.get("seed")
    if seed is None:
        raise ConfigParse("sampling requires a seed (--seed or config)")
    samples = exact.exact_sample(m, _require(doc, "sizes"), _require(doc, "M"), seed)
    exact.write_samples_csv(samples, args.out)
    return 0


def cmd_limits(args, doc: dict) -> int:
    if args.out is None:
        raise ConfigParse("limits requires --out")
    m = _model_from_config(doc)
    sizes = m.check_sizes(_require(doc, "sizes"))
    center = ball = None
    cond = doc.get("conditioned")
    if cond is not None:
        if not isinstance(cond, dict):
            raise ConfigParse('"conditioned" must be an object')
        center, ball = _ball([_number(c, "conditioned center entry")
                              for c in _list(cond, "center")],
                             _number(_require(cond, "radius"), "conditioned radius"),
                             m.n, '"conditioned"')
    result = solver.pressure_limit(m, _solver_options(doc))
    if center is not None:
        cls = min(result.maxima,
                  key=lambda c: float(np.linalg.norm(c.point.x - center)))
    elif len(result.maxima) != 1:
        raise PreconditionError("several global maxima: pass a conditioning ball")
    else:
        cls = result.maxima[0]
    # The unique global maximum is already established, so the
    # unconditioned law needs no second pressure_limit.
    law = limits.build_limit_law(m, cls, conditioned=True)
    zlaw = exact.normalized_sum_law(m, sizes, cls.point.x, cls.k,
                                    condition_ball=ball)
    report = {
        "law": limits.law_to_dict(law),
        "k": cls.k,
        "center": cls.point.x,
        "sizes": [int(v) for v in sizes],
        "exact_cov": zlaw.cov(),
    }
    csv_path = args.out + ".csv" if not args.out.endswith(".json") \
        else args.out[:-5] + ".csv"
    if m.n == 1:
        ks = []
        header = ["z", "probability", "exact_cdf", "law_cdf"]

        def blocks():
            for z, probs, cum, F, d in limits._cdf_blocks(zlaw, law):
                ks.append(d)
                yield z, probs, cum, F
    else:
        header, blocks = [f"z_{l + 1}" for l in range(m.n)] + ["probability"], zlaw.blocks
    exact._write(csv_path, itertools.chain([",".join(header) + "\n"],
                                           (exact._csv_rows(*b) for b in blocks())))
    if m.n == 1:
        report["ks_distance"] = float(np.max(ks))
        report["law_variance"] = (float(law.cov[0, 0])
                                  if isinstance(law, limits.Gaussian) else None)
    exact._write(args.out, [dumps17(report), "\n"])
    return 0


def cmd_invert(args, doc: dict) -> int:
    if "alpha" in doc:
        alpha = np.array(_numbers(doc["alpha"], "alpha"))
    elif "model" in doc:
        alpha = _model_from_config(doc).alpha
    else:
        raise ConfigParse('config needs "alpha" or "model"')
    if args.samples is None:
        raise ConfigParse("invert requires --samples FILE")
    if args.ball is not None:
        try:
            values = [float(v) for v in args.ball.split(",")]
        except ValueError as exc:
            raise ConfigParse("--ball expects c_1,...,c_n,radius") from exc
        center, radius = _ball(values[:-1], values[-1], len(alpha), "--ball")
    samples = exact.read_samples_csv(args.samples)
    est = (inverse.mle_fit(samples, alpha) if args.ball is None
           else inverse.invert_conditioned(samples, center, radius, alpha))
    report = {
        "J": est.J_hat,
        "h": est.h_hat,
        "chi": est.chi_hat,
        "diagnostics": est.diagnostics,
        "log_likelihood": est.log_likelihood,
    }
    exact._write(args.out, [dumps17(report), "\n"])
    return 0


def cmd_phase(args, doc: dict) -> int:
    grid = [_number(v, "J_grid entry") for v in _list(doc, "J_grid")]
    h = _number(doc.get("h", 0.0), "h")
    table = solver.cw_phase_scan(grid, h, _solver_options(doc))
    header = ["J", "mu", "pressure", "dp_dJ", "d2p"]
    exact._write(args.out, [_csv(header, *(table[name] for name in header))])
    return 0


# --- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the JSON run configuration")
    common.add_argument("--out", help="output path (stdout when omitted)")
    common.add_argument("--seed", type=int, help="RNG seed for sampling commands")
    parser = argparse.ArgumentParser(
        prog="meanfield-lab",
        description="Forward and inverse toolkit for multi-species "
                    "mean-field spin models.",
        epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common],
                   help="fixed points, classified maxima, pressure limit")
    sub.add_parser("pressure", parents=[common],
                   help="finite-size pressure ladder with sandwich bounds")
    sub.add_parser("sample", parents=[common],
                   help="exact i.i.d. draws of the per-species sums")
    sub.add_parser("limits", parents=[common],
                   help="limit law and comparison with the exact rescaled law")
    p_inv = sub.add_parser("invert", parents=[common],
                           help="recover (J, h) from a sample file")
    p_inv.add_argument("--samples", help="sample CSV produced by `sample`")
    p_inv.add_argument("--ball", help="conditioning ball c_1,...,c_n,radius")
    sub.add_parser("phase", parents=[common],
                   help="single-species scan over a coupling grid")
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "pressure": cmd_pressure,
    "sample": cmd_sample,
    "limits": cmd_limits,
    "invert": cmd_invert,
    "phase": cmd_phase,
}


def _emit_error(exc: Exception, code: int) -> int:
    doc = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    sys.stderr.write(dumps17(doc) + "\n")
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, _load_config(args.config))
    except ConfigError as exc:
        return _emit_error(exc, 2)
    except PreconditionError as exc:
        return _emit_error(exc, 3)
    except (IoError, OSError) as exc:
        return _emit_error(exc, 4)
    except Exception as exc:  # noqa: BLE001 - map anything else to code 5
        return _emit_error(exc, 5)


if __name__ == "__main__":
    sys.exit(main())
