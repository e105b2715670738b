import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from meanfield_lab import (
    FiniteMeasure,
    ModelSpec,
    SolverOptions,
    StationaryPoint,
    classify_maximum,
    cw_phase_scan,
    entropy_I,
    finite_pressure,
    functional_f,
    functional_fbar,
    hamiltonian_density,
    log_partition,
    mean_field_map,
    model_from_dict,
    pressure_limit,
    solve_fixed_points,
    validate_model,
)
from meanfield_lab.errors import (
    DomainError,
    LatticeTooLarge,
    NoConvergence,
    NonFiniteParameter,
    NotAMaximum,
    UnsupportedDegeneracy,
    UnsupportedMeasure,
)
from meanfield_lab import _cluster, solver
from meanfield_lab._cluster import _dedup_rows
from meanfield_lab.solver import (
    _cumulants,
    _f_batch,
    _fields,
    _grad_f_batch,
    _grid,
    _hessian_f,
    _log_mgf,
    _logits,
    _max_f_direct,
    _newton_polish,
    _start_grid,
)

from conftest import (
    EIGH_FAILS,
    FBAR_REF2_POINT,
    F_REF2_POINT,
    HESSIAN_INF,
    I_HALF,
    LAMBDA_08_03,
    LAMBDA_J12,
    MAP_REF2_POINT,
    MU0_J12,
    MU_H_08_03,
    P_LIMIT_J12,
    bisect_root,
    make_cw,
    make_ref2,
)

TINY_J = 1e-15   # stand-in for decoupled spins; the validator requires J_ll > 0


def make_ref3():
    return validate_model(ModelSpec(
        n=3, alpha=(0.2, 0.3, 0.5),
        J=((2.0, 0.3, -0.2), (0.3, 1.5, 0.4), (-0.2, 0.4, 1.0)),
        h=(0.1, -0.2, 0.05)))


def make_crit2():
    return validate_model(ModelSpec(n=2, alpha=(0.5, 0.5),
                                    J=((2.0, 0.0), (0.0, 2.0)), h=(0.0, 0.0)))


def three_atom_model(J=1.0, h=0.2):
    meas = FiniteMeasure(atoms=((-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)))
    return make_cw(J, h, measure=meas)


# --- entropy ---------------------------------------------------------------


def test_entropy_values():
    assert entropy_I(0.0) == 0.0
    assert entropy_I(1.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert entropy_I(-1.0) == pytest.approx(math.log(2.0), abs=1e-15)
    # oracle: 50-digit arithmetic
    assert entropy_I(0.5) == pytest.approx(I_HALF, abs=1e-14)


def test_entropy_matches_the_xlogy_form_bitwise():
    from scipy.special import xlogy

    x = np.unique(np.concatenate([np.linspace(-1.0, 1.0, 4001), [-1.0, 0.0, 1.0],
                                  np.geomspace(1e-300, 1.0, 500),
                                  -np.geomspace(1e-300, 1.0, 500)]))
    want = 0.5 * (xlogy(1.0 + x, 1.0 + x) + xlogy(1.0 - x, 1.0 - x))
    assert entropy_I(x).tobytes() == want.tobytes()
    assert entropy_I(0.0) == 0.0 and entropy_I(-1.0) == entropy_I(1.0) == want[-1]


def test_entropy_domain():
    with pytest.raises(DomainError):
        entropy_I(1.0000001)


@pytest.mark.parametrize("x", [np.nan, [0.5, np.nan]], ids=["scalar", "in-an-array"])
def test_entropy_refuses_nan(x):
    # the domain test |x| > 1 is False for nan, and nan came back
    with pytest.raises(DomainError, match=r"\[-1, 1\]"):
        entropy_I(x)


@given(x=st.floats(-1.0, 1.0))
def test_entropy_symmetric(x):
    assert entropy_I(-x) == pytest.approx(entropy_I(x), abs=1e-15)


# --- functionals -----------------------------------------------------------


def test_fbar_trivial_points():
    m = make_cw(TINY_J, 0.0)
    assert functional_fbar(m, [0.0]) == pytest.approx(0.0, abs=1e-14)
    assert functional_fbar(m, [1.0]) == pytest.approx(-math.log(2.0), abs=1e-14)
    assert functional_fbar(m, [-1.0]) == pytest.approx(-math.log(2.0), abs=1e-14)


def test_fbar_reference_point():
    # oracle: 50-digit arithmetic at x = (0.3, -0.2)
    assert functional_fbar(make_ref2(), [0.3, -0.2]) == pytest.approx(
        FBAR_REF2_POINT, abs=1e-14)


def test_fbar_requires_binary_measure():
    with pytest.raises(UnsupportedMeasure):
        functional_fbar(three_atom_model(), [0.0])


def test_fbar_domain():
    with pytest.raises(DomainError):
        functional_fbar(make_cw(1.0, 0.0), [1.5])


def test_f_at_origin():
    assert functional_f(make_cw(1.0, 0.0), [0.0]) == 0.0


def test_f_reference_point():
    assert functional_f(make_ref2(), [0.3, -0.2]) == pytest.approx(
        F_REF2_POINT, abs=1e-14)


def test_f_matches_logcosh_closed_form():
    m = make_cw(1.0, 0.3)
    for x in np.linspace(-3, 3, 31):
        closed = -0.5 * x ** 2 + np.log(np.cosh(x + 0.3))
        assert functional_f(m, [x]) == pytest.approx(closed, abs=1e-14)


def test_f_general_atoms_match_binary_reduction():
    # an explicit +-1 measure with unequal weights exercises the atom path
    meas = FiniteMeasure(atoms=((-1.0, 0.3), (1.0, 0.7)))
    m = make_cw(1.0, 0.1, measure=meas)
    for x in np.linspace(-2, 2, 21):
        u = x + 0.1
        closed = -0.5 * x ** 2 + np.log(0.3 * np.exp(-u) + 0.7 * np.exp(u))
        assert functional_f(m, [x]) == pytest.approx(closed, abs=1e-14)


def test_f_equals_fbar_at_fixed_points():
    for model in [make_cw(0.7, 0.2), make_cw(1.2, 0.0), make_ref2()]:
        for p in solve_fixed_points(model):
            assert p.f_value == pytest.approx(p.fbar_value, abs=1e-10)


def test_two_species_atom_model_has_the_tilted_mean_and_log_mgf():
    # the model both once refused: atoms (-1, 1/4), (0, 1/2), (1, 1/4) tilt to the
    # mean tanh(u/2), with log-MGF 2 ln cosh(u/2)
    meas = FiniteMeasure(atoms=((-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)))
    model = validate_model(ModelSpec(n=2, alpha=(0.5, 0.5), J=((1.0, 0.2), (0.2, 1.0)),
                                     h=(0.0, 0.0), site_measure=meas))
    for x in [(0.0, 0.0), (0.3, -0.7), (-0.9, 0.95), (1.0, 1.0), (2.5, -4.0)]:
        x = np.array(x)
        u = model.J * model.alpha @ x + model.h
        ax = model.alpha * x
        f = -0.5 * ax @ model.J @ ax + model.alpha @ (2.0 * np.log(np.cosh(0.5 * u)))
        assert np.max(np.abs(mean_field_map(model, x) - np.tanh(0.5 * u))) <= 1e-15
        assert abs(functional_f(model, x) - f) <= 1e-15


SPIN1 = FiniteMeasure(atoms=((-1.0, 1.0 / 3.0), (0.0, 1.0 / 3.0), (1.0, 1.0 / 3.0)))
# two-species spin-1 models at alpha = (0.4, 0.6), (J, h, pressure limit): one maximum,
# two global maxima +-(0.598, 0.801), and an indefinite core D J D
SPIN1_PROBES = {
    "field": (((1.5, 0.5), (0.5, 1.0)), (0.1, -0.05), 0.0024943204213401424),
    "twin": (((2.0, 1.2), (1.2, 3.0)), (0.0, 0.0), 0.08691040251039883),
    "indefinite": (((0.5, -2.0), (-2.0, 0.5)), (0.2, 0.1), 0.006415606309784424),
}


def spin1_lattice_pressure(model, N: int) -> float:
    """p_N of a two-species spin-1 model by an exact sum over both species' sums S_l:
    each count is 3^-N_l N_l! / (a! b! c!) summed over a - b = S_l (a spins +1, b -1,
    c = N_l - a - b at 0), each weight exp(N g(S_1 / N_1, S_2 / N_2))."""
    from scipy.special import gammaln, logsumexp

    mags, logc = [], []
    for Nl in np.rint(model.alpha * N).astype(int):
        S = np.arange(-Nl, Nl + 1)[:, None]
        a = np.arange(Nl + 1)[None, :]
        b, c = a - S, Nl + S - 2 * a
        ok = (b >= 0) & (c >= 0)
        terms = gammaln(Nl + 1) - gammaln(a + 1) - gammaln(np.where(ok, b, 0) + 1) \
            - gammaln(np.where(ok, c, 0) + 1)
        logc.append(logsumexp(np.where(ok, terms, -np.inf), axis=1) - Nl * math.log(3.0))
        mags.append(S[:, 0] / Nl)
    am = np.stack(np.meshgrid(*mags, indexing="ij"), axis=-1) * model.alpha
    g = 0.5 * np.einsum("...i,ij,...j->...", am, model.J, am) + am @ model.h
    return float(logsumexp(logc[0][:, None] + logc[1][None, :] + N * g)) / N


def spin1_fixed_points(model) -> np.ndarray:
    """Every root of x = m(B x + h), m(u) = 2 sinh u / (1 + 2 cosh u) the tilted spin-1
    mean: plain Newton from 41 x 41 starts in (-1, 1)^2, roots merged within 1e-8."""
    def mean_var(u):
        z = 1.0 + 2.0 * np.cosh(u)
        mean = 2.0 * np.sinh(u) / z
        return mean, 2.0 * np.cosh(u) / z - mean ** 2

    B = model.J * model.alpha
    x = np.stack(np.meshgrid(*[np.linspace(-0.99, 0.99, 41)] * 2), axis=-1).reshape(-1, 2)
    with np.errstate(all="ignore"):     # a start that runs away ends as nan, and is dropped
        for _ in range(60):
            mean, var = mean_var(x @ B.T + model.h)
            jac = np.eye(2) - var[:, :, None] * B
            x = x - np.linalg.solve(jac, (x - mean)[:, :, None])[:, :, 0]
        x = x[np.max(np.abs(x - mean_var(x @ B.T + model.h)[0]), axis=1) <= 1e-14]
    roots = []
    for r in x[np.lexsort(x.T[::-1])]:
        if not roots or np.max(np.abs(r - roots[-1])) > 1e-8:
            roots.append(r)
    return np.array(roots)


@pytest.mark.parametrize("name", SPIN1_PROBES)
def test_two_species_spin1_limit_is_the_lattice_limit(name):
    # the n >= 2 guard refused these; p_N on N = 250, 500, 1000 taken past two orders in 1/N
    J, h, limit = SPIN1_PROBES[name]
    model = validate_model(ModelSpec(n=2, alpha=(0.4, 0.6), J=J, h=h, site_measure=SPIN1))
    res = pressure_limit(model)
    assert res.limit_value == pytest.approx(limit, abs=1e-15)
    p = [spin1_lattice_pressure(model, N) for N in (250, 500, 1000)]
    once = [2.0 * p[1] - p[0], 2.0 * p[2] - p[1]]
    assert abs((4.0 * once[1] - once[0]) / 3.0 - res.limit_value) <= 1e-6
    if name == "indefinite":
        assert math.isnan(res.method_agreement)
    else:
        assert res.method_agreement <= 1e-9
    assert len(res.maxima) == (2 if name == "twin" else 1)
    assert all(c.k == 1 for c in res.maxima)
    want = spin1_fixed_points(model)
    got = np.array([q.x for q in res.fixed_points])
    assert got.shape == want.shape
    assert np.max(np.abs(got[np.lexsort(got.T[::-1])] - want)) <= 1e-12


# --- mean-field map -----------------------------------------------------------


def test_map_odd_at_origin():
    assert mean_field_map(make_cw(1.1, 0.0), [0.0]) == pytest.approx([0.0])


def test_map_decoupled():
    m = make_cw(TINY_J, 0.7)
    for x in [-0.9, 0.0, 0.4]:
        assert mean_field_map(m, [x]) == pytest.approx([math.tanh(0.7)], abs=1e-14)


def test_map_reference_point():
    got = mean_field_map(make_ref2(), [0.3, -0.2])
    assert got == pytest.approx(MAP_REF2_POINT, abs=1e-14)


def test_map_three_atoms_tilted_mean():
    m = three_atom_model(J=1.3, h=-0.2)
    x = 0.37
    u = 1.3 * x - 0.2
    w = np.array([0.25 * np.exp(-u), 0.5, 0.25 * np.exp(u)])
    want = (w @ np.array([-1.0, 0.0, 1.0])) / w.sum()
    assert mean_field_map(m, [x]) == pytest.approx([want], abs=1e-13)


def test_cumulants_of_pm1_spins_are_the_tanh_derivatives():
    u = np.linspace(-3.0, 3.0, 121)
    t, s2 = np.tanh(u), 1.0 / np.cosh(u) ** 2
    want = [t, s2, -2.0 * t * s2, -2.0 * s2 * (1.0 - 3.0 * t ** 2)]
    assert np.max(np.abs(_cumulants(make_cw(1.0, 0.0), u, 4) - want)) <= 1e-14


def test_lse_along_the_last_axis_matches_scipy_bitwise(monkeypatch):
    from scipy.special import logsumexp

    # a three-point measure tilted by fields u: at u = 0 the three equal
    # weights tie, and the hand-made rows tie two of three entries
    third = 1.0 / 3.0
    model = make_cw(1.0, 0.0, measure=FiniteMeasure(atoms=((-1.0, third), (0.0, third),
                                                           (1.0, third))))
    locs = np.array([-1.0, 0.0, 1.0])
    logw = np.log(np.full(3, 1.0 / 3.0))
    u = np.linspace(-3.0, 3.0, 61).reshape(-1, 1) * np.array([1.0, 0.5])
    W = u[..., None] * locs + logw
    assert _logits(model, u).tobytes() == W.tobytes()
    assert _log_mgf(model, u).tobytes() == logsumexp(W, axis=-1).tobytes()
    W[0, 0] = [0.88, -0.84, 0.88]
    W[1, 1] = [-2.0, -2.0, -7.5]
    assert np.any(u == 0.0)
    monkeypatch.setattr(solver, "_logits", lambda model, u: W)
    got = _log_mgf(model, u)
    assert got.shape == W.shape[:-1]
    assert got.tobytes() == logsumexp(W, axis=-1).tobytes()


def test_cumulants_of_atoms_are_the_mean_and_central_moments():
    atoms = ((-1.0, 0.25), (0.0, 0.5), (1.5, 0.25))
    u = np.array([-2.0, -0.5, 0.0, 0.7, 2.0])
    got = _cumulants(make_cw(1.0, 0.0, measure=FiniteMeasure(atoms=atoms)), u, 4)
    for i, ui in enumerate(u.tolist()):
        w = [p * math.exp(ui * s) for s, p in atoms]
        w = [v / math.fsum(w) for v in w]
        mean = math.fsum(v * s for v, (s, _) in zip(w, atoms))
        mu2, mu3, mu4 = (math.fsum(v * (s - mean) ** j for v, (s, _) in zip(w, atoms))
                         for j in (2, 3, 4))
        assert np.max(np.abs(got[:, i] - [mean, mu2, mu3, mu4 - 3.0 * mu2 ** 2])) <= 1e-14


# --- fixed points ---------------------------------------------------------------


def test_unique_solution_below_critical_coupling():
    pts = solve_fixed_points(make_cw(0.5, 0.0))
    assert len(pts) == 1
    assert pts[0].x[0] == pytest.approx(0.0, abs=1e-12)


def test_three_solutions_above_critical_coupling():
    pts = solve_fixed_points(make_cw(1.2, 0.0))
    assert len(pts) == 3
    mu0 = bisect_root(lambda t: t - math.tanh(1.2 * t), 1e-8, 1.0)
    assert mu0 == pytest.approx(MU0_J12, abs=1e-12)
    got = sorted(p.x[0] for p in pts)
    assert got[0] == pytest.approx(-mu0, abs=1e-10)
    assert got[1] == pytest.approx(0.0, abs=1e-10)
    assert got[2] == pytest.approx(mu0, abs=1e-10)


def test_newton_from_every_start_finds_the_unstable_point():
    # a damped map moves away from the middle root of cw J=1.2, h=0.05
    pts = solve_fixed_points(make_cw(1.2, 0.05))
    assert len(pts) == 3
    mid = bisect_root(lambda t: t - math.tanh(1.2 * t + 0.05), -0.4, -0.2)
    assert mid == pytest.approx(-0.2953259779, abs=1e-10)
    assert sorted(p.x[0] for p in pts)[1] == pytest.approx(mid, abs=1e-10)


def random_models(sizes, seed=20261018):
    """Random +-1 models with the given species counts: off-diagonal J from
    N(0, 1), diagonal U(0.5, 3), alpha Dirichlet(4), h U(-0.3, 0.3)."""
    rng = np.random.default_rng(seed)
    for n in sizes:
        J = np.triu(rng.standard_normal((n, n)), 1)
        J = J + J.T
        J[np.diag_indices(n)] = rng.uniform(0.5, 3.0, n)
        alpha = rng.dirichlet(np.full(n, 4.0))
        alpha[-1] = 1.0 - alpha[:-1].sum()
        yield validate_model(ModelSpec(n=n, alpha=tuple(alpha), J=tuple(map(tuple, J)),
                                       h=tuple(rng.uniform(-0.3, 0.3, n))))


SWEEP = [1 + i % 3 for i in range(40)]


def assert_contains(found, reference, tol=1e-7):
    """Every reference point lies within tol (max norm) of a found point."""
    found = np.array([np.ravel(x) for x in found])
    for x in reference:
        assert np.min(np.max(np.abs(found - np.ravel(x)), axis=1)) <= tol, x


def test_default_grid_finds_every_point_of_a_fine_grid():
    for model in random_models(SWEEP):
        fine = solve_fixed_points(model, SolverOptions(grid_points=15 if model.n == 3 else 41))
        pts = solve_fixed_points(model)
        assert len(pts) == len(fine)
        assert_contains([p.x for p in pts], [p.x for p in fine])


def test_one_species_points_are_the_sign_changes_of_the_defect():
    # an oracle that shares nothing with the solver: bisect every sign change
    # of t - tanh(J t + h) on a grid of [-1, 1]
    for model in random_models(SWEEP):
        if model.n > 1:
            continue
        J, h = model.J[0, 0], model.h[0]
        g = lambda t: t - math.tanh(J * t + h)
        t = np.linspace(-1.0, 1.0, 20001)
        s = np.sign(t - np.tanh(J * t + h))
        roots = [bisect_root(g, t[i], t[i + 1]) for i in np.flatnonzero(s[:-1] * s[1:] < 0)]
        pts = solve_fixed_points(model)
        assert len(pts) == len(roots)
        assert_contains([p.x for p in pts], roots)


def test_every_point_of_the_damped_solver_is_still_found():
    # tests/damped_fixed_points.json: the points the former damped-multistart
    # solver (damping 0.7, Newton trigger 1e-3, default grid) returned on SWEEP
    ref = json.loads((Path(__file__).parent / "damped_fixed_points.json").read_text())
    assert len(ref) == len(SWEEP)
    for model, points in zip(random_models(SWEEP), ref):
        assert_contains([p.x for p in solve_fixed_points(model)], points)


def test_a_start_at_a_singular_jacobian_is_not_a_root():
    # x = 0 has residual tanh(1e-12) <= tol but is no root; the root is near 1.44e-4
    pts = solve_fixed_points(make_cw(1.0, 1e-12))
    assert len(pts) == 1 and pts[0].x[0] > 1e-4


@pytest.mark.parametrize("h", [1e16, -1e16])
def test_a_saturating_field_gives_one_fixed_point_at_its_sign(h):
    # the regrouped defect rounded to 0 here (Bx below ulp(h)), so every start was dropped
    res = pressure_limit(make_cw(0.5, h))
    assert [p.x[0] for p in res.fixed_points] == [math.copysign(1.0, h)]


@pytest.mark.parametrize("h", [1e308, -1e308])
def test_a_field_near_the_float_limit_solves_without_warnings(h):
    # -2|u| in f and the logit gap of the tilted moments overflowed, with RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = pressure_limit(make_cw(0.5, h))
    assert [c.point.x[0] for c in res.maxima] == [math.copysign(1.0, h)]


@pytest.mark.parametrize("h,root", [
    (1e-12, 1.442249564307408383e-4),       # mpmath roots of x = tanh(x + h)
    (1e-9, 1.442248970307515388e-3),
    (1e-6, 1.442189571377182238e-2),
])
def test_critical_curie_weiss_roots_are_within_two_ulp_of_mpmath(h, root):
    pts = solve_fixed_points(make_cw(1.0, h))
    assert len(pts) == 1
    assert abs(pts[0].x[0] - root) <= 2 * np.spacing(root)


def test_global_maximizer_follows_field_sign():
    res = pressure_limit(make_cw(1.2, 0.1))
    assert len(res.maxima) == 1
    assert res.maxima[0].point.x[0] > 0
    res = pressure_limit(make_cw(1.2, -0.1))
    assert res.maxima[0].point.x[0] < 0


@pytest.mark.parametrize("model_fn", [lambda: make_cw(0.9, 0.4),
                                      lambda: make_cw(1.3, 0.0),
                                      make_ref2, three_atom_model])
def test_fixed_point_residuals(model_fn):
    model = model_fn()
    for p in solve_fixed_points(model):
        res = np.max(np.abs(p.x - mean_field_map(model, p.x)))
        assert res <= 1e-12


def test_fixed_point_set_negation_symmetric_without_field():
    model = validate_model(ModelSpec(n=2, alpha=(0.4, 0.6),
                                     J=((1.8, -0.4), (-0.4, 1.6)),
                                     h=(0.0, 0.0)))
    pts = np.array([p.x for p in solve_fixed_points(model)])
    for x in pts:
        assert np.min(np.max(np.abs(pts + x), axis=1)) <= 1e-8


def test_no_convergence_when_polish_is_disabled(monkeypatch):
    from meanfield_lab.errors import NoConvergence

    monkeypatch.setattr(solver, "_NEWTON_STEPS", 0)
    with pytest.raises(NoConvergence):
        solve_fixed_points(make_cw(1.2, 0.3))


def test_threads_do_not_change_results():
    model = make_ref2()
    a = solve_fixed_points(model, SolverOptions(threads=1))
    b = solve_fixed_points(model, SolverOptions(threads=4))
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.x, pb.x)


@pytest.mark.parametrize("call", [
    lambda: SolverOptions(tol=1e-12),
    lambda: SolverOptions(newton_max_iter=200),
    lambda: log_partition(make_cw(1.2, 0.0), [100], cap=10 ** 8),
], ids=["tol", "newton_max_iter", "cap"])
def test_the_fixed_solver_and_lattice_settings_are_not_arguments(call):
    # a user tol of 1e-3 counted 7 fixed points of cw J = 1.2, h = 0, where there are 3
    with pytest.raises(TypeError):
        call()


def test_dedup_chains_links_and_collapses_repeats():
    radius = 1.0
    # 0.6 * radius apart: the ends are 1.2 * radius apart, linked only
    # through the middle point, which has the best residual.
    pts = np.array([[0.0], [0.6], [0.6], [1.2], [5.0], [5.0]])
    res = np.array([3e-13, 1e-13, 1e-13, 2e-13, 4e-13, 4e-13])
    kept = _dedup_rows(pts, res, radius)
    assert [(pts[i, 0], res[i]) for i in kept] == [(0.6, 1e-13), (5.0, 4e-13)]


@pytest.mark.parametrize("model_fn", [
    lambda: make_cw(1.0, 0.0), lambda: make_cw(1.2, 0.1), three_atom_model,
    lambda: validate_model(ModelSpec(n=2, alpha=(0.4, 0.6),
                                     J=((1.5, -0.7), (-0.7, 1.2)), h=(0.3, 0.1))),
])
def test_newton_polish_batch_matches_single_rows(model_fn):
    model = model_fn()
    opts = SolverOptions(grid_points=9)
    starts = _start_grid(model, opts)
    pts, res = _newton_polish(model, starts)
    rows = [_newton_polish(model, starts[i:i + 1])
            for i in range(len(starts))]
    assert pts.tobytes() == np.concatenate([r[0] for r in rows]).tobytes()
    assert res.tobytes() == np.concatenate([r[1] for r in rows]).tobytes()


def test_five_species_at_the_default_grid_start_from_every_point_of_it():
    J = tuple(tuple(float(i == j) for j in range(5)) for i in range(5))
    spec = ModelSpec(n=5, alpha=(0.2,) * 5, J=J, h=(0.0,) * 5)
    starts = _start_grid(validate_model(spec), SolverOptions())
    assert starts.shape == (11 ** 5, 5) == (161_051, 5)
    assert len(np.unique(starts, axis=0)) == 161_051


def test_a_phase_scan_past_the_start_cap_raises_before_newton(monkeypatch):
    # 41 couplings x 10^4 starts = 410 000 rows, past 2^18
    monkeypatch.setattr(solver, "_newton_polish", _never_polish)
    with pytest.raises(LatticeTooLarge):
        cw_phase_scan(np.linspace(0.5, 1.5, 41), 0.0, SolverOptions(grid_points=10 ** 4))


def _never_polish(*args, **kwargs):
    raise AssertionError("Newton ran on a start grid past the cap")


def test_a_singular_row_falls_back_and_keeps_the_bits_of_its_lone_polish(monkeypatch):
    # x = 0 has an exactly singular Jacobian, 1 - sech^2(1e-12) = 0, so the
    # batch's first solve raises and that step runs the slogdet filter
    model = make_cw(1.0, 1e-12)
    starts = np.array([[-0.99], [-0.5], [0.0], [0.3], [0.99]])
    alone = [_newton_polish(model, starts[i:i + 1]) for i in range(len(starts))]
    sizes = []
    slogdet = np.linalg.slogdet

    def counted(a):
        sizes.append(len(a))
        return slogdet(a)

    monkeypatch.setattr(np.linalg, "slogdet", counted)
    pts, res = _newton_polish(model, starts)
    assert sizes == [len(starts)]
    assert pts.tobytes() == np.concatenate([a[0] for a in alone]).tobytes()
    assert res.tobytes() == np.concatenate([a[1] for a in alone]).tobytes()
    assert np.isnan(pts[2, 0]) and np.isnan(res[2])
    assert np.all(res[[0, 1, 3, 4]] <= solver._TARGET_RESIDUAL)


def test_dedup_sorts_its_input():
    rng = np.random.default_rng(5)
    pts = np.round(rng.uniform(-1.0, 1.0, (40, 2)), 1)
    res = rng.uniform(0.0, 1e-12, 40)
    order = np.lexsort(pts.T[::-1])
    want = order[_dedup_rows(pts[order], res[order], 0.15)]
    got = _dedup_rows(pts, res, 0.15)
    assert [(pts[i].tobytes(), res[i]) for i in got] == [(pts[i].tobytes(), res[i]) for i in want]


def test_grid_rows_are_the_product_rows():
    axis = np.linspace(-0.99, 0.99, 4)
    for n in range(1, 6):
        want = np.array(list(itertools.product(axis, repeat=n)))
        got = _grid(axis, n)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def two_species(J12, h):
    return validate_model(ModelSpec(n=2, alpha=(0.4, 0.6), J=((1.5, J12), (J12, 1.2)),
                                    h=h))


@pytest.mark.parametrize("models", [
    [make_cw(J, h) for J, h in ((0.5, 0.1), (1.0, 0.0), (1.2, 0.05), (1.5, -0.2))],
    [three_atom_model(J, h) for J, h in ((0.8, 0.0), (1.0, 0.2), (2.5, -0.1))],
    [two_species(J12, h) for J12, h in ((-0.7, (0.3, 0.1)), (0.4, (0.0, 0.0)),
                                         (1.1, (-0.2, 0.05)))],
], ids=["cw", "three-atom", "two-species"])
def test_newton_polish_with_per_row_pairs_matches_each_model(models):
    opts = SolverOptions(grid_points=9)
    starts = [_start_grid(m, opts) for m in models]
    B = np.concatenate([np.repeat([m.J * m.alpha], len(s), axis=0)
                        for m, s in zip(models, starts)])
    h = np.concatenate([np.repeat([m.h], len(s), axis=0) for m, s in zip(models, starts)])
    pts, res = _newton_polish(models[0], np.concatenate(starts), B, h)
    alone = [_newton_polish(m, s) for m, s in zip(models, starts)]
    assert pts.tobytes() == np.concatenate([a[0] for a in alone]).tobytes()
    assert res.tobytes() == np.concatenate([a[1] for a in alone]).tobytes()


def test_newton_drops_rows_whose_defect_stops_falling(monkeypatch):
    # 8 of the 121 default starts cycle inside the hull near (0.63, 0.055)
    # without converging; without the stall window they run every step
    model = validate_model(ModelSpec(
        n=2, alpha=(0.6566499589677139, 0.34335004103228606),
        J=((2.515390604750113, -0.09778740951616982),
           (-0.09778740951616982, 0.8749531058876174)),
        h=(-0.29764909021025676, 0.0791134927721962)))
    steps = []
    real = solver._map_defect

    def counted(*args):
        steps.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(solver, "_map_defect", counted)
    assert len(solve_fixed_points(model)) == 1
    assert len(steps) < solver._NEWTON_STEPS


@pytest.mark.parametrize("model_fn", [lambda: make_cw(0.8, 0.1),
                                      make_ref2, three_atom_model])
def test_gradient_matches_finite_differences(model_fn):
    model = model_fn()
    rng = np.random.default_rng(3)
    X = rng.uniform(-0.9, 0.9, size=(100, model.n))
    grad = _grad_f_batch(model, X)
    step = 1e-6
    for l in range(model.n):
        e = np.zeros(model.n)
        e[l] = step
        fd = (_f_batch(model, X + e) - _f_batch(model, X - e)) / (2 * step)
        denom = np.maximum(np.abs(grad[:, l]), 1e-3)
        assert np.max(np.abs(fd - grad[:, l]) / denom) < 1e-6


@pytest.mark.parametrize("model_fn", [lambda: make_cw(0.8, 0.1),
                                      make_ref2, make_ref3])
def test_hessian_matches_finite_differences_of_the_gradient(model_fn):
    model = model_fn()
    rng = np.random.default_rng(4)
    X = rng.uniform(-0.9, 0.9, size=(50, model.n))
    H = _hessian_f(model, X)
    step = 1e-6
    for l in range(model.n):
        e = np.zeros(model.n)
        e[l] = step
        fd = (_grad_f_batch(model, X + e) - _grad_f_batch(model, X - e)) / (2 * step)
        assert np.max(np.abs(fd - H[:, :, l])) < 1e-8


@pytest.mark.parametrize("model_fn", [
    make_ref2, make_ref3,
    lambda: validate_model(ModelSpec(n=2, alpha=(0.4, 0.6),
                                     J=((1.5, -0.7), (-0.7, 1.2)), h=(0.3, 0.1))),
])
def test_classification_hessian_is_the_single_point_formula(model_fn):
    # the Hessian feeds the Gaussian covariance, so its bits must not depend
    # on the batched evaluation used by the direct ascent
    model = model_fn()
    p = pressure_limit(model).maxima[0].point
    u = _fields(model, p.x[None, :])[0]
    var = _cumulants(model, u, 2)[1]
    inner = model.J @ ((model.alpha * var)[:, None] * model.J) - model.J
    want = (model.alpha[:, None] * model.alpha[None, :]) * inner
    assert classify_maximum(model, p).hessian.tobytes() == want.tobytes()


# --- classification ---------------------------------------------------------------


def test_classify_quadratic_with_field():
    model = make_cw(0.8, 0.3)
    pts = solve_fixed_points(model)
    assert len(pts) == 1
    mu = pts[0].x[0]
    assert mu == pytest.approx(MU_H_08_03, abs=1e-12)
    cls = classify_maximum(model, pts[0])
    assert cls.k == 1
    closed = -0.8 * (1.0 - 0.8 * (1.0 - mu ** 2))
    assert cls.strength == pytest.approx(closed, abs=1e-10)
    assert cls.strength == pytest.approx(LAMBDA_08_03, abs=1e-10)


def test_classify_quadratic_subcritical():
    model = make_cw(0.5, 0.0)
    cls = classify_maximum(model, solve_fixed_points(model)[0])
    assert cls.k == 1
    assert cls.strength == pytest.approx(-0.5 * (1.0 - 0.5), abs=1e-10)


def test_classify_spontaneous_pair():
    model = make_cw(1.2, 0.0)
    for p in solve_fixed_points(model):
        if abs(p.x[0]) < 0.1:
            continue
        cls = classify_maximum(model, p)
        assert cls.k == 1
        closed = -1.2 * (1.0 - 1.2 * (1.0 - p.x[0] ** 2))
        assert cls.strength == pytest.approx(closed, abs=1e-10)
        assert cls.strength == pytest.approx(LAMBDA_J12, abs=1e-9)


def test_classify_critical_point():
    model = make_cw(1.0, 0.0)
    pts = solve_fixed_points(model)
    assert len(pts) == 1
    cls = classify_maximum(model, pts[0])
    assert cls.k == 2
    assert cls.strength == pytest.approx(-2.0, abs=1e-10)


def test_one_species_degenerate_maximum_carries_its_form():
    # the one-species form is f's quartic term, -2 v^4 / 24 on the ray (J) = (1)
    model = make_cw(1.0, 0.0)
    cls = classify_maximum(model, solve_fixed_points(model)[0])
    assert cls.quartic_form.degree == 4
    assert cls.quartic_form(np.array([1.0])) == pytest.approx(-1.0 / 12.0, abs=1e-12)
    assert cls.quartic_form(np.array([1.0])) * 24.0 == pytest.approx(cls.strength)


def test_classify_rejects_interior_minimum():
    model = make_cw(1.2, 0.0)
    zero = [p for p in solve_fixed_points(model) if abs(p.x[0]) < 0.1][0]
    with pytest.raises(NotAMaximum):
        classify_maximum(model, zero)


def test_classify_rejects_mixed_degeneracy():
    # symmetric two-species pair at its critical coupling: the Hessian is
    # singular along (1,1) but curved along (1,-1)
    model = validate_model(ModelSpec(n=2, alpha=(0.5, 0.5),
                                     J=((1.5, 0.5), (0.5, 1.5)), h=(0.0, 0.0)))
    pts = solve_fixed_points(model)
    assert len(pts) == 1
    with pytest.raises(UnsupportedDegeneracy):
        classify_maximum(model, pts[0])


def stationary_at(x):
    return StationaryPoint(x=np.array(x, dtype=float), residual=0.0,
                           f_value=math.nan, fbar_value=None)


def test_classify_rejects_the_spinodal_inflection():
    # cw at J=1.5: f'' vanishes at x = -sqrt(1/3) but f''' does not
    x = -math.sqrt(1.0 / 3.0)
    model = make_cw(1.5, math.atanh(x) - 1.5 * x)
    with pytest.raises(NotAMaximum):
        classify_maximum(model, stationary_at([x]))


def test_classify_rejects_a_point_just_inside_the_spinodal():
    # 3.8e-9 off the double root the curvature is 6.6e-9, above the 1e-9
    # threshold, but no more than f''' times the offset: a fold, not k=1
    x0 = -math.sqrt(1.0 / 3.0)
    model = make_cw(1.5, math.atanh(x0) - 1.5 * x0)
    x = [x0 - 3.8e-9]
    assert solver._curvature(model, x)[0][0, 0] > 1e-9
    with pytest.raises(NotAMaximum):
        classify_maximum(model, stationary_at(x))


@pytest.mark.parametrize("h", [1e-6, 1e-12])
def test_a_nearly_critical_maximum_is_still_quadratic(h):
    assert [c.k for c in pressure_limit(make_cw(1.0, h)).maxima] == [1]


@pytest.mark.parametrize("beta", [1.2, 1.5, 2.0])
def test_classify_rejects_a_pair_of_spinodal_inflections(beta):
    # two decoupled species, each at its spinodal: the Hessian vanishes and
    # the cubic term decides, whatever the sign of the quartic one
    x = -math.sqrt(1.0 - 1.0 / beta)
    h = math.atanh(x) - beta * x
    model = validate_model(ModelSpec(n=2, alpha=(0.5, 0.5),
                                     J=((2 * beta, 0.0), (0.0, 2 * beta)), h=(h, h)))
    with pytest.raises(NotAMaximum):
        classify_maximum(model, stationary_at([x, x]))


def test_classify_rejects_a_two_species_saddle():
    model = validate_model(ModelSpec(n=2, alpha=(0.5, 0.5),
                                     J=((2.4, 0.0), (0.0, 1.0)), h=(0.0, 0.0)))
    with pytest.raises(NotAMaximum):
        classify_maximum(model, stationary_at([0.0, 0.0]))


def test_classify_refuses_a_quartic_form_that_vanishes_on_a_line():
    # rank-one coupling: the Hessian vanishes at 0 and f is flat along (1, -1)
    model = validate_model(ModelSpec(n=2, alpha=(0.5, 0.5),
                                     J=((1.0, 1.0), (1.0, 1.0)), h=(0.0, 0.0)))
    with pytest.raises(UnsupportedDegeneracy):
        classify_maximum(model, stationary_at([0.0, 0.0]))


def test_classify_fully_degenerate_pair():
    # two decoupled critical systems: Hessian vanishes, quartic form decides
    model = validate_model(ModelSpec(n=2, alpha=(0.5, 0.5),
                                     J=((2.0, 0.0), (0.0, 2.0)), h=(0.0, 0.0)))
    pts = solve_fixed_points(model)
    assert len(pts) == 1
    cls = classify_maximum(model, pts[0])
    assert cls.k == 2
    # each axis contributes -v^4/24 at criticality
    assert cls.quartic_form(np.array([1.0, 0.0])) == pytest.approx(-1 / 24, abs=1e-8)
    assert cls.quartic_form(np.array([0.0, 1.0])) == pytest.approx(-1 / 24, abs=1e-8)


def test_classify_multi_quadratic():
    model = make_ref2()
    res = pressure_limit(model)
    assert len(res.maxima) == 1
    cls = res.maxima[0]
    assert cls.k == 1
    assert np.all(np.linalg.eigvalsh(cls.hessian) < 0)


def test_classify_three_atom_maximum():
    model = three_atom_model()
    cls = classify_maximum(model, solve_fixed_points(model)[0])
    assert cls.k == 1 and cls.strength < 0


def three_atom_critical(edge, J):
    """Atoms -1, 0, 1 with weights (edge, 1 - 2 edge, edge), h = 0."""
    meas = FiniteMeasure(atoms=((-1.0, edge), (0.0, 1.0 - 2.0 * edge), (1.0, edge)))
    return make_cw(J, 0.0, measure=meas)


def test_classify_a_type_three_maximum():
    # weights (1/6, 2/3, 1/6) at J = 3: var = 1/3 and kappa4 = 0 at x = 0,
    # so the sixth derivative leads, J^6 kappa6 = 729 * (-2/9)
    cls = classify_maximum(three_atom_critical(1.0 / 6.0, 3.0), stationary_at([0.0]))
    assert cls.k == 3
    assert cls.strength == pytest.approx(-162.0, abs=1e-10)


def test_classify_refuses_a_root_flat_through_order_eight():
    # the 5-node Gauss-Hermite rule matches N(0, 1) through degree 9: at J = 1, h = 0 the
    # curvature and kappa_3..kappa_8 vanish at x = 0, and kappa_10 = -120 lies past _MAX_ORDER
    nodes, weights = np.polynomial.hermite_e.hermegauss(5)
    measure = FiniteMeasure(atoms=tuple(zip(nodes.tolist(), (weights / weights.sum()).tolist())))
    with pytest.raises(UnsupportedDegeneracy, match="all even terms through order 8 vanish"):
        classify_maximum(make_cw(1.0, 0.0, measure=measure), stationary_at([0.0]))


def test_classify_rejects_a_positive_quartic_term():
    # weights (0.1, 0.8, 0.1) at J = 5: var = 0.2 and kappa4 = 0.08 > 0
    with pytest.raises(NotAMaximum):
        classify_maximum(three_atom_critical(0.1, 5.0), stationary_at([0.0]))


# --- pressure limit -------------------------------------------------------------


def test_pressure_limit_subcritical_zero():
    for J in [0.5, 1.0]:
        res = pressure_limit(make_cw(J, 0.0))
        assert res.limit_value == pytest.approx(0.0, abs=1e-12)


def test_pressure_limit_supercritical():
    res = pressure_limit(make_cw(1.2, 0.0))
    assert res.limit_value == pytest.approx(P_LIMIT_J12, abs=1e-12)
    assert len(res.maxima) == 2
    assert res.method_agreement <= 1e-9


def test_pressure_limit_bounded_below_by_origin():
    for model in [make_cw(0.8, 0.0), make_ref2()]:
        assert pressure_limit(model).limit_value >= functional_fbar(
            model, np.zeros(model.n)) - 1e-12


def test_pressure_limit_general_measure():
    res = pressure_limit(three_atom_model())
    assert res.method_agreement <= 1e-9
    assert res.limit_value == pytest.approx(res.maxima[0].point.f_value, abs=1e-12)


def test_direct_route_agrees_on_random_one_species_measures():
    # for n = 1 the core is J > 0, so every measure gets the second route
    rng = np.random.default_rng(20261018)
    for _ in range(40):
        k = rng.integers(2, 5)
        locs, weights = rng.uniform(-2.0, 2.0, k), rng.dirichlet(np.ones(k))
        model = make_cw(rng.uniform(0.2, 3.0), rng.uniform(-0.3, 0.3),
                        measure=FiniteMeasure(atoms=tuple(zip(locs, weights))))
        assert pressure_limit(model).method_agreement <= 1e-9


def test_a_minimum_tied_with_the_maxima_is_not_an_equilibrium():
    # fbar(0) is within ~1e-16 of the maxima at J = 1 + 1e-8, and x = 0 was refused
    res = pressure_limit(make_cw(1.0 + 1e-8, 0.0))
    assert len(res.fixed_points) == 3
    assert [c.k for c in res.maxima] == [1, 1]
    assert [c.point.x[0] for c in res.maxima] == pytest.approx(
        [-1.7320507861592134e-4, 1.7320507861592134e-4], rel=1e-12)
    assert res.method_agreement <= 1e-9


# --- phase scan -----------------------------------------------------------------


def test_phase_scan_subcritical_row():
    table = cw_phase_scan([0.4, 0.5, 0.6], 0.0)
    i = 1
    assert table["mu"][i] == pytest.approx(0.0, abs=1e-9)
    assert table["dp_dJ"][i] == pytest.approx(0.0, abs=1e-12)
    assert table["pressure"][i] == pytest.approx(0.0, abs=1e-12)


def test_phase_scan_requires_sorted_grid():
    with pytest.raises(DomainError):
        cw_phase_scan([0.5, 0.4], 0.0)


def test_phase_scan_critical_asymptotics():
    table = cw_phase_scan([1.001], 0.0)
    mu0 = table["mu"][0]
    ratio = mu0 / math.sqrt(3.0 * (1.0 - 1.0 / 1.001))
    assert abs(ratio - 1.0) < 0.02


PHASE_GRIDS = {
    "bench": (np.linspace(0.5, 1.5, 41), 0.0),
    "criterion-11": (np.round(np.arange(1.000, 1.0041, 0.001), 10), 0.0),
    "straddle-J1": (np.linspace(0.9, 1.1, 21), 0.0),
    "h+0.1": (np.linspace(0.9, 1.1, 21), 0.1),
    "h-0.1": (np.linspace(0.9, 1.1, 21), -0.1),
    "h1e-12": (np.linspace(0.9, 1.1, 21), 1e-12),
    "antiferro-h0": (np.linspace(-2.0, 0.0, 5), 0.0),
    "antiferro-h0.1": (np.linspace(-3.0, 0.5, 15), 0.1),
}


@pytest.mark.parametrize("grid_points", [5, 21])
@pytest.mark.parametrize("name", PHASE_GRIDS)
def test_phase_scan_is_the_per_coupling_solve_bit_for_bit(name, grid_points):
    grid, h = PHASE_GRIDS[name]
    opts = SolverOptions(grid_points=grid_points)
    table = cw_phase_scan(grid, h, opts)
    points = [solve_fixed_points(make_cw(J, h), opts) for J in grid]
    mu = np.array([max(p.x[0] for p in pts) for pts in points])
    pressure = np.array([max(p.fbar_value for p in pts) for pts in points])
    assert table["mu"].tobytes() == mu.tobytes()
    assert table["pressure"].tobytes() == pressure.tobytes()


def test_phase_scan_at_a_negative_field_takes_the_equilibrium_branch():
    # the largest fixed point is metastable at h < 0: mu was +0.777 ... +0.873
    grid = np.linspace(1.4, 1.6, 5)
    minus, plus = cw_phase_scan(grid, -0.05), cw_phase_scan(grid, 0.05)
    assert np.max(np.abs(minus["mu"] + plus["mu"])) <= 1e-12
    assert np.max(np.abs(minus["dp_dJ"] - plus["dp_dJ"])) <= 1e-12
    pressure = [max(p.fbar_value for p in solve_fixed_points(make_cw(J, -0.05)))
                for J in grid]
    assert minus["pressure"].tobytes() == np.array(pressure).tobytes()


def test_phase_scan_second_difference_on_an_uneven_grid():
    # the old (p+ - 2p + p-) / (h- h+) gave 4.33, -3.62 and 6.40 here
    grid = np.array([1.2, 1.25, 1.4, 1.45, 1.7])
    table = cw_phase_scan(grid, 0.0)
    mu2 = table["mu"] ** 2
    exact = mu2 * (1.0 - mu2) / (1.0 - grid * (1.0 - mu2))      # p'' = mu^2 chi
    d2p = table["d2p"]
    assert np.isnan(d2p[0]) and np.isnan(d2p[-1])
    assert np.all(d2p[1:-1] > 0)
    assert np.max(np.abs(d2p[1:-1] - exact[1:-1])) < 0.1


def test_phase_scan_of_an_empty_grid_is_empty():
    table = cw_phase_scan([], 0.0)
    assert sorted(table) == ["J", "d2p", "dp_dJ", "mu", "pressure"]
    assert all(col.shape == (0,) for col in table.values())


@pytest.mark.parametrize("grid", [[math.nan], [0.5, math.nan], [0.5, 1.0, math.inf]])
def test_phase_scan_refuses_a_non_finite_coupling(grid):
    with pytest.raises(NonFiniteParameter):
        cw_phase_scan(grid, 0.0)


@pytest.mark.parametrize("grid", [[math.inf, 1.0], [1.0, -math.inf]])
def test_phase_scan_checks_finiteness_before_order(grid):
    # a grid both out of order and not finite raised DomainError, a data outcome (CLI exit 3)
    with pytest.raises(NonFiniteParameter):
        cw_phase_scan(grid, 0.0)


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
def test_phase_scan_refuses_a_non_finite_field(h):
    with pytest.raises(NonFiniteParameter):
        cw_phase_scan([1.2], h)


@pytest.mark.parametrize("grid,steps", [([1.2], 0), ([1.2, 1e20], 1)])
def test_phase_scan_raises_when_a_coupling_keeps_no_start(monkeypatch, grid, steps):
    # no start is a root at h = 0.05; one Newton step takes every start of J = 1e20 to
    # x = 1, so there only J = 1.2 is left without a converged row
    monkeypatch.setattr(solver, "_NEWTON_STEPS", steps)
    with pytest.raises(NoConvergence):
        cw_phase_scan(grid, 0.05)


@pytest.mark.parametrize("grid", [[1e308], [1e308, 1.5e308]])
def test_phase_scan_with_a_field_and_couplings_near_the_float_limit_is_silent(grid):
    # the columns were right, but u = Jx + h overflowed in the +-1 Newton map with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = cw_phase_scan(grid, 1e308)
    assert table["mu"].tolist() == [1.0] * len(grid)
    assert table["pressure"].tolist() == [1e308 + 0.5 * J for J in grid]


@pytest.mark.parametrize("n", [1, 2])
def test_dedup_by_group_is_each_group_deduped_alone(n):
    rng = np.random.default_rng(5)
    pts = np.round(rng.uniform(-1.0, 1.0, (60, n)), 1)
    res = rng.uniform(0.0, 1e-12, 60)
    group = rng.integers(0, 3, 60)
    pts, res, group = np.r_[pts, pts[:20]], np.r_[res, res[:20]], np.r_[group, group[:20] + 1]
    want = np.concatenate([np.flatnonzero(group == g)[_dedup_rows(pts[group == g],
                                                                  res[group == g], 0.15)]
                           for g in range(4)])
    assert _dedup_rows(pts, res, 0.15, group).tolist() == want.tolist()
    # a lone row equal to the previous group's last is that group's point, not a repeat
    assert _dedup_rows(np.zeros((2, n)), np.zeros(2), 0.15, np.array([0, 1])).tolist() == [0, 1]


def test_dedup_of_one_column_is_the_breadth_first_path_on_a_zero_second_column(monkeypatch):
    # the rows and groups that the 41-coupling, 11-start phase scan hands to _dedup_rows
    seen = []

    def record(pts, res, radius, group=None):
        seen.append((pts, res, radius, group))
        return _dedup_rows(pts, res, radius, group)

    monkeypatch.setattr(_cluster, "_dedup_rows", record)
    cw_phase_scan(np.linspace(0.5, 1.5, 41), 0.0)
    (pts, res, radius, group), = seen
    assert pts.shape[1] == 1 and len(np.unique(group)) == 41
    runs = _dedup_rows(pts, res, radius, group)
    assert len(runs) < len(pts)
    wide = np.column_stack([pts, np.zeros(len(pts))])
    assert runs.tolist() == _dedup_rows(wide, res, radius, group).tolist()


# --- two-route cross-check --------------------------------------------------------


def test_direct_route_does_not_use_the_fixed_point_route(monkeypatch):
    models = [make_cw(1.2, 0.0), make_ref3(), three_atom_model()]
    want = [pressure_limit(m).limit_value for m in models]

    def refuse(*args, **kwargs):
        raise AssertionError("the direct route called the fixed-point route")

    for name in ("mean_field_map", "_map_rows", "_map_defect", "_newton_polish",
                 "solve_fixed_points"):
        monkeypatch.setattr(solver, name, refuse)
    for model, limit in zip(models, want):
        assert _max_f_direct(model) == pytest.approx(limit, abs=1e-12)


def test_cross_check_flags_a_missed_global_maximum(monkeypatch):
    # below the spinodal field (about 0.056 at J=1.2) the negative branch
    # survives as a local maximum of f that is not the global one
    model = make_cw(1.2, 0.05)
    metastable = [p for p in solve_fixed_points(model) if p.x[0] < -0.4]
    assert len(metastable) == 1
    monkeypatch.setattr(solver, "solve_fixed_points", lambda m, opts=None: metastable)
    res = pressure_limit(model)
    assert res.limit_value == metastable[0].fbar_value
    assert res.method_agreement > 1e-6


@pytest.mark.parametrize("model_fn", [lambda: make_cw(1.0, 0.0), make_crit2])
def test_cross_check_holds_at_degenerate_maxima(model_fn):
    res = pressure_limit(model_fn())
    assert [c.k for c in res.maxima] == [2]
    assert res.method_agreement <= 1e-9


def test_cross_check_holds_on_a_random_five_species_model():
    rng = np.random.Generator(np.random.PCG64(20261018))
    A = rng.normal(size=(5, 5))
    J = A @ A.T / 5.0 + 0.5 * np.eye(5)
    alpha = rng.uniform(0.5, 1.5, size=5)
    alpha /= alpha.sum()
    model = validate_model(ModelSpec(n=5, alpha=tuple(alpha), J=tuple(map(tuple, J)),
                                     h=tuple(rng.uniform(-0.2, 0.2, size=5))))
    res = pressure_limit(model, SolverOptions(grid_points=7))
    assert res.method_agreement <= 1e-9


# --- any symmetric coupling: maxima of fbar, whatever the sign of D J D ----------


def two_species(J, h=(0.1, 0.0)):
    return validate_model(ModelSpec(n=2, alpha=(0.5, 0.5), J=J, h=h))


def test_weak_antiferromagnet_has_one_quadratic_maximum():
    # core eigenvalues (-0.05, 0.55): f is a saddle, the pressure is max fbar
    model = two_species(((0.5, -0.6), (-0.6, 0.5)))
    assert np.linalg.eigvalsh(model.coupling_core()).min() < 0
    res = pressure_limit(model)
    assert [c.k for c in res.maxima] == [1]
    assert math.isnan(res.method_agreement)
    # fbar by hand on a 0.001 grid of the open square
    x = np.linspace(-0.999, 0.999, 1999)
    a, b = np.meshgrid(0.5 * x, 0.5 * x, indexing="ij")
    ent = 0.25 * ((1 + x) * np.log1p(x) + (1 - x) * np.log1p(-x))
    fbar = (0.5 * (0.5 * a * a - 1.2 * a * b + 0.5 * b * b) + 0.1 * a
            - ent[:, None] - ent[None, :])
    assert res.limit_value - 1e-5 < fbar.max() <= res.limit_value + 1e-12


def test_strong_antiferromagnet_pressure_matches_the_lattice():
    model = two_species(((1.0, -3.0), (-3.0, 1.0)))
    res = pressure_limit(model)
    assert [c.k for c in res.maxima] == [1]
    assert abs(finite_pressure(model, [1600, 1600]) - res.limit_value) < 3e-5


def test_rank_one_core_has_a_quadratic_maximum():
    # D J D is singular, but fbar is strictly curved at the field-tilted maximum
    model = two_species(((1.0, 1.0), (1.0, 1.0)))
    best = max(solve_fixed_points(model), key=lambda p: p.fbar_value)
    assert classify_maximum(model, best).k == 1


def test_random_couplings_of_any_signature_are_solved():
    not_posdef = 0
    for model in random_models([2 + i % 2 for i in range(40)]):
        res = pressure_limit(model)
        assert res.maxima and all(c.k == 1 for c in res.maxima)
        not_posdef += np.linalg.eigvalsh(model.coupling_core()).min() <= 0
    assert not_posdef >= 1


def test_a_frozen_species_still_has_a_quadratic_maximum():
    # sech^2(u_1) underflows to 0 at h_1 = 400, where 1/var is infinite
    model = two_species(((1.0, 0.5), (0.5, 1.0)), h=(400.0, 0.1))
    assert [c.k for c in pressure_limit(model).maxima] == [1]


def test_a_frozen_root_on_the_hull_boundary_is_kept():
    # tanh(u_1) rounds to exactly 1.0: the closed hull keeps the iterate there
    res = pressure_limit(two_species(((1.0, 0.5), (0.5, 1.0)), h=(400.0, 0.1)))
    assert [p.x[0] for p in res.fixed_points] == [1.0]
    assert res.limit_value == 199.83250890248127


@pytest.mark.filterwarnings("ignore::RuntimeWarning")      # numpy's overflow in f
def test_an_eigensolver_failure_in_the_direct_route_is_a_domain_error():
    # numpy's LinAlgError escaped, which the CLI maps to exit 5 (internal)
    model = validate_model(model_from_dict(EIGH_FAILS))
    with pytest.raises(DomainError, match="direct ascent on f failed"):
        pressure_limit(model, SolverOptions(grid_points=5))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_finite_hessian_that_eigh_takes_still_solves(monkeypatch):
    # so a non-finite Hessian is no reason to refuse before eigh
    finite = []
    hessian = solver._hessian_f

    def spy(model, X):
        H = hessian(model, X)
        finite.append(bool(np.isfinite(H).all()))
        return H

    monkeypatch.setattr(solver, "_hessian_f", spy)
    res = pressure_limit(validate_model(model_from_dict(HESSIAN_INF)))
    assert False in finite
    assert res.method_agreement == 0.0


# --- roots on the hull's edge ----------------------------------------------------


@pytest.mark.parametrize("alpha,J,h,limit", [
    # the first Newton step from (0.792, -0.792) lands ~1e-11 outside [-1, 1]^2
    ((0.561253703716457, 0.438746296283543),
     ((18.720167598325204, -15.449730462626501), (-15.449730462626501, 16.08911628704083)),
     (0.25672875100201714, -0.185410305011926), 7.833799646056561),
    # the global maximum sits in the corner (1, 1)
    ((0.27975668663814557, 0.7202433133618544),
     ((15.22768163018051, 15.612241497692947), (15.612241497692947, 18.641785415867613)),
     (0.012448950262779368, 0.2224703971485656), 8.047429108135562),
], ids=["edge", "corner"])
def test_a_maximum_on_the_edge_of_the_hull_is_found(alpha, J, h, limit):
    # Newton steps toward the maximum overshoot the hull; clamped back, the rows reach it
    res = pressure_limit(validate_model(ModelSpec(n=2, alpha=alpha, J=J, h=h)))
    assert res.limit_value == pytest.approx(limit, abs=1e-12)
    assert res.method_agreement <= 1e-12


# --- one fbar and one curvature over rows, bit for bit --------------------------------


def random_binary_models(count, seed=29):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 6))
        A = rng.normal(size=(n, n))
        J = (A + A.T) / 2.0
        np.fill_diagonal(J, rng.uniform(0.5, 3.0, n))
        yield validate_model(ModelSpec(n=n, alpha=tuple(rng.dirichlet(np.full(n, 4.0))),
                                       J=tuple(map(tuple, J)),
                                       h=tuple(rng.uniform(-0.3, 0.3, n))))


def test_fbar_of_every_fixed_point_is_the_one_point_formula_bit_for_bit():
    for model in random_binary_models(12):
        for p in solve_fixed_points(model, SolverOptions(grid_points=5)):
            want = hamiltonian_density(model, p.x) - float(model.alpha @ entropy_I(p.x))
            assert p.fbar_value == functional_fbar(model, p.x) == want


def test_curvature_of_a_batch_is_each_row_alone_bit_for_bit():
    rng = np.random.default_rng(30)
    for model in random_binary_models(12):
        X = rng.uniform(-0.99, 0.99, (40, model.n))
        K, s = solver._curvature(model, X)
        for i, x in enumerate(X):
            Ki, si = solver._curvature(model, x)
            assert K[i].tobytes() == Ki.tobytes() and s[i].tobytes() == si.tobytes()
    # rows that carry their own coupling, as the phase scan's, are each coupling's model
    J = rng.uniform(0.2, 3.0, 40)
    X = rng.uniform(-0.99, 0.99, (40, 1))
    K, s = solver._curvature(make_cw(1.0, 0.05), X, J[:, None, None])
    for i, x in enumerate(X):
        Ki, si = solver._curvature(make_cw(J[i], 0.05), x)
        assert K[i].tobytes() == Ki.tobytes() and s[i].tobytes() == si.tobytes()
