import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from meanfield_lab import (
    FiniteMeasure,
    Gaussian,
    ModelSpec,
    build_limit_law,
    hamiltonian_density,
    model_from_dict,
    model_from_json,
    model_to_dict,
    pressure_limit,
    validate_model,
)
from meanfield_lab.errors import (
    BadAlpha,
    BadSizes,
    ConfigParse,
    DegenerateMeasure,
    ConfigError,
    DimensionMismatch,
    NonFiniteParameter,
    NonSymmetricJ,
)

from conftest import (
    Configuration,
    brute_force_hamiltonian,
    check_configuration,
    magnetization,
    make_cw,
    make_ref2,
    materialize_configuration,
)


def test_validate_canonical_cw():
    m = validate_model(ModelSpec(n=1, alpha=(1.0,), J=((1.0,),), h=(0.0,)))
    assert m.n == 1 and m.is_binary


def test_validate_bad_alpha_sum():
    with pytest.raises(BadAlpha):
        validate_model(ModelSpec(n=2, alpha=(0.5, 0.6),
                                 J=((1.0, 0.0), (0.0, 1.0)), h=(0.0, 0.0)))


def test_validate_negative_alpha():
    with pytest.raises(BadAlpha):
        validate_model(ModelSpec(n=2, alpha=(-0.5, 1.5),
                                 J=((1.0, 0.0), (0.0, 1.0)), h=(0.0, 0.0)))


def test_validate_asymmetric_coupling():
    with pytest.raises(NonSymmetricJ):
        validate_model(ModelSpec(n=2, alpha=(0.5, 0.5),
                                 J=((1.0, 0.2), (0.3, 1.0)), h=(0.0, 0.0)))


def test_validate_nonpositive_diagonal():
    # free spins, J = 0: the limit is ln cosh h (the pressure omits ln 2), and the
    # sum law is the Gaussian of one spin's variance 1 - tanh^2 h
    h = 0.3
    model = validate_model(ModelSpec(n=1, alpha=(1.0,), J=((0.0,),), h=(h,)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = pressure_limit(model)
        law = build_limit_law(model, result.maxima[0])
    assert abs(result.limit_value - math.log(math.cosh(h))) <= 1e-15
    var = 1.0 - math.tanh(h) ** 2
    assert isinstance(law, Gaussian)
    assert abs(law.cov[0, 0] - var) <= math.ulp(var)


@pytest.mark.parametrize("alpha,J,h", [
    ((1.0,), ((float("nan"),),), (0.0,)),
    ((1.0,), ((1.0,),), (float("inf"),)),
    ((float("nan"),), ((1.0,),), (0.0,)),
    ((0.5, 0.5), ((1.0, float("-inf")), (float("-inf"), 1.0)), (0.0, 0.0)),
])
def test_validate_rejects_non_finite(alpha, J, h):
    with pytest.raises(NonFiniteParameter) as info:
        validate_model(ModelSpec(n=len(alpha), alpha=alpha, J=J, h=h))
    assert isinstance(info.value, ConfigError)


@pytest.mark.parametrize("atoms", [
    ((-1.0, 0.5), (float("inf"), 0.5)),
    ((-1.0, float("nan")), (1.0, 0.5)),
])
def test_measure_rejects_non_finite_atoms(atoms):
    with pytest.raises(NonFiniteParameter):
        FiniteMeasure(atoms=atoms)


def test_degenerate_measure_rejected():
    with pytest.raises(DegenerateMeasure):
        FiniteMeasure(atoms=((1.0, 1.0),))
    with pytest.raises(DegenerateMeasure):
        FiniteMeasure(atoms=((1.0, 0.5), (1.0, 0.5)))
    with pytest.raises(DegenerateMeasure):
        FiniteMeasure(atoms=((1.0, 0.7), (-1.0, 0.7)))


def test_hamiltonian_density_zero_point():
    assert hamiltonian_density(make_cw(1.0, 0.0), [0.0]) == 0.0


def test_hamiltonian_density_direct_substitution():
    m = validate_model(ModelSpec(n=1, alpha=(1.0,), J=((2.0,),), h=(1.0,)))
    assert hamiltonian_density(m, [1.0]) == pytest.approx(2.0, abs=1e-15)


def test_hamiltonian_density_antisymmetric_cancellation():
    m = validate_model(ModelSpec(n=2, alpha=(0.5, 0.5),
                                 J=((1.0, -1.0), (-1.0, 1.0)), h=(0.0, 0.0)))
    assert hamiltonian_density(m, [1.0, 1.0]) == pytest.approx(0.0, abs=1e-15)


def test_hamiltonian_density_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hamiltonian_density(make_cw(1.0, 0.0), [0.0, 0.0])


def test_magnetization_examples():
    cfg = Configuration(spins=np.ones(5), partition=np.array([5]))
    assert magnetization(cfg) == pytest.approx([1.0])
    cfg = Configuration(spins=np.array([1.0, -1.0]), partition=np.array([2]))
    assert magnetization(cfg) == pytest.approx([0.0])
    cfg = Configuration(spins=np.array([1.0, 1.0, 1.0, -1.0]),
                        partition=np.array([4]))
    assert magnetization(cfg) == pytest.approx([0.5])


@pytest.mark.parametrize("sizes", [(8,), (16, 16), (13, 19, 32)])
def test_energy_density_matches_double_sum(sizes):
    # -H_N / N == g(m) against the explicit block-matrix double sum
    rng = np.random.default_rng(5)
    n = len(sizes)
    alpha = np.array(sizes) / sum(sizes)
    J = rng.normal(size=(n, n))
    J = 0.5 * (J + J.T) + 2.0 * np.eye(n)
    model = validate_model(ModelSpec(n=n, alpha=tuple(alpha),
                                     J=tuple(map(tuple, J)),
                                     h=tuple(rng.normal(size=n))))
    for _ in range(5):
        spins = rng.choice([-1.0, 1.0], size=sum(sizes))
        cfg = Configuration(spins=spins, partition=np.array(sizes))
        g_val = hamiltonian_density(model, magnetization(cfg))
        direct = brute_force_hamiltonian(model, cfg) / sum(sizes)
        assert g_val == pytest.approx(direct, abs=1e-13)


def test_energy_density_permutation_invariant():
    model = make_ref2()
    perm = [1, 0]
    permuted = validate_model(ModelSpec(
        n=2, alpha=tuple(model.alpha[perm]),
        J=tuple(map(tuple, model.J[np.ix_(perm, perm)])),
        h=tuple(model.h[perm])))
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.uniform(-1, 1, size=2)
        assert hamiltonian_density(model, m) == pytest.approx(
            hamiltonian_density(permuted, m[perm]), abs=1e-15)


@given(t=st.floats(-3, 3))
def test_energy_density_quadratic_in_scale(t):
    # g(t m) - t g(m) is quadratic in t and vanishes at t = 0
    model = make_ref2()
    m = np.array([0.4, -0.7])

    def q(tv):
        return hamiltonian_density(model, tv * m) - tv * hamiltonian_density(model, m)

    assert q(0.0) == 0.0
    dt = 0.125
    third_diff = q(t + 2 * dt) - 3 * q(t + dt) + 3 * q(t) - q(t - dt)
    assert third_diff == pytest.approx(0.0, abs=1e-12)


def test_species_sizes_require_exact_split():
    model = make_ref2()
    assert list(model.species_sizes(10)) == [5, 5]
    with pytest.raises(BadSizes):
        model.species_sizes(11)


@pytest.mark.parametrize("N", [0, 2 ** 63 - 1, 10 ** 400], ids=["zero", "int64-max", "1e400"])
def test_species_sizes_refuse_a_total_outside_int64_without_a_warning(N):
    # 2^63 - 1 warned on the int64 cast, then named a block of -2^63; 10^400 overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadSizes):
            make_cw(1.2, 0.0).species_sizes(N)


def test_materialize_configuration_roundtrip():
    model = make_ref2()
    cfg = materialize_configuration(model, [4, 4], [2, -4])
    assert magnetization(cfg) == pytest.approx([0.5, -1.0])


def test_check_configuration():
    from meanfield_lab.errors import DegenerateMeasure

    model = make_ref2()
    good = Configuration(spins=np.array([1.0, -1.0, 1.0, 1.0]),
                         partition=np.array([2, 2]))
    check_configuration(model, good)
    off_support = Configuration(spins=np.array([1.0, 0.5, 1.0, 1.0]),
                                partition=np.array([2, 2]))
    with pytest.raises(DegenerateMeasure):
        check_configuration(model, off_support)
    skewed = Configuration(spins=np.ones(10), partition=np.array([2, 8]))
    with pytest.raises(BadSizes):
        check_configuration(model, skewed)


@pytest.mark.parametrize("call, error, match", [
    (lambda: Configuration(spins=np.ones(4), partition=np.array([2, 1])),
     DimensionMismatch, "spin count"),
    (lambda: Configuration(spins=np.ones(4), partition=np.array([4, 0])),
     BadSizes, "positive"),
    (lambda: materialize_configuration(make_cw(1.0, 0.0), [4], [3]),
     BadSizes, "unreachable"),
], ids=["configuration-partition-not-the-spin-count", "configuration-empty-block",
        "unreachable-sum"])
def test_configuration_helpers_raise_their_typed_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_model_json_roundtrip():
    doc = {"n": 2, "alpha": [0.5, 0.5], "J": [[1.0, 0.5], [0.5, 1.0]],
           "h": [0.2, -0.1]}
    spec = model_from_dict(doc)
    assert spec.site_measure.is_symmetric_binary()
    model = validate_model(spec)
    out = model_to_dict(model)
    again = validate_model(model_from_dict(out))
    assert np.array_equal(again.J, model.J)
    assert np.array_equal(again.alpha, model.alpha)


def test_model_json_errors():
    with pytest.raises(ConfigParse):
        model_from_json("not json")
    with pytest.raises(ConfigParse):
        model_from_json('{"n": 1}')
    with pytest.raises(ConfigParse):
        model_from_json('{"n": 1, "alpha": [1.0], "J": [[1.0]], "h": [0.0], '
                        '"measure": {"atoms": "bad"}}')
