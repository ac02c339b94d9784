"""The number rule at every public entry point of `strainlim`.

Each scalar number a public function takes is replaced, one at a time, by a
bool, a string, None, an int past the float range, NaN, inf or a numpy
scalar. The call must return finite numbers or raise a StrainLimError; a
value that is no number (bools included) must raise, and a spec it builds
holds Python floats. A guard keeps the table complete: every public
callable of the package is either in it or on the list of callables that
take no scalar number.
"""

import dataclasses
import math

import numpy as np
import pytest

import strainlim
from strainlim import (
    FamilySpec,
    InvalidParameter,
    OutOfDomain,
    RotationSpec,
    StrainLimError,
    SymTensor,
    certify_constants,
    check_ball,
    check_delta,
    complementary_energy,
    complementary_gradient,
    conjugate_stress,
    deformation_from_green,
    deformation_from_hencky,
    density_line,
    eig_sym,
    family_eval,
    family_leading,
    fit_order,
    fixed_points,
    frobenius,
    green_stress,
    leading_gap,
    legendre_transform,
    make_rotation,
    oned_delta0_study,
    oned_forward,
    oned_invert,
    oned_strain,
    run_convergence,
    run_convergence_hencky,
    sigma_from_cauchy,
    sigma_from_piola,
    solve_implicit,
    solve_implicit_hencky,
    spd_sqrt,
    sym_exp,
    sym_log,
)

POWER = FamilySpec(kind="power_law", a=1.0, p=2.0)
RECIP = FamilySpec(kind="density_modulus_reciprocal")
ROT = RotationSpec((0.0, 0.0, 1.0), 1.0)
S = SymTensor(0.5, 0.25, -0.125)
ZERO = SymTensor()
D = 2.0 ** -6
LADDER = [D, D / 2, D / 4, D / 8]

BAD = {"True": True, "False": False, "str": "0.01", "None": None, "10**400": 10 ** 400,
       "-10**400": -10 ** 400, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
       "np.nan": np.float64("nan"), "np.int64": np.int64(3), "np.float32": np.float32(0.5)}
NOT_NUMBERS = ("True", "False", "str", "None")


def _with(values, i, v):
    return [v if k == i else x for k, x in enumerate(values)]


# (public name, argument replaced) -> call with that argument set to v
CASES = {
    # each field on a kind that reads it
    **{("FamilySpec", f): lambda v, f=f, given=given: FamilySpec(**given, **{f: v})
       for given, names in (({"kind": "scaled_base", "base": "power_law"}, "a p c"),
                            ({"kind": "density_modulus_reciprocal"}, "b E0 nu"))
       for f in names.split()},
    **{("RotationSpec", "axis[%d]" % i): lambda v, i=i: RotationSpec(
        tuple(_with([0.0, 0.0, 1.0], i, v)), 1.0) for i in range(3)},
    ("RotationSpec", "magnitude_coefficient"): lambda v: RotationSpec((0.0, 0.0, 1.0), v),
    ("make_rotation", "delta"): lambda v: make_rotation(ROT, v),
    ("check_delta", "delta"): lambda v: check_delta(POWER, v),
    ("check_ball", "radius"): lambda v: check_ball("E", SymTensor(0.1), v),
    ("density_line", "delta"): lambda v: density_line(RECIP, v, S)[1](0.0),
    ("density_line", "s"): lambda v: density_line(RECIP, D, S)[1](v),
    ("family_eval", "delta"): lambda v: family_eval(RECIP, v, ZERO, S),
    ("fixed_points", "delta"): lambda v: fixed_points(RECIP, v, S),
    ("leading_gap", "delta"): lambda v: leading_gap(RECIP, v, ZERO, S),
    ("solve_implicit", "delta"): lambda v: solve_implicit(RECIP, v, S),
    ("solve_implicit_hencky", "delta"): lambda v: solve_implicit_hencky(RECIP, v, S),
    ("green_stress", "delta"): lambda v: green_stress(POWER, v, SymTensor(0.1 * D)),
    **{(run.__name__, "deltas[%d]" % i): lambda v, run=run, i=i: run(
        POWER, S, ROT, _with(LADDER, i, v))
       for run in (run_convergence, run_convergence_hencky) for i in (0, 2)},
    ("certify_constants", "deltas[1]"): lambda v: certify_constants(POWER, [D, v], 100, 0),
    ("certify_constants", "samples"): lambda v: certify_constants(POWER, [D], v, 0),
    ("certify_constants", "seed"): lambda v: certify_constants(POWER, [D], 100, v),
    ("fit_order", "deltas[1]"): lambda v: fit_order(_with(LADDER, 1, v), [4.0, 2.0, 1.0, 0.5]),
    ("fit_order", "residuals[1]"): lambda v: fit_order(LADDER, _with([4.0, 2.0, 1.0, 0.5], 1, v)),
    ("oned_forward", "delta"): lambda v: oned_forward(POWER, v, 0.5),
    ("oned_forward", "Sbar"): lambda v: oned_forward(POWER, D, v),
    ("oned_strain", "E"): lambda v: oned_strain(v),
    ("oned_invert", "delta"): lambda v: oned_invert(POWER, v, 0.001),
    ("oned_invert", "E"): lambda v: oned_invert(POWER, D, v),
    ("oned_delta0_study", "delta"): lambda v: oned_delta0_study(POWER, v, [0.25, 0.5, 1.0, 2.0]),
    ("oned_delta0_study", "Sbar_list[1]"): lambda v: oned_delta0_study(
        POWER, D, _with([0.25, 0.5, 1.0, 2.0], 1, v)),
}

# SymTensor arithmetic is unchecked; the maps that take a tensor read an int
# component past the float range as inf: each raises the named error an inf
# component raises, and `frobenius` gives inf for both
HUGE, INF = SymTensor(10 ** 400), SymTensor(math.inf)
R = np.eye(3)
TENSOR_CASES = {
    ("check_ball", "A"): lambda T: check_ball("E", T, 1.0),
    ("family_eval", "E"): lambda T: family_eval(RECIP, D, T, S),
    ("family_eval", "Sbar"): lambda T: family_eval(RECIP, D, ZERO, T),
    ("family_leading", "Sbar"): lambda T: family_leading(RECIP, ZERO, T),
    ("leading_gap", "E"): lambda T: leading_gap(RECIP, D, T, S),
    ("density_line", "Sbar"): lambda T: density_line(RECIP, D, T),
    ("solve_implicit", "Sbar"): lambda T: solve_implicit(RECIP, D, T),
    ("fixed_points", "Sbar"): lambda T: fixed_points(RECIP, D, T),
    ("complementary_energy", "Sbar"): lambda T: complementary_energy(POWER, T),
    ("complementary_gradient", "Sbar"): lambda T: complementary_gradient(POWER, T),
    ("conjugate_stress", "Etilde"): lambda T: conjugate_stress(POWER, T),
    ("legendre_transform", "Etilde"): lambda T: legendre_transform(POWER, T),
    ("green_stress", "eps"): lambda T: green_stress(POWER, D, T),
    **{(fn.__name__, "A"): fn for fn in (eig_sym, spd_sqrt, sym_log, sym_exp)},
    ("deformation_from_green", "E"): lambda T: deformation_from_green(T, R),
    ("deformation_from_hencky", "H"): lambda T: deformation_from_hencky(T, R),
    ("sigma_from_piola", "Sbar"): lambda T: sigma_from_piola(R, T),
    ("sigma_from_cauchy", "T"): lambda T: sigma_from_cauchy(R, T),
}

# public callables that take no scalar number: they take a spec, tensors or
# records. SymTensor components are the hot path and stay unchecked
NO_SCALAR = {
    "certified_domain", "certify_caps", "delta_ceiling", "working_domain",
    "density_linearization_gap",
    "det", "frobenius", "inner", "inverse", "is_rotation", "trace", "SymTensor",
    # result records
    "CertificateReport", "CertificateRow", "ConvergenceRecord", "ConvergenceReport",
    "Delta0Study", "DeformationState", "SolveReport", "Spectrum",
}


def _numbers(out):
    """Every number inside a result, walking records, tensors, arrays and containers."""
    if isinstance(out, SymTensor):
        yield from out.components()
    elif isinstance(out, np.ndarray):
        yield from out.ravel().tolist()
    elif dataclasses.is_dataclass(out):
        for field in dataclasses.fields(out):
            yield from _numbers(getattr(out, field.name))
    elif isinstance(out, dict):
        for value in out.values():
            yield from _numbers(value)
    elif isinstance(out, (list, tuple)):
        for value in out:
            yield from _numbers(value)
    elif isinstance(out, (int, float, np.number)) and not isinstance(out, bool):
        yield out


@pytest.mark.parametrize("value", BAD)
@pytest.mark.parametrize("case", CASES, ids="-".join)
def test_a_bad_number_gives_finite_numbers_or_a_named_error(case, value):
    try:
        out = CASES[case](BAD[value])
    except StrainLimError:
        return
    assert value not in NOT_NUMBERS, "%r passed as a number" % BAD[value]
    numbers = list(_numbers(out))
    # an int is finite however large; math.isfinite would overflow on it
    assert all(isinstance(x, (int, np.integer)) or math.isfinite(x) for x in numbers), out
    if isinstance(out, (FamilySpec, RotationSpec)):
        assert all(type(x) is float for x in numbers), out


@pytest.mark.parametrize("field, value", [("kind", "nope"), ("kind", 3), ("kind", ["power_law"]),
                                          ("base", 5), ("base", "x"), ("base", True),
                                          ("base", lambda Et, S: S)])
def test_a_bad_kind_or_base_is_an_invalid_parameter(field, value):
    with pytest.raises(InvalidParameter):
        FamilySpec(**dict({"kind": "scaled_base", "base": "power_law"}, **{field: value}))


@pytest.mark.parametrize("case", TENSOR_CASES, ids="-".join)
def test_an_overflowing_tensor_component_raises_what_inf_raises(case):
    with pytest.raises(StrainLimError) as inf:
        TENSOR_CASES[case](INF)
    with pytest.raises(StrainLimError) as huge:
        TENSOR_CASES[case](HUGE)
    assert type(huge.value) is type(inf.value)


# a component that is no real number: `frobenius`, which every ball check crosses,
# raises InvalidParameter for it, and so does `symtensor._stacked`, which the
# spectral maps cross, so every map that takes a tensor refuses it
NOT_REAL = {"0.5j": 0.5j, "0.3+0.1j": 0.3 + 0.1j, "[0.1]": [0.1], "'0.1'": "0.1", "None": None}
SPECTRAL = ("eig_sym", "spd_sqrt", "sym_log", "sym_exp")
NOT_REAL_CASES = {
    **TENSOR_CASES,
    ("family_eval", "Sbar power_law"): lambda T: family_eval(POWER, D, ZERO, T),
    ("solve_implicit", "Sbar power_law"): lambda T: solve_implicit(POWER, D, T),
}


@pytest.mark.parametrize("value", NOT_REAL)
@pytest.mark.parametrize("case", NOT_REAL_CASES, ids="-".join)
def test_a_component_that_is_no_real_number_is_an_invalid_parameter(case, value):
    with pytest.raises(InvalidParameter):
        NOT_REAL_CASES[case](SymTensor(NOT_REAL[value]))


# what `_stacked` alone refuses: a bool (`frobenius` reads it as an int, and
# `deformation_from_green` doubles it into a float before its spectral map), and
# a column of another dtype than a real float or int
NOT_REAL_FOR_SPECTRAL = {"True": True, "False": False, "complex column": np.array([0.5j, 0.1]),
                         "bool column": np.array([True, False]),
                         "str column": np.array(["0.1", "0.2"]),
                         "object column": np.array([0.1, None])}


@pytest.mark.parametrize("value", NOT_REAL_FOR_SPECTRAL)
@pytest.mark.parametrize("name", SPECTRAL)
def test_the_spectral_maps_refuse_a_bool_and_a_column_that_is_not_real(name, value):
    with pytest.raises(InvalidParameter):
        TENSOR_CASES[(name, "A")](SymTensor(1.0, NOT_REAL_FOR_SPECTRAL[value], 1.0))


@pytest.mark.parametrize("value, error", [(True, InvalidParameter), (math.nan, OutOfDomain)],
                         ids=["True", "nan"])
def test_the_census_refuses_a_bool_and_a_nan_component(value, error):
    # off the hot path, the census reads each stress component by the number rule
    with pytest.raises(error):
        fixed_points(RECIP, D, SymTensor(0.5, value))


def test_an_overflowing_tensor_component_has_an_infinite_norm():
    assert frobenius(HUGE) == frobenius(SymTensor(0.0, 0.0, 0.0, -10 ** 200)) == math.inf


def test_every_public_callable_is_in_the_table():
    public = {name for name, obj in vars(strainlim).items()
              if not name.startswith("_") and callable(obj)
              and not (isinstance(obj, type) and issubclass(obj, Exception))}
    covered = {name for name, _ in CASES} | {name for name, _ in TENSOR_CASES} | NO_SCALAR
    assert public - covered == set(), "add these to the number table or to NO_SCALAR"
    assert covered - public == set(), "these are no longer public"
