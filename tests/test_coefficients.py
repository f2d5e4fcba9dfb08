import numpy as np
import pytest

from microhom import builtin_family, validate_coefficient
from microhom.coefficients import CoefficientField

FAMILIES = [
    ("constant", {}),
    ("constant", {"matrix": [[2.0, 0.3], [0.1, 1.5]]}),
    ("separable_1d", {}),
    ("laminate_2d", {}),
    ("smooth_2d_nonsymmetric", {}),
    ("periodic_only", {"dim": 1}),
    ("periodic_only", {"dim": 2, "symmetric": False}),
]


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown"):
        builtin_family("nope", {})


def test_nonelliptic_parameters_rejected():
    with pytest.raises(ValueError):
        builtin_family("constant", {"matrix": [[1.0, 0.0], [0.0, -1.0]]})
    with pytest.raises(ValueError):
        builtin_family("separable_1d", {"y_amplitude": 2.5})


def test_constant_identity_metadata():
    f = builtin_family("constant", {"matrix": np.eye(1)})
    assert f.ellipticity == 1.0
    assert f.lipschitz_x == 0.0
    assert f.symmetric
    rep = validate_coefficient(f, 100)
    assert rep.passed
    assert rep.ellipticity_measured == pytest.approx(1.0)


def test_separable_default_form():
    f = builtin_family("separable_1d", {})
    x = np.array([[0.25]])
    y = np.array([[0.25]])
    # (2 + sin(pi/2)) * (1 + 0.5 sin(pi/2)) = 3 * 1.5
    assert f.eval(x, y)[0, 0, 0] == pytest.approx(4.5, abs=1e-12)


def test_separable_lambda_matches_dense_sampling():
    f = builtin_family("separable_1d", {})
    ys = np.linspace(0, 1, 4001)[:, None]
    xs = np.linspace(0, 1, 4001)[:, None]
    vals_y = f.eval(np.zeros_like(ys), ys)[:, 0, 0]
    vals = np.outer(1 + 0.5 * np.sin(2 * np.pi * xs[:, 0]),
                    2 + np.sin(2 * np.pi * ys[:, 0]))
    lo, hi = vals.min(), vals.max()
    assert f.ellipticity == pytest.approx(min(lo, 1.0 / hi), rel=1e-6)
    assert vals_y.min() >= f.ellipticity


@pytest.mark.parametrize("fam,params", FAMILIES)
def test_validation_passes_on_builtins(fam, params):
    f = builtin_family(fam, params)
    rep = validate_coefficient(f, 10_000, seed=3)
    assert rep.passed, rep.summary()


@pytest.mark.parametrize("fam,params", FAMILIES)
def test_exact_periodicity(fam, params):
    f = builtin_family(fam, params)
    rng = np.random.default_rng(0)
    pts = rng.integers(0, 2 ** 20, (50, f.dim)) / 2 ** 20
    y = rng.integers(0, 2 ** 20, (50, f.dim)) / 2 ** 20
    base = f.eval(pts, y)
    for ax in range(f.dim):
        e = np.zeros(f.dim)
        e[ax] = 1.0
        assert np.array_equal(f.eval(pts + e, y), base)
        assert np.array_equal(f.eval(pts, y + e), base)


def test_wrong_ellipticity_claim_fails_with_location():
    f = builtin_family("constant", {"matrix": [[2.0, 0.0], [0.0, 2.0]]})
    bad = CoefficientField(dim=2, evaluator=f.evaluator, ellipticity=3.0,
                           lipschitz_x=0.0, symmetric=True, name="bad-claim")
    rep = validate_coefficient(bad, 100)
    assert not rep.passed
    assert any("ellipticity" in msg and "x=" in msg for msg in rep.failures)


def test_wrong_lipschitz_claim_fails():
    f = builtin_family("separable_1d", {})
    bad = CoefficientField(dim=1, evaluator=f.evaluator, ellipticity=f.ellipticity,
                           lipschitz_x=1e-3, symmetric=True, name="bad-lip")
    rep = validate_coefficient(bad, 5000)
    assert not rep.passed


def test_transposed_field():
    f = builtin_family("smooth_2d_nonsymmetric", {})
    ft = f.transposed()
    rng = np.random.default_rng(1)
    x = rng.random((20, 2))
    y = rng.random((20, 2))
    assert np.array_equal(ft.eval(x, y), np.swapaxes(f.eval(x, y), -1, -2))


def test_symmetric_flag_is_exact():
    for fam, params in FAMILIES:
        f = builtin_family(fam, params)
        if not f.symmetric:
            continue
        rng = np.random.default_rng(2)
        x = rng.random((30, f.dim))
        y = rng.random((30, f.dim))
        a = f.eval(x, y)
        assert np.abs(a - np.swapaxes(a, -1, -2)).max() == 0.0
