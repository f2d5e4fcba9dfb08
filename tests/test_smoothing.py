import numpy as np
import pytest

from microhom import SmoothingSpec, TorusGrid, shift, steklov_op
from microhom.operators import h1_gram_op


def sine(grid, k=1):
    return np.sin(2 * np.pi * k * grid.axis_coords())


def l2(grid, u):
    return np.sqrt(grid.h ** grid.dim) * np.linalg.norm(u)


def steklov(u, grid, spec):
    return (steklov_op(grid, spec) @ u.ravel()).reshape(grid.shape)


def test_shift_zero_is_identity():
    g = TorusGrid(1, 64)
    u = sine(g)
    assert np.array_equal(shift(u, [0.0]), u)


def test_shift_full_period_is_identity():
    g = TorusGrid(1, 64)
    u = sine(g, 3)
    assert np.array_equal(shift(u, [1.0]), u)


def test_shift_is_isometry_and_exact_rotation():
    g = TorusGrid(2, 16)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(g.shape)
    v = shift(u, [3 * g.h, -5 * g.h])
    assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(u))
    assert np.array_equal(v, np.roll(u, (-3, 5), axis=(0, 1)))


def test_shift_off_grid_rejected():
    g = TorusGrid(1, 64)
    with pytest.raises(ValueError, match="not on the grid"):
        shift(sine(g), [0.3 * g.h])


def test_shift_first_order_bound_on_sine():
    # || u(. + eps w) - u || <= 2 |sin(pi eps w)| ||u|| <= 2 pi eps |w| ||u||
    # and ||grad u|| = 2 pi ||u||, so the quotient is below |w| (1 + h)
    n_f, k = 16, 8
    g = TorusGrid(1, n_f * k)
    eps = 1.0 / k
    u = sine(g)
    # the centered-difference gradient energy: u's H1 Gram form minus its L2 part
    grad_l2 = np.sqrt(g.h * (u @ (h1_gram_op(g).matvec(u) - u)))
    for steps in (1, 4, 8):
        w = steps / n_f - 0.5
        if abs(w) < 1e-12:
            continue
        offset = eps * w
        moved = shift(u, [round(offset / g.h) * g.h])
        diff = l2(g, moved - u)
        assert diff <= abs(w) * (1 + g.h) * eps * grad_l2 + 1e-12


@pytest.mark.parametrize("n_f,k", [(16, 8), (8, 16)])
def test_steklov_preserves_constants(n_f, k):
    g = TorusGrid(1, n_f * k)
    spec = SmoothingSpec(eps=1.0 / k, n_omega=n_f)
    u = np.full(g.shape, 2.5)
    assert np.allclose(steklov(u, g, spec), 2.5, atol=1e-14)


def test_steklov_weights_sum_to_one():
    spec = SmoothingSpec(eps=0.125, n_omega=8)
    for dim in (1, 2):
        _, _, w = spec.lattice(dim)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-14)


def test_steklov_contraction_on_random_fields():
    g = TorusGrid(1, 256)
    spec = SmoothingSpec(eps=1.0 / 16, n_omega=16)
    rng = np.random.default_rng(42)
    for _ in range(100):
        u = rng.standard_normal(g.shape)
        assert l2(g, steklov(u, g, spec)) <= l2(g, u) * (1 + 1e-14)


def test_steklov_sinc_multiplier():
    # on a pure mode the average acts as multiplication by sinc(pi eps);
    # the closed symmetric lattice reproduces it to O(n_f^-2)
    n_f, k = 16, 8
    g = TorusGrid(1, n_f * k)
    eps = 1.0 / k
    spec = SmoothingSpec(eps=eps, n_omega=n_f)
    u = sine(g)
    su = steklov(u, g, spec)
    ratio = su[10] / u[10]
    sinc = np.sin(np.pi * eps) / (np.pi * eps)
    quad_err = (2 * np.pi * eps) ** 2 / (8 * n_f ** 2)
    assert abs(ratio - sinc) <= quad_err
    assert np.allclose(su, ratio * u, atol=1e-12)


def test_steklov_second_order_rate():
    # || S u - u || = O(eps^2) on smooth modes: fitted slope >= 1.9
    n_f = 16
    errs, epss = [], []
    for k in (4, 8, 16, 32):
        g = TorusGrid(1, n_f * k)
        eps = 1.0 / k
        spec = SmoothingSpec(eps=eps, n_omega=n_f)
        u = sine(g)
        errs.append(l2(g, steklov(u, g, spec) - u))
        epss.append(eps)
    slope = np.polyfit(np.log(epss), np.log(errs), 1)[0]
    assert slope >= 1.9


def test_steklov_operator_is_selfadjoint_contraction():
    g = TorusGrid(2, 32)
    spec = SmoothingSpec(eps=0.25, n_omega=8)
    s = steklov_op(g, spec)
    assert abs(s - s.T).max() == 0.0
    assert np.linalg.norm(s.toarray(), 2) <= 1.0 + 1e-14


def test_grid_mismatch_rejected():
    g = TorusGrid(1, 60)   # 60/8 != 8 panels per eps-cell
    spec = SmoothingSpec(eps=0.125, n_omega=8)
    with pytest.raises(ValueError, match="mismatch"):
        steklov_op(g, spec)
