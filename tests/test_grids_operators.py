import numpy as np
import pytest
import scipy.sparse as sp

from microhom import GridFunction, SolveError, TorusGrid, norms
from microhom.grids import centered_diff, centered_gradient
from microhom.operators import (diff_matrix, h1_gram_op, matrix_op, operator_norm,
                                transpose_defect)
from microhom.spectral import calculus, trig_resample


def test_grid_nodes():
    g = TorusGrid(1, 8)
    assert g.h == 0.125
    assert np.allclose(g.axis_coords(), np.arange(8) / 8)
    g2 = TorusGrid(2, 4)
    assert g2.coords().shape == (4, 4, 2)
    assert g2.face_coords(1)[0, 0, 1] == pytest.approx(0.125)


def test_norms_constant():
    g = TorusGrid(1, 64)
    u = GridFunction(g, np.ones(g.shape))
    l2, h1 = norms(u)
    assert l2 == pytest.approx(1.0)
    assert h1 == pytest.approx(1.0)


def test_norms_sine_closed_form():
    # L2 = 1/sqrt(2) exactly on the grid; H1 matches the centered-difference
    # closed form exactly and the continuum value to O(h^2)
    g = TorusGrid(1, 512)
    x = g.axis_coords()
    u = GridFunction(g, np.sin(2 * np.pi * x))
    l2, h1 = norms(u)
    assert l2 == pytest.approx(1 / np.sqrt(2), abs=1e-13)
    mult = np.sin(2 * np.pi * g.h) / g.h
    assert h1 == pytest.approx(np.sqrt(0.5 + 0.5 * mult ** 2), abs=1e-12)
    assert h1 == pytest.approx(np.sqrt(0.5 + 2 * np.pi ** 2), rel=1e-3)


def test_norms_zero():
    g = TorusGrid(2, 16)
    assert norms(GridFunction.zeros(g)) == (0.0, 0.0)


def test_operator_norm_identity_and_diag():
    op = matrix_op(sp.identity(40))
    assert operator_norm(op, seed=1) == pytest.approx(1.0, rel=1e-6)
    dg = matrix_op(sp.diags(np.concatenate([np.full(20, 3.0), np.ones(20)])))
    assert operator_norm(dg, seed=1) == pytest.approx(3.0, rel=1e-5)


def test_operator_norm_matches_dense_svd():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((50, 50))
    op = matrix_op(m)
    ref = np.linalg.svd(m, compute_uv=False)[0]
    assert operator_norm(op, tol=1e-10, maxiter=5000, seed=2) == pytest.approx(ref, rel=1e-5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_operator_norm_rejects_non_finite(bad):
    # a broken operator must fail, not read as a zero (perfect) error
    op = matrix_op(sp.diags(np.full(20, bad)))
    with pytest.raises(SolveError, match="non-finite"):
        operator_norm(op, seed=1)


def test_operator_algebra_transposes():
    g = TorusGrid(2, 12)
    rng = np.random.default_rng(0)
    perm = np.roll(np.arange(g.size).reshape(g.shape), (3, -2), axis=(0, 1)).ravel()
    ops = {
        "roll": matrix_op(sp.identity(g.size, format="csr")[perm], grid=g),
        "grad0": matrix_op(diff_matrix(g, 0), grid=g),
        "diag": matrix_op(sp.diags(rng.random(g.size) + 0.5), grid=g),
        "gram": h1_gram_op(g),
    }
    comp = ops["roll"] @ ops["diag"] @ ops["grad0"]
    ops["composed"] = comp
    ops["sum"] = comp + 2.5 * ops["gram"]
    ops["transposed"] = comp.T
    for name, op in ops.items():
        assert transpose_defect(op, 5, seed=3) < 1e-13, name


def test_gradient_op_matches_dense_transpose():
    # n = 12: 1/(2h) is not a power of two, so the matrix entries round
    # differently from the grid helper's difference-then-scale
    for n in (8, 12):
        g = TorusGrid(2, n)
        gop = matrix_op(sp.vstack([diff_matrix(g, ax) for ax in range(2)]), grid=g)
        dense = gop.to_dense()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(g.size)
        y = rng.standard_normal(2 * g.size)
        assert np.allclose(gop.apply_transpose(y), dense.T @ y, atol=1e-13)
        assert np.allclose(gop.apply(x), dense @ x, atol=1e-13)
        v = x.reshape(g.shape)
        ref = centered_gradient(v, g.h).ravel()
        assert np.abs(gop.apply(x) - ref).max() <= 1e-14 * np.abs(ref).max()
        ref = v - sum(centered_diff(centered_diff(v, ax, g.h), ax, g.h) for ax in range(2))
        gram = h1_gram_op(g).apply(x)
        assert np.abs(gram - ref.ravel()).max() <= 1e-14 * np.abs(ref).max()


def test_trig_resample_exact_on_modes():
    n, m = 16, 48
    x = np.arange(n) / n
    vals = np.sin(2 * np.pi * 3 * x) + 0.5 * np.cos(2 * np.pi * 5 * x)
    out = trig_resample(vals, m)
    xt = np.arange(m) / m
    ref = np.sin(2 * np.pi * 3 * xt) + 0.5 * np.cos(2 * np.pi * 5 * xt)
    assert np.allclose(out, ref, atol=1e-13)
    shifted = trig_resample(vals, m, offset=[0.5 / m])
    ref_s = np.sin(2 * np.pi * 3 * (xt + 0.5 / m)) + 0.5 * np.cos(2 * np.pi * 5 * (xt + 0.5 / m))
    assert np.allclose(shifted, ref_s, atol=1e-13)


def test_trig_resample_2d():
    n, m = 8, 24
    g = TorusGrid(2, n)
    c = g.coords()
    vals = np.sin(2 * np.pi * c[..., 0]) * np.cos(2 * np.pi * 2 * c[..., 1])
    out = trig_resample(vals, m)
    gt = TorusGrid(2, m).coords()
    ref = np.sin(2 * np.pi * gt[..., 0]) * np.cos(2 * np.pi * 2 * gt[..., 1])
    assert np.allclose(out, ref, atol=1e-12)


def test_spectral_calculus_derivative():
    calc = calculus((64,))
    x = np.arange(64) / 64
    v = np.sin(2 * np.pi * x)
    dv = calc.grad(v)[0]
    assert np.allclose(dv, 2 * np.pi * np.cos(2 * np.pi * x), atol=1e-10)
    # poisson inverts -laplace on zero-mean data
    u = calc.poisson(4 * np.pi ** 2 * v)
    assert np.allclose(u, v, atol=1e-10)
