import numpy as np
import pytest
import scipy.sparse as sp

from microhom import SolveError, TorusGrid
from microhom.grids import centered_diff
from microhom.operators import (_NCV, DiscreteOperator, diff_matrix, h1_gram_op, matrix_op,
                                operator_norm, stencil_matrix, transpose_defect)
from microhom.spectral import calculus, trig_resample


def test_grid_nodes():
    g = TorusGrid(1, 8)
    assert g.h == 0.125
    assert np.allclose(g.axis_coords(), np.arange(8) / 8)
    g2 = TorusGrid(2, 4)
    assert g2.coords().shape == (4, 4, 2)
    assert g2.face_coords(1)[0, 0, 1] == pytest.approx(0.125)


def norms(grid, u):
    """L2 and H1 norms of node values u: sqrt(h^d) |u| and the quadratic
    form of the sweep's H1 Gram matrix, h^d u . (I - sum_m D_m D_m) u."""
    w = grid.h ** grid.dim
    u = u.ravel()
    return np.sqrt(w * (u @ u)), np.sqrt(w * (u @ h1_gram_op(grid).matvec(u)))


def test_norms_constant():
    g = TorusGrid(1, 64)
    l2, h1 = norms(g, np.ones(g.shape))
    assert l2 == pytest.approx(1.0)
    assert h1 == pytest.approx(1.0)


def test_norms_sine_closed_form():
    # L2 = 1/sqrt(2) exactly on the grid; H1 matches the centered-difference
    # closed form exactly and the continuum value to O(h^2)
    g = TorusGrid(1, 512)
    x = g.axis_coords()
    l2, h1 = norms(g, np.sin(2 * np.pi * x))
    assert l2 == pytest.approx(1 / np.sqrt(2), abs=1e-13)
    mult = np.sin(2 * np.pi * g.h) / g.h
    assert h1 == pytest.approx(np.sqrt(0.5 + 0.5 * mult ** 2), abs=1e-12)
    assert h1 == pytest.approx(np.sqrt(0.5 + 2 * np.pi ** 2), rel=1e-3)


def test_norms_zero():
    g = TorusGrid(2, 16)
    assert norms(g, np.zeros(g.shape)) == (0.0, 0.0)


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


def test_operator_norm_resolves_a_clustered_top():
    # sigma_k = 1 - (k - 1) 1e-6 for k <= 4: an iterate's change falls below
    # tol long before the start vector's sigma_2..4 components have decayed
    sig = np.concatenate([1.0 - 1e-6 * np.arange(4), np.linspace(0.7, 0.0, 296)])
    op = matrix_op(sp.diags(sig))
    assert abs(operator_norm(op, tol=1e-9, maxiter=2000, seed=3) - 1.0) <= 1e-9


def test_operator_norm_budget_exhaustion_raises():
    m = np.random.default_rng(6).standard_normal((100, 100))
    op = matrix_op(m)
    with pytest.raises(SolveError, match="within 5 applications"):
        operator_norm(op, tol=1e-12, maxiter=5, seed=1)


def test_operator_norm_stops_before_a_full_basis():
    # a clear gap at the top: the per-step stop ends long before the
    # 22 applications of a check made only once _NCV vectors are filled
    op = matrix_op(sp.diags(np.concatenate([[2.0], np.linspace(1.0, 0.0, 199)])))
    info = {}
    assert operator_norm(op, tol=1e-8, seed=1, info=info) == pytest.approx(2.0, rel=1e-8)
    assert info["applications"] < 22
    assert 0.0 <= info["residual"] <= 1e-8


def test_operator_norm_restarts_to_the_top_singular_value():
    # a top gap of 1e-3 relative needs more Lanczos steps than one basis holds
    sig = np.concatenate([1.0 - 1e-3 * np.arange(100), np.linspace(0.85, 0.0, 200)])
    q = np.linalg.qr(np.random.default_rng(8).standard_normal((300, 300)))[0]
    m = q * sig
    info = {}
    got = operator_norm(matrix_op(m), tol=1e-9, maxiter=2000, seed=2, info=info)
    assert info["applications"] > _NCV + 1
    assert abs(got - np.linalg.svd(m, compute_uv=False)[0]) <= 1e-9
    assert info["residual"] <= 1e-9


def test_operator_norm_budget_runs_out_after_a_restart():
    m = np.random.default_rng(6).standard_normal((100, 100))
    with pytest.raises(SolveError, match="within 30 applications"):
        operator_norm(matrix_op(m), tol=1e-14, maxiter=30, seed=1)


def test_operator_norm_counts_normal_applications():
    m = np.random.default_rng(6).standard_normal((100, 100))
    op = matrix_op(m)
    calls = []
    apply = op.apply
    op.apply = lambda x: calls.append(1) or apply(x)
    info = {}
    operator_norm(op, tol=1e-8, seed=1, info=info)
    assert info["applications"] == len(calls) > 0


@pytest.mark.parametrize("n", [12, 50])
def test_operator_norm_zero_operator(n):
    info = {}
    assert operator_norm(matrix_op(sp.csr_matrix((n, n))), seed=1, info=info) == 0.0
    assert info["applications"] == (n if n <= 20 else 1)


def test_operator_norm_dense_path_matches_svd():
    # n <= _NCV = 20 Lanczos vectors: the normal matrix is assembled
    m = np.random.default_rng(7).standard_normal((15, 12))
    ref = np.linalg.svd(m, compute_uv=False)[0]
    info = {}
    assert operator_norm(matrix_op(m), seed=2, info=info) == pytest.approx(ref, rel=1e-13)
    assert info["applications"] == 12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_operator_norm_rejects_non_finite(bad):
    # a broken operator must fail, not read as a zero (perfect) error
    op = matrix_op(sp.diags(np.full(20, bad)))
    with pytest.raises(SolveError, match="non-finite"):
        operator_norm(op, seed=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_transpose_defect_rejects_non_finite(bad):
    # max(defect, nan) keeps the defect: a broken operator would read as a perfect pairing
    n = 6
    eye = matrix_op(sp.identity(n, format="csr"), label="eye")
    broken = DiscreteOperator((n, n), lambda x: x, lambda y: np.full_like(y, bad), label="broken")
    assert transpose_defect([eye], 2, seed=0) == [0.0]
    with pytest.raises(SolveError, match="transpose_defect: non-finite values for broken"):
        transpose_defect([eye, broken], 2, seed=0)


@pytest.mark.parametrize("dim,n", [(1, 8), (1, 12), (2, 4), (2, 12), (2, 16)])
def test_h1_gram_stencil_equals_the_difference_products(dim, n):
    g = TorusGrid(dim, n)
    want = sp.identity(g.size, format="csr")
    for ax in range(dim):
        dm = diff_matrix(g, ax)
        want = want - dm @ dm
    got = h1_gram_op(g).matrix.copy()
    want.sort_indices()
    got.sort_indices()
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


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
    for name, d in zip(ops, transpose_defect(ops.values(), 5, seed=3)):
        assert d < 1e-13, name


def test_gradient_op_matches_dense_transpose():
    # n = 12: 1/(2h) is not a power of two, so the matrix entries round
    # differently from the grid helper's difference-then-scale
    for n in (8, 12):
        g = TorusGrid(2, n)
        gop = matrix_op(sp.vstack([diff_matrix(g, ax) for ax in range(2)]), grid=g)
        dense = gop @ np.eye(g.size)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(g.size)
        y = rng.standard_normal(2 * g.size)
        assert np.allclose(gop.rmatvec(y), dense.T @ y, atol=1e-13)
        assert np.allclose(gop.matvec(x), dense @ x, atol=1e-13)
        v = x.reshape(g.shape)
        ref = np.stack([centered_diff(v, ax, g.h) for ax in range(2)]).ravel()
        assert np.abs(gop.matvec(x) - ref).max() <= 1e-14 * np.abs(ref).max()
        ref = v - sum(centered_diff(centered_diff(v, ax, g.h), ax, g.h) for ax in range(2))
        gram = h1_gram_op(g).matvec(x)
        assert np.abs(gram - ref.ravel()).max() <= 1e-14 * np.abs(ref).max()


def test_stencil_merges_offsets_equal_modulo_the_grid():
    # +2 and -2 are one neighbour on 4 points: one stored entry per row
    mat = stencil_matrix(TorusGrid(1, 4), [[2], [-2]], [1.0, 2.0])
    assert np.array_equal(mat.indptr, np.arange(5))
    assert np.array_equal(mat.indices, (np.arange(4) + 2) % 4)
    assert np.array_equal(mat.data, np.full(4, 3.0))


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
    # the unmatched Nyquist mode is split over +-n/2: (-1)^j samples cos(pi n x)
    nyq = (-1.0) ** np.arange(n)
    for off in (0.0, 0.5 / m, 0.3):
        got = trig_resample(nyq, m, offset=[off])
        assert np.abs(got - np.cos(np.pi * n * (xt + off))).max() <= 1e-13
    # a constant comes back bit for bit, and a coarser target is refused
    assert np.array_equal(trig_resample(np.full(n, 1.7), m, offset=[0.3]), np.full(m, 1.7))
    with pytest.raises(ValueError, match="coarser"):
        trig_resample(vals, n - 1)


def test_trig_resample_2d():
    n, m = 8, 24
    g = TorusGrid(2, n)
    c = g.coords()
    vals = np.sin(2 * np.pi * c[..., 0]) * np.cos(2 * np.pi * 2 * c[..., 1])
    out = trig_resample(vals, m)
    gt = TorusGrid(2, m).coords()
    ref = np.sin(2 * np.pi * gt[..., 0]) * np.cos(2 * np.pi * 2 * gt[..., 1])
    assert np.allclose(out, ref, atol=1e-12)
    # the Nyquist corner (-1)^(j1 + j2) resamples to the product of the split modes
    nyq = (-1.0) ** np.indices((n, n)).sum(axis=0)
    for off in ([0.0, 0.0], [0.5 / m, 0.0], [0.1, 0.35]):
        got = trig_resample(nyq, m, offset=off)
        ref = np.prod(np.cos(np.pi * n * (gt + np.asarray(off))), axis=-1)
        assert np.abs(got - ref).max() <= 1e-13
    assert np.array_equal(trig_resample(np.full((n, n), -0.4), m, offset=[0.1, 0.35]),
                          np.full((m, m), -0.4))
    with pytest.raises(ValueError, match="coarser"):
        trig_resample(vals, n // 2)


def test_spectral_calculus_derivative():
    calc = calculus((64,))
    x = np.arange(64) / 64
    v = np.sin(2 * np.pi * x)
    dv = calc.grad(v)[0]
    assert np.allclose(dv, 2 * np.pi * np.cos(2 * np.pi * x), atol=1e-10)
    # poisson inverts -laplace on zero-mean data
    u = calc.poisson(4 * np.pi ** 2 * v)
    assert np.allclose(u, v, atol=1e-10)


@pytest.mark.parametrize("shape", [(256,), (64, 64)], ids=["1d", "2d"])
def test_pack_is_an_isometry_and_unpack_inverts_it(shape):
    # on masked, zero-mean fields the packed coordinates carry the grid l2
    # norm (Parseval), and unpack recovers both the spectrum and the field
    calc = calculus(shape)
    rng = np.random.default_rng(3)
    u = calc.inverse((calc.poisson_mult > 0) * calc.forward(rng.standard_normal((3,) + shape)))
    p = calc.pack(calc.forward(u))
    l2 = np.sqrt(np.sum(u ** 2, axis=tuple(range(1, u.ndim))))
    assert np.abs(np.linalg.norm(p, axis=1) - l2).max() <= 1e-14 * l2.max()
    assert np.abs(calc.inverse(calc.unpack(p)) - u).max() <= 1e-14 * np.abs(u).max()
    assert np.abs(calc.pack(calc.unpack(p)) - p).max() <= 1e-14 * np.abs(p).max()
    # the masked modes and the mean pack to zeros
    off = calc.unpack(np.ones(p.shape[-1])) == 0
    assert np.array_equal(off, calc.poisson_mult == 0)
    assert not calc.pack(np.where(off, calc.forward(rng.standard_normal(shape)), 0)).any()
    if len(shape) == 2:
        # the k_last = 0 plane holds a mode (3, 0) and its conjugate partner (-3, 0)
        y1 = np.arange(shape[0])[:, None] / shape[0] * np.ones(shape)
        v = np.cos(2 * np.pi * 3 * y1) + 0.5 * np.sin(2 * np.pi * 3 * y1)
        back = calc.inverse(calc.unpack(calc.pack(calc.forward(v))))
        assert np.abs(back - v).max() <= 1e-14 * np.abs(v).max()
