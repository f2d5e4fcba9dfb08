from dataclasses import replace

import numpy as np
import pytest

import microhom.effective
from microhom import (SolveError, TorusGrid, build_cell_table, builtin_family,
                      effective_matrix, flux_corrector, vector_potential)
from microhom.cell import make_solver
from microhom.grids import centered_diff, interp_matrix
from microhom.spectral import calculus
from microhom.sweep import matched_effective_matrix


@pytest.fixture(scope="module")
def smooth_2d():
    field = builtin_family("smooth_2d_nonsymmetric", {})
    cells = build_cell_table(field, TorusGrid(2, 4), TorusGrid(2, 64), tol=1e-12)
    hom = effective_matrix(cells, field)
    return field, cells, hom


def test_constant_field_effective_is_the_matrix():
    mat = [[2.0, 0.4], [0.1, 1.5]]
    f = builtin_family("constant", {"matrix": mat})
    cells = build_cell_table(f, TorusGrid(2, 4), TorusGrid(2, 16))
    hom = effective_matrix(cells, f)
    assert np.allclose(hom.matrices, np.asarray(mat), atol=1e-13)


def test_1d_harmonic_mean_oracle():
    f = builtin_family("separable_1d", {"x_amplitude": 0.0})
    cells = build_cell_table(f, TorusGrid(1, 4), TorusGrid(1, 256), tol=1e-12)
    hom = effective_matrix(cells, f)
    # independent quadrature oracle for the harmonic mean
    m = 2 ** 16
    ys = (np.arange(m) + 0.5) / m
    oracle = 1.0 / np.mean(1.0 / (2 + np.sin(2 * np.pi * ys)))
    assert abs(oracle - np.sqrt(3.0)) < 1e-10
    assert np.abs(hom.matrices - oracle).max() < 1e-8


def test_laminate_oracle_2d():
    params = {"alpha_lo": 1.0, "alpha_hi": 4.0, "beta_lo": 1.0, "beta_hi": 3.0}
    f = builtin_family("laminate_2d", params)
    cells = build_cell_table(f, TorusGrid(2, 4), TorusGrid(2, 128))
    hom = effective_matrix(cells, f)
    # classical laminate values from 1D quadrature of the phase profile
    m = 2 ** 14
    ys = (np.arange(m) + 0.5) / m
    alpha = np.where(ys < 0.5, 1.0, 4.0)
    beta = np.where(ys < 0.5, 1.0, 3.0)
    expect = np.diag([1.0 / np.mean(1.0 / alpha), np.mean(beta)])
    assert np.abs(hom.matrices[0, 0] - expect).max() < 1e-6


def test_modulated_laminate_scales_with_slow_factor():
    f = builtin_family("laminate_2d", {"x_amplitude": 0.3})
    cells = build_cell_table(f, TorusGrid(2, 8), TorusGrid(2, 32), tol=1e-11)
    hom = effective_matrix(cells, f)
    xs = cells.slow_grid.coords()
    scale = 1 + 0.3 * np.sin(2 * np.pi * xs[..., 0])
    expect = scale[..., None, None] * np.diag([1.6, 2.0])
    assert np.abs(hom.matrices - expect).max() < 1e-8
    assert hom.lipschitz_quotient > 0


def test_separable_slow_profile():
    f = builtin_family("separable_1d", {})
    cells = build_cell_table(f, TorusGrid(1, 16), TorusGrid(1, 128), tol=1e-12)
    hom = effective_matrix(cells, f)
    xs = cells.slow_grid.axis_coords()
    expect = np.sqrt(3.0) * (1 + 0.5 * np.sin(2 * np.pi * xs))
    assert np.abs(hom.matrices[:, 0, 0] - expect).max() < 1e-9


def test_periodic_only_constant_across_samples(smooth_2d=None):
    f = builtin_family("periodic_only", {"dim": 2, "symmetric": False})
    cells = build_cell_table(f, TorusGrid(2, 4), TorusGrid(2, 32), tol=1e-12)
    hom = effective_matrix(cells, f)
    spread = np.abs(hom.matrices - hom.matrices.reshape(-1, 2, 2)[0]).max()
    assert spread < 1e-10


def test_adjoint_duality_via_rerun(smooth_2d):
    field, cells, hom = smooth_2d
    ft = field.transposed()
    cells_t = build_cell_table(ft, cells.slow_grid, cells.cell_grid, tol=1e-12)
    hom_t = effective_matrix(cells_t, ft)
    assert np.abs(hom_t.matrices - np.swapaxes(hom.matrices, -1, -2)).max() < 1e-10
    assert hom.adjoint_defect < 1e-10


def test_effective_ellipticity_and_lipschitz_recorded(smooth_2d):
    field, cells, hom = smooth_2d
    for mat in hom.matrices.reshape(-1, 2, 2):
        sym = 0.5 * (mat + mat.T)
        assert np.linalg.eigvalsh(sym).min() >= field.ellipticity
    assert hom.lipschitz_quotient > 0


def test_multilinear_interpolation_at_samples(smooth_2d):
    _, cells, hom = smooth_2d
    pts = cells.slow_grid.coords().reshape(-1, 2)
    vals = interp_matrix(hom.slow_grid.n, pts) @ hom.matrices.reshape(-1, 4)
    assert np.allclose(vals, hom.matrices.reshape(-1, 4), atol=1e-14)


def test_multilinear_midpoints_average_neighbours():
    # midpoints between slow samples, including the ones that wrap past x = 1
    rng = np.random.default_rng(3)
    for d in (1, 2):
        grid = TorusGrid(d, 4)
        table = rng.standard_normal(grid.shape + (2, 3))
        mids = grid.coords().reshape(-1, d) + 0.5 * grid.h
        axes = tuple(range(d))
        neighbours = [np.roll(table, tuple(-np.array(s)), axis=axes)
                      for s in np.ndindex((2,) * d)]
        expect = np.mean(neighbours, axis=0).reshape((-1, 6))
        flat = table.reshape(grid.size, 6)
        # every row holds 2^d int32 corner entries that sum to 1
        mat = interp_matrix(grid.n, mids)
        assert mat.indices.dtype == np.int32 and np.all(np.diff(mat.indptr) == 2 ** d)
        assert np.abs(np.asarray(mat.sum(axis=1)) - 1.0).max() <= 1e-15
        vals = mat @ flat
        assert vals.shape == expect.shape
        assert np.allclose(vals, expect, rtol=0, atol=1e-15)
        # the last midpoint averages the final sample with the first one
        assert np.allclose(interp_matrix(grid.n, mids[-1:] + 1.0) @ flat, expect[-1:],
                           rtol=0, atol=1e-15)


def test_resample_entry_matches_samples(smooth_2d):
    _, cells, hom = smooth_2d
    n = cells.slow_grid.n
    re = hom.resample_entry(0, 1, n)
    assert np.allclose(re, hom.matrices[..., 0, 1], atol=1e-12)


def spectral_column(a, grad, j, grid):
    """Cell mean of the node flux a (e^j + grad chi^j), one einsum per cell
    (a in node-major memory: einsum sums in memory order)."""
    ej = np.zeros_like(grad)
    ej[j] = 1.0
    flux = np.einsum("...pq,q...->p...", np.ascontiguousarray(a), grad + ej)
    return flux.reshape(grid.dim, -1).mean(axis=1)


def fv_column(a_eval, values, j, grid):
    """Face-flux quadrature: diagonal entries at face midpoints with the
    two-point difference, off-diagonal ones at nodes with centered ones."""
    d, h = grid.dim, grid.h
    # node-major memory: numpy's means of products sum in memory order
    a_nodes = np.ascontiguousarray(a_eval(grid.coords()))
    col = np.zeros(d)
    for m in range(d):
        a_face = a_eval(grid.face_coords(m))[..., m, m]
        col[m] = (a_face * ((np.roll(values, -1, axis=m) - values) / h
                            + (1.0 if m == j else 0.0))).mean()
        for k in range(d):
            if k != m:
                dk = centered_diff(values, k, h)
                col[m] += (a_nodes[..., m, k] * (dk + (1.0 if k == j else 0.0))).mean()
    return col


def per_sample_columns(field, cells, adjoint=False):
    """Effective matrices of a table's stored solutions, sample by sample."""
    d, cell_grid = field.dim, cells.cell_grid
    fld = field.transposed() if adjoint else field
    chi, gy = cells.chi[int(adjoint)], cells.grad_y_chi[int(adjoint)]
    xs = cells.slow_grid.coords().reshape(-1, d)
    chi = chi.reshape((len(xs), d) + cell_grid.shape)
    gy = gy.reshape((len(xs), d, d) + cell_grid.shape)
    mats = np.zeros((len(xs), d, d))
    for i, x in enumerate(xs):
        for j in range(d):
            if cells.method == "fv":
                mats[i, :, j] = fv_column(fld.frozen(x), chi[i, j], j, cell_grid)
            else:
                mats[i, :, j] = spectral_column(fld.frozen(x)(cell_grid.coords()),
                                                gy[i, j], j, cell_grid)
    return mats.reshape(cells.slow_grid.shape + (d, d))


def matched_by_hand(field, slow_grid, n_f, tol):
    """Finite-volume effective matrix, one primal solve per sample and
    direction."""
    d = field.dim
    cell_grid = TorusGrid(d, n_f)
    xs = slow_grid.coords().reshape(-1, d)
    mats = np.zeros((len(xs), d, d))
    for i, x in enumerate(xs):
        solver = make_solver(field.frozen(x), cell_grid, tol, "fv")
        for j in range(d):
            mats[i, :, j] = fv_column(field.frozen(x), solver.solve_all(False)[0][j], j,
                                      cell_grid)
    return mats.reshape(slow_grid.shape + (d, d))


@pytest.mark.parametrize("family,params,n_f", [("smooth_2d_nonsymmetric", {}, 8),
                                               ("laminate_2d", {"x_amplitude": 0.3}, 8),
                                               ("smooth_2d_nonsymmetric", {}, 16)],
                         ids=["spectral", "fv", "fv-16"])
def test_table_columns_match_the_quadratures(monkeypatch, family, params, n_f):
    # the columns the solves return are the node-flux mean (spectral) and
    # the face quadrature (fv) of the stored solutions, bit for bit, and
    # effective_matrix reads them without building a solver; the matched
    # table, one block-diagonal factor, equals the per-sample solves
    field = builtin_family(family, params)
    slow, cell = TorusGrid(2, 4), TorusGrid(2, 32)
    cells = build_cell_table(field, slow, cell, tol=1e-11)
    a0 = per_sample_columns(field, cells)
    a0_adj = per_sample_columns(field, cells, adjoint=True)
    assert np.array_equal(cells.a0[0], a0)
    assert np.array_equal(cells.a0[1], a0_adj)

    def no_solver(*args, **kwargs):
        raise AssertionError("effective_matrix built a cell solver")
    monkeypatch.setattr(microhom.effective, "make_solver", no_solver)
    hom = effective_matrix(cells, field)
    assert np.array_equal(hom.matrices, a0)
    assert hom.adjoint_defect == np.abs(a0_adj - np.swapaxes(a0, -1, -2)).max()

    matched = matched_effective_matrix(field, slow, n_f, 1e-11)
    assert np.array_equal(matched.matrices, matched_by_hand(field, slow, n_f, 1e-11))


def test_matched_effective_matrix_is_checked():
    field = builtin_family("smooth_2d_nonsymmetric", {})
    slow = TorusGrid(2, 4)
    matched = matched_effective_matrix(field, slow, 8, 1e-11)
    assert matched.adjoint_defect <= 1e-14
    # the matched matrices' smallest eigenvalue is near 1.4: a field
    # claiming more than that is refused
    with pytest.raises(SolveError, match="ellipticity"):
        matched_effective_matrix(replace(field, ellipticity=2.0), slow, 8, 1e-11)


def test_flux_deviation_zero_for_constant():
    f = builtin_family("constant", {"matrix": [[1.7, 0.0], [0.0, 1.1]]})
    cells = build_cell_table(f, TorusGrid(2, 4), TorusGrid(2, 16))
    dev, _ = flux_corrector(cells, f)
    assert np.abs(dev).max() < 1e-13


def test_flux_deviation_1d_vanishes():
    # in one dimension the microscopic flux is constant, so the deviation
    # is identically zero up to solver tolerance
    f = builtin_family("separable_1d", {})
    cells = build_cell_table(f, TorusGrid(1, 8), TorusGrid(1, 128), tol=1e-12)
    dev, _ = flux_corrector(cells, f)
    assert np.abs(dev).max() < 1e-9


def test_flux_mean_zero_at_machine_precision(smooth_2d):
    field, cells, hom = smooth_2d
    dev, _ = flux_corrector(cells, field)
    assert dev.shape == (4, 4, 2, 2, 64, 64)
    assert np.abs(dev.mean(axis=(-1, -2))).max() < 1e-13


def test_flux_divergence_free(smooth_2d):
    field, cells, hom = smooth_2d
    _, div_defect = flux_corrector(cells, field)
    assert div_defect < 1e-9


def check_potential(cells, dev):
    """The skew potential of one deviation table: exactly skew, div G = g."""
    kept = dev.copy()
    pot, ratio, div_defect = vector_potential(dev, cells.cell_grid)
    assert np.array_equal(dev, kept)
    assert pot.shape == (4, 4, 2, 2, 2, 64, 64)
    # skew symmetry holds bitwise by construction, for every sample and j
    assert np.array_equal(pot, -np.swapaxes(pot, -4, -3))
    assert div_defect < 1e-8
    # div_y G^j = g^j, recomputed here one sample and direction at a time
    calc = calculus(cells.cell_grid.shape)
    w = cells.cell_grid.h ** 2
    for i in np.ndindex(4, 4):
        for j in range(2):
            div = np.stack([calc.div(pot[i + (j, p)]) for p in range(2)])
            assert np.sqrt(w * np.sum((div - dev[i + (j,)]) ** 2)) < 1e-8
    assert ratio > 0


def test_potential_identities(smooth_2d):
    field, cells, hom = smooth_2d
    check_potential(cells, flux_corrector(cells, field)[0])


def test_adjoint_potential_identities(smooth_2d):
    field, cells, hom = smooth_2d
    check_potential(cells, flux_corrector(cells, field, adjoint=True)[0])


def test_potential_zero_for_zero_deviation():
    f = builtin_family("constant", {"matrix": np.eye(2)})
    cells = build_cell_table(f, TorusGrid(2, 4), TorusGrid(2, 16))
    pot, ratio, _ = vector_potential(flux_corrector(cells, f)[0], cells.cell_grid)
    assert np.abs(pot).max() == 0.0
    assert ratio == 0.0


def test_potential_1d_is_empty_skew():
    # a 1 x 1 skew matrix is 0, and no divergence is measured
    f = builtin_family("separable_1d", {})
    cells = build_cell_table(f, TorusGrid(1, 4), TorusGrid(1, 64))
    dev, _ = flux_corrector(cells, f)
    pot, ratio, div_defect = vector_potential(dev, cells.cell_grid)
    assert pot.shape == (4, 1, 1, 1, 64)
    assert not pot.any()
    assert ratio == 0.0 and div_defect == 0.0


def test_potential_grid_must_match_the_deviation(smooth_2d):
    field, cells, hom = smooth_2d
    dev, _ = flux_corrector(cells, field)
    with pytest.raises(ValueError, match="do not match"):
        vector_potential(dev, TorusGrid(2, 32))


def test_adjoint_flux_uses_transposed_field(smooth_2d):
    field, cells, hom = smooth_2d
    dev_adj, div_defect = flux_corrector(cells, field, adjoint=True)
    # solenoidal and zero mean like the primal one
    assert np.abs(dev_adj.mean(axis=(-1, -2))).max() < 1e-13
    assert div_defect < 1e-9


def test_csv_export_shape(smooth_2d):
    _, cells, hom = smooth_2d
    text = hom.to_csv()
    lines = text.strip().split("\n")
    assert lines[0].startswith("x0,x1,a0_00")
    assert len(lines) == 1 + cells.slow_grid.size
