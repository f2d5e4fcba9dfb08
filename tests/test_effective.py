import numpy as np
import pytest

from microhom import (TorusGrid, build_cell_table, builtin_family,
                      effective_matrix, flux_corrector, vector_potential)
from microhom.effective import multilinear
from microhom.spectral import calculus


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
    vals = hom.at(pts)
    assert np.allclose(vals, hom.matrices.reshape(-1, 2, 2), atol=1e-14)


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
        expect = np.mean(neighbours, axis=0).reshape((-1, 2, 3))
        vals = multilinear(table, grid, mids)
        assert vals.shape == expect.shape
        assert np.allclose(vals, expect, rtol=0, atol=1e-15)
        # the last midpoint averages the final sample with the first one
        assert np.allclose(multilinear(table, grid, mids[-1:] + 1.0), expect[-1:],
                           rtol=0, atol=1e-15)


def test_resample_entry_matches_samples(smooth_2d):
    _, cells, hom = smooth_2d
    n = cells.slow_grid.n
    re = hom.resample_entry(0, 1, n)
    assert np.allclose(re, hom.matrices[..., 0, 1], atol=1e-12)


def test_flux_deviation_zero_for_constant():
    f = builtin_family("constant", {"matrix": [[1.7, 0.0], [0.0, 1.1]]})
    cells = build_cell_table(f, TorusGrid(2, 4), TorusGrid(2, 16))
    hom = effective_matrix(cells, f)
    fc = flux_corrector(cells, f, hom)
    assert np.abs(fc.deviation).max() < 1e-13


def test_flux_deviation_1d_vanishes():
    # in one dimension the microscopic flux is constant, so the deviation
    # is identically zero up to solver tolerance
    f = builtin_family("separable_1d", {})
    cells = build_cell_table(f, TorusGrid(1, 8), TorusGrid(1, 128), tol=1e-12)
    hom = effective_matrix(cells, f)
    fc = flux_corrector(cells, f, hom)
    assert np.abs(fc.deviation).max() < 1e-9


def test_flux_mean_zero_at_machine_precision(smooth_2d):
    field, cells, hom = smooth_2d
    fc = flux_corrector(cells, field, hom)
    means = fc.deviation.mean(axis=(-1, -2))
    assert np.abs(means).max() < 1e-13


def test_flux_divergence_free(smooth_2d):
    field, cells, hom = smooth_2d
    fc = flux_corrector(cells, field, hom)
    assert fc.div_defect < 1e-9


def test_potential_identities(smooth_2d):
    field, cells, hom = smooth_2d
    fc = flux_corrector(cells, field, hom)
    fc = vector_potential(fc, cells.cell_grid)
    assert fc.div_defect < 1e-8
    g = fc.potential_matrix((0, 0), 0)
    # skew symmetry holds bitwise by construction
    assert np.array_equal(g[0, 1], -g[1, 0])
    assert np.abs(g[0, 0]).max() == 0.0
    assert fc.potential_bound_ratio > 0
    gx = fc.grad_x_potential(0)
    assert gx.shape[2] == 2  # slow-derivative axis


def test_potential_zero_for_zero_deviation():
    f = builtin_family("constant", {"matrix": np.eye(2)})
    cells = build_cell_table(f, TorusGrid(2, 4), TorusGrid(2, 16))
    hom = effective_matrix(cells, f)
    fc = vector_potential(flux_corrector(cells, f, hom), cells.cell_grid)
    assert np.abs(fc.potential_upper).max() == 0.0


def test_potential_1d_is_empty_skew():
    f = builtin_family("separable_1d", {})
    cells = build_cell_table(f, TorusGrid(1, 4), TorusGrid(1, 64))
    hom = effective_matrix(cells, f)
    fc = vector_potential(flux_corrector(cells, f, hom), cells.cell_grid)
    assert fc.potential_upper.shape[-3] == 0 or fc.potential_upper.size == 0
    g = fc.potential_matrix((0,), 0)
    assert g.shape[:2] == (1, 1)
    assert np.abs(g).max() == 0.0


def test_adjoint_flux_uses_transposed_field(smooth_2d):
    field, cells, hom = smooth_2d
    fc_adj = flux_corrector(cells, field, hom, adjoint=True)
    # solenoidal and zero mean like the primal one
    assert np.abs(fc_adj.deviation.mean(axis=(-1, -2))).max() < 1e-13
    assert fc_adj.div_defect < 1e-9


def test_csv_export_shape(smooth_2d):
    _, cells, hom = smooth_2d
    text = hom.to_csv()
    lines = text.strip().split("\n")
    assert lines[0].startswith("x0,x1,a0_00")
    assert len(lines) == 1 + cells.slow_grid.size
