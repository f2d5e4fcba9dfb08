import numpy as np
import pytest

from microhom import (SolveError, TorusGrid, build_cell_table, builtin_family,
                      effective_matrix, load_cell_table, save_cell_table,
                      solve_adjoint_cell, solve_cell)
from microhom.cell import make_solver
from microhom.spectral import FourierCalculus


def test_identity_coefficient_gives_zero():
    f = builtin_family("constant", {"matrix": np.eye(2)})
    g = TorusGrid(2, 16)
    cf = solve_cell(f.frozen([0, 0]), 0, g)
    assert np.abs(cf.values).max() == 0.0
    assert np.abs(cf.grad).max() == 0.0


def test_1d_closed_form_solution():
    # coefficient 2 + sin(2 pi y): the cell derivative is hm/a - 1 with
    # hm the harmonic mean; compare the recovered solution against a
    # high-resolution quadrature of that closed form
    f = builtin_family("separable_1d", {"x_amplitude": 0.0})
    g = TorusGrid(1, 256)
    cf = solve_cell(f.frozen([0.0]), 0, g, tol=1e-12)

    m = 2 ** 15
    ys = (np.arange(m) + 0.5) / m
    a_fine = 2 + np.sin(2 * np.pi * ys)
    hm = 1.0 / np.mean(1.0 / a_fine)
    assert hm == pytest.approx(np.sqrt(3.0), abs=1e-9)
    deriv = hm / a_fine - 1.0
    anti = np.concatenate([[0.0], np.cumsum(deriv)])[:-1] / m  # values at k/m
    anti -= anti.mean()
    oracle = anti[:: m // 256]
    # midpoint-quadrature oracle vs the spectral solve
    assert np.abs(cf.values - oracle).max() < 1e-8
    a_nodes = 2 + np.sin(2 * np.pi * g.axis_coords())
    assert np.abs(cf.grad[0] - (hm / a_nodes - 1.0)).max() < 1e-9


def test_laminate_reduces_to_1d():
    f = builtin_family("laminate_2d", {})
    g = TorusGrid(2, 64)
    s = make_solver(f.frozen([0, 0]), g, 1e-11, "fv")
    cf1 = s.solve(0)
    cf2 = s.solve(1)
    # direction 2 sees a constant coefficient along y2: zero corrector
    assert np.abs(cf2.values).max() < 1e-12
    # direction 1 depends on y1 only
    assert np.abs(cf1.values - cf1.values[:, :1]).max() < 1e-12


def test_adjoint_equals_primal_on_transposed_field():
    f = builtin_family("smooth_2d_nonsymmetric", {})
    g = TorusGrid(2, 32)
    a_eval = f.frozen([0.3, 0.6])

    def a_eval_t(y):
        return np.swapaxes(a_eval(y), -1, -2)

    for j in range(2):
        adj = solve_adjoint_cell(a_eval, j, g, tol=1e-12)
        ref = solve_cell(a_eval_t, j, g, tol=1e-12)
        assert np.array_equal(adj.values, ref.values)


def test_adjoint_of_symmetric_is_identical():
    f = builtin_family("periodic_only", {"dim": 2, "symmetric": True})
    g = TorusGrid(2, 32)
    a_eval = f.frozen([0, 0])
    p = solve_cell(a_eval, 1, g, tol=1e-12)
    q = solve_adjoint_cell(a_eval, 1, g, tol=1e-12)
    assert np.array_equal(p.values, q.values)


def test_zero_mean_and_energy_bound():
    f = builtin_family("smooth_2d_nonsymmetric", {})
    g = TorusGrid(2, 32)
    cf = solve_cell(f.frozen([0.1, 0.9]), 0, g, tol=1e-11)
    assert abs(cf.values.mean()) < 1e-13
    w = g.h ** 2
    gnorm = np.sqrt(w * np.sum(cf.grad ** 2))
    assert gnorm <= np.sqrt(2) / f.ellipticity ** 2


def test_residual_reported_below_tolerance():
    f = builtin_family("separable_1d", {})
    g = TorusGrid(1, 128)
    cf = solve_cell(f.frozen([0.37]), 0, g, tol=1e-11)
    assert cf.residual <= 1e-10


def test_fv_grid_convergence_second_order():
    # the FV discretization of a smooth 1D cell recovers the effective
    # value at O(h^2); fitted order over three dyadic grids >= 1.8
    f = builtin_family("separable_1d", {"x_amplitude": 0.0})
    a_eval = f.frozen([0.0])
    errs, hs = [], []
    for n in (16, 32, 64, 128):
        g = TorusGrid(1, n)
        s = make_solver(a_eval, g, 1e-12, "fv")
        cf = s.solve(0)
        a0 = s.effective_column(cf, 0)[0]
        errs.append(abs(a0 - np.sqrt(3.0)))
        hs.append(g.h)
    fit = np.polyfit(np.log(hs), np.log(errs), 1)
    assert fit[0] >= 1.8
    assert errs[-1] < errs[0]


def test_build_table_periodic_only_has_zero_slow_gradient():
    f = builtin_family("periodic_only", {"dim": 2})
    cells = build_cell_table(f, TorusGrid(2, 4), TorusGrid(2, 16), tol=1e-11)
    assert np.abs(cells.grad_x_chi).max() == 0.0
    assert np.abs(cells.grad_x_chi_adj).max() == 0.0
    assert cells.lipschitz_quotient == 0.0


def test_build_table_constant_family_all_zero():
    f = builtin_family("constant", {"matrix": [[1.5, 0.2], [0.2, 1.1]]})
    cells = build_cell_table(f, TorusGrid(2, 4), TorusGrid(2, 16))
    for arr in (cells.chi, cells.grad_y_chi, cells.chi_adj,
                cells.grad_y_chi_adj, cells.grad_x_chi, cells.grad_x_chi_adj):
        assert np.abs(arr).max() == 0.0


def test_lipschitz_quotient_stable_across_slow_resolutions():
    f = builtin_family("separable_1d", {})
    cell = TorusGrid(1, 64)
    q1 = build_cell_table(f, TorusGrid(1, 16), cell).lipschitz_quotient
    q2 = build_cell_table(f, TorusGrid(1, 32), cell).lipschitz_quotient
    assert q2 == pytest.approx(q1, rel=0.10)


def count_operator_applications(monkeypatch):
    # every application of a spectral cell operator takes one gradient
    calls = [0]
    grad = FourierCalculus.grad

    def counted(self, values):
        calls[0] += 1
        return grad(self, values)
    monkeypatch.setattr(FourierCalculus, "grad", counted)
    return calls


def test_spectral_solve_stops_at_roundoff_floor(monkeypatch):
    # at n_y = 256 the FFT roundoff floor sits near tol = 1e-12; the solve
    # must stop there instead of restarting lgmres until maxiter
    f = builtin_family("separable_1d", {})
    calls = count_operator_applications(monkeypatch)
    cf = solve_cell(f.frozen([0.37]), 0, TorusGrid(1, 256), tol=1e-12)
    assert calls[0] <= 100
    assert cf.residual <= 10 * 1e-12


def test_unreachable_tolerance_raises(monkeypatch):
    f = builtin_family("separable_1d", {})
    calls = count_operator_applications(monkeypatch)
    with pytest.raises(SolveError, match="residual"):
        solve_cell(f.frozen([0.37]), 0, TorusGrid(1, 256), tol=1e-15)
    assert calls[0] <= 100


@pytest.mark.parametrize("family", ["separable_1d", "smooth_2d_nonsymmetric"])
def test_batched_table_matches_per_direction_solves(family):
    f = builtin_family(family, {})
    slow, cell = TorusGrid(f.dim, 4), TorusGrid(f.dim, 32)
    cells = build_cell_table(f, slow, cell, tol=1e-12)
    xs = slow.coords().reshape(-1, f.dim)
    chi = cells.chi.reshape((len(xs), f.dim) + cell.shape)
    chi_a = cells.chi_adj.reshape((len(xs), f.dim) + cell.shape)
    for i, x in enumerate(xs):
        for j in range(f.dim):
            ref = solve_cell(f.frozen(x), j, cell, tol=1e-12)
            ref_a = solve_adjoint_cell(f.frozen(x), j, cell, tol=1e-12)
            assert np.abs(chi[i, j] - ref.values).max() <= 1e-13
            assert np.abs(chi_a[i, j] - ref_a.values).max() <= 1e-13


@pytest.mark.parametrize("family,n_y", [("smooth_2d_nonsymmetric", 16),
                                        ("laminate_2d", 64)],
                         ids=["smooth_2d_nonsymmetric", "laminate_2d"])
def test_save_load_roundtrip(tmp_path, family, n_y):
    f = builtin_family(family, {})
    cells = build_cell_table(f, TorusGrid(2, 4), TorusGrid(2, n_y))
    path = tmp_path / "cells.bin"
    save_cell_table(path, cells)
    loaded = load_cell_table(path)
    assert loaded.family == cells.family
    assert loaded.method == cells.method == f.cell_method
    assert loaded.slow_grid == cells.slow_grid
    assert loaded.cell_grid == cells.cell_grid
    for attr in ("chi", "grad_y_chi", "chi_adj", "grad_y_chi_adj",
                 "grad_x_chi", "grad_x_chi_adj"):
        assert np.array_equal(getattr(loaded, attr), getattr(cells, attr)), attr
    assert loaded.residual_max == cells.residual_max
    assert loaded.lipschitz_quotient == cells.lipschitz_quotient
    assert np.array_equal(effective_matrix(loaded, f).matrices,
                          effective_matrix(cells, f).matrices)


def test_load_rejects_wrong_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOTATABLE" + b"\0" * 100)
    with pytest.raises(ValueError, match="not a cell table"):
        load_cell_table(p)


def test_bad_direction_rejected():
    f = builtin_family("separable_1d", {})
    with pytest.raises(ValueError, match="direction"):
        solve_cell(f.frozen([0.0]), 1, TorusGrid(1, 32))
