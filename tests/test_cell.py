import re
import struct
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import microhom.cell
from microhom import (SolveError, TorusGrid, build_cell_table, builtin_family,
                      effective_matrix, load_cell_table, save_cell_table)
from microhom.assemble import assemble_diffusion
from microhom.cell import _LGMRES_CALLS, SpectralCellSolver, flux_operator, make_solver
from microhom.grids import centered_diff
from microhom.spectral import calculus


def test_identity_coefficient_gives_zero():
    f = builtin_family("constant", {"matrix": np.eye(2)})
    g = TorusGrid(2, 16)
    values, grads, _, _ = make_solver(f.frozen([0, 0]), g, 1e-11, "spectral").solve_all(False)
    assert np.abs(values[0]).max() == 0.0
    assert np.abs(grads[0]).max() == 0.0


def test_1d_closed_form_solution():
    # coefficient 2 + sin(2 pi y): the cell derivative is hm/a - 1 with
    # hm the harmonic mean; compare the recovered solution against a
    # high-resolution quadrature of that closed form
    f = builtin_family("separable_1d", {"x_amplitude": 0.0})
    g = TorusGrid(1, 256)
    values, grads, _, _ = make_solver(f.frozen([0.0]), g, 1e-12, "spectral").solve_all(False)

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
    assert np.abs(values[0] - oracle).max() < 1e-8
    a_nodes = 2 + np.sin(2 * np.pi * g.axis_coords())
    assert np.abs(grads[0, 0] - (hm / a_nodes - 1.0)).max() < 1e-9


def test_laminate_reduces_to_1d():
    f = builtin_family("laminate_2d", {})
    g = TorusGrid(2, 64)
    values = make_solver(f.frozen([0, 0]), g, 1e-11, "fv").solve_all(adjoint=False)[0]
    # direction 2 sees a constant coefficient along y2: zero corrector
    assert np.abs(values[1]).max() < 1e-12
    # direction 1 depends on y1 only
    assert np.abs(values[0] - values[0][:, :1]).max() < 1e-12
    # on a stack of samples, direction 2's right-hand side is exactly zero:
    # chi and the residual are exactly 0, with no 0/0 on the way
    xs = TorusGrid(2, 2).coords().reshape(-1, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        along = make_solver(builtin_family("laminate_2d", {"x_amplitude": 0.3}).frozen(xs),
                            g, 1e-11, "fv").solve_all(adjoint=True)
    values, grads, residuals, _ = (arr[1::2] for arr in along)
    assert values.shape == (2, 4) + g.shape
    assert not values.any() and not grads.any() and not residuals.any()


def test_adjoint_equals_primal_on_transposed_field():
    f = builtin_family("smooth_2d_nonsymmetric", {})
    g = TorusGrid(2, 32)
    a_eval = f.frozen([0.3, 0.6])

    def a_eval_t(y):
        return np.swapaxes(a_eval(y), -1, -2)

    # the adjoint blocks of one batched solve against the transposed coefficient alone
    adj = make_solver(a_eval, g, 1e-12, "spectral").solve_all(adjoint=True)[0][2:]
    ref = make_solver(a_eval_t, g, 1e-12, "spectral").solve_all(adjoint=False)[0]
    for j in range(2):
        assert np.abs(adj[j] - ref[j]).max() <= 1e-13


def test_adjoint_of_symmetric_is_identical():
    f = builtin_family("periodic_only", {"dim": 2, "symmetric": True})
    g = TorusGrid(2, 32)
    p, q = (make_solver(fld.frozen([0, 0]), g, 1e-12, "spectral").solve_all(False)[0][1]
            for fld in (f, f.transposed()))
    assert np.array_equal(p, q)


def test_zero_mean_and_energy_bound():
    f = builtin_family("smooth_2d_nonsymmetric", {})
    g = TorusGrid(2, 32)
    values, grads, _, _ = make_solver(f.frozen([0.1, 0.9]), g, 1e-11, "spectral").solve_all(False)
    assert abs(values[0].mean()) < 1e-13
    w = g.h ** 2
    gnorm = np.sqrt(w * np.sum(grads[0] ** 2))
    assert gnorm <= np.sqrt(2) / f.ellipticity ** 2


def test_residual_reported_below_tolerance():
    f = builtin_family("separable_1d", {})
    g = TorusGrid(1, 128)
    residuals = make_solver(f.frozen([0.37]), g, 1e-11, "spectral").solve_all(False)[2]
    assert residuals[0] <= 1e-10


def test_fv_grid_convergence_second_order():
    # the FV discretization of a smooth 1D cell recovers the effective
    # value at least at O(h^2): each halving of h cuts the error by 3.5x or
    # more, unless it is already at roundoff (no log of an exact 0)
    f = builtin_family("separable_1d", {"x_amplitude": 0.0})
    a_eval = f.frozen([0.0])
    errs = []
    for n in (16, 32, 64, 128):
        a0 = make_solver(a_eval, TorusGrid(1, n), 1e-12, "fv").solve_all(False)[3][0, 0]
        errs.append(abs(a0 - np.sqrt(3.0)))
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= coarse / 3.5 or fine <= 1e-14, errs
    assert errs[-1] < errs[0]


def test_build_table_periodic_only_has_zero_slow_gradient():
    f = builtin_family("periodic_only", {"dim": 2})
    cells = build_cell_table(f, TorusGrid(2, 4), TorusGrid(2, 16), tol=1e-11)
    for table in cells.chi:
        assert np.abs(np.roll(table, 1, axis=0) - table).max() == 0.0
        assert np.abs(np.roll(table, 1, axis=1) - table).max() == 0.0
    assert cells.lipschitz_quotient == 0.0


def test_build_table_constant_family_all_zero():
    f = builtin_family("constant", {"matrix": [[1.5, 0.2], [0.2, 1.1]]})
    cells = build_cell_table(f, TorusGrid(2, 4), TorusGrid(2, 16))
    for arr in (cells.chi, cells.grad_y_chi):
        assert np.abs(arr).max() == 0.0


def test_lipschitz_quotient_stable_across_slow_resolutions():
    f = builtin_family("separable_1d", {})
    cell = TorusGrid(1, 64)
    q1 = build_cell_table(f, TorusGrid(1, 16), cell).lipschitz_quotient
    q2 = build_cell_table(f, TorusGrid(1, 32), cell).lipschitz_quotient
    assert q2 == pytest.approx(q1, rel=0.10)


def count_operator_applications(monkeypatch):
    # (applications, lgmres calls) per shape of the operator handed to lgmres
    # (the cell solver looks lgmres up at call time)
    applications, calls = Counter(), Counter()
    lgmres = spla.lgmres

    def counted(A, b, **kwargs):
        A = spla.aslinearoperator(A)
        calls[A.shape] += 1

        def matvec(x):
            applications[A.shape] += 1
            return A.matvec(x)
        return lgmres(spla.LinearOperator(A.shape, matvec=matvec, dtype=A.dtype), b, **kwargs)
    monkeypatch.setattr(spla, "lgmres", counted)
    return applications, calls


def packed_system_shape(shape, blocks):
    calc = calculus(shape)
    size = blocks * calc.pack(np.zeros(calc.poisson_mult.shape, dtype=complex)).shape[-1]
    return (size, size)


def test_spectral_solve_stops_at_roundoff_floor(monkeypatch):
    # at n_y = 256, tol = 1e-12 lies near the FFT roundoff floor; the solve
    # must stop there instead of restarting lgmres until maxiter
    f = builtin_family("separable_1d", {})
    applications, _ = count_operator_applications(monkeypatch)
    solver = make_solver(f.frozen([0.37]), TorusGrid(1, 256), 1e-12, "spectral")
    residuals = solver.solve_all(adjoint=False)[2]
    assert 0 < sum(applications.values()) <= 100
    assert residuals[0] <= 10 * 1e-12


def test_unreachable_tolerance_raises(monkeypatch):
    f = builtin_family("separable_1d", {})
    applications, _ = count_operator_applications(monkeypatch)
    with pytest.raises(SolveError, match="residual"):
        make_solver(f.frozen([0.37]), TorusGrid(1, 256), 1e-15, "spectral").solve_all(False)
    assert 0 < sum(applications.values()) <= 100


@pytest.mark.parametrize("amplitude", [0.02, 0.6])
def test_spectral_solve_reaches_tol_beside_a_high_mode(monkeypatch, amplitude):
    # a y1-mode 20 term, resolved on 64 points, beside the smooth part of
    # the coefficient: the primal and adjoint directions must reach tol
    # within the lgmres call budget
    g = TorusGrid(2, 64)
    y1, y2 = np.moveaxis(g.coords(), -1, 0)
    s = 2.0 + 0.3 * np.sin(2 * np.pi * (y1 + 2 * y2)) + amplitude * np.cos(2 * np.pi * 20 * y1)
    skew = 0.2 * np.cos(2 * np.pi * y2)[..., None, None] * np.array([[0.0, 1.0], [-1.0, 0.0]])
    a = s[..., None, None] * np.eye(2) + skew
    applications, calls = count_operator_applications(monkeypatch)
    residuals = SpectralCellSolver(a, g, 1e-11).solve_all(adjoint=True)[2]
    fine = packed_system_shape(g.shape, 4)
    assert applications[fine] > 0
    assert calls[fine] < _LGMRES_CALLS
    assert residuals.max() <= 1e-11


def test_1d_acceptance_cells_reach_tol():
    # the 1D acceptance grids: every cell solve reaches cell_tol = 1e-12
    # (an iteration on grid values stopped at a floor of 3.9e-12 here)
    f = builtin_family("separable_1d", {})
    cells = build_cell_table(f, TorusGrid(1, 64), TorusGrid(1, 256), tol=1e-12)
    assert cells.residual_max <= 1e-12


def test_flux_operator_matches_grid_calculus():
    # the Fourier-space operator the Krylov solve iterates on is
    # -div(a grad .) of the grid calculus, on masked zero-mean fields
    f = builtin_family("smooth_2d_nonsymmetric", {})
    g = TorusGrid(2, 32)
    calc = calculus(g.shape)
    a = np.stack([f.frozen(x)(g.coords()) for x in ([0.1, 0.9], [0.6, 0.3])])
    a = np.ascontiguousarray(np.moveaxis(a, (-2, -1), (1, 2)))      # (B, d, d, *cell)
    x = calc.poisson(np.random.default_rng(5).standard_normal((2,) + g.shape))
    ref = -calc.div(np.sum(a * calc.grad(x)[:, None], axis=2))
    out = calc.inverse(flux_operator(calc, a)(calc.forward(x)))
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_tables_do_not_depend_on_earlier_solves():
    # no warm start or state carries over between solves: a table is the
    # same bit for bit whatever was solved before it
    f = builtin_family("smooth_2d_nonsymmetric", {})
    other = builtin_family("smooth_2d_nonsymmetric", {"skew": 0.1})
    slow, cell = TorusGrid(2, 4), TorusGrid(2, 16)
    first = build_cell_table(f, slow, cell, tol=1e-11)
    build_cell_table(other, slow, cell, tol=1e-11)
    make_solver(other.frozen([0.5, 0.5]), cell, 1e-12, "spectral").solve_all(adjoint=True)
    second = build_cell_table(f, slow, cell, tol=1e-11)
    for attr in ("chi", "grad_y_chi", "a0"):
        assert np.array_equal(getattr(first, attr), getattr(second, attr)), attr
    assert first.residual_max == second.residual_max


@pytest.mark.parametrize("family,params", [("laminate_2d", {"x_amplitude": 0.3}),
                                           ("smooth_2d_nonsymmetric", {})])
def test_split_fv_table_equals_the_one_group_table(monkeypatch, family, params):
    # a cap of five samples' unknowns splits 16 samples into groups of 5, 5,
    # 5 and 1: every block factor is its sample's own, so the table is the
    # one-group table bit for bit
    f = replace(builtin_family(family, params), cell_method="fv")
    slow, cell = TorusGrid(2, 4), TorusGrid(2, 16)
    whole = build_cell_table(f, slow, cell, tol=1e-11)
    factored = []
    splu = spla.splu

    def counted(mat, **kwargs):
        factored.append(mat.shape[0] // cell.size)
        return splu(mat, **kwargs)
    monkeypatch.setattr(spla, "splu", counted)
    monkeypatch.setattr(microhom.cell, "_GROUP_UNKNOWNS", 5 * cell.size)
    split = build_cell_table(f, slow, cell, tol=1e-11)
    assert factored == [5, 5, 5, 1]
    for attr in ("chi", "grad_y_chi", "a0", "residual_max", "lipschitz_quotient"):
        assert np.array_equal(getattr(split, attr), getattr(whole, attr)), attr
    # a symmetric field's one family fills both slots
    assert not f.symmetric or all(np.array_equal(t[0], t[1])
                                  for t in (split.chi, split.grad_y_chi, split.a0))

    # the residual the solver reads off its flux is that of the assembled
    # matrix, A(a)^T for the adjoint, and of the divergence of a e^j
    solver = make_solver(f.frozen(slow.coords().reshape(-1, 2)), cell, 1e-11, "fv")
    v = np.random.default_rng(3).standard_normal(solver.lead + (2,) + cell.shape)
    mat = assemble_diffusion(cell, solver.faces, solver.a)
    for adjoint, a in ((False, solver.a), (True, np.swapaxes(solver.a, -1, -2))):
        got = solver.div_residual(v, None, adjoint)
        for j in range(2):
            b = fv_rhs(cell, solver.faces, a, j).reshape(-1)
            ref = ((mat.T if adjoint else mat) @ v[:, j].reshape(-1) - b).reshape(-1, cell.size)
            assert np.linalg.norm(got[:, j] - ref) <= 1e-12 * np.linalg.norm(ref)


def fv_rhs(grid, faces, nodes, j):
    """div of a e^j as the finite-volume scheme discretizes it: the backward
    difference of the face a_jj plus centered ones of the node a_mj."""
    d, h = grid.dim, grid.h
    out = (faces[j] - np.roll(faces[j], 1, axis=j - d)) / h
    for m in range(d):
        if m != j:
            out = out + centered_diff(nodes[..., m, j], m - d, h)
    return out


@pytest.mark.parametrize("method", ["spectral", "fv"])
def test_failing_adjoint_cell_solve_is_named(monkeypatch, method):
    # a failure in an adjoint block says so and names its sample; a primal
    # failure keeps the plain message (test_unreachable_tolerance_raises)
    f = builtin_family("smooth_2d_nonsymmetric", {})
    cell = TorusGrid(2, 16)
    if method == "spectral":
        solver = make_solver(f.frozen([0.3, 0.6]), cell, 1e-11, "spectral")
        krylov = solver._krylov

        def stalled_adjoint(a, rhs):
            spec, res = krylov(a, rhs)
            return spec, np.where(np.arange(len(res)) >= 2, 1.0, res)
        monkeypatch.setattr(solver, "_krylov", stalled_adjoint)
        with pytest.raises(SolveError, match=r"cell solve \(spectral, adjoint, j=0\)"):
            solver.solve_all(adjoint=True)
        return
    solver = make_solver(f.frozen(TorusGrid(2, 2).coords().reshape(-1, 2)), cell, 1e-11, "fv")
    lu = solver.lu

    class ForwardOnly:
        # the factor's own solves, except that sample 2 of a transposed
        # solve comes back zero
        def solve(self, rhs, trans="N"):
            x = lu.solve(rhs, trans=trans)
            if trans == "T":
                x[2 * cell.size:3 * cell.size] = 0.0
            return x
    solver._lu = ForwardOnly()
    assert solver.solve_all(adjoint=False)[2].max() <= 1e-11
    with pytest.raises(SolveError, match=r"cell solve \(fv, adjoint, j=0\) residual") as exc:
        solver.solve_all(adjoint=True)
    assert exc.value.sample == 2


@pytest.mark.parametrize("family", ["separable_1d", "smooth_2d_nonsymmetric"])
def test_batched_table_matches_per_direction_solves(family):
    f = builtin_family(family, {})
    slow, cell = TorusGrid(f.dim, 4), TorusGrid(f.dim, 32)
    cells = build_cell_table(f, slow, cell, tol=1e-12)
    xs = slow.coords().reshape(-1, f.dim)
    chi = cells.chi.reshape((2, len(xs), f.dim) + cell.shape)
    # a symmetric field's one family fills both slots
    assert not f.symmetric or all(np.array_equal(t[0], t[1])
                                  for t in (cells.chi, cells.grad_y_chi, cells.a0))
    for i, x in enumerate(xs):
        # family 1: the primal directions of the transposed field
        for fam, fld in enumerate((f, f.transposed())):
            ref = make_solver(fld.frozen(x), cell, 1e-12, f.cell_method).solve_all(False)[0]
            for j in range(f.dim):
                assert np.abs(chi[fam, i, j] - ref[j]).max() <= 1e-13


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
    for attr in ("chi", "grad_y_chi", "a0"):
        assert np.array_equal(getattr(loaded, attr), getattr(cells, attr)), attr
    assert loaded.residual_max == cells.residual_max
    assert loaded.lipschitz_quotient == cells.lipschitz_quotient
    assert np.array_equal(effective_matrix(loaded, f).matrices,
                          effective_matrix(cells, f).matrices)


def test_container_writes_the_primal_family_first(tmp_path):
    # CELLTBL4 after its 120-byte header: chi and grad_y_chi of family 0, those
    # of family 1, then a0 of both, each in C order
    f = builtin_family("smooth_2d_nonsymmetric", {})
    cells = build_cell_table(f, TorusGrid(2, 4), TorusGrid(2, 16))
    path = tmp_path / "cells.bin"
    save_cell_table(path, cells)
    order = (cells.chi[0], cells.grad_y_chi[0], cells.chi[1], cells.grad_y_chi[1],
             cells.a0[0], cells.a0[1])
    assert not np.array_equal(cells.chi[0], cells.chi[1])
    assert path.read_bytes()[120:] == b"".join(np.ascontiguousarray(a, "<f8").tobytes()
                                               for a in order)


def test_load_rejects_wrong_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOTATABLE" + b"\0" * 100)
    with pytest.raises(ValueError, match="not a cell table"):
        load_cell_table(p)


def test_load_rejects_previous_container(tmp_path):
    # CELLTBL3 tables lack the effective columns; they must be rebuilt
    f = builtin_family("separable_1d", {})
    path = tmp_path / "cells.bin"
    save_cell_table(path, build_cell_table(f, TorusGrid(1, 4), TorusGrid(1, 16)))
    path.write_bytes(b"CELLTBL3" + path.read_bytes()[8:])
    with pytest.raises(ValueError, match="CELLTBL4"):
        load_cell_table(path)


def test_load_rejects_trailing_bytes(tmp_path):
    f = builtin_family("separable_1d", {})
    path = tmp_path / "cells.bin"
    save_cell_table(path, build_cell_table(f, TorusGrid(1, 4), TorusGrid(1, 16)))
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(ValueError, match=f"cells.bin: expected {size} bytes, found {size + 8}"):
        load_cell_table(path)


def test_load_rejects_truncated_container(tmp_path):
    f = builtin_family("separable_1d", {})
    path = tmp_path / "cells.bin"
    save_cell_table(path, build_cell_table(f, TorusGrid(1, 4), TorusGrid(1, 16)))
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match=f"cells.bin: expected {size} bytes, found {size - 8}"):
        load_cell_table(path)
    path.write_bytes(path.read_bytes()[:50])
    with pytest.raises(ValueError, match="cells.bin: expected at least 120 bytes, found 50"):
        load_cell_table(path)


@pytest.mark.parametrize("offset,patch,msg", [
    (72, b"krylov\0\0", "unknown cell method 'krylov'"),
    (72, b"\xff" * 8, "can't decode"),
    (8, b"\xfe\xff", "can't decode"),
    (80, struct.pack("<q", 3), "dimension must be 1 or 2, got 3"),
    (88, struct.pack("<q", 1), "need at least 2 points per axis, got 1"),
], ids=["method", "method-bytes", "family-bytes", "dim", "n_x"])
def test_load_rejects_bad_header_fields(tmp_path, offset, patch, msg):
    # header: magic (8), family (64), method (8), then dim, n_x, n_y
    f = builtin_family("separable_1d", {})
    path = tmp_path / "cells.bin"
    save_cell_table(path, build_cell_table(f, TorusGrid(1, 4), TorusGrid(1, 16)))
    raw = path.read_bytes()
    path.write_bytes(raw[:offset] + patch + raw[offset + len(patch):])
    with pytest.raises(ValueError, match=f"cells.bin: bad header: .*{re.escape(msg)}"):
        load_cell_table(path)
