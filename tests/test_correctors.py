import numpy as np
import pytest

from microhom import (GridFunction, SmoothingSpec, TorusGrid, assemble_fine,
                      assemble_homogenized, assemble_L, assemble_M,
                      build_cell_table, builtin_family, corrector_K,
                      corrector_Ktilde, corrector_coeffs, corrector_op,
                      drift_matrix_field, effective_matrix, flux_corrector,
                      full_corrector, resolvent_op, solve)
from microhom.correctors import _OffsetTables, _restrict_cell_axes
from microhom.operators import operator_norm, transpose_defect


def pipeline(family, params, n_x, n_y, tol=1e-12):
    field = builtin_family(family, params)
    cells = build_cell_table(field, TorusGrid(field.dim, n_x),
                             TorusGrid(field.dim, n_y), tol=tol)
    hom = effective_matrix(cells, field)
    fc = flux_corrector(cells, field, hom)
    return field, cells, hom, fc


@pytest.fixture(scope="module")
def smooth_2d():
    return pipeline("smooth_2d_nonsymmetric", {}, 6, 32)


@pytest.fixture(scope="module")
def separable():
    return pipeline("separable_1d", {}, 32, 128)


def test_corrector_zero_for_constant_family():
    field, cells, hom, fc = pipeline("constant", {"matrix": np.eye(2)}, 4, 16)
    grid = TorusGrid(2, 32)
    spec = SmoothingSpec(eps=0.25, n_omega=8)
    x = grid.coords()
    u = GridFunction(grid, np.sin(2 * np.pi * x[..., 0]))
    k = corrector_K(u, cells, spec)
    assert np.abs(k.values).max() == 0.0


def test_corrector_zero_for_constant_input(smooth_2d):
    field, cells, hom, fc = smooth_2d
    grid = TorusGrid(2, 32)
    spec = SmoothingSpec(eps=0.25, n_omega=8)
    u = GridFunction(grid, np.full(grid.shape, 3.0))
    k = corrector_K(u, cells, spec)
    assert np.abs(k.values).max() < 1e-12


def test_corrector_bounded_across_eps(separable):
    field, cells, hom, fc = separable
    for k_denom in (8, 16):
        grid = TorusGrid(1, 16 * k_denom)
        spec = SmoothingSpec(eps=1.0 / k_denom, n_omega=16)
        a0 = assemble_homogenized(hom, grid)
        x = grid.axis_coords()
        rhs = GridFunction(grid, np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x))
        u, _ = solve(a0, rhs)
        kf = corrector_K(u, cells, spec)
        from microhom import norms
        assert norms(kf)[0] <= 2.0 * norms(rhs)[0]


def test_ktilde_equals_k_for_symmetric(separable):
    field, cells, hom, fc = separable
    grid = TorusGrid(1, 128)
    spec = SmoothingSpec(eps=1.0 / 8, n_omega=16)
    x = grid.axis_coords()
    u = GridFunction(grid, np.sin(2 * np.pi * x))
    k = corrector_K(u, cells, spec)
    kt = corrector_Ktilde(u, cells, spec)
    assert np.array_equal(k.values, kt.values)


def test_ktilde_differs_for_nonsymmetric(smooth_2d):
    field, cells, hom, fc = smooth_2d
    grid = TorusGrid(2, 32)
    spec = SmoothingSpec(eps=0.25, n_omega=8)
    x = grid.coords()
    u = GridFunction(grid, np.sin(2 * np.pi * x[..., 0]) * np.cos(2 * np.pi * x[..., 1]))
    k = corrector_K(u, cells, spec)
    kt = corrector_Ktilde(u, cells, spec)
    assert np.abs(k.values - kt.values).max() > 1e-6


def test_corrector_coeffs_zero_cases():
    field, cells, hom, fc = pipeline("constant", {"matrix": np.eye(2)}, 4, 16)
    co = corrector_coeffs(cells, fc, field, hom)
    assert np.abs(co.c3).max() < 1e-14
    assert np.abs(co.c2).max() < 1e-14

    field, cells, hom, fc = pipeline("periodic_only", {"dim": 2, "symmetric": False}, 4, 32)
    co = corrector_coeffs(cells, fc, field, hom)
    assert np.abs(co.c2).max() < 1e-12
    assert np.abs(co.c2_adj).max() < 1e-12
    # third-order tensors need not vanish without slow dependence
    assert np.abs(co.c3).max() > 1e-6


@pytest.mark.parametrize("family,params,n_x,n_y", [
    ("constant", {"matrix": [[2.0, 0.3], [0.1, 1.4]]}, 4, 16),
    ("separable_1d", {}, 8, 128),
    ("laminate_2d", {}, 4, 32),
    ("smooth_2d_nonsymmetric", {}, 4, 32),
    ("periodic_only", {"dim": 2, "symmetric": False}, 4, 32),
])
def test_reduced_quadrature_equivalence(family, params, n_x, n_y):
    field, cells, hom, fc = pipeline(family, params, n_x, n_y)
    co = corrector_coeffs(cells, fc, field, hom)
    assert co.equivalence_defect < 1e-10


def test_corrector_op_duality(smooth_2d):
    field, cells, hom, fc = smooth_2d
    grid = TorusGrid(2, 32)
    spec = SmoothingSpec(eps=0.25, n_omega=8)
    a0 = assemble_homogenized(hom, grid)
    r0 = resolvent_op(a0)
    kt = corrector_op(cells, spec, grid, r0.T, adjoint=True)
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = rng.standard_normal(grid.size)
        h = rng.standard_normal(grid.size)
        lhs = float(kt.T.apply(f) @ h)
        rhs = float(f @ kt.apply(h))
        assert abs(lhs - rhs) <= 1e-12 * (np.linalg.norm(kt.T.apply(f)) * np.linalg.norm(h)
                                          + np.linalg.norm(f) * np.linalg.norm(kt.apply(h)))


def test_corrector_op_matches_function_form(separable):
    field, cells, hom, fc = separable
    grid = TorusGrid(1, 128)
    spec = SmoothingSpec(eps=1.0 / 8, n_omega=16)
    a0 = assemble_homogenized(hom, grid)
    r0 = resolvent_op(a0)
    op = corrector_op(cells, spec, grid, r0)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(grid.size)
    u, _ = solve(a0, GridFunction(grid, f.reshape(grid.shape)))
    direct = corrector_K(u, cells, spec)
    assert np.allclose(op.apply(f), direct.values.ravel(), atol=1e-12)


def rolled_corrector(u, cells, spec, adjoint):
    """K u(x) = sum_l w_l chi(x - eps w_l, x/eps) . grad u(x - eps w_l), by rolls.

    Slow argument: periodic linear interpolation per axis (np.interp) from
    the sample grid; fast argument: the cell node x/eps lands on.
    """
    n, d, n_f = u.shape[0], u.ndim, spec.n_omega
    chi = cells.chi_adj if adjoint else cells.chi
    step = chi.shape[-1] // n_f
    fast = chi[(Ellipsis,) + (slice(None, None, step),) * d]
    n_x = chi.shape[0]
    slow_nodes = np.arange(n_x + 1) / n_x
    interp = np.stack([np.interp(np.arange(n) / n, slow_nodes,
                                 np.append(e, e[0]), period=1.0)
                       for e in np.eye(n_x)], axis=1)            # (n, n_x)
    if d == 1:
        table = np.einsum("as,sj...->aj...", interp, fast)
    else:
        table = np.einsum("as,bt,stj...->abj...", interp, interp, fast)
    axes = tuple(range(d))
    grad = [(np.roll(u, -1, axis=ax) - np.roll(u, 1, axis=ax)) / (2.0 / n) for ax in axes]
    nodes = tuple(np.indices(u.shape))
    shifts, _, weights = spec.lattice(d)
    out = np.zeros(u.shape)
    for s, w in zip(shifts, weights):
        # chi at slow node z and fast node (z + s) mod n_f, paired with grad u(z),
        # then moved to x = z + s
        fast_idx = tuple((nodes[ax] + s[ax]) % n_f for ax in axes)
        q = sum(table[nodes + (j,) + fast_idx] * grad[j] for j in range(d))
        out += w * np.roll(q, tuple(s), axis=axes)
    return out


@pytest.mark.parametrize("case", ["separable", "smooth_2d"])
@pytest.mark.parametrize("adjoint", [False, True])
def test_corrector_op_matches_rolled_formula(case, adjoint, request):
    field, cells, hom, fc = request.getfixturevalue(case)
    n_f = 16 if case == "separable" else 8
    for k in (2, 4):
        spec = SmoothingSpec(eps=1.0 / k, n_omega=n_f)
        grid = TorusGrid(field.dim, n_f * k)
        r0 = resolvent_op(assemble_homogenized(hom, grid))
        if adjoint:
            r0 = r0.T
        op = corrector_op(cells, spec, grid, r0, adjoint=adjoint)
        f = np.random.default_rng(k).standard_normal(grid.size)
        ref = rolled_corrector(r0.apply(f).reshape(grid.shape), cells, spec, adjoint)
        assert np.abs(op.apply(f) - ref.ravel()).max() <= 1e-12 * np.abs(ref).max()


def test_composed_operator_zero_for_symmetric_periodic():
    field, cells, hom, fc = pipeline("periodic_only", {"dim": 2, "symmetric": True}, 4, 32)
    co = corrector_coeffs(cells, fc, field, hom)
    grid = TorusGrid(2, 32)
    a0 = assemble_homogenized(hom, grid)
    r0 = resolvent_op(a0)
    l_op = assemble_L(co, r0, grid)
    # the two halves cancel structurally; the norm sits at the noise floor
    assert operator_norm(l_op, tol=1e-6, maxiter=100, seed=1, atol=1e-15) < 1e-12
    m_op = assemble_M(field, cells, SmoothingSpec(eps=0.25, n_omega=8), r0, grid)
    assert operator_norm(m_op, tol=1e-6, maxiter=100, seed=1, atol=1e-15) < 1e-13


def test_composed_operator_transpose_structure(smooth_2d):
    # transposing the assembled operator equals assembling with the two
    # tensor families swapped and the resolvent transposed
    field, cells, hom, fc = smooth_2d
    from microhom.correctors import CorrectorCoeffs
    co = corrector_coeffs(cells, fc, field, hom)
    grid = TorusGrid(2, 16)
    a0 = assemble_homogenized(hom, grid)
    r0 = resolvent_op(a0)
    l_op = assemble_L(co, r0, grid)
    swapped = CorrectorCoeffs(slow_grid=co.slow_grid, c3=co.c3_adj,
                              c3_adj=co.c3, c2=co.c2_adj, c2_adj=co.c2)
    l_swapped = assemble_L(swapped, r0.T, grid)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(grid.size)
    assert np.allclose(l_op.apply_transpose(x), l_swapped.apply(x), atol=1e-13)


@pytest.mark.parametrize("method,tol", [("fv", 0.0), ("spectral", 1e-13)])
def test_offset_tables_on_cell_nodes_match_rolled_restriction(method, tol):
    # an offset of whole cell-grid steps lands the fast lattice on cell nodes
    d, n_y, n_f = 2, 32, 8
    field = builtin_family("smooth_2d_nonsymmetric", {})
    cells = build_cell_table(field, TorusGrid(d, 4), TorusGrid(d, n_y), tol=1e-12)
    table = cells.grad_y_chi
    tabs = _OffsetTables(table, d, n_f, method)
    cell_axes = tuple(range(-d, 0))
    for steps in [(1, 0), (3, 5), (-2, 7)]:
        rolled = np.roll(table, tuple(-s for s in steps), axis=cell_axes)
        expect = _restrict_cell_axes(rolled, d, n_f).reshape(table.shape[:-d] + (-1,))
        got = tabs.at(np.asarray(steps) / n_y)
        assert np.abs(got - expect).max() <= tol, steps


def test_drift_matrix_zero_without_slow_dependence():
    field, cells, hom, fc = pipeline("periodic_only", {"dim": 2, "symmetric": False}, 4, 32)
    grid = TorusGrid(2, 32)
    spec = SmoothingSpec(eps=0.25, n_omega=8)
    chat = drift_matrix_field(field, cells, spec, grid)
    assert np.abs(chat).max() == 0.0


def test_drift_matrix_refined_quadrature_oracle(separable):
    # doubling both the offset-rule and the line-rule orders changes the
    # double-averaged matrix by less than 1e-6
    field, cells, hom, fc = separable
    k = 16
    base_grid = TorusGrid(1, 16 * k)
    fine_grid = TorusGrid(1, 32 * k)
    spec = SmoothingSpec(eps=1.0 / k, n_omega=16, gauss_points=3)
    spec_hi = SmoothingSpec(eps=1.0 / k, n_omega=32, gauss_points=6, drift_order=48)
    c_lo = drift_matrix_field(field, cells, spec, base_grid)
    c_hi = drift_matrix_field(field, cells, spec_hi, fine_grid)
    assert np.abs(c_lo[:, 0, 0] - c_hi[::2, 0, 0]).max() < 1e-6


def test_full_corrector_composition(smooth_2d):
    field, cells, hom, fc = smooth_2d
    grid = TorusGrid(2, 16)
    spec = SmoothingSpec(eps=0.5, n_omega=8)
    a0 = assemble_homogenized(hom, grid)
    r0 = resolvent_op(a0)
    co = corrector_coeffs(cells, fc, field, hom)
    k_op = corrector_op(cells, spec, grid, r0)
    kt_op = corrector_op(cells, spec, grid, r0.T, adjoint=True)
    l_op = assemble_L(co, r0, grid)
    m_op = assemble_M(field, cells, spec, r0, grid)
    c_op = full_corrector(k_op, kt_op.T, l_op, m_op)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(grid.size)
    expect = (k_op.apply(x) + kt_op.T.apply(x) - l_op.apply(x) - m_op.apply(x))
    assert np.allclose(c_op.apply(x), expect, atol=1e-14)
    assert transpose_defect(c_op, 3, seed=2) < 1e-12


def test_full_corrector_zero_for_constant():
    field, cells, hom, fc = pipeline("constant", {"matrix": np.eye(2)}, 4, 16)
    grid = TorusGrid(2, 16)
    spec = SmoothingSpec(eps=0.5, n_omega=8)
    a0 = assemble_homogenized(hom, grid)
    r0 = resolvent_op(a0)
    co = corrector_coeffs(cells, fc, field, hom)
    c_op = full_corrector(corrector_op(cells, spec, grid, r0),
                          corrector_op(cells, spec, grid, r0.T, adjoint=True).T,
                          assemble_L(co, r0, grid),
                          assemble_M(field, cells, spec, r0, grid))
    assert operator_norm(c_op, tol=1e-6, maxiter=50, seed=1) < 1e-12
