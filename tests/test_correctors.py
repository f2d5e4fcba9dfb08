import itertools

import numpy as np
import pytest

from microhom import (CoefficientField, GridFunction, SmoothingSpec, TorusGrid,
                      assemble_fine, assemble_homogenized, assemble_L, assemble_M,
                      build_cell_table, builtin_family, corrector_K,
                      corrector_Ktilde, corrector_coeffs, corrector_op,
                      drift_matrix_field, effective_matrix, flux_corrector,
                      full_corrector, resolvent_op, solve)
from microhom.correctors import _cell_kernels, _offset_rows, _restrict_cell_axes
from microhom.grids import corners
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


def periodic_interp(n, n_x):
    """(n, n_x) weights of periodic linear interpolation (np.interp) from the
    n_x slow samples to the n nodes k/n of one axis."""
    slow_nodes = np.arange(n_x + 1) / n_x
    return np.stack([np.interp(np.arange(n) / n, slow_nodes, np.append(e, e[0]),
                               period=1.0) for e in np.eye(n_x)], axis=1)


def rolled_corrector(u, cells, spec, adjoint):
    """K u(x) = sum_l w_l chi(x - eps w_l, x/eps) . grad u(x - eps w_l), by rolls.

    Slow argument: periodic linear interpolation per axis (np.interp) from
    the sample grid; fast argument: the cell node x/eps lands on.
    """
    n, d, n_f = u.shape[0], u.ndim, spec.n_omega
    chi = cells.chi_adj if adjoint else cells.chi
    step = chi.shape[-1] // n_f
    fast = chi[(Ellipsis,) + (slice(None, None, step),) * d]
    interp = periodic_interp(n, chi.shape[0])
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


def fast_lattice(n_f, d):
    """(n_f^d, d) fast points c/n_f in C order."""
    axes = np.meshgrid(*([np.arange(n_f) / n_f] * d), indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, d)


def mode_sum(table, d, pts):
    """Real part of the trig interpolant of a cell table at pts (M, d), by a
    direct sum over the signed modes of its spectrum (Nyquist included)."""
    n_y = table.shape[-1]
    spec = np.fft.fftn(table, axes=tuple(range(-d, 0))) / n_y ** d
    k1 = np.fft.fftfreq(n_y, 1.0 / n_y)
    modes = np.stack(np.meshgrid(*([k1] * d), indexing="ij"), axis=-1).reshape(-1, d)
    phase = np.exp(2j * np.pi * pts @ modes.T)                     # (M, n_y^d)
    return (spec.reshape(table.shape[:-d] + (-1,)) @ phase.T).real


@pytest.mark.parametrize("method,tol", [("fv", 0.0), ("spectral", 1e-13)])
def test_offset_tables_on_cell_nodes_match_rolled_restriction(method, tol):
    # an offset of whole cell-grid steps lands the fast lattice on cell nodes
    d, n_y, n_f = 2, 32, 8
    field = builtin_family("smooth_2d_nonsymmetric", {})
    cells = build_cell_table(field, TorusGrid(d, 4), TorusGrid(d, n_y), tol=1e-12)
    table = cells.grad_y_chi
    cell_axes = tuple(range(-d, 0))
    for steps in [(1, 0), (3, 5), (-2, 7)]:
        nodes = np.asarray(steps) / n_y
        rows = _offset_rows(table, d, *_cell_kernels(nodes, n_f, n_y, method))
        # the lattice on two nodes has the offsets (a, b) for a, b in steps
        for a, row in zip(steps, rows):
            for b, got in zip(steps, row):
                rolled = np.roll(table, (-a, -b), axis=cell_axes)
                expect = _restrict_cell_axes(rolled, d, n_f).reshape(table.shape[:-d] + (-1,))
                assert np.abs(got - expect).max() <= tol, (a, b)
    # one off-node Gauss offset
    nodes = SmoothingSpec(eps=0.25, n_omega=n_f).offset_rule(d)[0][[2, 9]]
    got = next(_offset_rows(table, d, *_cell_kernels(nodes, n_f, n_y, method)))[1]
    pts = fast_lattice(n_f, d) + nodes
    if method == "fv":
        idx, wts = corners(n_y, pts)
        flat = table.reshape(table.shape[:-d] + (-1,))
        expect = sum(w * flat[..., i] for i, w in zip(idx, wts))
        bound = 1e-15
    else:
        expect = mode_sum(table, d, pts)
        bound = 1e-13
    assert np.abs(got - expect).max() <= bound * np.abs(expect).max()


def grad_x_separable_1d(p, x, y):
    """Analytic slow gradient of separable_1d, (..., 1, 1, 1)."""
    fast = 2.0 + p["y_amplitude"] * np.sin(2 * np.pi * y[..., 0])
    dslow = p["x_amplitude"] * 2 * np.pi * np.cos(2 * np.pi * x[..., 0])
    return (fast * dslow)[..., None, None, None]


def grad_x_smooth_2d_nonsymmetric(p, x, y):
    """Analytic slow gradient of smooth_2d_nonsymmetric, (..., 2, 2, 2) with
    the last axis the derivative direction."""
    sa, off, sk = p["slow_amplitude"], p["offdiag"], p["skew"]
    y1, y2 = y[..., 0], y[..., 1]
    x1, x2 = x[..., 0], x[..., 1]
    pp = 2.0 + 0.6 * np.sin(2 * np.pi * y1) + 0.4 * np.cos(2 * np.pi * y2)
    q = off * np.sin(2 * np.pi * y2)
    dsig1 = sa * 0.6 * 2 * np.pi * np.cos(2 * np.pi * x1)
    dsig2 = -sa * 0.4 * 2 * np.pi * np.sin(2 * np.pi * x2)
    dr1 = sk * 0.3 * 2 * np.pi * np.sin(2 * np.pi * y1) * np.cos(2 * np.pi * x1)
    out = np.zeros(np.broadcast(x1, y1).shape + (2, 2, 2))
    for r_ax, dsig in ((0, dsig1), (1, dsig2)):
        out[..., 0, 0, r_ax] = dsig * pp
        out[..., 1, 1, r_ax] = dsig * pp
        out[..., 0, 1, r_ax] = dsig * q
        out[..., 1, 0, r_ax] = dsig * q
    out[..., 0, 1, 0] += dr1
    out[..., 1, 0, 0] -= dr1
    return out


GRAD_X = {"separable_1d": grad_x_separable_1d,
          "smooth_2d_nonsymmetric": grad_x_smooth_2d_nonsymmetric}


def looped_drift(family, params, cells, spec, grid):
    """The drift_matrix_field docstring formula, one Gauss offset at a time.

    Gradient tables at each offset's fast lattice by `mode_sum`; slow
    argument by periodic linear interpolation per axis (np.interp); fast
    argument x/eps + w; offsets on the tensor Gauss-Legendre rule of the
    default order; the line integral of the analytic slow gradient of
    `family` by an 8-point Gauss-Legendre rule in t.
    """
    d, n, n_f, eps = grid.dim, grid.n, spec.n_omega, spec.eps
    x1, w1 = np.polynomial.legendre.leggauss(max(n_f, 24 if d == 1 else 12))
    x1, w1 = 0.5 * x1, 0.5 * w1                                       # on [-1/2, 1/2]
    t, tw = np.polynomial.legendre.leggauss(8)
    t, tw = 0.5 * (t + 1.0), 0.5 * tw
    interp = periodic_interp(n, cells.slow_grid.n)
    slow_w = interp if d == 1 else np.einsum("as,bt->abst", interp, interp)
    slow_w = slow_w.reshape(grid.size, -1)                            # (N, n_slow)
    nodes = np.indices(grid.shape).reshape(d, -1)
    fast_idx = np.ravel_multi_index(tuple(nodes % n_f), (n_f,) * d)
    x = nodes.T / n
    out = np.zeros((grid.size, d, d))
    for idx in itertools.product(range(len(x1)), repeat=d):
        w, om = np.prod(w1[list(idx)]), x1[list(idx)]
        fams = []
        for tab in (cells.grad_y_chi, cells.grad_y_chi_adj):
            vals = mode_sum(tab, d, fast_lattice(n_f, d) + om)        # (*slow, d, d, n_f^d)
            vals = vals.reshape(-1, d, d, n_f ** d)[..., fast_idx]    # (n_slow, d, d, N)
            fams.append(np.einsum("ns,sjqn->njq", slow_w, vals) + np.eye(d))
        P, Q = fams
        mid = sum(tv_w * np.einsum("npqr,r->npq", GRAD_X[family](params, x + tv * eps * om,
                                                                 x / eps + om), om)
                  for tv, tv_w in zip(t, tw))
        out += w * np.einsum("nkp,npq,njq->njk", Q, mid, P)
    return out.reshape(grid.shape + (d, d))


@pytest.mark.parametrize("family,n_x,n_y,n_f,ks", [
    ("smooth_2d_nonsymmetric", 4, 16, 8, (2, 3)),
    ("separable_1d", 8, 64, 16, (8,))])
def test_drift_matrix_matches_offset_loop(family, n_x, n_y, n_f, ks):
    field, cells, hom, fc = pipeline(family, {}, n_x, n_y)
    for k in ks:
        spec = SmoothingSpec(eps=1.0 / k, n_omega=n_f)
        grid = TorusGrid(field.dim, n_f * k)
        got = drift_matrix_field(field, cells, spec, grid)
        ref = looped_drift(family, field.params, cells, spec, grid)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), k


def test_drift_matrix_of_field_without_slow_gradient():
    # a field given by its evaluator alone: the drift needs no analytic gradient
    builtin, cells, hom, fc = pipeline("smooth_2d_nonsymmetric", {}, 4, 16)
    field = CoefficientField(dim=2, evaluator=builtin.evaluator,
                             ellipticity=builtin.ellipticity,
                             lipschitz_x=builtin.lipschitz_x, symmetric=False)
    spec = SmoothingSpec(eps=0.5, n_omega=8)
    grid = TorusGrid(2, 16)
    got = drift_matrix_field(field, cells, spec, grid)
    ref = looped_drift("smooth_2d_nonsymmetric", builtin.params, cells, spec, grid)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_drift_matrix_zero_without_slow_dependence():
    field, cells, hom, fc = pipeline("periodic_only", {"dim": 2, "symmetric": False}, 4, 32)
    grid = TorusGrid(2, 32)
    spec = SmoothingSpec(eps=0.25, n_omega=8)
    chat = drift_matrix_field(field, cells, spec, grid)
    assert np.abs(chat).max() == 0.0


def test_drift_matrix_refined_quadrature_oracle(separable):
    # doubling the offset-rule order changes the double-averaged matrix by
    # less than 1e-6
    field, cells, hom, fc = separable
    k = 16
    base_grid = TorusGrid(1, 16 * k)
    fine_grid = TorusGrid(1, 32 * k)
    spec = SmoothingSpec(eps=1.0 / k, n_omega=16)
    spec_hi = SmoothingSpec(eps=1.0 / k, n_omega=32, drift_order=48)
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
