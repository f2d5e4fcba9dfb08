import numpy as np
import pytest

from microhom import (TorusGrid, assemble_diffusion, assemble_fine, assemble_homogenized,
                      build_cell_table, builtin_family, effective_matrix, resolvent_op)
from microhom.operators import h1_gram_op, operator_norm, transpose_defect


def test_identity_coefficient_stencil():
    f = builtin_family("constant", {"matrix": np.eye(1)})
    g = TorusGrid(1, 128)
    op = assemble_fine(f, 1.0 / 8, g)
    # constant vector is an eigenvector with eigenvalue 1 (pure mass part)
    ones = np.ones(g.size)
    assert np.allclose(op.matvec(ones), ones, atol=1e-13)
    m = op.matrix.toarray()
    off = -1.0 / g.h ** 2
    assert m[5, 4] == pytest.approx(off)
    assert m[5, 6] == pytest.approx(off)
    assert m[5, 5] == pytest.approx(-2 * off + 1.0)


def rolled_scheme(u, faces, nodes, mass, h):
    """-div(a grad u) + mass u by np.roll: two-point fluxes a_mm (u(x + e_m) - u(x)) / h
    on the faces, and -D0_m(a_mk D0_k u) for every m != k."""
    def at(v, s, ax):  # v(x + s e_ax)
        return np.roll(v, -s, axis=ax)

    out = mass * u
    for m in range(u.ndim):
        flux = faces[m] * (at(u, 1, m) - u) / h
        out = out - (flux - at(flux, -1, m)) / h
        for k in range(u.ndim):
            if k != m:
                g = nodes[..., m, k] * (at(u, 1, k) - at(u, -1, k)) / (2 * h)
                out = out - (at(g, 1, m) - at(g, -1, m)) / (2 * h)
    return out


@pytest.mark.parametrize("d,n", [(1, 16), (2, 12)])
def test_scheme_matrix_matches_rolled_flux_form(d, n):
    rng = np.random.default_rng(d)
    g = TorusGrid(d, n)
    faces = [rng.uniform(1.0, 2.0, g.shape) for _ in range(d)]
    nodes = rng.standard_normal(g.shape + (d, d))   # a_01 != a_10
    u = rng.standard_normal(g.shape)
    for mass in (0.0, 0.7):
        mat = assemble_diffusion(g, faces, nodes, mass)
        ref = rolled_scheme(u, faces, nodes, mass, g.h).ravel()
        assert np.linalg.norm(mat @ u.ravel() - ref) <= 1e-12 * np.linalg.norm(ref)
        # sums of scheme matrices (L-core + M) add in storage order
        assert mat.has_canonical_format


def test_symmetric_field_gives_symmetric_matrix():
    f = builtin_family("periodic_only", {"dim": 2, "symmetric": True})
    g = TorusGrid(2, 32)
    op = assemble_fine(f, 0.25, g)
    diff = (op.matrix - op.matrix.T).toarray()
    assert np.abs(diff).max() == 0.0


def test_transpose_consistency_of_assembly():
    f = builtin_family("smooth_2d_nonsymmetric", {})
    g = TorusGrid(2, 32)
    a = assemble_fine(f, 0.25, g)
    at = assemble_fine(f.transposed(), 0.25, g)
    diff = (at.matrix - a.matrix.T).toarray()
    assert np.abs(diff).max() == 0.0


def test_resolution_constraints():
    f = builtin_family("separable_1d", {})
    with pytest.raises(ValueError, match="incommensurate"):
        assemble_fine(f, 1.0 / 7, TorusGrid(1, 64))
    with pytest.raises(ValueError, match="8 points"):
        assemble_fine(f, 1.0 / 16, TorusGrid(1, 64))


def solve(op, rhs, tol):
    """LU solve of an assembled system, held to a relative residual."""
    u = resolvent_op(op).matvec(rhs.ravel())
    assert np.linalg.norm(op.matvec(u) - rhs.ravel()) <= tol * np.linalg.norm(rhs)
    return u.reshape(rhs.shape)


def test_solve_analytic_eigenpair():
    # with a = I the sine mode is a discrete eigenvector; the solve
    # reproduces sin/(mu_h) exactly and 1/(4 pi^2 + 1) to O(h^2)
    f = builtin_family("constant", {"matrix": np.eye(1)})
    g = TorusGrid(1, 256)
    op = assemble_fine(f, 1.0 / 16, g)
    x = g.axis_coords()
    rhs = np.sin(2 * np.pi * x)
    u = solve(op, rhs, tol=1e-12)
    mu_h = (2 - 2 * np.cos(2 * np.pi * g.h)) / g.h ** 2 + 1.0
    assert np.allclose(u, rhs / mu_h, atol=1e-12)
    assert u.max() == pytest.approx(1.0 / (4 * np.pi ** 2 + 1), rel=1e-3)
    # discrete H1 norm of the solution (the Gram form of the sweep's E1) over
    # the L2 norm of the data; both carry the same quadrature weight h
    energy_quotient = np.sqrt(u @ h1_gram_op(g).matvec(u)) / np.linalg.norm(rhs)
    assert energy_quotient <= 1.0 + 1e-12


def test_solve_nonsymmetric_system():
    f = builtin_family("smooth_2d_nonsymmetric", {})
    g = TorusGrid(2, 32)
    op = assemble_fine(f, 0.25, g)
    rng = np.random.default_rng(0)
    solve(op, rng.standard_normal(g.shape), tol=1e-10)


def test_self_convergence_of_fine_solve():
    # halving h changes the solution by O(h^2) for a smooth 1D problem
    f = builtin_family("separable_1d", {})
    eps = 1.0 / 8
    sols = {}
    for n in (128, 256, 512):
        g = TorusGrid(1, n)
        op = assemble_fine(f, eps, g)
        x = g.axis_coords()
        sols[n] = solve(op, np.cos(2 * np.pi * x), tol=1e-10)
    e1 = np.abs(sols[128] - sols[256][::2]).max()
    e2 = np.abs(sols[256] - sols[512][::2]).max()
    assert e2 < e1 / 3.2   # order >= 1.7 between dyadic levels


def test_coercivity_on_random_fields():
    f = builtin_family("smooth_2d_nonsymmetric", {})
    g = TorusGrid(2, 16)
    op = assemble_fine(f, 0.5, g)
    rng = np.random.default_rng(7)
    w = g.h ** 2
    for _ in range(20):
        u = rng.standard_normal(g.size)
        quad = w * float(u @ op.matvec(u))
        assert quad >= w * float(u @ u) * (1 - 1e-12)


def test_resolvent_contraction():
    f = builtin_family("periodic_only", {"dim": 1})
    g = TorusGrid(1, 256)
    op = assemble_fine(f, 1.0 / 16, g)
    r = resolvent_op(op)
    assert operator_norm(r, tol=1e-7, seed=4) <= 1.0 + 1e-6


def test_homogenized_assembly_and_transpose():
    field = builtin_family("smooth_2d_nonsymmetric", {})
    cells = build_cell_table(field, TorusGrid(2, 4), TorusGrid(2, 32), tol=1e-12)
    hom = effective_matrix(cells, field)
    g = TorusGrid(2, 16)
    a0 = assemble_homogenized(hom, g)
    assert transpose_defect([a0], 5, seed=0)[0] < 1e-13

    hom_t = effective_matrix(
        build_cell_table(field.transposed(), cells.slow_grid, cells.cell_grid,
                         tol=1e-12), field.transposed())
    a0_t = assemble_homogenized(hom_t, g)
    diff = (a0_t.matrix - a0.matrix.T).toarray()
    assert np.abs(diff).max() < 1e-9


def test_constant_effective_gives_constant_stencil():
    f = builtin_family("periodic_only", {"dim": 1})
    cells = build_cell_table(f, TorusGrid(1, 4), TorusGrid(1, 64), tol=1e-12)
    hom = effective_matrix(cells, f)
    g = TorusGrid(1, 64)
    op = assemble_homogenized(hom, g)
    m = op.matrix.toarray()
    # one unique off-diagonal value up to roundoff
    offs = np.unique(np.round(m[np.arange(63), np.arange(1, 64)], 10))
    assert offs.size == 1
