"""Acceptance suite: one test per criterion, one printed line per criterion.

The two convergence sweeps are shared session fixtures; their wall times
are part of the runtime criteria.  Run with -s to see the PASS lines.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import aslinearoperator

from microhom import (SmoothingSpec, TorusGrid, assemble_fine, assemble_homogenized,
                      assemble_L, assemble_M, build_cell_table, builtin_family,
                      corrector_coeffs, corrector_matrix, corrector_op,
                      drift_matrix_field, effective_matrix, emit_report,
                      flux_corrector, full_corrector, operator_norm,
                      resolvent_op, run_sweep, steklov_op, transpose_defect,
                      vector_potential)
from microhom.config import ExperimentConfig
from microhom.operators import h1_gram_op

CHECKMARK = "[acceptance] criterion {n}: PASS  ({msg})"


def ok(n, msg):
    print(CHECKMARK.format(n=n, msg=msg))


SWEEP_1D = ExperimentConfig(family="separable_1d", params=(), n_x=64, n_y=256,
                            n_f=16, eps_denominators=(8, 16, 32, 64),
                            cell_tol=1e-12, norm_tol=1e-7, norm_maxiter=800, seed=0)
SWEEP_2D = ExperimentConfig(family="smooth_2d_nonsymmetric", params=(), n_x=16,
                            n_y=64, n_f=8, eps_denominators=(8, 16, 32),
                            cell_tol=1e-11, norm_tol=1e-6, norm_maxiter=800,
                            seed=0, matched_effective=True)
# E0/E1/E2 of both sweeps per eps denominator, for criterion 12
PINNED = json.loads(Path(__file__).with_name("acceptance_errors.json").read_text())


@pytest.fixture(scope="session")
def sweep_1d():
    t0 = time.perf_counter()
    rep = run_sweep(SWEEP_1D)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="session")
def sweep_2d():
    t0 = time.perf_counter()
    rep = run_sweep(SWEEP_2D)
    return rep, time.perf_counter() - t0


def test_criterion_1_effective_matrix_oracle_1d():
    field = builtin_family("separable_1d", {"x_amplitude": 0.0})
    # warm the FFT / solver caches so the timer sees the oracle, not imports
    build_cell_table(field, TorusGrid(1, 4), TorusGrid(1, 16), tol=1e-8)
    t0 = time.perf_counter()
    cells = build_cell_table(field, TorusGrid(1, 4), TorusGrid(1, 256), tol=1e-12)
    hom = effective_matrix(cells, field)
    elapsed = time.perf_counter() - t0
    err = float(np.abs(hom.matrices - np.sqrt(3.0)).max())
    assert err < 1e-8
    assert elapsed < 1.0
    ok(1, f"|a0 - sqrt(3)| = {err:.2e} at n_y=256 in {elapsed:.2f} s")


def test_criterion_2_laminate_oracle_2d():
    t0 = time.perf_counter()
    field = builtin_family("laminate_2d", {"alpha_lo": 1.0, "alpha_hi": 4.0,
                                           "beta_lo": 1.0, "beta_hi": 3.0})
    cells = build_cell_table(field, TorusGrid(2, 4), TorusGrid(2, 128), tol=1e-11)
    hom = effective_matrix(cells, field)
    elapsed = time.perf_counter() - t0
    expect = np.diag([1.6, 2.0])   # harmonic mean of alpha, plain mean of beta
    err = float(np.abs(hom.matrices - expect).max())
    assert err < 1e-6
    assert elapsed < 10.0
    ok(2, f"|a0 - diag(1.6, 2)| = {err:.2e} at n_y=128 in {elapsed:.1f} s")


def test_criterion_3_degeneration_ladder():
    # constant: every object vanishes to solver tolerance
    field = builtin_family("constant", {"matrix": np.eye(2)})
    cells = build_cell_table(field, TorusGrid(2, 4), TorusGrid(2, 32))
    hom = effective_matrix(cells, field)
    dev, _ = flux_corrector(cells, field)
    pot, _, _ = vector_potential(dev, cells.cell_grid)
    assert np.abs(cells.chi).max() == 0.0   # both families
    assert np.abs(dev).max() < 1e-12
    assert np.abs(pot).max() < 1e-12
    grid = TorusGrid(2, 32)
    spec = SmoothingSpec(eps=0.25, n_omega=8)
    r0 = resolvent_op(assemble_homogenized(hom, grid))
    co = corrector_coeffs(cells, field)
    for op in (*corrector_op(cells, spec, grid, r0), assemble_L(co, r0, grid),
               assemble_M(drift_matrix_field(field, cells, [spec], [grid])[0], r0, grid)):
        assert operator_norm(op, tol=1e-6, maxiter=60, seed=1) < 1e-12

    # periodic only: no slow gradients, second-order tensors and the
    # double-averaged matrix vanish
    fieldp = builtin_family("periodic_only", {"dim": 2, "symmetric": False})
    cellsp = build_cell_table(fieldp, TorusGrid(2, 4), TorusGrid(2, 32), tol=1e-12)
    homp = effective_matrix(cellsp, fieldp)
    cop = corrector_coeffs(cellsp, fieldp)
    # one solve serves every slow sample, so every slow difference is exactly 0
    for table in cellsp.chi:
        flat = table.reshape((-1,) + table.shape[2:])
        assert all(np.array_equal(sample, flat[0]) for sample in flat)
    assert np.abs(cop.c2).max() == 0.0   # both families
    chat = drift_matrix_field(fieldp, cellsp, [spec], [grid])[0]
    assert np.abs(chat).max() == 0.0

    # symmetric: the adjoint corrector coincides with the primal one
    fields = builtin_family("separable_1d", {})
    cellss = build_cell_table(fields, TorusGrid(1, 16), TorusGrid(1, 128), tol=1e-12)
    grid1 = TorusGrid(1, 128)
    spec1 = SmoothingSpec(eps=1.0 / 8, n_omega=16)
    x = grid1.axis_coords()
    u = np.sin(2 * np.pi * x) + 0.2 * np.cos(6 * np.pi * x)
    k, kt = (q @ u for q in corrector_matrix(cellss, spec1, grid1))
    assert np.array_equal(k, kt)
    homs = effective_matrix(cellss, fields)
    r0s = resolvent_op(assemble_homogenized(homs, grid1))
    k_op, kt_op = corrector_op(cellss, spec1, grid1, r0s)
    dk = k_op @ np.eye(grid1.size)
    dkt = kt_op @ np.eye(grid1.size)
    scale = np.abs(dk).max()
    assert np.abs(dk - dkt).max() <= 1e-12 * max(scale, 1.0)
    ok(3, "constant/periodic/symmetric degenerations all hold")


def test_criterion_4_flux_potential_identities():
    field = builtin_family("smooth_2d_nonsymmetric", {})
    cells = build_cell_table(field, TorusGrid(2, 4), TorusGrid(2, 128), tol=1e-12)
    hom = effective_matrix(cells, field)
    dev, _ = flux_corrector(cells, field)
    mean_g = float(np.abs(dev.mean(axis=(-1, -2))).max())
    assert mean_g <= 1e-8
    pot, _, div_defect = vector_potential(dev, cells.cell_grid)
    assert div_defect <= 1e-8
    assert np.array_equal(pot, -np.swapaxes(pot, -4, -3))
    ok(4, f"<g> = {mean_g:.1e}, |div G - g| = {div_defect:.1e}, skew exact")


def test_criterion_5_reduced_quadrature_equivalence():
    worst = 0.0
    for fam, params in [("constant", {"matrix": [[2.0, 0.3], [0.1, 1.4]]}),
                        ("separable_1d", {}),
                        ("laminate_2d", {}),
                        ("smooth_2d_nonsymmetric", {}),
                        ("periodic_only", {"dim": 2, "symmetric": False})]:
        field = builtin_family(fam, params)
        n_y = 128 if field.dim == 1 else 48
        cells = build_cell_table(field, TorusGrid(field.dim, 4),
                                 TorusGrid(field.dim, n_y), tol=1e-12)
        hom = effective_matrix(cells, field)
        co = corrector_coeffs(cells, field)
        assert co.equivalence_defect < 1e-10, fam
        worst = max(worst, co.equivalence_defect)
    ok(5, f"both quadratures agree on every family (worst {worst:.1e})")


def test_criterion_6_zero_order_rate(sweep_1d):
    rep, elapsed = sweep_1d
    slope = rep.slopes["E0"][0]
    assert 0.9 <= slope <= 1.3
    assert elapsed < 120.0
    ok(6, f"E0 slope = {slope:.3f} in [0.9, 1.3], sweep {elapsed:.0f} s < 2 min")


def test_criterion_7_first_order_h1_rate(sweep_1d):
    rep, _ = sweep_1d
    slope = rep.slopes["E1"][0]
    assert 0.9 <= slope <= 1.3
    ok(7, f"E1 slope = {slope:.3f} in [0.9, 1.3]")


def test_criterion_8_second_order_rate(sweep_1d, sweep_2d):
    rep1, t1 = sweep_1d
    slope1 = rep1.slopes["E2"][0]
    assert slope1 >= 1.8
    e0 = dict(zip(rep1.eps_list, rep1.errors["E0"]))
    e2 = dict(zip(rep1.eps_list, rep1.errors["E2"]))
    assert e2[1 / 64] < e0[1 / 64] / 10
    for eps in rep1.eps_list:
        if eps <= 1 / 16:
            assert e2[eps] <= e0[eps]
    assert slope1 - rep1.slopes["E0"][0] > 0.5

    rep2, t2 = sweep_2d
    slope2 = rep2.slopes["E2"][0]
    assert slope2 >= 1.95
    assert t1 + t2 < 900.0
    ok(8, f"E2 slopes: 1D {slope1:.3f} >= 1.8 with E2(1/64) < E0(1/64)/10, "
          f"2D {slope2:.3f} >= 1.95; total {t1 + t2:.0f} s < 15 min")


def test_criterion_9_steklov_properties():
    # the Steklov matrix applied to node values; both sides of the
    # contraction check carry the same L2 weight sqrt(h), which cancels
    g = TorusGrid(1, 256)
    spec = SmoothingSpec(eps=1.0 / 16, n_omega=16)
    rng = np.random.default_rng(9)
    s = steklov_op(g, spec)
    for _ in range(100):
        u = rng.standard_normal(g.size)
        assert np.linalg.norm(s @ u) <= np.linalg.norm(u) * (1 + 1e-14)

    n_f, k = 16, 8
    gf = TorusGrid(1, n_f * k)
    eps = 1.0 / k
    spec = SmoothingSpec(eps=eps, n_omega=n_f)
    u = np.sin(2 * np.pi * gf.axis_coords())
    su = steklov_op(gf, spec) @ u
    sinc = np.sin(np.pi * eps) / (np.pi * eps)
    mult_err = float(np.abs(su - sinc * u).max())
    quad_err = (2 * np.pi * eps) ** 2 / (8 * n_f ** 2)
    assert mult_err <= quad_err

    errs, epss = [], []
    for kk in (4, 8, 16, 32):
        gg = TorusGrid(1, n_f * kk)
        sp = SmoothingSpec(eps=1.0 / kk, n_omega=n_f)
        uu = np.sin(2 * np.pi * gg.axis_coords())
        errs.append(np.sqrt(gg.h) * np.linalg.norm(steklov_op(gg, sp) @ uu - uu))
        epss.append(1.0 / kk)
    slope = np.polyfit(np.log(epss), np.log(errs), 1)[0]
    assert slope >= 1.9
    ok(9, f"contraction x100, sinc defect {mult_err:.1e} <= {quad_err:.1e}, "
          f"smoothing rate {slope:.3f} >= 1.9")


def test_criterion_10_adjoint_identities():
    field = builtin_family("smooth_2d_nonsymmetric", {})
    cells = build_cell_table(field, TorusGrid(2, 4), TorusGrid(2, 32), tol=1e-12)
    hom = effective_matrix(cells, field)
    grid = TorusGrid(2, 32)
    eps = 0.25
    spec = SmoothingSpec(eps=eps, n_omega=8)
    a_eps = assemble_fine(field, eps, grid)
    a0 = assemble_homogenized(hom, grid)
    r_eps, r0 = resolvent_op(a_eps), resolvent_op(a0)
    co = corrector_coeffs(cells, field)
    k_op, kt_op = corrector_op(cells, spec, grid, r0)
    l_op = assemble_L(co, r0, grid)
    m_op = assemble_M(drift_matrix_field(field, cells, [spec], [grid])[0], r0, grid)
    c_op = full_corrector(k_op, kt_op.T, l_op, m_op)
    ops = {"A_eps": a_eps, "A0": a0, "R_eps": r_eps, "R0": r0, "K": k_op,
           "Ktilde": kt_op, "L": l_op, "M": m_op, "C": c_op,
           "steklov": aslinearoperator(steklov_op(grid, spec)), "gram": h1_gram_op(grid),
           "diff2": r_eps - r0 - eps * c_op}
    defects = transpose_defect(ops.values(), n_trials=5, seed=10)
    for name, d in zip(ops, defects):
        assert d <= 1e-12, f"{name}: {d:.2e}"
    worst = max(defects)

    # effective matrix of the transposed field is the transposed matrix
    ft = field.transposed()
    cells_t = build_cell_table(ft, cells.slow_grid, cells.cell_grid, tol=1e-12)
    hom_t = effective_matrix(cells_t, ft)
    dual = float(np.abs(hom_t.matrices - np.swapaxes(hom.matrices, -1, -2)).max())
    assert dual < 1e-10
    ok(10, f"pairing defect <= {worst:.1e} over {len(ops)} operators, "
           f"effective duality {dual:.1e}")


def test_criterion_11_determinism(tmp_path):
    cfg = ExperimentConfig(family="separable_1d", params=(), n_x=16, n_y=64,
                           n_f=8, eps_denominators=(4, 8, 16), cell_tol=1e-11,
                           norm_tol=1e-5, norm_maxiter=500, seed=7)
    a = emit_report(run_sweep(cfg), tmp_path / "a")
    b = emit_report(run_sweep(cfg), tmp_path / "b")
    assert a["results"].read_bytes() == b["results"].read_bytes()
    ok(11, "repeated sweeps with a fixed seed give byte-identical results.csv")


def test_criterion_12_error_values_are_pinned(sweep_1d, sweep_2d):
    worst = 0.0
    for name, (rep, _), cfg in (("sweep_1d", sweep_1d, SWEEP_1D),
                                ("sweep_2d", sweep_2d, SWEEP_2D)):
        pinned = PINNED[name]
        assert [str(round(1 / eps)) for eps in rep.eps_list] == list(pinned), name
        for i, k in enumerate(pinned):
            for norm, ref in zip(("E0", "E1", "E2"), pinned[k]):
                rel = abs(rep.errors[norm][i] - ref) / ref
                assert rel <= cfg.norm_tol, (
                    f"{name}: {norm} at eps = 1/{k} is {rep.errors[norm][i]!r}, "
                    f"pinned {ref!r}: {rel:.2e} relative > norm_tol {cfg.norm_tol:g}")
                worst = max(worst, rel)
    ok(12, f"E0/E1/E2 of both sweeps within norm_tol of the pinned values "
           f"(largest move {worst:.1e})")
