"""Resolvent convergence experiments over a list of eps values.

For each eps the harness assembles the oscillating and homogenized
operators on a commensurate fine grid, builds the corrector operators from
one shared cell table, and measures

    E0 = || R_eps - R0 ||                (L2 -> L2)
    E1 = || R_eps - R0 - eps K ||        (L2 -> H1)
    E2 = || R_eps - R0 - eps C ||        (L2 -> L2)

with C = K + Ktilde^T - Lop - Mop, then fits log-log slopes.
"""

import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .assemble import assemble_fine, assemble_homogenized, resolvent_op
from .cell import build_cell_table, make_solver
from .config import ExperimentConfig
from .correctors import (assemble_L, assemble_M, corrector_coeffs,
                         corrector_op, full_corrector)
from .effective import HomogenizedField, effective_matrix, flux_corrector
from .errors import SolveError
from .grids import TorusGrid
from .operators import h1_gram_op, operator_norm, transpose_defect
from .smoothing import SmoothingSpec


@dataclass
class ConvergenceReport:
    family: str
    eps_list: list                      # descending
    errors: dict                        # {"E0": [...], "E1": [...], "E2": [...]}
    slopes: dict = dc_field(default_factory=dict)       # name -> (slope, intercept, residual)
    flags: list = dc_field(default_factory=list)
    config_text: str = ""
    timings: dict = dc_field(default_factory=dict)      # stage -> [ms per eps]
    transpose_defect_max: float = 0.0
    prefactors: dict = dc_field(default_factory=dict)   # name -> E / eps^order at finest eps

    def summary(self):
        lines = [f"family: {self.family}", "eps        E0            E1            E2"]
        for i, eps in enumerate(self.eps_list):
            lines.append(f"1/{round(1 / eps):<8d} "
                         + " ".join(f"{self.errors[k][i]:.6e}" for k in ("E0", "E1", "E2")))
        if not self.eps_list:
            lines.append("no data")
        for name, fit in self.slopes.items():
            if fit is None:
                lines.append(f"slope[{name}]: floor (errors at or below the "
                             "discretization floor; refine h or widen eps)")
            else:
                s, b, r = fit
                lines.append(f"slope[{name}]: {s:.4f} (intercept {b:.4f}, residual {r:.2e})")
        for name, c in self.prefactors.items():
            lines.append(f"measured prefactor {name}: {c:.4e}")
        lines.append(f"max transpose defect over assembled operators: "
                     f"{self.transpose_defect_max:.3e}")
        for f in self.flags:
            lines.append(f"flag: {f}")
        return "\n".join(lines)


def fit_rate(eps, errors):
    """Least-squares slope of log(error) against log(eps).

    Returns (slope, intercept, rms residual).  Raises ValueError when any
    error is nonpositive (the curve has hit the discretization floor) or
    fewer than 3 points are given.
    """
    eps = np.asarray(eps, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if eps.size < 3:
        raise ValueError("need at least 3 points to fit a rate")
    if np.any(errors <= 0.0):
        raise ValueError("nonpositive error values: discretization floor reached")
    lx = np.log(eps)
    ly = np.log(errors)
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - ly) ** 2)))
    return float(coef[0]), float(coef[1]), resid


def matched_effective_matrix(field, hom, n_f, tol):
    """Effective matrix of the fine scheme's own implicit cell problem.

    Re-solves the cell problems with the conservative finite-volume
    discretization at resolution n_f (the per-cell resolution of the fine
    grid), so the homogenized operator matches the discrete two-scale limit
    of the fine scheme instead of the continuum one.  Used only by sweeps
    on eps^2 scaling, where the continuum-vs-discrete effective offset would
    otherwise floor the curve.
    """
    d = field.dim
    cell_grid = TorusGrid(d, n_f)
    xs = hom.slow_grid.coords().reshape(-1, d)
    mats = np.zeros((xs.shape[0], d, d))
    for i, x in enumerate(xs):
        solver = make_solver(field.frozen(x), cell_grid, tol, "fv")
        for j in range(d):
            cf = solver.solve(j)
            mats[i, :, j] = solver.effective_column(cf, j)
    mats = mats.reshape(hom.slow_grid.shape + (d, d))
    return HomogenizedField(slow_grid=hom.slow_grid, matrices=mats,
                            ellipticity=hom.ellipticity,
                            lipschitz_quotient=hom.lipschitz_quotient,
                            symmetric=hom.symmetric)


def _norm_seed(seed, tag):
    # crc32 keeps the derived seed stable across interpreter runs
    return (seed * 1000003 + zlib.crc32(tag.encode())) % (2 ** 31)


def run_sweep(config: ExperimentConfig, jobs=1, progress=None) -> ConvergenceReport:
    """Full convergence experiment for one configuration.

    Cell problems are solved once on the configured sample grid and reused
    for every eps; a cell residual accepted above cell_tol (the FFT
    roundoff floor) is flagged.  A per-eps failure aborts the sweep but
    keeps the points already measured, with the failing eps and stage
    (assemble, correctors, norm_E0, norm_E1 or norm_E2) recorded in the
    `aborted:` flag.  `jobs` > 1 runs the eps points in a thread pool.
    """
    say = progress or (lambda msg: None)
    field = config.make_field()
    d = field.dim
    slow_grid = TorusGrid(d, config.n_x)
    cell_grid = TorusGrid(d, config.n_y)

    report = ConvergenceReport(family=field.name, eps_list=[],
                               errors={"E0": [], "E1": [], "E2": []},
                               config_text=config.normalized_text())

    t0 = time.perf_counter()
    say("building cell table")
    cells = build_cell_table(field, slow_grid, cell_grid, tol=config.cell_tol)
    if cells.residual_max > config.cell_tol:
        report.flags.append(f"cell residual_max {cells.residual_max:.2e} above "
                            f"cell_tol {config.cell_tol:g} (roundoff floor)")
    hom = effective_matrix(cells, field)
    fc = flux_corrector(cells, field, hom)
    fc_adj = flux_corrector(cells, field, hom, adjoint=True)
    coeffs = corrector_coeffs(cells, fc, field, hom, fc_adj=fc_adj)
    report.timings["cells_ms"] = [1000.0 * (time.perf_counter() - t0)]

    hom_for_r0 = hom
    if config.matched_effective:
        say("building matched effective matrix")
        hom_for_r0 = matched_effective_matrix(field, hom, config.n_f, config.cell_tol)
        report.flags.append("matched_effective: homogenized operator uses the "
                            "fine scheme's implicit cell limit")

    stage_names = ("assemble_ms", "correctors_ms", "norm_E0_ms",
                   "norm_E1_ms", "norm_E2_ms")
    for name in stage_names:
        report.timings[name] = []

    def one_eps(k):
        eps = 1.0 / k
        grid = TorusGrid(d, config.n_f * k)
        spec = SmoothingSpec(eps=eps, n_omega=config.n_f)
        times = {}

        @contextmanager
        def stage(name):
            t = time.perf_counter()
            try:
                yield
            except SolveError as exc:
                raise SolveError(f"eps = 1/{k}, stage {name}: {exc}") from exc
            times[name + "_ms"] = 1000.0 * (time.perf_counter() - t)

        with stage("assemble"):
            a_eps = assemble_fine(field, eps, grid)
            a_hom = assemble_homogenized(hom_for_r0, grid)
            r_eps = resolvent_op(a_eps, label="R_eps")
            r_hom = resolvent_op(a_hom, label="R0")

        with stage("correctors"):
            cor = corrector_op(cells, spec, grid, r_hom, adjoint=False)
            cor_adj = corrector_op(cells, spec, grid, r_hom.T, adjoint=True)
            l_op = assemble_L(coeffs, r_hom, grid)
            m_op = assemble_M(field, cells, spec, r_hom, grid)
            c_eps = full_corrector(cor, cor_adj.T, l_op, m_op)

        tdef = max(transpose_defect(op, n_trials=2, seed=config.seed)
                   for op in (r_eps, r_hom, cor, cor_adj, l_op, m_op))

        diff0 = r_eps - r_hom
        diff1 = diff0 - eps * cor
        diff2 = diff0 - eps * c_eps
        gram = h1_gram_op(grid)

        with stage("norm_E0"):
            e0 = operator_norm(diff0, tol=config.norm_tol, maxiter=config.norm_maxiter,
                               seed=_norm_seed(config.seed, f"E0/{k}"))
        with stage("norm_E1"):
            e1 = operator_norm(diff1, tol=config.norm_tol, maxiter=config.norm_maxiter,
                               seed=_norm_seed(config.seed, f"E1/{k}"), gram=gram)
        with stage("norm_E2"):
            e2 = operator_norm(diff2, tol=config.norm_tol, maxiter=config.norm_maxiter,
                               seed=_norm_seed(config.seed, f"E2/{k}"))
        return eps, e0, e1, e2, times, tdef

    ks = sorted(config.eps_denominators)
    results, failures = [], []
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(one_eps, k) for k in ks]
        # every point has run by now: keep each one that completed
        for fut in futures:
            try:
                results.append(fut.result())
            except SolveError as exc:
                failures.append(exc)
    else:
        for k in ks:
            say(f"eps = 1/{k}")
            try:
                results.append(one_eps(k))
            except SolveError as exc:
                failures.append(exc)
                break
    if failures:
        report.flags.append(f"aborted: {failures[0]}")

    for eps, e0, e1, e2, times, tdef in results:
        report.eps_list.append(eps)
        report.errors["E0"].append(e0)
        report.errors["E1"].append(e1)
        report.errors["E2"].append(e2)
        for name in stage_names:
            report.timings[name].append(times[name])
        report.transpose_defect_max = max(report.transpose_defect_max, tdef)

    # store descending in eps
    order = np.argsort(report.eps_list)[::-1]
    report.eps_list = [report.eps_list[i] for i in order]
    for key in report.errors:
        report.errors[key] = [report.errors[key][i] for i in order]
    for name in stage_names:
        report.timings[name] = [report.timings[name][i] for i in order]

    for key in ("E0", "E1", "E2"):
        try:
            report.slopes[key] = fit_rate(report.eps_list, report.errors[key])
        except ValueError as exc:
            report.slopes[key] = None
            report.flags.append(f"{key}: floor ({exc})")
    if report.eps_list:
        eps_min = report.eps_list[-1]
        for key, order_ in (("E0", 1.0), ("E1", 1.0), ("E2", 2.0)):
            e = report.errors[key][-1]
            if e > 0:
                report.prefactors[key] = e / eps_min ** order_
    return report


def emit_report(report: ConvergenceReport, out_dir):
    """Write results.csv, timings.csv, summary.txt, and loglog.dat.

    results.csv and loglog.dat are deterministic for a fixed config and
    seed; wall-clock timings live in their own file.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out}: {exc}") from exc

    results = out / "results.csv"
    lines = ["eps,E0,E1,E2"]
    for i, eps in enumerate(report.eps_list):
        lines.append(f"{eps:.12e}," + ",".join(
            f"{report.errors[k][i]:.12e}" for k in ("E0", "E1", "E2")))
    results.write_text("\n".join(lines) + "\n")

    timings = out / "timings.csv"
    stage_names = [k for k in report.timings if k != "cells_ms"]
    tlines = ["eps," + ",".join(stage_names)]
    for i, eps in enumerate(report.eps_list):
        tlines.append(f"{eps:.6e}," + ",".join(
            f"{report.timings[s][i]:.3f}" for s in stage_names))
    tlines.append(f"# cells_ms,{report.timings.get('cells_ms', [0.0])[0]:.3f}")
    timings.write_text("\n".join(tlines) + "\n")

    summary = out / "summary.txt"
    summary.write_text(report.summary() + "\n\nconfig:\n" + report.config_text + "\n")

    loglog = out / "loglog.dat"
    dlines = ["# log10(eps) log10(E0) log10(E1) log10(E2)"]
    for i, eps in enumerate(report.eps_list):
        cols = [np.log10(eps)]
        for k in ("E0", "E1", "E2"):
            e = report.errors[k][i]
            cols.append(np.log10(e) if e > 0 else float("-inf"))
        dlines.append(" ".join(f"{c:.10f}" for c in cols))
    loglog.write_text("\n".join(dlines) + "\n")

    return {"results": results, "timings": timings,
            "summary": summary, "loglog": loglog}
