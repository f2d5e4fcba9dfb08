"""Resolvent convergence experiments over a list of eps values.

For each eps the harness assembles the oscillating and homogenized
operators on a commensurate fine grid, builds the corrector operators from
one shared cell table, and measures

    E0 = || R_eps - R0 ||                (L2 -> L2)
    E1 = || R_eps - R0 - eps K ||        (L2 -> H1)
    E2 = || R_eps - R0 - eps C ||        (L2 -> L2)

with C = K + Ktilde^T - Lop - Mop, then fits log-log slopes.  The three
error operators are applied in fused form (`correctors.error_operators`:
2, 2 and 3 LU solves per application on either side) and each norm is the
Lanczos estimate of `operators.operator_norm`, whose number of
normal-operator applications and final Ritz residual the report keeps per
eps.  One offset walk (`correctors.drift_matrix_field`) builds the
double-averaged matrices of every eps before the per-eps loop, which reads
no cell gradient table.
A sweep reads every cell object from one table (`config_cell_table`).
"""

import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np

from . import correctors
from .assemble import assemble_fine, assemble_homogenized, resolvent_op
from .cell import build_cell_table
from .config import ExperimentConfig
# run_sweep calls neither full_corrector nor flux_corrector (the norms apply
# the fused error_operators, and corrector_coeffs builds its own flux
# deviations), nor matched_effective_matrix below (a matched sweep reads a0
# off its one table); perfbench/run.py wraps all three by this module's name
from .correctors import (assemble_L, assemble_M, corrector_coeffs, corrector_op,  # noqa: F401
                         error_operators, full_corrector)
from .effective import effective_matrix, flux_corrector  # noqa: F401
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
    timings: dict = dc_field(default_factory=dict)      # stage -> [ms per eps], or [ms]
    transpose_defect_max: float = 0.0
    transpose_defect_at: str = ""       # the operator and eps that attain it, e.g. "Mop at eps 1/64"
    # the table's identity defects: the two quadratures of c3 (criterion 5)
    # and the adjoint duality of a0 (criterion 10); its two quality figures
    equivalence_defect: float = 0.0
    adjoint_defect: float = 0.0
    cell_residual_max: float = 0.0
    cell_lipschitz_quotient: float = 0.0
    prefactors: dict = dc_field(default_factory=dict)   # name -> E / eps^order at finest eps
    # {"E0": [...], ...}: applications of the normal operator per norm, per eps
    norm_applications: dict = dc_field(
        default_factory=lambda: {"E0": [], "E1": [], "E2": []})
    # {"E0": [...], ...}: the relative Ritz residual each norm stopped at, per eps
    norm_residuals: dict = dc_field(
        default_factory=lambda: {"E0": [], "E1": [], "E2": []})

    def summary(self):
        lines = [f"family: {self.family}", "eps        E0            E1            E2"]
        for i, eps in enumerate(self.eps_list):
            lines.append(f"1/{round(1 / eps):<8d} "
                         + " ".join(f"{self.errors[k][i]:.6e}" for k in ("E0", "E1", "E2")))
        if not self.eps_list:
            lines.append("no data")
        else:
            for title, per_norm, fmt in (
                    ("normal-operator applications", self.norm_applications, ">5d"),
                    ("final relative Ritz residuals", self.norm_residuals, ".2e")):
                lines.append(f"eps        {title} (E0 E1 E2)")
                for i, eps in enumerate(self.eps_list):
                    lines.append(f"1/{round(1 / eps):<8d} " + " ".join(
                        f"{per_norm[k][i]:{fmt}}" for k in ("E0", "E1", "E2")))
        for name, fit in self.slopes.items():
            if fit is None and len(self.eps_list) < 3:
                lines.append(f"slope[{name}]: none ({len(self.eps_list)} eps points; "
                             "a rate needs at least 3)")
            elif fit is None:
                lines.append(f"slope[{name}]: floor (errors at or below the "
                             "discretization floor; refine h or widen eps)")
            else:
                s, b, r = fit
                lines.append(f"slope[{name}]: {s:.4f} (intercept {b:.4f}, residual {r:.2e})")
        for name, c in self.prefactors.items():
            lines.append(f"measured prefactor {name}: {c:.4e}")
        at = f" ({self.transpose_defect_at})" if self.transpose_defect_at else ""
        lines.append(f"max transpose defect over assembled operators: "
                     f"{self.transpose_defect_max:.3e}{at}")
        lines.append(f"identity defects of the cell table: equivalence "
                     f"{self.equivalence_defect:.3e}, adjoint duality {self.adjoint_defect:.3e}, "
                     f"residual_max {self.cell_residual_max:.3e}, "
                     f"lipschitz_quotient {self.cell_lipschitz_quotient:.6g}")
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


def config_cell_table(config, field=None):
    """(field, cells): the one cell table of a sweep of `config` (field:
    `config.make_field()` by default).  With `matched_effective` it is the
    finite-volume table on the n_f-point grid, the fine scheme's own
    implicit cell limit, and the field comes back with cell_method "fv";
    otherwise the field's own method on the n_y-point grid."""
    field = config.make_field() if field is None else field
    if config.matched_effective:
        field = replace(field, cell_method="fv")
    n_cell = config.n_f if config.matched_effective else config.n_y
    return field, build_cell_table(field, TorusGrid(field.dim, config.n_x),
                                   TorusGrid(field.dim, n_cell), tol=config.cell_tol)


def matched_effective_matrix(field, slow_grid, n_f, tol):
    """Effective matrix of the fine scheme's own implicit cell problem: the
    a0 of the matched table of `config_cell_table` (finite volumes at the
    fine grid's per-cell resolution n_f), checked like the continuum one."""
    fv = replace(field, cell_method="fv")
    return effective_matrix(build_cell_table(fv, slow_grid, TorusGrid(field.dim, n_f), tol=tol), fv)


# the bound the tests hold both identity defects to; a sweep above it is flagged
IDENTITY_DEFECT_BOUND = 1e-10

# the eps-independent stages, timed once per sweep
SETUP_STAGES = ("cell_table_ms", "moments_ms", "drift_ms")


def _norm_seed(seed, tag):
    # crc32 keeps the derived seed stable across interpreter runs
    return (seed * 1000003 + zlib.crc32(tag.encode())) % (2 ** 31)


def run_sweep(config: ExperimentConfig, jobs=1, progress=None) -> ConvergenceReport:
    """Full convergence experiment for one configuration.

    Cell problems are solved once, in the one table of `config_cell_table`,
    and reused for every eps; a cell residual accepted above cell_tol (the
    FFT roundoff floor) is flagged.  A per-eps failure aborts the sweep but
    keeps the points already measured, with the failing eps and stage
    (assemble, correctors, pairing, norm_E0, norm_E1 or norm_E2) recorded in
    the `aborted:` flag.  The eps points run in turn; `jobs` accepts only 1.
    The cell table is checked sample by sample (gradient energy bound and
    solenoidal flux deviations) when the coefficient tensors are built, and
    its two identity defects (c3 quadrature equivalence, a0 adjoint
    duality) are kept and flagged above IDENTITY_DEFECT_BOUND.
    """
    if jobs != 1:
        raise ValueError(f"jobs = {jobs!r}: the eps points run in turn, so jobs must be 1")
    say = progress or (lambda msg: None)
    field = config.make_field()
    d = field.dim

    report = ConvergenceReport(family=field.name, eps_list=[],
                               errors={"E0": [], "E1": [], "E2": []},
                               config_text=config.normalized_text())

    @contextmanager
    def setup_stage(name):
        t = time.perf_counter()
        yield
        report.timings[name + "_ms"] = [1000.0 * (time.perf_counter() - t)]

    with setup_stage("cell_table"):
        say("building cell table")
        field, cells = config_cell_table(config, field)
    report.cell_residual_max, report.cell_lipschitz_quotient = (cells.residual_max,
                                                                cells.lipschitz_quotient)
    if cells.residual_max > config.cell_tol:
        report.flags.append(f"cell residual_max {cells.residual_max:.2e} above "
                            f"cell_tol {config.cell_tol:g} (roundoff floor)")
    with setup_stage("moments"):
        # the tensors first: their walk checks every sample's energy bound
        # and solenoidality before anything else is read off the table
        coeffs = corrector_coeffs(cells, field)
        hom = effective_matrix(cells, field)
    report.equivalence_defect = coeffs.equivalence_defect
    report.adjoint_defect = hom.adjoint_defect
    for name, value in (("equivalence", coeffs.equivalence_defect),
                        ("adjoint duality", hom.adjoint_defect)):
        if value > IDENTITY_DEFECT_BOUND:
            report.flags.append(f"{name} defect {value:.2e} above {IDENTITY_DEFECT_BOUND:g}")

    ks = sorted(config.eps_denominators)  # the report keeps this order: eps descending
    grids = [TorusGrid(d, config.n_f * k) for k in ks]
    specs = [SmoothingSpec(eps=1.0 / k, n_omega=config.n_f) for k in ks]
    with setup_stage("drift"):
        say("building double-averaged matrices")
        # through the module, where perfbench/run.py wraps it
        chats = correctors.drift_matrix_field(field, cells, specs, grids)
    # the per-eps stages read only chi, both families, on the fast sublattice:
    # the full tables are released here
    cells = correctors.fast_sublattice(cells, config.n_f)

    stage_names = ("assemble_ms", "correctors_ms", "pairing_ms", "norm_E0_ms",
                   "norm_E1_ms", "norm_E2_ms")
    for name in stage_names:
        report.timings[name] = []

    # one context manager for every eps: decorating one per eps would add
    # time outside the stages, which perfbench's tracer counts as uncovered
    @contextmanager
    def stage(times, k, name):
        t = time.perf_counter()
        try:
            yield
        except SolveError as exc:
            raise SolveError(f"eps = 1/{k}, stage {name}: {exc}") from exc
        times[name + "_ms"] = 1000.0 * (time.perf_counter() - t)

    def one_eps(k, grid, spec, chat):
        times = {}
        with stage(times, k, "assemble"):
            a_eps = assemble_fine(field, spec.eps, grid)
            a_hom = assemble_homogenized(hom, grid)
            r_eps = resolvent_op(a_eps, label="R_eps")
            r_hom = resolvent_op(a_hom, label="R0")

        with stage(times, k, "correctors"):
            cor, cor_adj = corrector_op(cells, spec, grid, r_hom)
            l_op = assemble_L(coeffs, r_hom, grid)
            m_op = assemble_M(chat, r_hom, grid)
            diffs = error_operators(r_eps, r_hom, cor, cor_adj, l_op, m_op, spec.eps)

        # the fused E1/E2 transposes are derived by hand: check them too.  E0's
        # is the difference of the two resolvents' own (pinned in the tests),
        # so the sweep skips its solves, and an L-core with no entries (every
        # 1D field's) has nothing to check.  One call draws the trial vectors
        # once and applies each operator once per side to their block
        with stage(times, k, "pairing"):
            checked = [op for op in (r_eps, r_hom, cor, cor_adj, l_op, m_op) + diffs[1:]
                       if op is not l_op or l_op.core.matrix.nnz]
            defects = transpose_defect(checked, n_trials=2, seed=config.seed)
            defect, label = max(zip(defects, [op.label for op in checked]))
            tdef = (defect, f"{label} at eps 1/{k}")

        values, infos = [], []
        for name, diff in zip(("E0", "E1", "E2"), diffs):
            info = {}
            with stage(times, k, "norm_" + name):
                gram = h1_gram_op(grid) if name == "E1" else None
                values.append(operator_norm(
                    diff, tol=config.norm_tol, maxiter=config.norm_maxiter,
                    seed=_norm_seed(config.seed, f"{name}/{k}"), gram=gram, info=info))
            infos.append(info)
        return values, infos, times, tdef

    # an eps enters the report only after all six of its stages succeed
    for k, grid, spec, chat in zip(ks, grids, specs, chats):
        say(f"eps = 1/{k}")
        try:
            values, infos, times, tdef = one_eps(k, grid, spec, chat)
        except SolveError as exc:
            report.flags.append(f"aborted: {exc}")
            break
        report.eps_list.append(spec.eps)
        for key, e, info in zip(("E0", "E1", "E2"), values, infos):
            report.errors[key].append(e)
            report.norm_applications[key].append(info["applications"])
            report.norm_residuals[key].append(info["residual"])
        for name in stage_names:
            report.timings[name].append(times[name])
        if tdef[0] > report.transpose_defect_max:
            report.transpose_defect_max, report.transpose_defect_at = tdef

    for key in ("E0", "E1", "E2"):
        try:
            report.slopes[key] = fit_rate(report.eps_list, report.errors[key])
        except ValueError as exc:
            report.slopes[key] = None
            cause = "floor" if len(report.eps_list) >= 3 else "too few points"
            report.flags.append(f"{key}: {cause} ({exc})")
    if report.eps_list:
        eps_min = report.eps_list[-1]
        for key, order in (("E0", 1.0), ("E1", 1.0), ("E2", 2.0)):
            e = report.errors[key][-1]
            if e > 0:
                report.prefactors[key] = e / eps_min ** order
    return report


def output_dir(out_dir):
    """The output directory as a Path, created if missing, else ValueError."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out}: {exc}") from exc
    return out


def emit_report(report: ConvergenceReport, out_dir):
    """Write results.csv, timings.csv, summary.txt, and loglog.dat.

    results.csv and loglog.dat are deterministic for a fixed config and
    seed; wall-clock timings live in their own file.
    """
    out = output_dir(out_dir)
    results = out / "results.csv"
    lines = ["eps,E0,E1,E2"]
    for i, eps in enumerate(report.eps_list):
        lines.append(f"{eps:.12e}," + ",".join(
            f"{report.errors[k][i]:.12e}" for k in ("E0", "E1", "E2")))
    results.write_text("\n".join(lines) + "\n")

    timings = out / "timings.csv"
    stage_names = [k for k in report.timings if k not in SETUP_STAGES]
    tlines = ["eps," + ",".join(stage_names)]
    for i, eps in enumerate(report.eps_list):
        tlines.append(f"{eps:.6e}," + ",".join(
            f"{report.timings[s][i]:.3f}" for s in stage_names))
    tlines += [f"# {s},{report.timings[s][0]:.3f}" for s in SETUP_STAGES if s in report.timings]
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
