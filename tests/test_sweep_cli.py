from dataclasses import replace

import numpy as np
import pytest

import microhom
import microhom.sweep
from microhom import (ConfigError, ConvergenceReport, SolveError, TorusGrid, emit_report,
                      fit_rate, run_sweep)
from microhom.cli import main
from microhom.config import ExperimentConfig
from microhom.sweep import config_cell_table, matched_effective_matrix

QUICK_1D = ExperimentConfig(family="separable_1d", params=(), n_x=16, n_y=64,
                            n_f=8, eps_denominators=(4, 8, 16),
                            cell_tol=1e-11, norm_tol=1e-5, norm_maxiter=500, seed=0)
QUICK_2D = ExperimentConfig(family="smooth_2d_nonsymmetric", params=(), n_x=4, n_y=16,
                            n_f=8, eps_denominators=(2, 3, 4), cell_tol=1e-11,
                            norm_tol=1e-5, norm_maxiter=500, seed=0, matched_effective=True)


def quick_2d_matched():
    return matched_effective_matrix(QUICK_2D.make_field(), TorusGrid(2, QUICK_2D.n_x),
                                    QUICK_2D.n_f, QUICK_2D.cell_tol)


@pytest.fixture(scope="module")
def quick_report():
    return run_sweep(QUICK_1D)


def test_configs_built_in_code_are_validated():
    # checked at construction, not only by load_config, so run_sweep never
    # starts on a config it cannot finish
    with pytest.raises(ConfigError, match="n_f = 8 must divide n_y = 60"):
        ExperimentConfig(family="separable_1d", params=(), n_x=16, n_y=60, n_f=8,
                         eps_denominators=(4, 8, 16))
    with pytest.raises(ConfigError, match="n_f must be >= 8, got 7"):
        replace(QUICK_1D, n_f=7)


def test_fit_rate_exact_powers():
    eps = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    s, b, r = fit_rate(eps, eps)
    assert s == pytest.approx(1.0, abs=1e-12)
    assert r == pytest.approx(0.0, abs=1e-12)
    s, b, r = fit_rate(eps, [e ** 2 for e in eps])
    assert s == pytest.approx(2.0, abs=1e-12)
    s, b, r = fit_rate(eps, [3 * e ** 1.5 for e in eps])
    assert s == pytest.approx(1.5, abs=1e-12)
    assert b == pytest.approx(np.log(3.0), abs=1e-12)


def test_fit_rate_rejects_floor_and_short_input():
    with pytest.raises(ValueError, match="floor"):
        fit_rate([1 / 8, 1 / 16, 1 / 32], [1e-3, 0.0, 1e-5])
    with pytest.raises(ValueError, match="3 points"):
        fit_rate([1 / 8, 1 / 16], [1e-3, 1e-4])


def test_quick_sweep_structure(quick_report):
    rep = quick_report
    assert rep.eps_list == sorted(rep.eps_list, reverse=True)
    assert all(e >= 0 for curve in rep.errors.values() for e in curve)
    assert rep.slopes["E0"] is not None
    assert np.isfinite(rep.slopes["E2"][0])
    # the second-order curve beats the zero-order curve pointwise
    assert rep.errors["E2"][-1] < rep.errors["E0"][-1]


def test_emit_report_files(quick_report, tmp_path):
    paths = emit_report(quick_report, tmp_path / "out")
    text = paths["results"].read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "eps,E0,E1,E2"
    assert len(lines) == 1 + len(quick_report.eps_list)
    assert paths["summary"].read_text().startswith("family: separable_1d")
    assert paths["loglog"].read_text().startswith("#")
    assert paths["timings"].exists()


def test_timings_split_per_eps_and_setup_stages(quick_report, tmp_path):
    lines = emit_report(quick_report, tmp_path)["timings"].read_text().splitlines()
    assert lines[0] == ("eps,assemble_ms,correctors_ms,pairing_ms,"
                        "norm_E0_ms,norm_E1_ms,norm_E2_ms")
    assert len(lines) == 1 + len(quick_report.eps_list) + 3
    setup = [line.split(",")[0] for line in lines[-3:]]
    assert setup == ["# cell_table_ms", "# moments_ms", "# drift_ms"]


def test_cell_table_breaking_energy_bound_aborts_sweep(monkeypatch):
    # a real table with its cell gradients scaled by 1e3 breaks the bound
    # sqrt(d) / lam^2 at every sample: the sweep refuses it and names one
    build = microhom.sweep.build_cell_table

    def inflated(*args, **kwargs):
        cells = build(*args, **kwargs)
        cells.grad_y_chi[0] *= 1e3
        return cells
    monkeypatch.setattr(microhom.sweep, "build_cell_table", inflated)
    with pytest.raises(SolveError, match="slow sample x = .*energy"):
        run_sweep(QUICK_1D)


def test_sweep_walks_offset_rows_once_per_sweep(monkeypatch):
    # one drift walk serves every eps and reads both gradient families at once
    walked = []
    offset_rows = microhom.correctors._offset_rows

    def counted(table, *args):
        walked.append(table)
        return offset_rows(table, *args)
    monkeypatch.setattr(microhom.correctors, "_offset_rows", counted)
    build = microhom.sweep.build_cell_table
    built = []

    def recorded(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]
    monkeypatch.setattr(microhom.sweep, "build_cell_table", recorded)
    rep = run_sweep(QUICK_1D)
    assert len(rep.eps_list) == len(QUICK_1D.eps_denominators)
    assert len(built) == 1 and len(walked) == 1
    assert walked[0] is built[0].grad_y_chi and walked[0].shape[0] == 2


@pytest.mark.parametrize("matched,method,n_cell", [(True, "fv", 8), (False, "spectral", 16)],
                         ids=["matched", "unmatched"])
def test_sweep_reads_every_cell_object_from_one_table(monkeypatch, matched, method, n_cell):
    # matched: one finite-volume table on the n_f grid, whose a0 is the
    # matched effective matrix bit for bit and gives R0; unmatched: the
    # field's spectral table on the n_y grid
    built, r0_a0 = [], []
    build = microhom.sweep.build_cell_table
    assemble_homogenized = microhom.sweep.assemble_homogenized

    def recorded_build(field, slow_grid, cell_grid, **kwargs):
        built.append((field.cell_method, cell_grid.n, build(field, slow_grid, cell_grid,
                                                            **kwargs)))
        return built[-1][-1]

    def recorded_hom(hom, grid):
        r0_a0.append(hom.matrices)
        return assemble_homogenized(hom, grid)
    monkeypatch.setattr(microhom.sweep, "build_cell_table", recorded_build)
    monkeypatch.setattr(microhom.sweep, "assemble_homogenized", recorded_hom)
    rep = run_sweep(replace(QUICK_2D, matched_effective=matched))
    assert len(rep.eps_list) == len(QUICK_2D.eps_denominators)
    [(cell_method, n, cells)] = built
    assert (cell_method, cells.method, n) == (method, method, n_cell)
    assert len(r0_a0) == len(rep.eps_list)
    assert all(np.array_equal(a0, cells.a0[0]) for a0 in r0_a0)
    # flags are warnings: the mode is recorded in the summary's config block
    assert not any(f.startswith("matched_effective") for f in rep.flags)
    assert f"matched_effective = {str(matched).lower()}" in rep.config_text
    if matched:
        assert np.array_equal(cells.a0[0], quick_2d_matched().matrices)


def test_per_eps_stages_run_without_gradient_tables(monkeypatch):
    seen = []
    corrector_op = microhom.sweep.corrector_op

    def watched(cells, *args, **kwargs):
        seen.append((cells.grad_y_chi, cells.cell_grid))
        return corrector_op(cells, *args, **kwargs)
    monkeypatch.setattr(microhom.sweep, "corrector_op", watched)
    run_sweep(QUICK_1D)
    # one call per eps builds both K and K-tilde
    assert len(seen) == len(QUICK_1D.eps_denominators)
    assert all(gy is None for gy, _ in seen)
    # chi, both families, is kept on the n_f-point fast sublattice only
    assert all(cell_grid.n == QUICK_1D.n_f for _, cell_grid in seen)


def test_norm_applications_recorded(quick_report, tmp_path):
    apps = quick_report.norm_applications
    assert set(apps) == {"E0", "E1", "E2"}
    assert all(len(v) == len(quick_report.eps_list) for v in apps.values())
    assert all(1 <= a <= QUICK_1D.norm_maxiter for v in apps.values() for a in v)
    summary = emit_report(quick_report, tmp_path)["summary"].read_text().splitlines()
    at = summary.index("eps        normal-operator applications (E0 E1 E2)")
    finest = summary[at + len(quick_report.eps_list)].split()
    assert finest == ["1/16"] + [str(apps[k][-1]) for k in ("E0", "E1", "E2")]


def test_norm_residuals_recorded(quick_report, tmp_path):
    # each norm stopped at a final Ritz residual within its tolerance
    res = quick_report.norm_residuals
    assert all(len(res[k]) == len(quick_report.eps_list) for k in ("E0", "E1", "E2"))
    assert all(0.0 <= r <= QUICK_1D.norm_tol for v in res.values() for r in v)
    summary = emit_report(quick_report, tmp_path)["summary"].read_text().splitlines()
    at = summary.index("eps        final relative Ritz residuals (E0 E1 E2)")
    for i, line in enumerate(summary[at + 1:at + 1 + len(quick_report.eps_list)]):
        assert line.split()[1:] == [f"{res[k][i]:.2e}" for k in ("E0", "E1", "E2")]


def test_emit_report_empty():
    rep = ConvergenceReport(family="none", eps_list=[],
                            errors={"E0": [], "E1": [], "E2": []})
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        paths = emit_report(rep, tmp)
        assert paths["results"].read_text() == "eps,E0,E1,E2\n"
        assert "no data" in rep.summary()


def test_determinism_byte_identical(tmp_path):
    rep1 = run_sweep(QUICK_1D)
    rep2 = run_sweep(QUICK_1D)
    p1 = emit_report(rep1, tmp_path / "a")
    p2 = emit_report(rep2, tmp_path / "b")
    assert p1["results"].read_bytes() == p2["results"].read_bytes()
    assert p1["loglog"].read_bytes() == p2["loglog"].read_bytes()


def test_sweep_rejects_jobs_other_than_one_before_any_stage(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a stage ran")
    monkeypatch.setattr(microhom.sweep, "build_cell_table", never)
    for jobs in (0, 2):
        with pytest.raises(ValueError, match=f"jobs = {jobs}"):
            run_sweep(QUICK_1D, jobs=jobs)


@pytest.mark.parametrize("stage,message", [
    ("assemble", "injected failure"),
    ("pairing", "transpose_defect: non-finite values for Mop")], ids=["assemble", "pairing"])
def test_failed_eps_keeps_measured_points(quick_report, monkeypatch, stage, message):
    if stage == "assemble":
        assemble = microhom.sweep.assemble_fine

        def fail_at_finest(field, eps, grid):
            if eps == 1 / 16:
                raise SolveError("injected failure")
            return assemble(field, eps, grid)
        monkeypatch.setattr(microhom.sweep, "assemble_fine", fail_at_finest)
    else:
        assemble_M = microhom.sweep.assemble_M

        def nan_at_finest(chat, r_hom, grid):
            # a checked operator whose transposed block holds a NaN at eps 1/16
            op = assemble_M(chat, r_hom, grid)
            if grid.n == 16 * QUICK_1D.n_f:
                rmatmat = op._rmatmat

                def planted(x):
                    y = rmatmat(x)
                    y[0] = np.nan
                    return y
                op._rmatmat = planted
            return op
        monkeypatch.setattr(microhom.sweep, "assemble_M", nan_at_finest)
    rep = run_sweep(QUICK_1D)
    assert rep.eps_list == [1 / 4, 1 / 8]
    for key in ("E0", "E1", "E2"):
        assert rep.errors[key] == quick_report.errors[key][:2]
    aborted = [f for f in rep.flags if f.startswith("aborted")]
    assert len(aborted) == 1 and f"eps = 1/16, stage {stage}: {message}" in aborted[0]


def test_cell_residual_above_tol_flagged(monkeypatch, tmp_path):
    # a table accepted at a roundoff floor between cell_tol and the abort
    # limit 10 * cell_tol is flagged, the sweep is not aborted
    cfg = replace(QUICK_1D, n_y=256, cell_tol=1e-12)
    build = microhom.sweep.build_cell_table

    def at_floor(*args, **kwargs):
        cells = build(*args, **kwargs)
        cells.residual_max = 4e-12
        return cells
    monkeypatch.setattr(microhom.sweep, "build_cell_table", at_floor)
    rep = run_sweep(cfg)
    floor = [f for f in rep.flags if "(roundoff floor)" in f]
    assert len(floor) == 1 and floor[0].startswith("cell residual_max ")
    assert "above cell_tol 1e-12" in floor[0]
    assert not any(f.startswith("aborted") for f in rep.flags)
    paths = emit_report(rep, tmp_path)
    assert floor[0] in paths["summary"].read_text()


def test_identity_defects_kept_and_flagged(quick_report, monkeypatch, tmp_path):
    # a0[1] (the adjoint family's) moved off a0[0]^T by 1e-6: the duality defect
    # is kept and flagged, and the measured errors, which never read a0[1], do not move
    assert quick_report.equivalence_defect <= 1e-10
    assert quick_report.adjoint_defect <= 1e-10
    assert not any("defect" in f for f in quick_report.flags)
    build = microhom.sweep.build_cell_table

    def perturbed(*args, **kwargs):
        cells = build(*args, **kwargs)
        cells.a0[1][..., 0, 0] += 1e-6
        return cells
    monkeypatch.setattr(microhom.sweep, "build_cell_table", perturbed)
    rep = run_sweep(QUICK_1D)
    assert rep.adjoint_defect == pytest.approx(1e-6, rel=1e-6)
    assert rep.equivalence_defect == quick_report.equivalence_defect
    assert [f for f in rep.flags if "defect" in f] == ["adjoint duality defect 1.00e-06 "
                                                       "above 1e-10"]
    assert rep.errors == quick_report.errors
    summary = emit_report(rep, tmp_path)["summary"].read_text()
    assert "identity defects of the cell table: equivalence " in summary
    assert "adjoint duality 1.000e-06" in summary


def test_cell_table_residual_and_lipschitz_kept(quick_report, tmp_path):
    # the report keeps the table's worst cell residual and Lipschitz quotient
    # and prints both on the cell table's identity line
    _, cells = config_cell_table(QUICK_1D)
    assert 0.0 < quick_report.cell_residual_max == cells.residual_max <= QUICK_1D.cell_tol
    assert 0.0 < quick_report.cell_lipschitz_quotient == cells.lipschitz_quotient
    summary = emit_report(quick_report, tmp_path)["summary"].read_text().splitlines()
    line = next(x for x in summary if x.startswith("identity defects of the cell table"))
    assert line.endswith(f", residual_max {cells.residual_max:.3e}, "
                         f"lipschitz_quotient {cells.lipschitz_quotient:.6g}")


def test_worst_transpose_defect_named(monkeypatch, tmp_path):
    # one pairing call per eps; the report keeps the largest defect and names
    # its operator and eps, and a 1D sweep leaves out its empty L-core
    calls = []

    def recording(ops, **kwargs):
        ops = list(ops)
        defects = microhom.operators.transpose_defect(ops, **kwargs)
        calls.append([(d, op.label) for d, op in zip(defects, ops)])
        return defects

    monkeypatch.setattr(microhom.sweep, "transpose_defect", recording)
    rep = run_sweep(QUICK_1D)
    assert len(calls) == len(rep.eps_list) == 3
    assert all([label for _, label in c] == ["R_eps", "R0", "K", "Ktilde", "Mop",
                                             "R_eps-R0-eps*K", "R_eps-R0-eps*C"] for c in calls)
    worst, label, k = max((d, label, k) for c, k in zip(calls, (4, 8, 16)) for d, label in c)
    assert rep.transpose_defect_max == worst > 0.0
    assert rep.transpose_defect_at == f"{label} at eps 1/{k}"
    summary = emit_report(rep, tmp_path)["summary"].read_text()
    assert (f"max transpose defect over assembled operators: {worst:.3e} "
            f"({label} at eps 1/{k})") in summary


def test_constant_family_flagged_floor():
    cfg = ExperimentConfig(family="constant", params=(("dim", 1),), n_x=8, n_y=32,
                           n_f=8, eps_denominators=(4, 8, 16),
                           cell_tol=1e-11, norm_tol=1e-5, norm_maxiter=100, seed=0)
    rep = run_sweep(cfg)
    # the oscillating and homogenized operators coincide: all errors at the floor
    assert max(rep.errors["E0"]) < 1e-12
    assert rep.slopes["E0"] is None
    assert any("floor" in f for f in rep.flags)



def test_two_point_sweep_names_too_few_points(tmp_path):
    # two measured points cannot be fitted; that is not a discretization floor
    rep = run_sweep(replace(QUICK_1D, eps_denominators=(4, 8)))
    assert rep.eps_list == [1 / 4, 1 / 8] and all(e > 0 for e in rep.errors["E0"])
    assert rep.slopes == {"E0": None, "E1": None, "E2": None}
    for key in ("E0", "E1", "E2"):
        assert f"{key}: too few points (need at least 3 points to fit a rate)" in rep.flags
    summary = emit_report(rep, tmp_path)["summary"].read_text()
    assert "slope[E0]: none (2 eps points; a rate needs at least 3)" in summary
    assert "floor" not in summary


CONFIG_TEXT = """
[coefficient]
family = separable_1d

[grids]
n_x = 16
n_y = 64
n_f = 8

[sweep]
eps_denominators = 4,8,16

[solver]
norm_tol = 1e-5
norm_maxiter = 500
"""


def test_cli_validate(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG_TEXT)
    assert main(["validate", "--config", str(cfg)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_validate_bad_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[coefficient]\nfamily = zebra\n")
    assert main(["validate", "--config", str(cfg)]) == 2


def test_cli_cells_effective_sweep(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG_TEXT + f"\n[output]\nout_dir = {tmp_path}/out\n")
    assert main(["cells", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "cells.bin").exists()
    assert main(["cells", "--inspect", str(tmp_path / "out" / "cells.bin")]) == 0
    assert "n_y=64" in capsys.readouterr().out

    assert main(["effective", "--config", str(cfg)]) == 0
    eff = (tmp_path / "out" / "effective.csv").read_text()
    assert eff.startswith("x0,a0_00")

    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == 0
    assert (tmp_path / "sw" / "results.csv").exists()
    out = capsys.readouterr().out
    assert "slope[E2]" in out


def test_cli_effective_writes_the_matched_matrix(tmp_path, capsys):
    # the a0 whose R0 a matched sweep measures, not the continuum one
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUICK_2D.normalized_text())
    assert main(["effective", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "effective.csv").read_text() == quick_2d_matched().to_csv()
    assert "effective matrix written to" in capsys.readouterr().out


def test_cli_cells_writes_the_matched_table(tmp_path, capsys):
    # a matched config's table is the finite-volume one on the n_f grid,
    # whose a0 is the matched effective matrix bit for bit
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUICK_2D.normalized_text())
    assert main(["cells", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert main(["cells", "--inspect", str(tmp_path / "cells.bin")]) == 0
    header = capsys.readouterr().out.splitlines()[-2]
    assert "method=fv" in header and "n_y=8" in header
    cells = microhom.load_cell_table(tmp_path / "cells.bin")
    assert np.array_equal(cells.a0[0], quick_2d_matched().matrices)


def test_cli_sweep_has_no_jobs_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--jobs", "2", "--config", str(tmp_path / "exp.cfg")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["missing.bin", "."], ids=["missing", "directory"])
def test_cli_inspect_bad_path_exits_2(tmp_path, capsys, name):
    path = tmp_path / name
    assert main(["cells", "--inspect", str(path)]) == 2
    assert f"cannot read cell table {path}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cells", "effective", "sweep"])
def test_cli_out_on_a_file_exits_2(tmp_path, capsys, monkeypatch, command):
    # refused before any cell table or sweep is built
    def never(*args, **kwargs):
        raise AssertionError("built before the path was checked")
    for name in ("config_cell_table", "run_sweep"):
        monkeypatch.setattr(microhom.cli, name, never)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG_TEXT)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main([command, "--config", str(cfg), "--out", str(taken)]) == 2
    assert f"cannot create output directory {taken}" in capsys.readouterr().err


def test_public_names_resolve():
    missing = [name for name in microhom.__all__ if not hasattr(microhom, name)]
    assert missing == []
