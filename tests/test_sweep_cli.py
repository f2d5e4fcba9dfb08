from dataclasses import replace

import numpy as np
import pytest

import microhom.sweep
from microhom import ConvergenceReport, SolveError, emit_report, fit_rate, run_sweep
from microhom.cli import main
from microhom.config import ExperimentConfig

QUICK_1D = ExperimentConfig(family="separable_1d", params=(), n_x=16, n_y=64,
                            n_f=8, eps_denominators=(4, 8, 16),
                            cell_tol=1e-11, norm_tol=1e-5, norm_maxiter=500, seed=0)


@pytest.fixture(scope="module")
def quick_report():
    return run_sweep(QUICK_1D)


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


def test_parallel_sweep_matches_serial(quick_report, tmp_path):
    rep = run_sweep(QUICK_1D, jobs=3)
    p1 = emit_report(quick_report, tmp_path / "serial")
    p2 = emit_report(rep, tmp_path / "parallel")
    assert p1["results"].read_bytes() == p2["results"].read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_eps_keeps_measured_points(quick_report, monkeypatch, jobs):
    assemble = microhom.sweep.assemble_fine

    def fail_at_finest(field, eps, grid):
        if eps == 1 / 16:
            raise SolveError("injected failure")
        return assemble(field, eps, grid)
    monkeypatch.setattr(microhom.sweep, "assemble_fine", fail_at_finest)
    rep = run_sweep(QUICK_1D, jobs=jobs)
    assert rep.eps_list == [1 / 4, 1 / 8]
    for key in ("E0", "E1", "E2"):
        assert rep.errors[key] == quick_report.errors[key][:2]
    aborted = [f for f in rep.flags if f.startswith("aborted")]
    assert len(aborted) == 1 and "eps = 1/16, stage assemble: injected" in aborted[0]


def test_cell_residual_above_tol_flagged(tmp_path):
    # at n_y = 256 the FFT roundoff floor lies above cell_tol = 1e-12: the
    # accepted residual is flagged, the sweep is not aborted
    cfg = replace(QUICK_1D, n_y=256, cell_tol=1e-12)
    rep = run_sweep(cfg)
    floor = [f for f in rep.flags if "(roundoff floor)" in f]
    assert len(floor) == 1 and floor[0].startswith("cell residual_max ")
    assert "above cell_tol 1e-12" in floor[0]
    assert not any(f.startswith("aborted") for f in rep.flags)
    paths = emit_report(rep, tmp_path)
    assert floor[0] in paths["summary"].read_text()


def test_constant_family_flagged_floor():
    cfg = ExperimentConfig(family="constant", params=(("dim", 1),), n_x=8, n_y=32,
                           n_f=8, eps_denominators=(4, 8, 16),
                           cell_tol=1e-11, norm_tol=1e-5, norm_maxiter=100, seed=0)
    rep = run_sweep(cfg)
    # the oscillating and homogenized operators coincide: all errors at the floor
    assert max(rep.errors["E0"]) < 1e-12
    assert rep.slopes["E0"] is None
    assert any("floor" in f for f in rep.flags)


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
