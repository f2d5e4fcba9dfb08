"""Tests of the benchmark harness itself (not of microhom).

    python3 -m pytest perfbench/test_harness.py
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import hostspeed
import run
from tracing import Tracer, self_times, summarize, uncovered

microhom = run.import_program()

TINY = microhom.ExperimentConfig(family="separable_1d", params=(), n_x=4, n_y=16, n_f=8,
                                 eps_denominators=(4, 8, 16), cell_tol=1e-10,
                                 norm_tol=1e-5, norm_maxiter=500, seed=3)


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]; the last
    # span belongs to another run
    spans = [["root", 0.0, 10.0, -1, 1], ["a", 1.0, 4.0, 0, 1], ["b", 5.0, 9.0, 0, 1],
             ["c", 6.0, 8.0, 2, 1], ["c", 0.0, 5.0, -1, 2]]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0, 5.0]
    assert uncovered(spans, 0) == 3.0
    total, calls = summarize(spans, 1)
    assert dict(total) == {"root": 3.0, "a": 3.0, "b": 2.0, "c": 2.0}
    assert calls["c"] == 1
    total, calls = summarize(spans, 1, inside={"c": "a"})
    assert "c" not in total and calls["c"] == 0
    total, _ = summarize(spans, 1, inside={"c": "b"})
    assert total["c"] == 2.0


def test_lgmres_counter_counts_every_operator_application():
    rng = np.random.default_rng(0)
    mat = np.diag(np.linspace(1.0, 3.0, 6)) + 0.1 * rng.standard_normal((6, 6))
    b = rng.standard_normal(6)
    applied = [0]

    def matvec(x):
        applied[0] += 1
        return mat @ x

    op = spla.LinearOperator((6, 6), matvec=matvec, dtype=float)
    applied[0] = 0
    x_plain, info_plain = spla.lgmres(op, b, rtol=1e-12, atol=0.0)
    plain_count = applied[0]

    probe = run.SweepProbe(microhom, Tracer())
    counted = probe._lgmres(spla.lgmres)
    applied[0] = 0
    x, info = counted(op, b, rtol=1e-12, atol=0.0)
    assert info == info_plain == 0
    assert np.array_equal(x, x_plain)
    assert applied[0] == plain_count > 1
    assert probe.tracer.counts["krylov_matvecs"] == plain_count


def _patched_names():
    import numpy.fft
    import microhom.correctors
    import microhom.sweep
    names = [(microhom.sweep, n) for n in run.PLAIN_SPANS + (
        "resolvent_op", "corrector_op", "assemble_L", "assemble_M", "operator_norm")]
    names += [(microhom.correctors, "drift_matrix_field"), (spla, "lgmres")]
    names += [(numpy.fft, n) for n in run.FFT_ENTRY_POINTS if hasattr(numpy.fft, n)]
    return {(owner.__name__, n): getattr(owner, n) for owner, n in names}


def test_traced_sweep_matches_untraced_and_puts_every_name_back():
    before = _patched_names()
    plain = microhom.run_sweep(TINY)
    probe = run.SweepProbe(microhom, Tracer())
    traced, wall, _, error, root = probe.traced_sweep(TINY)
    assert error == ""
    assert _patched_names() == before
    assert all(v is before[k] for k, v in _patched_names().items())
    assert traced.errors == plain.errors
    assert probe.missing == []
    m = probe.layer_metrics(root)
    assert set(m) | {"sweep.cpu_s", "sweep.trace_overhead_s"} == set(run.LAYER_UNITS)
    assert m["cell.solves"] == 4
    assert m["cell.krylov_matvecs"] > 0
    assert m["operators.lu_solves"] > 0
    assert m["spectral.fft_calls"] > 0
    assert all(m[f"operators.norm_{e}_iters"] >= 1 for e in run.NORMS)
    assert 0.0 <= m["sweep.uncovered_s"] <= 0.05 * wall


def test_wrappers_are_removed_when_the_sweep_raises():
    before = _patched_names()
    bad = microhom.ExperimentConfig(**{**TINY.__dict__, "eps_denominators": (1,)})
    probe = run.SweepProbe(microhom, Tracer())
    report, _, _, error, _ = probe.traced_sweep(bad)
    assert report is None and error.startswith("run_sweep raised ValueError")
    assert all(v is before[k] for k, v in _patched_names().items())


def test_gate_counts_missing_and_wrong_points():
    report = microhom.run_sweep(TINY)
    ref = {"eps_denominators": [4, 8, 16, 32],
           **{e: list(report.errors[e]) + [1.0] for e in run.NORMS}}
    ref["E1"][0] *= 1.0 + 10 * run.REF_TOL_FACTOR * TINY.norm_tol
    failed, reasons = run.check_sweep(report, "", ref, TINY, "sep1d")
    assert failed == 2
    assert any("1/32: missing" in r for r in reasons)
    assert any(r.startswith("eps 1/4: E1") for r in reasons)
    failed, reasons = run.check_sweep(None, "run_sweep raised X: y", ref, TINY, "sep1d")
    assert (failed, reasons) == (4, ["run_sweep raised X: y"])


def test_host_correction_scales_each_sweep_by_its_bracketing_probes():
    ref = hostspeed.REFERENCE_S
    # the same 2 s sweep at the reference speed, while the host slows to
    # half speed, and at half speed throughout
    walls = [2.0, 3.0, 4.0]
    probes = [ref, ref, 2 * ref, 2 * ref]
    assert hostspeed.corrected(walls, probes) == pytest.approx([2.0, 2.0, 2.0], rel=1e-15)
    with pytest.raises(ValueError):
        hostspeed.corrected(walls, probes[:-1])
    assert hostspeed.HostProbe().seconds() > 0.0
