"""Sweep benchmark: one named workload through the public `run_sweep`.

    python3 perfbench/run.py --workload sep1d --seed 1 --seconds 58 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
With `--trace 0` it times set-up and repeated untraced sweeps, each sample
between two runs of a fixed host-speed probe (hostspeed.py), and prints the
end-to-end metrics.  With `--trace 1` it alternates untraced and traced
sweeps and prints the per-layer metrics; spans are kept in memory and
written to `perfbench/out/` at the end.  Every sweep passes a correctness
gate (see README.md); the last line of standard output is one JSON object,
and the exit code is 1 when any eps point failed the gate, 2 on a usage or
checkout error.
"""

import argparse
import hashlib
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

from hostspeed import HostProbe, corrected
from tracing import Tracer, summarize, uncovered

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("sep1d", "smooth2d")

MIN_SWEEPS = 3          # untraced sweeps per --trace 0 run, whatever --seconds says
SETUP_SAMPLES = 5       # timed set-up processes per --trace 0 run, after one warm-up
# Sweep i of a run uses norm seed SEED_STRIDE * --seed + i.  How many power
# iterations a norm takes depends on its start vectors (125 to 149 per sweep
# over 5 seeds on smooth2d); giving every sweep of a run its own start
# vectors makes the run's median an average over them, not one draw
SEED_STRIDE = 1000
# E-values must match the stored reference within this multiple of norm_tol
# (relative).  Power iteration stops once the estimate changes by less than
# norm_tol, not once it is within norm_tol of the limit: on sep1d the top
# singular values of E0's operator cluster and E0 lands up to 3e-4 (3,000
# times norm_tol) from the median of 14 seeds; every other value, on every
# workload, lands within 1.2e-6 of its median
REF_TOL_FACTOR = 1e4
# criterion 10's bound on the pairing defect of every assembled operator.
# sep1d exceeds it on every seed at the commit that added this benchmark
# (README, "Known defects"): the M operator maps a vector to ~1e-5 of its
# size at eps <= 1/16, and the sweep reports 6e-12 to 4e-10; its ceiling is
# 25x above the largest value seen
TRANSPOSE_DEFECT_BOUND = 1e-12
TRANSPOSE_DEFECT_KNOWN = {"sep1d": 1e-8}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS",
               "BLIS_NUM_THREADS", "OMP_DYNAMIC", "OMP_PROC_BIND")
FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                    "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
# names run_sweep looks up in microhom.sweep that get a span and nothing else
PLAIN_SPANS = ("build_cell_table", "effective_matrix", "flux_corrector",
               "corrector_coeffs", "matched_effective_matrix", "assemble_fine",
               "assemble_homogenized", "full_corrector", "transpose_defect",
               "h1_gram_op", "fit_rate")
NORMS = ("E0", "E1", "E2")

E2E_UNITS = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "frac"}
LAYER_UNITS = {
    "cell.table_s": "s", "cell.solves": "count", "cell.krylov_matvecs": "count",
    "cell.matvecs_per_solve": "matvecs/solve", "cell.residual_max": "rel",
    "effective.s": "s",
    "sweep.matched_effective_s": "s", "sweep.uncovered_s": "s", "sweep.cpu_s": "s",
    "sweep.trace_overhead_s": "s",
    "correctors.coeffs_s": "s", "correctors.kernel_build_s": "s",
    "correctors.L_build_s": "s", "correctors.M_build_s": "s", "correctors.drift_s": "s",
    "correctors.quad_applies": "count", "correctors.quad_self_s": "s",
    "correctors.L_self_s": "s", "correctors.M_self_s": "s",
    "assemble.s": "s", "assemble.factor_s": "s", "assemble.lu_fill": "nnz",
    **{f"operators.norm_{e}_s": "s" for e in NORMS},
    **{f"operators.norm_{e}_iters": "count" for e in NORMS},
    "operators.lu_solves": "count", "operators.lu_solve_s": "s",
    "operators.lu_solves_per_iter": "solves/iter", "operators.transpose_defect_s": "s",
    "spectral.fft_calls": "count", "spectral.fft_points": "pts_computed",
}


def fail_usage(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import microhom from this checkout's src/ and nowhere else."""
    if not (SRC / "microhom" / "__init__.py").is_file():
        fail_usage(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import microhom
    if Path(microhom.__file__).resolve().parent != (SRC / "microhom").resolve():
        fail_usage(f"microhom imported from {microhom.__file__}, not {SRC}")
    return microhom


def load_workload(microhom, name, seed):
    return replace(microhom.load_config(HERE / "workloads" / f"{name}.cfg"), seed=seed)


# -- measurements ----------------------------------------------------------

def setup_times(name, seed, n, host):
    """Process start to ready-to-sweep: (n samples after one discarded warm-up,
    the n + 1 host-probe times around them)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           str(HERE / "workloads" / f"{name}.cfg"), str(seed)]
    samples, probes = [], [host.seconds()]
    for _ in range(n + 1):
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
        probes.append(host.seconds())
    return samples[1:], probes[1:]


def one_sweep(microhom, config):
    """(report or None, wall seconds, cpu seconds, error text).

    Any exception from the sweep fails all of its points; the run goes on
    so that it still reports how many points failed."""
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        report, error = microhom.run_sweep(config, jobs=1), ""
    except Exception as exc:
        report, error = None, f"run_sweep raised {type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return report, wall, cpu, error


def check_sweep(report, error, reference, config, name):
    """Correctness gate: (eps points failed, reasons)."""
    want = reference["eps_denominators"]
    if report is None:
        return len(want), [error]
    reasons = [f for f in report.flags if f.startswith("aborted")]
    if reasons:
        return len(want), reasons
    tdef_bound = TRANSPOSE_DEFECT_KNOWN.get(name, TRANSPOSE_DEFECT_BOUND)
    if not report.transpose_defect_max <= tdef_bound:
        return len(want), [f"transpose_defect_max {report.transpose_defect_max:.3e} "
                           f"> {tdef_bound:.1e}"]
    rtol = REF_TOL_FACTOR * config.norm_tol
    index = {round(1.0 / e): i for i, e in enumerate(report.eps_list)}
    failed = 0
    for j, k in enumerate(want):
        if k not in index:
            failed += 1
            reasons.append(f"eps 1/{k}: missing")
            continue
        bad = [f"{e} {report.errors[e][index[k]]:.9e} vs {reference[e][j]:.9e}"
               for e in NORMS
               if not abs(report.errors[e][index[k]] - reference[e][j]) <= rtol * reference[e][j]]
        if bad:
            failed += 1
            reasons.append(f"eps 1/{k}: " + "; ".join(bad))
    return failed, reasons


def keep_going(durations, started, seconds, minimum):
    if len(durations) < minimum:
        return True
    return time.perf_counter() - started + statistics.median(durations) <= seconds


# -- tracing ---------------------------------------------------------------

class SweepProbe:
    """Wraps the calls run_sweep makes into each layer and the operators they
    return, plus drift_matrix_field, lgmres and the numpy.fft entry points."""

    def __init__(self, microhom, tracer):
        self.microhom = microhom
        self.tracer = tracer
        self.reset()

    def reset(self):
        self.missing = []
        self.norm_calls = 0
        self.norm_iters = {e: 0.0 for e in NORMS}
        self.lu_fill = 0
        self.cell_solves = 0
        self.residual_max = 0.0
        self.tracer.counts.clear()

    def install(self):
        import numpy.fft
        import scipy.sparse.linalg
        import microhom.correctors
        import microhom.sweep
        t = self.tracer
        patch = t.patch
        sweep = microhom.sweep
        for name in PLAIN_SPANS:
            self._need(patch(sweep, name, lambda f, n=name: t.timed(f, n)), f"sweep.{name}")
        self._need(patch(sweep, "build_cell_table", self._cell_table), "sweep.build_cell_table")
        self._need(patch(sweep, "resolvent_op", self._returns(self._resolvent, "resolvent_op")),
                   "sweep.resolvent_op")
        for name, label in (("corrector_op", "quad"), ("assemble_L", "L_apply"),
                            ("assemble_M", "M_apply")):
            self._need(patch(sweep, name, self._returns(
                lambda op, lab=label: self._wrap_applies(op, lab), name)), f"sweep.{name}")
        self._need(patch(sweep, "operator_norm", self._norm), "sweep.operator_norm")
        self._need(patch(microhom.correctors, "drift_matrix_field",
                         lambda f: t.timed(f, "drift_matrix_field")),
                   "correctors.drift_matrix_field")
        self._need(patch(scipy.sparse.linalg, "lgmres", self._lgmres), "scipy lgmres")
        for name in FFT_ENTRY_POINTS:
            patch(numpy.fft, name, self._fft)

    def _need(self, found, what):
        if not found:
            self.missing.append(what)

    def _returns(self, hook, name):
        def make(fn):
            timed = self.tracer.timed(fn, name)

            def wrapper(*args, **kwargs):
                out = timed(*args, **kwargs)
                hook(out)
                return out
            return wrapper
        return make

    def _wrap_applies(self, op, label):
        # forward and transposed applications; composed operators and .T look
        # these attributes up at call time, so wrapping here reaches them all
        for attr in ("_mv", "_rmv"):
            if hasattr(op, attr):
                setattr(op, attr, self.tracer.timed(getattr(op, attr), label))

    def _resolvent(self, op):
        lu = getattr(op, "lu", None)
        if lu is not None:
            self.lu_fill += lu.L.nnz + lu.U.nnz
        self._wrap_applies(op, "lu_solve")

    def _cell_table(self, fn):
        def wrapper(field, slow_grid, cell_grid, *args, **kwargs):
            cells = fn(field, slow_grid, cell_grid, *args, **kwargs)
            samples = slow_grid.size if field.lipschitz_x != 0.0 else 1
            self.cell_solves += samples * field.dim * (1 if field.symmetric else 2)
            self.residual_max = max(self.residual_max, cells.residual_max)
            return cells
        return wrapper

    def _norm(self, fn):
        try:
            default_block = inspect.signature(fn).parameters["block"].default
        except KeyError:
            default_block = 1

        def wrapper(op, *args, **kwargs):
            label = NORMS[self.norm_calls % 3]
            self.norm_calls += 1
            block = kwargs.get("block", default_block)
            block = max(1, min(block, op.shape[1]))
            applies = [0]
            apply = op.apply

            def counted(x):
                applies[0] += 1
                return apply(x)
            op.apply = counted
            self.tracer.begin(f"operator_norm.{label}")
            try:
                return fn(op, *args, **kwargs)
            finally:
                self.tracer.end()
                del op.apply
                self.norm_iters[label] += applies[0] / block
        return wrapper

    def _lgmres(self, fn):
        from scipy.sparse.linalg import LinearOperator, aslinearoperator
        counts = self.tracer.counts

        def wrapper(A, b, *args, **kwargs):
            A = aslinearoperator(A)

            def matvec(x):
                counts["krylov_matvecs"] += 1
                return A.matvec(x)
            return fn(LinearOperator(A.shape, matvec=matvec, dtype=A.dtype), b, *args, **kwargs)
        return wrapper

    def _fft(self, fn):
        import numpy
        counts = self.tracer.counts

        def wrapper(a, *args, **kwargs):
            counts["fft_calls"] += 1
            counts["fft_points"] += numpy.size(a)
            return fn(a, *args, **kwargs)
        return wrapper

    def traced_sweep(self, config):
        """One traced sweep: (report, wall, cpu, error, root span index).

        The wrappers are in place only for this sweep and are taken out
        again however it ends."""
        self.reset()
        self.tracer.run_id += 1
        try:
            self.install()
            self.tracer.begin("run_sweep")
            root = len(self.tracer.spans) - 1
            try:
                out = one_sweep(self.microhom, config)
            finally:
                self.tracer.end()
        finally:
            self.tracer.restore()
        return out + (root,)

    def layer_metrics(self, root):
        t = self.tracer
        inside = {"quad": "operator_norm", "L_apply": "operator_norm",
                  "M_apply": "operator_norm"}
        total, calls = summarize(t.spans, t.run_id, inside)
        solves = self.cell_solves
        matvecs = t.counts["krylov_matvecs"]
        iters = sum(self.norm_iters.values())
        m = {
            "cell.table_s": total["build_cell_table"],
            "cell.solves": solves,
            "cell.krylov_matvecs": matvecs,
            "cell.matvecs_per_solve": matvecs / solves if solves else 0.0,
            "cell.residual_max": self.residual_max,
            "effective.s": total["effective_matrix"] + total["flux_corrector"],
            "sweep.matched_effective_s": total["matched_effective_matrix"],
            "sweep.uncovered_s": uncovered(t.spans, root),
            "correctors.coeffs_s": total["corrector_coeffs"],
            "correctors.kernel_build_s": total["corrector_op"],
            "correctors.L_build_s": total["assemble_L"],
            "correctors.M_build_s": total["assemble_M"],
            "correctors.drift_s": total["drift_matrix_field"],
            "correctors.quad_applies": calls["quad"],
            "correctors.quad_self_s": total["quad"],
            "correctors.L_self_s": total["L_apply"],
            "correctors.M_self_s": total["M_apply"],
            "assemble.s": total["assemble_fine"] + total["assemble_homogenized"],
            "assemble.factor_s": total["resolvent_op"],
            "assemble.lu_fill": self.lu_fill,
            "operators.lu_solves": calls["lu_solve"],
            "operators.lu_solve_s": total["lu_solve"],
            "operators.lu_solves_per_iter": calls["lu_solve"] / iters if iters else 0.0,
            "operators.transpose_defect_s": total["transpose_defect"],
            "spectral.fft_calls": t.counts["fft_calls"],
            "spectral.fft_points": t.counts["fft_points"],
        }
        for e in NORMS:
            m[f"operators.norm_{e}_s"] = total[f"operator_norm.{e}"]
            m[f"operators.norm_{e}_iters"] = self.norm_iters[e]
        return m


# -- record ----------------------------------------------------------------

def environment(config, name, seed):
    import numpy
    import scipy
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, env=env).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        sha = "unavailable"
    digest = hashlib.sha256()
    for path in sorted((SRC / "microhom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
        "workload": name,
        "seed": seed,
        "config": config.normalized_text(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    reference_path = HERE / "reference.json"
    if not reference_path.is_file():
        fail_usage(f"missing {reference_path}")
    reference = json.loads(reference_path.read_text())[args.workload]
    microhom = import_program()
    config = load_workload(microhom, args.workload, SEED_STRIDE * args.seed)
    norm_seeds = []

    def next_config():
        norm_seeds.append(config.seed + len(norm_seeds))
        return replace(config, seed=norm_seeds[-1])

    sweeps = []             # per sweep: dict of wall, cpu, traced, failed, reasons
    attempted = failed = 0
    spans = []

    def gate(report, wall, cpu, error, traced):
        nonlocal attempted, failed
        bad, reasons = check_sweep(report, error, reference, config, args.workload)
        attempted += len(reference["eps_denominators"])
        failed += bad
        sweeps.append({"traced": traced, "wall_s": wall, "cpu_s": cpu, "failed": bad,
                       "reasons": reasons, "transpose_defect_max":
                       report.transpose_defect_max if report else None,
                       "errors": report.errors if report else None})

    started = time.perf_counter()
    if args.trace == 0:
        host = HostProbe()
        setups, setup_probes = setup_times(args.workload, args.seed, SETUP_SAMPLES, host)
        walls, probes, spent = [], [setup_probes[-1]], []
        while keep_going(spent, started, args.seconds, MIN_SWEEPS):
            report, wall, cpu, error = one_sweep(microhom, next_config())
            gate(report, wall, cpu, error, False)
            walls.append(wall)
            probes.append(host.seconds())
            spent.append(wall + probes[-1])
        result = {
            "sweep_s": statistics.median(corrected(walls, probes)),
            "setup_s": statistics.median(corrected(setups, setup_probes)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": 1.0 - failed / attempted,
        }
        units = E2E_UNITS
        detail = {"setup_samples_s": setups, "setup_probe_s": setup_probes,
                  "sweep_wall_s": walls, "host_probe_s": probes,
                  "setup_median_s": statistics.median(setups),
                  "sweep_wall_median_s": statistics.median(walls)}
    else:
        tracer = Tracer()
        probe = SweepProbe(microhom, tracer)
        per_sweep, pairs = [], []
        while keep_going(pairs, started, args.seconds, 1):
            t0 = time.perf_counter()
            pair_config = next_config()
            plain, wall, cpu, error = one_sweep(microhom, pair_config)
            gate(plain, wall, cpu, error, False)
            traced, twall, tcpu, terror, root = probe.traced_sweep(pair_config)
            gate(traced, twall, tcpu, terror, True)
            if plain is not None and traced is not None and plain.errors != traced.errors:
                # tracing changed the program's numbers: every point of the pair fails
                n = len(reference["eps_denominators"])
                failed += n - sweeps[-1]["failed"]
                sweeps[-1]["failed"] = n
                sweeps[-1]["reasons"].append("traced E-values differ from untraced")
            m = probe.layer_metrics(root)
            m["sweep.cpu_s"] = cpu
            m["sweep.trace_overhead_s"] = twall - wall
            per_sweep.append(m)
            pairs.append(time.perf_counter() - t0)
        result = {k: statistics.median(m[k] for m in per_sweep) for k in LAYER_UNITS}
        units = LAYER_UNITS
        spans = tracer.records()
        detail = {"missing_wrappers": probe.missing, "per_sweep": per_sweep}

    correct = failed == 0
    env = environment(config, args.workload, args.seed)
    env["norm_seeds"] = norm_seeds
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": result, "units": units,
              "sweeps": sweeps, **detail}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")
    if spans:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")

    for s in sweeps:
        for reason in s["reasons"]:
            print(f"gate: {reason}")
    worst = max((s["transpose_defect_max"] for s in sweeps if s["transpose_defect_max"]),
                default=0.0)
    if worst > TRANSPOSE_DEFECT_BOUND:
        print(f"note: transpose_defect_max {worst:.3e} exceeds criterion 10's "
              f"{TRANSPOSE_DEFECT_BOUND:.0e} (known defect, see perfbench/README.md)")
    if args.trace == 0:
        print(f"uncorrected medians: sweep wall time {detail['sweep_wall_median_s']:.6g} s, "
              f"set-up {detail['setup_median_s']:.6g} s")
    for k, v in result.items():
        print(f"{k} = {v:.6g} {units[k]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": float(v), "unit": units[k]}
                                  for k, v in result.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
