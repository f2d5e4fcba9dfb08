"""Write perfbench/reference.json: the E-values the correctness gate compares to.

    python3 perfbench/reference.py [--seeds 0 1 2 3] [--workload NAME ...]

For each workload it runs one untraced sweep per seed, stores the per-point
median of E0/E1/E2 over the seeds, and refuses to write when any seed's
value lies farther from that median than the gate allows, so the stored
values are known to hold for every seed used.  The transpose defect of each
seed's sweep is stored alongside, for the record.
"""

import argparse
import json
import statistics
import sys

import run


def reference_for(microhom, name, seeds):
    values = {e: [] for e in run.NORMS}
    tdefs = []
    for seed in seeds:
        config = run.load_workload(microhom, name, seed)
        report = microhom.run_sweep(config, jobs=1)
        if len(report.eps_list) != len(config.eps_denominators):
            sys.exit(f"{name} seed {seed}: sweep incomplete: {report.flags}")
        for e in run.NORMS:
            values[e].append(report.errors[e])
        tdefs.append(report.transpose_defect_max)
        print(f"{name} seed {seed}: {report.errors} tdef {report.transpose_defect_max:.3e}",
              flush=True)
    ref = {"eps_denominators": list(config.eps_denominators), "seeds": list(seeds),
           "transpose_defect_max": tdefs}
    rtol = run.REF_TOL_FACTOR * config.norm_tol
    for e in run.NORMS:
        ref[e] = [statistics.median(col) for col in zip(*values[e])]
        worst = max(abs(v - r) / r for row in values[e] for v, r in zip(row, ref[e]))
        ref[f"{e}_max_rel_spread"] = worst
        if worst > rtol:
            sys.exit(f"{name}: {e} differs by {worst:.2e} between seeds, gate allows {rtol:.1e}")
    return ref


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    ap.add_argument("--workload", nargs="+", choices=run.WORKLOADS, default=run.WORKLOADS)
    args = ap.parse_args()
    if len(args.seeds) < 2:
        sys.exit("the reference must hold for at least two seeds")
    microhom = run.import_program()
    path = run.HERE / "reference.json"
    out = json.loads(path.read_text()) if path.is_file() else {}
    for name in args.workload:
        out[name] = reference_for(microhom, name, args.seeds)
    path.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
