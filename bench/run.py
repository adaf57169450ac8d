"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload node-dense --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
from a run whose layer calls are wrapped in spans, and the spans are
written to ``bench/out/trace-<workload>-seed<seed>.json``.  The exit
code is 0 only when every correctness check passed and every metric was
measured.  See README.md in this directory.
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the host has two cores, and a second BLAS thread only
# adds scheduling noise to the small matrix products these models make.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "edgeprompt" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({src}/edgeprompt)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import edgeprompt  # noqa: F401  (loads every module, so tracing sees every alias)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        wrapped = tracer.install()
        print(f"tracing: {wrapped} module-level functions wrapped, "
              "plus the public methods of their modules' classes")

    import harness
    from workloads import WORKLOADS

    startup_s = time.perf_counter() - PROCESS_START

    OUT.mkdir(exist_ok=True)
    run = harness.Run(WORKLOADS[args.workload], args.seed, str(OUT), tracer)
    stem = f"{args.workload}-seed{args.seed}"
    try:
        run.setup(startup_s)
        run.warm_up()
        run.measure(args.seconds)
        peaks = run.memory_epochs() if tracer else None
        run.run_checks()
    finally:
        for path in glob.glob(str(OUT / f"{stem}.json")) + glob.glob(str(OUT / f"{stem}-*")):
            os.remove(path)

    print(f"{args.workload} seed {args.seed}: {run.rounds} rounds, "
          f"set-up {run.setup_s:.3f} s, peak RSS {run.peak_rss_mb:.1f} MB")
    print(run.table())
    if tracer:
        import layers

        metrics, summary = layers.per_layer(tracer, run, peaks)
        tracer.write(OUT / f"trace-{stem}.json", summary)
        shares = summary["tensor_optim_share_of_tuning_epoch"]
        print("tensor+optim share of a tuning epoch: "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    else:
        metrics = run.end_to_end()
    for error in run.errors:
        print(f"CHECK FAILED {error}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    complete = all(run.samples.get(metric) for metric, _, _ in run.units())
    return 0 if result["correct"] and complete else 1


if __name__ == "__main__":
    sys.exit(main())
