#!/usr/bin/env python3
"""Benchmark of the nidtopics pipeline.

Run from the root of a source checkout:

    python3 bench/run.py --workload wide-vocab --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each

One run times set-up three times and keeps the median: importing the package
in a fresh interpreter, and building the inputs from ``--seed``.  It then
repeats a pass over the package calls while another pass fits in
``--seconds``, checking every output.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is an ungated context record (versions,
BLAS threads, passes made, pass times).  Traced runs also write their spans to
``.bench_out/`` in the checkout.  Workloads and metrics are described in
``bench/workloads.py`` and ``BENCHMARK.json``.
"""
import os


def _pin_blas_threads() -> None:
    """At most one BLAS/OpenMP thread per usable core; must precede numpy's import."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


_pin_blas_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _context() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "stage_peak_mb": "tracemalloc-tracked allocations; LAPACK workspace excluded"}


def _import_s(times: int) -> float:
    """Median time to import the package, each time in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import nidtopics; print(time.perf_counter() - t)")
    samples = [float(subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                                    capture_output=True, text=True).stdout)
               for _ in range(times)]
    return statistics.median(samples)


def _run_all(args) -> int:
    """Each workload in a fresh process, so peak memory does not carry over."""
    from workloads import END_TO_END, PER_LAYER, WORKLOADS

    status = 0
    units = PER_LAYER if args.trace else END_TO_END
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric in units:
            m = result["metrics"][metric]
            print(f"  {metric:32s} {m['value']!s:>24} {m['unit']}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nidtopics" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'nidtopics'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return _run_all(args)

    from workloads import SETUPS, WORKLOADS, run
    import nidtopics

    if Path(nidtopics.__file__).resolve().parent != (SRC / "nidtopics").resolve():
        print(f"imported nidtopics from {nidtopics.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2

    result, context = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                          import_s=_import_s(SETUPS), out_dir=ROOT / ".bench_out")
    print(json.dumps({"context": {**_context(), **context}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
