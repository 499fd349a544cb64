"""Run one knotgp benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload oat_bo --seed 1 --seconds 32 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/`` next to this directory. BLAS is pinned to one thread here, before
numpy is first imported, because a multi-threaded BLAS on a small machine
measures the scheduler rather than the code.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, where ``metrics`` holds the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. The line before it records the environment (library versions,
BLAS threads, CPUs) and the run's detail: sample counts, every fit time, the
quality numbers, the checks that failed and ``fail_frac``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("oat_bo", "simult", "experiment")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def blas_threads() -> dict:
    """Threads each loaded OpenBLAS reports, keyed by library file name."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    found[Path(path).name] = int(getattr(lib, symbol)())
                    break
    return found


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "knotgp" / "__init__.py").is_file():
        print(f"knotgp sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        spans = OUT / f"spans-{args.workload}-{args.seed}.npz" if args.trace else None
        out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            work, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "environment": environment(),
                      "detail": out.detail}))
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
