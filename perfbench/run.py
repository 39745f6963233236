"""Benchmark of record: one workload, one process, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload fit-xgb-large --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced and prints the per-layer metrics, writing the
spans to ``.perfbench/``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the host, revision, seed and sample counts behind the numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def pin_blas_threads() -> None:
    """Run NumPy's BLAS on one thread; must run before NumPy is imported.

    Every workload is one client in one process and gains nothing from a
    second BLAS thread, while an idle BLAS thread spinning on a shared 2-core
    host turned CPU steal into ~10 ms stalls of the client (the p99 of a
    0.8 ms query batch read 1.3 ms one run and 11 ms the next).
    """
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with NumPy will use, when it can be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def host() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def revision() -> dict:
    """The git commit when the tree is a checkout, and always a digest of the
    program and benchmark sources (the benchmark may run from a plain copy)."""
    digest = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("perfbench/**/*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git": git_head(), "source_sha256": digest.hexdigest()}


def git_head() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_blas_threads()
    # Import the benchmark as the ``perfbench`` package, not as loose modules.
    if sys.path and Path(sys.path[0]).resolve() == ROOT / "perfbench":
        sys.path.pop(0)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import SPECS, run_workload

    if args.workload not in SPECS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(SPECS)}")
    bench = run_workload(SPECS[args.workload], args.seed, args.seconds, bool(args.trace))
    samples = bench.samples
    metrics, counts = bench.end_to_end()
    if args.trace:
        metrics = bench.per_layer()
        bench.tracer.write_jsonl(
            ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host(),
        "revision": revision(),
        "samples": counts,
    }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": samples.failed == 0,
                "attempted": samples.attempted,
                "failed": samples.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
