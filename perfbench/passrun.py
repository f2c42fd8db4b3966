"""One pass of a workload in a fresh interpreter.

Started by run.py, never by hand. Prints one JSON object: the set-up time
from interpreter start (the parent's clock reading passed as --t0) to
`import portclone` done, the wall time of the items, each item's time and
outputs, the process's peak RSS and, with --trace, the per-module metrics.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _blas() -> dict:
    """BLAS library named by numpy's build config, and its live thread count."""
    import ctypes
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = getattr(handle, symbol)()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "trace", "warmup", "setup"), required=True)
    args = parser.parse_args()

    import portclone

    setup_s = time.monotonic() - args.t0
    source = Path(portclone.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"portclone imported from {source}, not from this checkout", file=sys.stderr)
        return 3
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np
    from workloads import WARMUP, items_for, run_item

    items = list(WARMUP) if args.mode == "warmup" else items_for(args.workload, args.seed)
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer, install

        tracer = Tracer()
        present, _ = install(tracer)

    results = []
    start = time.perf_counter()
    for item in items:
        t = time.perf_counter()
        try:
            values, error = run_item(item), None
        except Exception as exc:  # a refused or crashing item is a failed item
            values, error = None, f"{type(exc).__name__}: {exc}"
        results.append({
            "name": item.name, "seconds": time.perf_counter() - t,
            "values": values, "error": error,
        })
    wall_s = time.perf_counter() - start

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items": results,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas(),
            "nproc": len(os.sched_getaffinity(0)),
        },
    }
    if tracer is not None:
        out["layers"], out["absent"] = tracer.metrics(present)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
