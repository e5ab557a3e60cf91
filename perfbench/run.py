"""Benchmark entry point.

    python3 perfbench/run.py --workload {pipeline,search,assess} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` next to this
directory, and everything the run writes goes under ``.perfbench/`` there.
The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics untraced, per-layer metrics
traced). The line before it is the detailed result, also written to
``.perfbench/results/``.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# One BLAS thread, pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("pipeline", "search", "assess")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "drowsemon" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({src / 'drowsemon'})", file=sys.stderr)
        return 2
    # Import the checkout's program and this package, not any installed copy.
    if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
        sys.path.pop(0)
    sys.path[:0] = [str(src), str(ROOT)]
    import drowsemon

    if Path(drowsemon.__file__).resolve().parent != (src / "drowsemon").resolve():
        print(f"perfbench: imported drowsemon from {drowsemon.__file__}", file=sys.stderr)
        return 2
    from perfbench import harness

    import_s = time.perf_counter() - _STARTED
    work_root = ROOT / ".perfbench"
    result, detail = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s, ROOT, work_root
    )
    results = work_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({"result": result, "detail": detail}, indent=2) + "\n")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
