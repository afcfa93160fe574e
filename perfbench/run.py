"""OPAQUE serving benchmark: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload uniform-miss --seed 1 --seconds 20 --trace 0

Generates a seeded ~10k-node metro map, launches ``repro serve`` from
the checkout's ``src/`` as its own process tree, drives the workload
over HTTP, checks every answer against a Dijkstra oracle and prints one
JSON object per line; the last line is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see ``perfbench/README.md``).  Run artifacts (map,
server logs, ``/v1/metrics`` document, spans, full result) go to
``.perfbench/<workload>-s<seed>-t<trace>/`` under the checkout.  Exits 1
when an answer is wrong, 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("uniform-miss", "commute-repeat"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="artifact directory (default: under .perfbench/)")
    return parser.parse_args(argv)


def _import_checkout() -> str | None:
    """Put the checkout's ``src/`` first on the path; why not, if it fails."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return f"no repro package under {src.name}/ next to perfbench/"
    sys.path.insert(0, str(src))
    try:
        import repro
        import scipy.sparse.csgraph  # noqa: F401  (the oracle)
    except ImportError as exc:
        return f"cannot import {exc.name}"
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        return "repro imported from outside this checkout"
    return None


def main(argv=None) -> int:
    args = _args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    problem = _import_checkout()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from benchlib import bench, specs

    # A shell starting this in the background ignores SIGINT, and the
    # server would inherit that and never shut down on the SIGINT the
    # benchmark stops it with.  A Python-level handler is reset to the
    # default disposition across exec, an ignored signal is not.
    if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
        signal.signal(signal.SIGINT, signal.default_int_handler)

    out = args.out or ROOT / ".perfbench" / (
        f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result = asyncio.run(bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT, out
    ))
    print(json.dumps({"info": result["info"]}))
    print(json.dumps({"detail": result["detail"]}))
    chosen = specs.PER_LAYER if args.trace else specs.END_TO_END
    values = result["per_layer"] if args.trace else result["end_to_end"]
    if args.trace:
        print(json.dumps({"end_to_end": result["end_to_end"]}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            spec.name: {"value": values[spec.name], "unit": spec.unit}
            for spec in chosen
        },
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
