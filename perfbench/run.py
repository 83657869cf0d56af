"""Serving-stack benchmark: one command, four workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload read-distinct --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the workload untraced and then traced, and reports the per-layer
metrics plus the tracing overhead.  A human-readable report goes to
standard output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every checked answer matched the oracle, 1 when one did not,
and 2 when the checkout has no ``src/repro`` to benchmark.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("read-distinct", "read-zipf", "batch-64", "write-mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: String hashing is seeded per process unless this is set, and the seed
#: alone moved the throughput of one and the same run by up to 20%.
#: Every run therefore uses the same one.
HASH_SEED = "0"


def main(argv: list) -> int:
    args = parse_args(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {source}; run from a source checkout",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.path[:0] = [source, ROOT]
    from perfbench.workloads import PER_LAYER, Config, run

    config = Config(workload=args.workload, seed=args.seed, seconds=args.seconds,
                    trace=bool(args.trace), checkout=ROOT)
    result = run(config)

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(
        out_dir, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True, default=str)

    moves = {name: target for name, _unit, target in PER_LAYER}
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"report {os.path.relpath(report_path, ROOT)}")
    for name, entry in result["report"].items():
        if isinstance(entry, dict) and "value" in entry:
            count = f"  (n={entry['count']})" if "count" in entry else ""
            print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}{count}")
    for name, entry in result["metrics"].items():
        label = f"  -> {moves[name]}" if name in moves else ""
        print(f"  metric {name:<32} {entry['value']:>14.6g} {entry['unit']}{label}")
    for check, held in result["report"].get("bypass_checks", {}).items():
        print(f"  bypass {check}: {'holds' if held else 'BROKEN'}")
    for message in result["mismatches"]:
        print(f"  ORACLE MISMATCH {message}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
