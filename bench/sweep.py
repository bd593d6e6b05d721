"""Run every workload over several seeds, alternating workloads between runs,
and print each metric's median, quartiles and spread per workload.

    python3 bench/sweep.py --seeds 10 --seconds 40

Each run is a fresh `run.py` process.  The spread is the distance between
the first and third quartiles of the runs' values as a share of their median,
the figure BENCHMARK.json's bounds are set against.  Exits 1 if any run
failed or reported an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values = defaultdict(list)  # (workload, metric) -> values
    units, ok = {}, True
    names = list(workloads.WORKLOADS)
    for i in range(args.seeds):
        seed = args.first_seed + i
        order = names[i % len(names):] + names[:i % len(names)]
        for workload in order:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.splitlines()
            print(lines[-2] if len(lines) > 1 else proc.stderr.strip(), flush=True)
            if proc.returncode != 0 or not lines:
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            values[(workload, "failed_frac")].append(result["failed"] / result["attempted"])
            units["failed_frac"] = "frac"
            for metric, v in result["metrics"].items():
                values[(workload, metric)].append(v["value"])
                units[metric] = v["unit"]

    print(f"{'workload':14} {'metric':34} {'unit':14} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} runs")
    for (workload, metric), vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{workload:14} {metric:34} {units[metric]:14} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:8.4f} {len(vals)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
