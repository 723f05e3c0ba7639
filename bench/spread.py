"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 bench/spread.py --workload fold --seeds 1 2 3 4 5 --seconds 30

Runs ``bench/run.py`` once per seed, one run at a time, and prints for
each metric its median and the distance between the first and third
quartile as a share of the median (``statistics.quantiles(n=4)``), the
figure to keep below a third of the metric's bound in BENCHMARK.json.
Lines ``wall:<metric>`` give the same for the unscaled wall times.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stderr, file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        # the unscaled wall times, for comparison with the scaled ones
        for name, seconds in json.loads(lines[-2])["context"].get("wall_s", {}).items():
            values.setdefault(f"wall:{name}", []).append(seconds)
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
              flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:36s} median {med:14.6g}  spread {spread:.4f}  "
              f"min {min(vals):.6g}  max {max(vals):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
