"""Run workloads over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads fer-sc-n256,small-bec] [--trace 0]

The spread is the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median.  Runs are sequential,
one process each, with the run length from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    failed = False
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in _seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                failed = True
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed |= not result["correct"]
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: failed share {sorted(shares)}")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(med)
            else:
                spread = float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:46s} median {med:12.6g}  spread {spread:7.2%}  runs {len(vals)}{flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
