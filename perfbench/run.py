"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload fer-sc-n256 --seed 1 --seconds 20 --trace 0

The run builds its inputs from the seed, performs whole rounds of the
workload's operations until the time is up, checks the outputs apart from
the timed region and prints, as its last line, a JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` rounds alternate between untraced and
traced, and the metrics are the per-layer split plus the tracing overhead.
The calibration kernel (calibrate.py) runs between blocks of operations;
their times are scaled by it to the reference machine speed.  Details go to
perfbench/results/.
"""

import time

_PROCESS_T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def _pin_threads() -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program() -> None:
    """Import symcalc from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(src))
    try:
        import symcalc
    except ImportError as exc:
        _fail(f"cannot import symcalc from {src}: {exc}")
    origin = Path(symcalc.__file__).resolve()
    if src.resolve() not in origin.parents:
        _fail(f"symcalc was imported from {origin}, not from {src}")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 600:
        p.error("need --seed >= 0 and 0 < --seconds <= 600")
    return args


class Run:
    """Per-block times, calibration samples and failures over whole rounds.

    A block is a run of consecutive operations of one kind in a round, cut
    once it has taken BLOCK_S seconds.  A calibration sample is taken before
    every block and once after the last, so each block lies between two
    samples; its seconds are scaled by REFERENCE_S over their mean.
    """

    BLOCK_S = 0.25

    def __init__(self, workload, calibrate):
        self.workload = workload
        self.calibrate = calibrate
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []  # outputs a check found wrong
        self.errors: list[str] = []  # operations that raised
        self.first_outputs: list = []
        self.cal: list[float] = []
        self.blocks: list[dict] = []  # round, traced, kind, seconds, index of the sample before

    def one_round(self, traced: bool) -> None:
        from refcheck import CheckFailed

        rnd = self.rounds()
        for op in self.workload.ops:
            last = self.blocks[-1] if self.blocks else None
            if not last or (last["round"], last["kind"]) != (rnd, op.kind) or last["seconds"] >= self.BLOCK_S:
                self.cal.append(self.calibrate.sample())
                self.blocks.append({"round": rnd, "traced": traced, "kind": op.kind,
                                    "seconds": 0.0, "cal": len(self.cal) - 1})
            self.attempted += 1
            start = time.perf_counter()
            try:
                out = op.call(rnd)
            except Exception:
                self.failed += 1
                self.errors.append(traceback.format_exc(limit=3))
                out = None
            self.blocks[-1]["seconds"] += time.perf_counter() - start
            if rnd == 0:
                self.first_outputs.append(out)
            if out is None:
                continue
            try:
                op.check(out)
            except CheckFailed as exc:
                self.failed += 1
                self.wrong.append(str(exc))

    def finish(self) -> None:
        self.cal.append(self.calibrate.sample())

    def rounds(self) -> int:
        return self.blocks[-1]["round"] + 1 if self.blocks else 0

    def _scale(self, block) -> float:
        i = block["cal"]
        return self.calibrate.REFERENCE_S / ((self.cal[i] + self.cal[i + 1]) / 2)

    def factor(self, phase) -> float:
        """Scale from this machine's speed to the reference, for a tracer phase."""
        if phase == "setup":
            return self.calibrate.REFERENCE_S / self.cal[0]
        return statistics.median(self._scale(b) for b in self.blocks if b["round"] == phase)

    def round_seconds(self, traced: bool, normalised: bool) -> list[float]:
        totals: dict[int, float] = {}
        for b in self.blocks:
            if b["traced"] == traced:
                scale = self._scale(b) if normalised else 1.0
                totals[b["round"]] = totals.get(b["round"], 0.0) + b["seconds"] * scale
        return list(totals.values())

    def kind_rates(self, normalised: bool) -> dict[str, float]:
        """Items per second of every operation kind, over the untraced rounds' median."""
        items: dict[str, int] = {}
        for op in self.workload.ops:
            items[op.kind] = items.get(op.kind, 0) + op.items
        rates = {}
        for kind, count in items.items():
            times: dict[int, float] = {}
            for b in self.blocks:
                if b["kind"] == kind and not b["traced"]:
                    scale = self._scale(b) if normalised else 1.0
                    times[b["round"]] = times.get(b["round"], 0.0) + b["seconds"] * scale
            rates[kind] = count / statistics.median(times.values())
        return rates


def main(argv=None) -> int:
    args = _args(argv)
    _pin_threads()
    _import_program()
    import numpy
    import scipy

    import calibrate
    from refcheck import CheckFailed
    from tracer import Tracer
    from workloads import WORKLOADS

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read the metric list from BENCHMARK.json: {exc}")
    metric_list = {key: [(m["name"], m["unit"]) for m in spec[key]] for key in ("end_to_end", "per_layer")}
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed)
    seen = set()
    for op in workload.ops:  # warm-up: one batch or one code of every kind
        if op.kind not in seen:
            seen.add(op.kind)
            op.warm()
    setup_s = time.perf_counter() - _PROCESS_T0

    run = Run(workload, calibrate)
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not run.blocks:
        if tracer:
            # a pair of rounds, alternating which side goes first, for the overhead
            first_traced = run.rounds() % 4 == 2
            for traced in (first_traced, not first_traced):
                tracer.phase = run.rounds()
                (tracer.install if traced else tracer.uninstall)()
                run.one_round(traced)
        else:
            run.one_round(False)
    run.finish()
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    facts = {}
    try:
        facts = workload.verify(run.first_outputs)
    except CheckFailed as exc:
        run.wrong.append(str(exc))
        run.failed += 1

    norm_rates = run.kind_rates(normalised=True)
    if tracer:
        overhead = 100.0 * (
            statistics.median(run.round_seconds(True, normalised=True))
            / statistics.median(run.round_seconds(False, normalised=True))
            - 1.0
        )
        traced_rounds = len(run.round_seconds(True, normalised=False))
        metrics = tracer.layer_metrics(metric_list["per_layer"], traced_rounds, overhead, run.factor)
    else:
        values = {
            "setup_s": setup_s,
            "norm_rate_geomean": math.exp(statistics.fmean(math.log(r) for r in norm_rates.values())),
            "norm_round_s": statistics.median(run.round_seconds(False, normalised=True)),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_list["end_to_end"]}

    raw_rates = run.kind_rates(normalised=False)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": workload.unit,
        "setup_s": setup_s,
        "named_rates": workload.rates(raw_rates),
        "named_rates_normalised": workload.rates(norm_rates),
        "kind_rates": raw_rates,
        "kind_rates_normalised": norm_rates,
        "calibration_s": run.cal,
        "calibration_reference_s": calibrate.REFERENCE_S,
        "blocks": run.blocks,
        "checks": facts,
        "wrong": run.wrong,
        "errors": run.errors,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        },
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        tracer.dump(RESULTS / f"{stem}.spans.json")
    for name, value in detail["named_rates"].items():
        normalised = detail["named_rates_normalised"][name]
        print(f"{name} {value:.1f} {workload.unit}/s (normalised {normalised:.1f})", file=sys.stderr)
    for message in run.wrong + run.errors:
        print(message, file=sys.stderr)
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
