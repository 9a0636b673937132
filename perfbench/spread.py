"""Run-to-run spread of the end-to-end metrics, and an optional baseline record.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --workloads prune --seconds 10
    python3 perfbench/spread.py --seeds 1-10 --traced-seed 1 --out perfbench/baseline.json

Runs ``run.py`` once per workload and seed, one process at a time.  For each
end-to-end metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median ("spread"), next to the metric's bound and a third of
it, the steadiness target, with a verdict: ``steady`` below a third of the
bound, ``in bound`` up to the bound, ``WIDE`` beyond it.
``--traced-seed`` adds one traced run per workload, so the record also
holds the per-layer numbers and the tracing overhead.  A later change
compares against the record: where its spread is wider than a metric's
bound, that metric is unresolved, not unchanged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from manifest import END_TO_END, RUN_SECONDS, WORKLOADS
from run import machine

HERE = Path(__file__).resolve().parent

# Seeds kept out of tuning, for checking a claimed gain on unseen inputs.
CLAIM_SEEDS = list(range(1001, 1011))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if child.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {child.returncode}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {
        "values": values,
        "q1": q1,
        "median": median,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "within_bound": spread <= bound,
        "steady": spread < bound / 3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out", type=Path, help="write the record as JSON here")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    record = {
        "machine": machine(),
        "seconds": args.seconds,
        "seeds": seeds,
        "claim_seeds": CLAIM_SEEDS,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        rows = {
            name: summarize([r["metrics"][name]["value"] for r in results], bound)
            for name, (_, _, bound) in END_TO_END.items()
        }
        entry = {"end_to_end": rows}
        print(f"{workload}: {len(seeds)} runs, {args.seconds} s each", flush=True)
        for name, row in rows.items():
            verdict = "steady" if row["steady"] else "in bound" if row["within_bound"] else "WIDE"
            print(
                f"  {name:12} median {row['median']:10.4f}  q1 {row['q1']:10.4f}  "
                f"q3 {row['q3']:10.4f}  spread {row['spread']:.4f}  "
                f"(bound {row['bound']:.2f}, bound/3 {row['bound'] / 3:.4f})  {verdict}",
                flush=True,
            )
        if args.traced_seed is not None:
            traced = run_once(workload, args.traced_seed, args.seconds, 1)
            entry["per_layer_seed"] = args.traced_seed
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
