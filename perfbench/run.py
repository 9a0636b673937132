"""cantoasr benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload prune --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1             # every workload, one process each
    python3 perfbench/run.py --write-manifest     # regenerate BENCHMARK.json

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
inputs untraced and then traced, and prints the per-layer metrics with the
tracing overhead.  Every run checks the program's outputs.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full record, with the machine and the load average
before and after, goes to ``.perfbench/`` in the checkout.  Exit status is 0
on success, 1 when a correctness check fails and 2 when the sources under
test are missing or the run cannot produce its metrics.
"""

import os

# one process, no numeric-library thread pools
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

from manifest import (
    END_TO_END,
    MIN_SAMPLES,
    PER_LAYER,
    REPORTED_ONLY,
    RUN_SECONDS,
    WORKLOADS,
    write_manifest,
)

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 12


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }


def one_pass(workload, seed, seconds, workdir, setup_repeats, tracer=None):
    """Set up, make the inputs and run the timed part; probed, and traced on request.

    Unless the workload measures its set-ups itself, the further set-ups
    run between equal parts of the timed part, so that they sample the host
    at several moments.
    """
    from spans import Patches, Probe
    from workloads import Run

    probe = Probe(workload.yardstick)
    with Patches() as patches:
        probe.install(patches)
        if tracer is not None:
            tracer.install(patches)
        if workload.measures_setup:
            state = workload.setup(seed, workdir)
            setup_repeats = 1
        else:
            state = probe.set_up(workload.setup, seed, workdir)
        if tracer is not None:
            tracer.active = False  # input generation is the benchmark's work
        inputs = workload.inputs(state, seed, seconds)
        if tracer is not None:
            tracer.active = True
        run = Run()
        step = -(-len(inputs) // setup_repeats)
        for first in range(0, len(inputs), step):
            if first:
                probe.set_up(workload.setup, seed, workdir)
            run.add(workload.run(state, inputs[first : first + step], probe, tracer))
    return state, inputs, run, probe


def percentile(values: list[float], q: float) -> float:
    """Nearest rank."""
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def end_to_end(run, probe) -> tuple[dict, dict]:
    """The gated metrics, each time scaled to a quiet host by the yardsticks around it.

    An utterance's yardsticks are the one read just before it and the one
    read before the next.  Failed utterances are kept in the latency
    percentiles, with their time to the failure; ``rtf`` is over the
    successful ones.  ``setup_s`` is the median of the run's scaled set-ups.
    """
    from cantoasr.evaluate import corpus_wer
    from spans import at_quiet_speed

    samples, setups = probe.samples, probe.setups
    if len(samples) < MIN_SAMPLES:
        fail(f"{len(samples)} latency samples, fewer than {MIN_SAMPLES}")
    ruler = [y for y, _, _, _ in samples]
    after = ruler[1:] + ruler[-1:]
    latency = [at_quiet_speed(x, y, z) for (y, x, _, _), z in zip(samples, after)]
    done = [(t, a) for t, (_, _, a, ok) in zip(latency, samples) if ok]
    if not done:
        fail(f"no utterance succeeded (failed {run.failed} of {run.attempted})")
    if run.pairs:
        w = corpus_wer(run.pairs)
        errors, ref_chars = w.errors, w.ref_length
    else:
        errors, ref_chars = run.errors, run.ref_chars
    metrics = {
        "setup_s": statistics.median(at_quiet_speed(x, y, z) for y, x, z in setups),
        "rtf": sum(t for t, _ in done) / sum(a for _, a in done),
        "utt_ms_p50": 1e3 * percentile(latency, 0.5),
        "utt_ms_p90": 1e3 * percentile(latency, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    measured = [x for _, x, _, _ in samples]
    detail = {
        "wall_s": run.wall_s,
        "utt_per_s": (run.attempted - run.failed) / run.wall_s,
        "wer": errors / ref_chars,
        "fail_frac": run.failed / run.attempted,
        "ref_chars": ref_chars,
        "latency_samples": len(samples),
        "samples_beyond_p90": len(samples) - math.ceil(0.9 * len(samples)),
        "yardstick_ms_min": 1e3 * min(ruler),
        "yardstick_ms_median": 1e3 * statistics.median(ruler),
        "measured_rtf": sum(x for _, x, _, ok in samples if ok) / sum(a for _, a in done),
        "measured_utt_ms_p50": 1e3 * percentile(measured, 0.5),
        "measured_utt_ms_p90": 1e3 * percentile(measured, 0.9),
        "measured_setup_s": statistics.median(x for _, x, _ in setups),
        "setup_samples": len(setups),
    }
    return metrics, detail


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> int:
    if not (ROOT / "src" / "cantoasr").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        fail(f"{ROOT} has no src/cantoasr or tests/oracles.py to benchmark")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.append(str(ROOT / "tests"))  # oracles.py, imported read-only by the checks
    from spans import Tracer
    from workloads import WORKLOADS as IMPLS

    workload = IMPLS[name]
    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced)}
    record["machine_before"] = machine()
    checks = []
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as workdir:
        if not traced:
            state, inputs, run, probe = one_pass(workload, seed, seconds, workdir, SETUP_REPEATS)
            metrics, record["detail"] = end_to_end(run, probe)
            units = {k: v[0] for k, v in END_TO_END.items()}
        else:
            _, _, plain, plain_probe = one_pass(workload, seed, seconds, workdir, 1)
            tracer = Tracer()
            state, inputs, run, probe = one_pass(workload, seed, seconds, workdir, 1, tracer)
            plain_setup_s = sum(x for _, x, _ in plain_probe.setups)
            metrics = tracer.per_layer()
            metrics["trace.wall_s"] = run.wall_s
            metrics["trace.overhead_s"] = run.wall_s - plain.wall_s
            metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / plain.wall_s
            metrics["trace.setup_s"] = sum(x for _, x, _ in probe.setups)
            metrics["trace.setup_overhead_frac"] = metrics["trace.setup_s"] / plain_setup_s - 1
            record["detail"] = {"untraced_wall_s": plain.wall_s, "untraced_setup_s": plain_setup_s}
            checks.append(
                ("outputs identical untraced and traced", plain.digest == run.digest, "")
            )
            spans_path = OUT / f"{name}-seed{seed}.spans.npz"
            numpy.savez_compressed(spans_path, **tracer.span_array())
            record["spans"] = str(spans_path.relative_to(ROOT))
            units = {k: v[0] for k, v in PER_LAYER.items()}
        checks += workload.check(state, inputs, run, traced)
    record["machine_after"] = machine()
    checks = [(n, bool(ok), d) for n, ok, d in checks]
    correct = all(ok for _, ok, _ in checks)
    record["checks"] = [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]
    record["metrics"] = metrics
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    print(f"# {name} seed={seed} seconds={seconds} trace={int(traced)}")
    print(f"# machine {json.dumps(record['machine_before'])}")
    print(f"# loadavg after {record['machine_after']['loadavg']}")
    for n in dict.fromkeys(n for n, _, _ in checks):
        same = [ok for m, ok, _ in checks if m == n]
        print(f"check {'PASS' if all(same) else 'FAIL'}: {n} ({sum(same)}/{len(same)})")
    for n, ok, d in checks:
        if not ok and d:
            print(f"check FAIL detail: {n}: {d}")
    for key, value in record["detail"].items():
        unit = REPORTED_ONLY.get(key, "")
        print(f"{key} = {value} {unit}".rstrip())
    for key in units:
        print(f"{key} = {metrics[key]!r} {units[key]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0 if correct else 1


def run_all(seed: int, seconds: int, traced: bool) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
        cmd += ["--seconds", str(seconds), "--trace", str(int(traced))]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(child.stdout, end="")
        status = status or child.returncode
        if child.returncode not in (0, 1):
            combined["correct"] = False
            continue
        result = json.loads(child.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        write_manifest(ROOT / "BENCHMARK.json")
        return 0
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
