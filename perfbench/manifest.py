"""What the benchmark measures: workloads, metric names, units and bounds.

This is the one place the names live.  ``run.py`` prints exactly these
metrics, and ``python3 perfbench/run.py --write-manifest`` writes
``BENCHMARK.json`` from them.
"""

import json
from pathlib import Path

RUN_SECONDS = 20
MIN_SAMPLES = 100  # utterances per run, so the 90th percentile has 10 beyond it

WORKLOADS = {
    "experiment": "the paired IF-vs-ONC demo run that answers the paper's question; "
    "long utterances, beam 40, so per-frame decoder cost and epsilon closure dominate",
    "prune": "c07 battery shape: 5,359-state graph, single words, unbounded beam at "
    "cap 7000 (never binds) and cap 2000 (binds every frame); per-token decoder cost",
    "rescore": "second pass without the decoder: seeded 8-slot x 4-word lattices through "
    "ARPA-trained LMs, n-best, 4-gram node-splitting rescoring and external rescoring",
}

# name -> (unit, better, bound as a share of the parent's median).  The
# timings are scaled to a quiet host by the yardstick (``at_quiet_speed``
# in spans.py, and README.md).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "rtf": ("ratio", "lower", 0.25),
    "utt_ms_p50": ("ms", "lower", 0.25),
    "utt_ms_p90": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

# Printed and kept in the run record, but not in BENCHMARK.json (see
# README.md): wall_s and utt_per_s move with the host's contention, wer
# depends on the seed by design and is 0 on prune, fail_frac is 0.
REPORTED_ONLY = {"wall_s": "s", "utt_per_s": "1/s", "wer": "ratio", "fail_frac": "ratio"}

CAPS = (7000, 2000)
# decoder metrics also reported per cap: name -> unit
CAP_SPLIT = {
    "decode_s": "s",
    "search_s": "s",
    "active_mean": "count",
    "us_per_frame": "us",
    "ns_per_token": "ns",
}

# name -> (unit, better)
PER_LAYER = {
    "lexicon.compile_s": ("s", "lower"),
    "lexicon.phones": ("count", "lower"),
    "lexicon.self_s": ("s", "lower"),
    "ngram.train_s": ("s", "lower"),
    "ngram.ngrams": ("count", "lower"),
    "ngram.arpa_io_s": ("s", "lower"),
    "ngram.tune_s": ("s", "lower"),
    "ngram.query_s": ("s", "lower"),
    "ngram.queries": ("count", "lower"),
    "ngram.self_s": ("s", "lower"),
    "decoder.graph_build_s": ("s", "lower"),
    "decoder.graph_states": ("count", "lower"),
    "decoder.graph_arcs": ("count", "lower"),
    "decoder.decode_s": ("s", "lower"),
    "decoder.search_s": ("s", "lower"),
    "decoder.frames": ("count", "lower"),
    "decoder.tokens_expanded": ("count", "lower"),
    "decoder.active_mean": ("count", "lower"),
    "decoder.us_per_frame": ("us", "lower"),
    "decoder.ns_per_token": ("ns", "lower"),
    "decoder.cap_fill": ("ratio", "lower"),
    "decoder.fail_frac": ("ratio", "lower"),
    "decoder.lattice_arcs": ("count", "lower"),
    "decoder.self_s": ("s", "lower"),
    **{
        f"decoder.{x}.cap{cap}": (unit, "lower")
        for cap in CAPS
        for x, unit in CAP_SPLIT.items()
    },
    "simulate.models_s": ("s", "lower"),
    "simulate.utterance_s": ("s", "lower"),
    "simulate.frames": ("count", "lower"),
    "simulate.self_s": ("s", "lower"),
    "lattice.io_s": ("s", "lower"),
    "lattice.nbest_s": ("s", "lower"),
    "lattice.nbest_hyps": ("count", "higher"),
    "lattice.rescore_s": ("s", "lower"),
    "lattice.split_ratio": ("ratio", "lower"),
    "lattice.best_path_s": ("s", "lower"),
    "lattice.external_s": ("s", "lower"),
    "lattice.self_s": ("s", "lower"),
    "evaluate.wer_s": ("s", "lower"),
    "evaluate.ref_chars": ("count", "lower"),
    "evaluate.classify_s": ("s", "lower"),
    "evaluate.self_s": ("s", "lower"),
    "experiment.run_s": ("s", "lower"),
    "experiment.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.setup_s": ("s", "lower"),
    "trace.setup_overhead_frac": ("ratio", "lower"),
}


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()
        ],
    }


def write_manifest(path: Path) -> None:
    path.write_text(json.dumps(manifest(), indent=2) + "\n", encoding="utf-8")
