"""The benchmark's probe and tracer replace package functions by name.

A name they patch that the package no longer has breaks ``perfbench/run.py``
(``--trace 1`` for the tracer's names), so installing both must succeed and
restoring must put every original object back.
"""

from pathlib import Path

from cantoasr import experiment
from cantoasr.decoder import build_graph
from cantoasr.lexicon import compile_lexicon, read_lexicon
from cantoasr.ngram import read_corpus, train_ngram
from cantoasr.phonology import SCHEME_IF, SCHEME_ONC, default_inventory

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_probe_and_tracer_patch_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    patches = spans.Patches()
    try:
        spans.Probe().install(patches)
        spans.Tracer().install(patches)
        saved = list(patches._saved)
        wrapped = {(owner, attr): getattr(owner, attr) for owner, attr, _ in saved}
    finally:
        patches.restore()

    originals = {}
    for owner, attr, original in saved:
        originals.setdefault((owner, attr), original)  # the first save is the package's own
    # run_experiment never calls wer, but the tracer wraps it
    assert (experiment, "wer") in originals
    for (owner, attr), original in originals.items():
        assert wrapped[owner, attr] is not original, f"{owner.__name__}.{attr} was not replaced"
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} was not restored"


def traced_experiment(monkeypatch, tmp_path):
    """A one-seed experiment's config, run under the benchmark's tracer, and the tracer."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    cfg = experiment.ExperimentConfig(
        seed=5, out_dir=tmp_path, num_seeds=1, num_utterances=2, words_per_utterance=2
    )
    tracer = spans.Tracer()
    with spans.Patches() as patches:
        tracer.install(patches)
        experiment.run_experiment(cfg)
    return cfg, tracer


def test_traced_experiment_times_one_graph_build_per_scheme(monkeypatch, tmp_path):
    """Both schemes' graphs are built through ``experiment.build_graph``, so
    the tracer's ``decoder.graph_build`` holds one span for each."""
    cfg, tracer = traced_experiment(monkeypatch, tmp_path)
    graph_build = tracer.names.index("decoder.graph_build")
    assert list(tracer.name).count(graph_build) == 2
    lm = train_ngram(read_corpus(cfg.corpus), order=2, smoothing="witten_bell")
    entries = read_lexicon(cfg.lexicon)
    states = [
        build_graph(compile_lexicon(entries, scheme, default_inventory()), lm).num_states
        for scheme in (SCHEME_IF, SCHEME_ONC)
    ]
    assert tracer.counts["graph_states"] == sum(states)
    assert tracer.per_layer()["decoder.graph_build_s"] > 0


def test_traced_experiment_times_one_state_model_build_per_scheme(monkeypatch, tmp_path):
    """Both schemes' state models are drawn through ``experiment.build_state_models``,
    so the tracer's ``simulate.models`` holds one span for each."""
    _, tracer = traced_experiment(monkeypatch, tmp_path)
    models = tracer.names.index("simulate.models")
    assert list(tracer.name).count(models) == 2
    assert tracer.per_layer()["simulate.models_s"] > 0
