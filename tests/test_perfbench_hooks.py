"""The benchmark's probe and tracer replace package functions by name.

A name they patch that the package no longer has breaks ``perfbench/run.py``
(``--trace 1`` for the tracer's names), so installing both must succeed and
restoring must put every original object back.
"""

from pathlib import Path

from cantoasr import experiment

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
