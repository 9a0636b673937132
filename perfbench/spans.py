"""Outside-in instrumentation: end-to-end probes and per-layer span tracing.

Both replace a function where its caller looks it up, as a module attribute
(``cantoasr.experiment.batch_decode`` is the name ``run_experiment`` calls),
and put the original back afterwards.  Nothing in the package changes.

``Probe`` is installed in every run.  It adds a clock read pair and a
0.3 ms yardstick per utterance, and three yardsticks on each side of a
set-up: what the end-to-end metrics need.  ``Tracer`` is installed only
in the traced pass.  It keeps one span per call in memory (name, start,
end, parent span, utterance id), and the per-layer metrics are derived
from those spans when the pass ends.  ``NGramModel.logprob10``, called
over a million times per pass, is the exception: it is timed and counted
in place, without a span.
"""

import time
import weakref
from array import array
from collections import defaultdict

import numpy as np

from cantoasr import decoder, evaluate, experiment, lattice, lexicon, ngram, simulate

from manifest import CAP_SPLIT, CAPS


class Patches:
    """Attribute replacements, undone in reverse order by ``restore``."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


# A yardstick's reading on the reference machine when the host is quiet
QUIET_YARDSTICK = 0.26e-3


def yardstick() -> float:
    """Seconds for a fixed integer loop: the host's speed right now.

    About 0.26 ms when the host is quiet.  On a shared host it reads 1.4x
    that or more while other tenants contend for the core.  The decoder's
    time follows it: over 120 s of ``prune`` decodes alternating with
    yardsticks, the decodes' log time moved 1.06x as much as the
    yardstick's (medians of ten).
    """
    started = time.perf_counter()
    total = 0
    for i in range(4000):
        total += i * i % 7
    return time.perf_counter() - started


def dict_yardstick() -> float:
    """Like ``yardstick``, but tuple keys, dict updates and float adds.

    Dict- and tuple-heavy code such as the second pass slows more than the
    integer loop when the host is contended: 1.35x as much over 150 s of
    ``rescore``, and 1.03x as much as this loop.  Its length is set so that
    it too reads about 0.26 ms on a quiet host.
    """
    started = time.perf_counter()
    table = {}
    for i in range(1170):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0.0) + i * 0.5
    return time.perf_counter() - started


def at_quiet_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` as a quiet host would have run them, by the yardsticks around them."""
    return seconds * 2 * QUIET_YARDSTICK / (before + after)


class Probe:
    """Per-utterance samples for the end-to-end metrics, cheap enough for untraced runs.

    ``yardstick`` is the loop that gauges the host's speed: ``yardstick``
    or ``dict_yardstick``, whichever slows like the workload's code.
    ``samples`` holds one ``(yardstick, latency, audio seconds, ok)`` per
    utterance: per ``decoder.decode`` call, or per second pass that the
    benchmark records itself.  The yardstick is read just before the
    utterance starts.  A call that raised has ``ok`` false and its time to
    the raise as latency.  ``setups`` holds one ``(ruler, seconds, ruler)``
    per set-up, with ``ruler`` read just before and just after it.
    ``first_utterance`` is when ``run_experiment`` simulated its first
    utterance, which ends that call's set-up.
    """

    def __init__(self, yardstick=yardstick):
        self.yardstick = yardstick
        self.samples: list[tuple[float, float, float, bool]] = []
        self.setups: list[tuple[float, float, float]] = []
        self.first_utterance: float | None = None
        self._setup_started: tuple[float, float] | None = None

    def install(self, patches: Patches) -> None:
        patches.replace(decoder, "decode", self._time_decode)
        patches.replace(experiment, "simulate_utterance", self._mark_first)

    def time(self, fn, audio_s, *args, **kwargs):
        """Call ``fn`` and record it as one utterance."""
        reading = self.yardstick()
        ok = False
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            self.samples.append((reading, time.perf_counter() - started, audio_s, ok))

    def ruler(self) -> float:
        """The median of three dict yardsticks, for the set-ups' few readings.

        Every set-up is mostly dict-heavy Python: LM training and the graph
        build's LM queries.
        """
        return sorted(dict_yardstick() for _ in range(3))[1]

    def set_up(self, fn, *args):
        """Call ``fn`` and record it as one set-up."""
        before = self.ruler()
        started = time.perf_counter()
        result = fn(*args)
        self.setups.append((before, time.perf_counter() - started, self.ruler()))
        return result

    def begin_setup(self) -> None:
        """Start a set-up that the next first ``simulate_utterance`` ends."""
        self.first_utterance = None
        before = self.ruler()
        self._setup_started = (before, time.perf_counter())

    def _time_decode(self, fn):
        def timed(graph, scorer, *args, **kwargs):
            return self.time(fn, scorer.audio_seconds, graph, scorer, *args, **kwargs)

        return timed

    def _mark_first(self, fn):
        def marked(*args, **kwargs):
            if self.first_utterance is None:
                ended = time.perf_counter()
                if self._setup_started is not None:
                    before, started = self._setup_started
                    self.setups.append((before, ended - started, self.ruler()))
                    self._setup_started = None
                self.first_utterance = time.perf_counter()
            return fn(*args, **kwargs)

        return marked


class Tracer:
    """In-memory spans at the layer boundaries of the ``cantoasr`` package.

    A call made from inside the same layer (``best_path`` calling ``nbest``,
    ``train_ngram`` calling ``logprob10``) is not a boundary and opens no
    span; its time stays with the caller.  ``decoder.decode`` inside
    ``decoder.batch_decode`` is the exception, so every utterance has a span.

    A *leaf* boundary opens no span either: its calls are timed and counted
    in place, and their time is taken off the enclosing span's self time.
    A span would cost about 2.4 us on a 3 us ``logprob10`` call; timing in
    place costs about 0.6 us.
    """

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        # one entry per span, in compact arrays: a run can hold millions
        self.name, self.parent, self.utt = array("h"), array("q"), array("q")
        self.start, self.end = array("d"), array("d")
        self.leaf_child = array("d")  # per span: time in leaf calls made directly under it
        self.leaves: dict[str, list] = {}  # leaf name -> [seconds, calls]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.batches: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.utterance = -1  # set by a benchmark loop that owns the utterance
        self.active = True
        self._utt_of = weakref.WeakKeyDictionary()  # simulated scorer -> utterance id
        self._simulated = 0

    # -- installation --------------------------------------------------

    def install(self, patches: Patches) -> None:
        def wrap(owners, attr, name, **kw):
            for owner in owners:
                patches.replace(owner, attr, lambda fn: self.wrap(fn, name, **kw))

        wrap([lexicon, experiment], "compile_lexicon", "lexicon.compile", on_return=self._phones)
        wrap([ngram, experiment], "train_ngram", "ngram.train", on_return=self._ngrams)
        wrap([ngram], "write_arpa", "ngram.arpa_io")
        wrap([ngram], "read_arpa", "ngram.arpa_io")
        wrap([ngram], "tune_lambda", "ngram.tune")
        wrap([ngram], "interpolate", "ngram.tune")
        wrap([ngram.NGramModel], "logprob10", "ngram.query", leaf=True)
        wrap([decoder, experiment], "build_graph", "decoder.graph_build", on_return=self._graph)
        wrap([decoder, experiment], "batch_decode", "decoder.batch_decode", on_return=self._batch)
        wrap([decoder], "decode", "decoder.decode", nested=True, utterance=lambda a, k: a[1])
        wrap([simulate, experiment], "build_state_models", "simulate.models")
        wrap(
            [simulate, experiment],
            "simulate_utterance",
            "simulate.utterance",
            on_return=self._new_utterance,
        )
        wrap([lattice], "write_lattice", "lattice.io")
        wrap([lattice], "read_lattice", "lattice.io")
        wrap([lattice], "nbest", "lattice.nbest", on_return=self._hyps)
        wrap([lattice], "rescore_ngram", "lattice.rescore", on_return=self._split)
        wrap([lattice], "best_path", "lattice.best_path")
        wrap([lattice], "rescore_external", "lattice.external")
        wrap([evaluate, experiment], "corpus_wer", "evaluate.wer", on_return=self._ref_chars)
        wrap([evaluate, experiment], "wer", "evaluate.wer", on_return=self._ref_chars)
        wrap([evaluate, experiment], "classify_errors", "evaluate.classify")
        wrap([experiment], "run_experiment", "experiment.run")

    def wrap(self, fn, name, nested=False, on_return=None, utterance=None, leaf=False):
        if leaf:
            return self._wrap_leaf(fn, name)
        if name not in self.names:
            self.names.append(name)
            self.layer_of.append(name.split(".")[0])
        name_id = self.names.index(name)
        layer = self.layer_of[name_id]
        names, parents, utts, starts, ends = self.name, self.parent, self.utt, self.start, self.end
        stack, layer_of, clock = self.stack, self.layer_of, time.perf_counter
        leaf_child = self.leaf_child

        def traced(*args, **kwargs):
            if not self.active or (not nested and stack and layer_of[names[stack[-1]]] == layer):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if utterance is not None:
                utt = self._utt_of.get(utterance(args, kwargs), -1)
            else:
                utt = utts[parent] if parent >= 0 else self.utterance
            i = len(starts)
            names.append(name_id)
            parents.append(parent)
            utts.append(utt)
            ends.append(0.0)
            leaf_child.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(i, args, kwargs, result)
            return result

        return traced

    def _wrap_leaf(self, fn, name):
        layer = name.split(".")[0]
        acc = self.leaves.setdefault(name, [0.0, 0])
        names, stack, layer_of, clock = self.name, self.stack, self.layer_of, time.perf_counter
        leaf_child = self.leaf_child
        busy = [False]  # a leaf call reached again from inside one is not a boundary

        def timed(*args, **kwargs):
            if not self.active or busy[0] or (stack and layer_of[names[stack[-1]]] == layer):
                return fn(*args, **kwargs)
            busy[0] = True
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                busy[0] = False
                acc[0] += elapsed
                acc[1] += 1
                if stack:
                    leaf_child[stack[-1]] += elapsed

        return timed

    # -- counters at the same boundaries ---------------------------------

    def _phones(self, i, args, kwargs, result):
        self.counts["lexicon.phones"] += sum(
            len(seq) for seqs in result.entries.values() for seq in seqs
        )

    def _ngrams(self, i, args, kwargs, result):
        self.counts["ngram.ngrams"] += len(result.logprob)

    def _graph(self, i, args, kwargs, result):
        arcs = result.arc_counts()
        self.counts["graph_states"] += result.num_states
        self.counts["graph_arcs"] += sum(v for k, v in arcs.items() if k != "emitting_states")

    def _batch(self, i, args, kwargs, result):
        params = args[2] if len(args) > 2 else kwargs.get("params")
        cap = params.max_active if params is not None else decoder.DecodeParams().max_active
        b = self.batches[cap]
        b["decode_s"] += self.end[i] - self.start[i]
        b["attempts"] += len(result.results)
        for r in result.results:
            if r.stats is None:
                b["failures"] += 1
                continue
            b["search_s"] += r.stats.wall_seconds
            b["frames"] += r.stats.frames
            b["tokens"] += r.stats.tokens_expanded
            b["active_frames"] += r.stats.active_tokens_mean * r.stats.frames
            b["lattices"] += 1
            b["lattice_arcs"] += len(r.lattice.arcs)

    def _new_utterance(self, i, args, kwargs, result):
        self.utt[i] = self._utt_of[result] = self._simulated
        self._simulated += 1
        self.counts["simulate.frames"] += result.num_frames()

    def _hyps(self, i, args, kwargs, result):
        self.counts["nbest_hyps"] += len(result)

    def _split(self, i, args, kwargs, result):
        source = args[0] if args else kwargs["lat"]
        self.counts["nodes_in"] += len(source.nodes)
        self.counts["nodes_out"] += len(result.nodes)

    def _ref_chars(self, i, args, kwargs, result):
        self.counts["evaluate.ref_chars"] += result.ref_length

    # -- derived metrics ----------------------------------------------------

    def span_array(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int16),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "utterance": np.array(self.utt, dtype=np.int64),
        }

    def per_layer(self) -> dict[str, float]:
        """The per-layer metrics but the ``trace.*`` overhead; an idle layer reads 0."""
        a = self.span_array()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child - np.array(self.leaf_child)

        total, calls, self_by_layer = defaultdict(float), defaultdict(int), defaultdict(float)
        for name_id, name in enumerate(self.names):
            sel = a["name"] == name_id
            total[name] = float(dur[sel].sum())
            calls[name] = int(sel.sum())
            self_by_layer[self.layer_of[name_id]] += float(own[sel].sum())
        for name, (seconds, n) in self.leaves.items():
            total[name], calls[name] = seconds, n
            self_by_layer[name.split(".")[0]] += seconds

        c = self.counts
        m = {
            "lexicon.compile_s": total["lexicon.compile"],
            "lexicon.phones": c["lexicon.phones"],
            "ngram.train_s": total["ngram.train"],
            "ngram.ngrams": c["ngram.ngrams"],
            "ngram.arpa_io_s": total["ngram.arpa_io"],
            "ngram.tune_s": total["ngram.tune"],
            "ngram.query_s": total["ngram.query"],
            "ngram.queries": calls["ngram.query"],
            "decoder.graph_build_s": total["decoder.graph_build"],
            "decoder.graph_states": _ratio(c["graph_states"], calls["decoder.graph_build"]),
            "decoder.graph_arcs": _ratio(c["graph_arcs"], calls["decoder.graph_build"]),
            "simulate.models_s": total["simulate.models"],
            "simulate.utterance_s": total["simulate.utterance"],
            "simulate.frames": c["simulate.frames"],
            "lattice.io_s": total["lattice.io"],
            "lattice.nbest_s": total["lattice.nbest"],
            "lattice.nbest_hyps": _ratio(c["nbest_hyps"], calls["lattice.nbest"]),
            "lattice.rescore_s": total["lattice.rescore"],
            "lattice.split_ratio": _ratio(c["nodes_out"], c["nodes_in"]),
            "lattice.best_path_s": total["lattice.best_path"],
            "lattice.external_s": total["lattice.external"],
            "evaluate.wer_s": total["evaluate.wer"],
            "evaluate.ref_chars": c["evaluate.ref_chars"],
            "evaluate.classify_s": total["evaluate.classify"],
            "experiment.run_s": total["experiment.run"],
            "trace.spans": float(len(self.start)),
        }
        for layer in ("lexicon", "ngram", "decoder", "simulate", "lattice", "evaluate", "experiment"):
            m[f"{layer}.self_s"] = self_by_layer[layer]

        m.update(_decoder_metrics(self.batches))
        for cap in CAPS:
            split = _decoder_metrics({cap: self.batches[cap]} if cap in self.batches else {})
            for x in CAP_SPLIT:
                m[f"decoder.{x}.cap{cap}"] = split[f"decoder.{x}"]
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _decoder_metrics(by_cap: dict[int, dict[str, float]]) -> dict[str, float]:
    s = defaultdict(float)
    fill = 0.0  # frames weighted by the share of the cap they filled
    for cap, batch in by_cap.items():
        for k, v in batch.items():
            s[k] += v
        fill += batch["active_frames"] / cap
    return {
        "decoder.decode_s": s["decode_s"],
        "decoder.search_s": s["search_s"],
        "decoder.frames": s["frames"],
        "decoder.tokens_expanded": s["tokens"],
        "decoder.active_mean": _ratio(s["active_frames"], s["frames"]),
        "decoder.us_per_frame": 1e6 * _ratio(s["search_s"], s["frames"]),
        "decoder.ns_per_token": 1e9 * _ratio(s["search_s"], s["tokens"]),
        "decoder.cap_fill": _ratio(fill, s["frames"]),
        "decoder.fail_frac": _ratio(s["failures"], s["attempts"]),
        "decoder.lattice_arcs": _ratio(s["lattice_arcs"], s["lattices"]),
    }
