"""The three workloads: set-up, seeded inputs, the timed part and the checks.

Each workload is called through the public functions of ``cantoasr`` as
module attributes (``decoder.batch_decode(...)``), so the probe and the
tracer in ``spans.py`` see the benchmark's own calls as well as the
package's internal ones.  The amount of work in a run is fixed by
``--seconds`` and the constants below, never by a clock, so both sides of a
comparison do the same work.  Every run has at least ``MIN_SAMPLES``
utterances, so its 90th-percentile latency has 10 samples beyond it.
"""

import dataclasses
import math
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from cantoasr import decoder, experiment, lattice, lexicon, ngram, simulate
from cantoasr.phonology import default_inventory

from manifest import CAPS, MIN_SAMPLES
from spans import Patches, Tracer, dict_yardstick, yardstick

LN10 = math.log(10.0)


def units(seconds: int, per_second: float, samples_per_unit: int) -> int:
    """How many units of work a ``--seconds`` run does."""
    return max(-(-MIN_SAMPLES // samples_per_unit), round(seconds * per_second))


@dataclass
class Run:
    """What one pass over a workload's inputs produced.

    The per-utterance and set-up samples are in the ``Probe`` the pass ran
    with.
    """

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    pairs: list[tuple[str, str]] = field(default_factory=list)  # (reference, output)
    errors: int = 0  # character errors and reference length, when not given as pairs
    ref_chars: int = 0
    digest: list = field(default_factory=list)  # outputs that tracing must not change
    sample: list = field(default_factory=list)  # kept for the correctness checks

    def add(self, other: "Run") -> None:
        for f in dataclasses.fields(self):
            mine = getattr(self, f.name)
            if f.name == "sample":
                self.sample = mine or other.sample
            else:
                setattr(self, f.name, mine + getattr(other, f.name))


# -- experiment -----------------------------------------------------------


class Experiment:
    """``run_experiment`` on the bundled demo config, several rounds per run.

    Each round is one full paired IF/ONC run (one seed of the demo config,
    fewer utterances), so it builds its own lexica, graphs and state
    models.  Its set-up ends when it simulates the first utterance, so the
    rounds measure the set-ups themselves.
    """

    name = "experiment"
    measures_setup = True
    yardstick = staticmethod(yardstick)
    UTTERANCES = 25  # per round and scheme
    ROUNDS_PER_SECOND = 0.65
    CHECK_UTTERANCES = 4

    def setup(self, seed, workdir):
        cfg_path = Path(experiment.__file__).parent / "data" / "demo_experiment.cfg"
        return experiment.load_experiment_config(cfg_path, out_dir=workdir)

    def inputs(self, base, seed, seconds):
        rng = random.Random(f"experiment/{seed}")
        return [
            dataclasses.replace(
                base,
                seed=rng.randrange(1, 2**31),
                num_seeds=1,
                num_utterances=self.UTTERANCES,
                out_dir=Path(base.out_dir) / f"round{k}",
            )
            for k in range(units(seconds, self.ROUNDS_PER_SECOND, 2 * self.UTTERANCES))
        ]

    def run(self, base, configs, probe, tracer):
        out = Run()
        for cfg in configs:
            probe.begin_setup()
            report = experiment.run_experiment(cfg)
            ended = time.perf_counter()
            out.wall_s += ended - probe.first_utterance
            out.attempted += 2 * cfg.num_utterances
            out.failed += sum(report["aggregate"]["decode_failures"].values())
            out.digest.append((Path(cfg.out_dir) / "report.json").read_bytes())
            for scheme in ("wer_if", "wer_onc"):
                w = report["aggregate"][scheme]
                out.errors += w["S"] + w["I"] + w["D"]
                out.ref_chars += w["N"]
        return out

    def check(self, base, configs, run, traced):
        """c12: report.json is byte-identical with and without tracing.

        A traced run compares every round's report already (``Run.digest``),
        so only an untraced run makes this separate pair of calls.
        """
        if traced:
            return []
        cfg = dataclasses.replace(
            configs[0],
            num_utterances=self.CHECK_UTTERANCES,
            out_dir=Path(base.out_dir) / "check",
        )
        experiment.run_experiment(cfg)
        untraced = (Path(cfg.out_dir) / "report.json").read_bytes()
        with Patches() as patches:
            Tracer().install(patches)
            experiment.run_experiment(cfg)
        traced = (Path(cfg.out_dir) / "report.json").read_bytes()
        return [("report.json identical untraced and traced", untraced == traced, "")]


# -- prune ------------------------------------------------------------------


@dataclass
class PruneSystem:
    words: list
    lex: object
    lm: object
    graph: object
    sim_cfg: object
    models: object


class Prune:
    """The c07 pruning battery: single words, unbounded beam, two caps."""

    name = "prune"
    measures_setup = False
    yardstick = staticmethod(yardstick)
    LEXICON_SEED = 515  # the c07 lexicon: 5,359 states, 10,116 emitting arcs
    BATCH = 20  # utterances, each decoded at both caps
    BATCHES_PER_SECOND = 0.68
    ORACLE_SAMPLE = 2

    @staticmethod
    def params(cap):
        return decoder.DecodeParams(beam=1e30, max_active=cap, lm_weight=1.0, lattice_width=2)

    def setup(self, seed, workdir):
        inv = default_inventory()
        rng = random.Random(self.LEXICON_SEED)
        onsets = sorted(o for o in inv.onsets if o != "-")
        finals = sorted(inv.finals)
        words, seen = [], set()
        while len(words) < 300:
            syls = tuple(
                f"{rng.choice(onsets)}{rng.choice(finals)}{rng.randint(1, 6)}" for _ in range(2)
            )
            if syls in seen:
                continue
            seen.add(syls)
            chars = "".join(chr(0x4E00 + 2 * len(words) + k) for k in range(2))
            words.append(lexicon.LexiconEntry(chars, (syls,)))
        lex = lexicon.compile_lexicon(words, "onc", inv)
        lm = ngram.train_ngram([list(e.word) for e in words], order=2)
        graph = decoder.build_graph(lex, lm)
        sim_cfg = simulate.SimConfig(
            seed=random.Random(f"prune-models/{seed}").randrange(2**31),
            frames_per_state=(2, 3),
            noise_sigma=0.2,
        )
        models = simulate.build_state_models(set(graph.pdf_labels), sim_cfg)
        return PruneSystem(words, lex, lm, graph, sim_cfg, models)

    def inputs(self, system, seed, seconds):
        rng = random.Random(f"prune/{seed}")
        n = self.BATCH * units(seconds, self.BATCHES_PER_SECOND, self.BATCH * len(CAPS))
        return [(salt, system.words[rng.randrange(len(system.words))].word) for salt in range(n)]

    def run(self, system, utterances, probe, tracer):
        out = Run()
        started = time.perf_counter()
        for first in range(0, len(utterances), self.BATCH):
            batch = utterances[first : first + self.BATCH]
            batch_refs = [word for _, word in batch]
            scorers = [
                simulate.simulate_utterance(
                    [p.label for p in system.lex.entries[word][0]],
                    system.models,
                    system.sim_cfg,
                    salt=salt,
                )
                for salt, word in batch
            ]
            for cap in CAPS:
                decoded = decoder.batch_decode(system.graph, scorers, self.params(cap))
                out.attempted += len(decoded.results)
                out.failed += len(decoded.failures)
                for ref, r in zip(batch_refs, decoded.results):
                    hyp = r.hypothesis
                    out.pairs.append((ref, hyp.text if hyp is not None else ""))
                    out.digest.append(
                        (cap, hyp.words, hyp.combined) if hyp is not None else (cap, r.error)
                    )
                if cap == 7000 and not out.sample:
                    out.sample = [
                        (s, r.hypothesis)
                        for s, r in zip(scorers, decoded.results)
                        if r.hypothesis is not None
                    ][: self.ORACLE_SAMPLE]
        out.wall_s = time.perf_counter() - started
        return out

    def check(self, system, utterances, run, traced):
        """Cap 7000 prunes nothing here, so the search must equal the oracle."""
        from oracles import viterbi_reference

        graph = system.graph
        checks = []
        for scorer, hyp in run.sample:
            col = {lab: i for i, lab in enumerate(scorer.labels)}
            am = scorer.matrix[:, [col[lab] for lab in graph.pdf_labels]]
            oracle = viterbi_reference(graph, am, system.lm, self.params(7000).lm_weight)
            ok = (
                oracle is not None
                and oracle[0] == hyp.words
                and abs(oracle[3] - hyp.combined) <= 1e-9
            )
            checks.append(
                ("cap 7000 equals the Viterbi oracle", ok, f"{hyp.words} {hyp.combined}: {oracle}")
            )
        if len(checks) < self.ORACLE_SAMPLE:
            checks.append(("oracle sample decoded", False, f"{len(checks)} decodes"))
        return checks


# -- rescore ----------------------------------------------------------------


@dataclass
class RescoreSystem:
    workdir: Path
    words: list[str]
    lms: dict  # order -> ARPA round-tripped model
    external: object  # EM-tuned interpolation, the out-of-band scorer


class Rescore:
    """Second pass over seeded lattices shaped like ``demo_lattice.lat``.

    Each lattice is a chain of word slots with several demo-lexicon words
    per slot, the generating word among them.  Arc LM scores come from the
    bigram, as a first pass would give them; the true word's acoustic score
    is better on average.
    """

    name = "rescore"
    measures_setup = False
    yardstick = staticmethod(dict_yardstick)
    HELDOUT = 30
    SLOTS, ALTERNATIVES = 8, 4
    SMALL_SLOTS, SMALL_ALTERNATIVES, SMALL_LATTICES = 4, 3, 4
    LATTICES_PER_SECOND = 35
    NBEST = 200
    LM_WEIGHT = 1.0
    INTERPOLATION = 0.5
    SAMPLE = 2

    def setup(self, seed, workdir):
        data = Path(lexicon.demo_lexicon_path()).parent
        corpus = ngram.read_corpus(data / "demo_corpus.txt")
        train, heldout = corpus[: -self.HELDOUT], corpus[-self.HELDOUT :]
        lms = {}
        for order in (2, 3, 4):
            path = Path(workdir) / f"lm{order}.arpa"
            ngram.write_arpa(ngram.train_ngram(train, order), path)
            lms[order] = ngram.read_arpa(path)
        words = [e.word for e in lexicon.read_lexicon(lexicon.demo_lexicon_path())]
        word_lm = ngram.train_ngram([ngram.tokenize_chars(w) for w in words], 3)
        lam = ngram.tune_lambda(lms[3], word_lm, heldout)
        external = ngram.interpolate(lms[3], word_lm, lam)
        return RescoreSystem(Path(workdir), words, lms, external)

    def make_lattice(self, rng, system, slots, alternatives):
        truth = [rng.choice(system.words) for _ in range(slots)]
        nodes, arcs, frame, ctx = {0: 0}, [], 0, ngram.SOS
        for k, word in enumerate(truth):
            frame += rng.randint(15, 30)
            nodes[k + 1] = frame
            rivals = [w for w in rng.sample(system.words, alternatives) if w != word]
            for cand in [word] + rivals[: alternatives - 1]:
                tokens = ngram.tokenize_chars(cand)
                lm, hist = 0.0, ctx
                for tok in tokens:
                    lm += LN10 * system.lms[2].logprob10(tok, (hist,))
                    hist = tok
                am = len(tokens) * rng.gauss(-5.0 if cand == word else -10.0, 1.5)
                arcs.append(lattice.Arc(k, k + 1, cand, am, lm))
            ctx = ngram.tokenize_chars(word)[-1]
        lat = lattice.Lattice(nodes=nodes, start=0, finals=frozenset([slots]), arcs=tuple(arcs))
        return "".join(truth), lat

    def inputs(self, system, seed, seconds):
        rng = random.Random(f"rescore/{seed}")
        n = units(seconds, self.LATTICES_PER_SECOND, 1)
        return [
            (k, *self.make_lattice(rng, system, self.SLOTS, self.ALTERNATIVES)) for k in range(n)
        ]

    @staticmethod
    def lm_score(lm, words, end=True):
        """Natural-log score of the words' characters, one query per token."""
        hist = (ngram.SOS,) * (lm.order - 1)
        total = 0.0
        tokens = [t for w in words for t in ngram.tokenize_chars(w)]
        for tok in tokens + ([ngram.EOS] if end else []):
            total += lm.logprob10(tok, hist)
            hist = (hist + (tok,))[1:]
        return LN10 * total

    def second_pass(self, system, lat):
        path = system.workdir / "utterance.lat"
        lattice.write_lattice(lat, path)
        back = lattice.read_lattice(path)
        hyps = lattice.nbest(back, self.NBEST, self.LM_WEIGHT)
        rescored = lattice.rescore_ngram(back, system.lms[4])
        best = lattice.best_path(rescored, self.LM_WEIGHT)
        scores = {h.words: self.lm_score(system.external, h.words) for h in hyps}
        final = lattice.rescore_external(hyps, scores, self.INTERPOLATION)
        return back, hyps, rescored, best, final

    def run(self, system, lattices, probe, tracer):
        out = Run()
        started = time.perf_counter()
        for k, truth, lat in lattices:
            if tracer is not None:
                tracer.utterance = k
            out.attempted += 1
            try:
                back, hyps, rescored, best, final = probe.time(
                    self.second_pass, lat.nodes[max(lat.finals)] * 0.01, system, lat
                )
            except Exception:
                traceback.print_exc()
                out.failed += 1
                out.digest.append(None)
                continue
            out.pairs.append((truth, best.text))
            out.digest.append((best.words, best.combined, final[0].words, len(rescored.nodes)))
            if len(out.sample) < self.SAMPLE:
                out.sample.append((back, hyps, rescored, best))
        out.wall_s = time.perf_counter() - started
        return out

    def check(self, system, lattices, run, traced):
        from oracles import enumerate_paths

        checks = []
        for back, hyps, rescored, best in run.sample:
            checks.append(
                (
                    "rescore_ngram keeps word_sequences()",
                    rescored.word_sequences() == back.word_sequences(),
                    "",
                )
            )
            top = lattice.best_path(back, self.LM_WEIGHT)
            checks.append(("n-best top-1 equals best_path", hyps[0] == top, ""))
            checks.append(
                (
                    "best_path of the rescored lattice equals its n-best top-1",
                    lattice.nbest(rescored, 1, self.LM_WEIGHT)[0] == best,
                    "",
                )
            )
        if len(run.sample) < self.SAMPLE:
            checks.append(("rescoring sample", False, f"{len(run.sample)} lattices"))
        rng = random.Random("rescore-small")
        for _ in range(self.SMALL_LATTICES):
            _, small = self.make_lattice(rng, system, self.SMALL_SLOTS, self.SMALL_ALTERNATIVES)
            rescored = lattice.rescore_ngram(small, system.lms[4])
            ok = all(
                abs(lm - self.lm_score(system.lms[4], words, end=False)) <= 1e-9
                for words, _, lm, _, _ in enumerate_paths(rescored, self.LM_WEIGHT)
            )
            checks.append(("rescored LM totals equal the 4-gram's", ok, ""))
            for lat in (small, rescored):
                oracle, seen = [], set()
                for words, _, _, combined, _ in enumerate_paths(lat, self.LM_WEIGHT):
                    if words not in seen:
                        seen.add(words)
                        oracle.append((words, combined))
                hyps = lattice.nbest(lat, len(oracle) + 1, self.LM_WEIGHT)
                ok = [h.words for h in hyps] == [w for w, _ in oracle] and all(
                    abs(h.combined - c) <= 1e-9 for h, (_, c) in zip(hyps, oracle)
                )
                checks.append(("n-best order equals enumerate_paths", ok, ""))
        return checks


WORKLOADS = {w.name: w for w in (Experiment(), Prune(), Rescore())}
