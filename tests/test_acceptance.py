"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The statistical criteria (pruning speed trend, scheme comparison) use
seeded batteries with majority thresholds; everything else is exact or
tolerance-pinned.
"""

import itertools
import json
import random
import time

import numpy as np
import pytest

from cantoasr.decoder import (
    DecodeError,
    DecodeParams,
    MatrixScorer,
    _score_matrix,
    batch_decode,
    build_graph,
    decode,
)
from cantoasr.evaluate import classify_errors, corpus_wer, format_classification, wer
from cantoasr.experiment import ExperimentConfig, run_experiment
from cantoasr.lattice import best_path, rescore_ngram
from cantoasr.lexicon import LexiconEntry, compile_lexicon, read_lexicon, demo_lexicon_path
from cantoasr.ngram import (
    EOS,
    SOS,
    UNK,
    MixtureModel,
    perplexity,
    read_arpa,
    read_corpus,
    tokenize_chars,
    train_ngram,
    tune_lambda,
    write_arpa,
)
from cantoasr.phonology import (
    MergeRuleSet,
    Syllable,
    default_inventory,
    parse_jyutping,
    render,
    to_if,
    to_onc,
)
from cantoasr.simulate import SimConfig, build_state_models, simulate_utterance

from oracles import edit_distance, enumerate_paths, viterbi_reference
from test_decoder import beam_flip_fixture, make_system, random_fixture
from test_lattice import make_lattice, milk_corpus
from cantoasr.lattice import Arc

DATA_CORPUS = demo_lexicon_path().parent / "demo_corpus.txt"


def report(name):
    print(f"\n[ACCEPTANCE] {name}: PASS")


def test_c01_inventory_cardinalities():
    inv = default_inventory()
    assert len(inv.onsets) == 20  # includes the null onset
    assert len(inv.nuclei) == 15
    assert len(inv.codas) == 9
    assert len(inv.finals) == 53
    assert len(inv.nuclei) + len(inv.codas) == 24 < len(inv.finals)
    report("inventory cardinalities (20/15/9/53, 24 vs 53)")


def test_c02_phonology_round_trip_exhaustive():
    inv = default_inventory()
    started = time.perf_counter()
    failures = 0
    for onset, final, tone in itertools.product(
        sorted(inv.onsets), sorted(inv.finals), range(1, 7)
    ):
        nucleus, coda = inv.finals[final]
        syl = Syllable(None if onset == "-" else onset, nucleus, coda, tone)
        text = render(syl, inv)
        if parse_jyutping(text, inv) != syl or render(parse_jyutping(text, inv), inv) != text:
            failures += 1
    assert failures == 0
    assert time.perf_counter() - started < 5.0
    report("render/parse identity over 53 finals x 20 onsets x 6 tones")


def test_c03_merge_reproduction():
    inv = default_inventory()
    rules = MergeRuleSet.parse("t>k@aa,a,o")
    entries = [
        LexiconEntry("八", (("baat3",),)),
        LexiconEntry("百", (("baak3",),)),
        LexiconEntry("逼", (("bik1",),)),
    ]
    for scheme in ("if", "onc"):
        lex = compile_lexicon(entries, scheme, inv, merges=rules)
        assert lex.entries["八"] == lex.entries["百"]
    lex = compile_lexicon(entries, "onc", inv, merges=rules)
    (bik,) = lex.entries["逼"]
    (baak,) = lex.entries["百"]
    coda_labels = {p.label for w in lex.entries.values() for pr in w for p in pr if p.kind == "coda"}
    assert bik[1].kind == "nucleus" and bik[1].label not in coda_labels
    # the coda base symbol is shared across the ik / aak contexts under onc
    assert bik[-1].base == baak[-1].base == "k"
    # while the if scheme keeps them as distinct whole-final units
    lex_if = compile_lexicon(entries, "if", inv)
    assert lex_if.entries["逼"][0][-1].base == "ik"
    assert lex_if.entries["百"][0][-1].base == "aak"
    report("coda-merge collision and onc coda sharing structure")


def test_c04_language_model(tmp_path):
    started = time.perf_counter()
    # hand-counted bigram probabilities, exact
    m = train_ngram([["a", "b", "a", "b", "a"]], order=2, smoothing="none")
    assert abs(m.prob("a", (SOS,)) - 1.0) < 1e-12
    assert abs(m.prob("b", ("a",)) - 2.0 / 3.0) < 1e-12
    assert abs(m.prob(EOS, ("a",)) - 1.0 / 3.0) < 1e-12
    assert abs(m.prob("a", ("b",)) - 1.0) < 1e-12

    # ARPA round trip within 1e-5 log10
    corpus = read_corpus(DATA_CORPUS)
    wb = train_ngram(corpus, order=2, smoothing="witten_bell")
    path = tmp_path / "wb.arpa"
    write_arpa(wb, path)
    back = read_arpa(path)
    for gram, lp in wb.logprob.items():
        assert abs(back.logprob[gram] - lp) < 1e-5

    # normalization on 100 sampled histories
    rng = random.Random(404)
    vocab = sorted(wb.vocab - {UNK})
    predicted = wb.predicted_tokens()
    for _ in range(100):
        h = (rng.choice(vocab),)
        total = sum(wb.prob(w, h) for w in predicted)
        assert abs(total - 1.0) < 1e-6

    # tuned mixture weight beats both endpoints on held-out text
    half = len(corpus) // 2
    a = train_ngram(corpus[:half], order=2, smoothing="witten_bell")
    b = train_ngram(corpus[half:-20], order=2, smoothing="witten_bell")
    heldout = corpus[-20:]
    lam = tune_lambda(a, b, heldout)
    tuned = perplexity(MixtureModel(a, b, lam), heldout)
    assert tuned <= perplexity(MixtureModel(a, b, 0.0), heldout) + 1e-9
    assert tuned <= perplexity(MixtureModel(a, b, 1.0), heldout) + 1e-9
    assert time.perf_counter() - started < 10.0
    report("LM hand counts, ARPA round trip, normalization, tuned lambda")


def test_c05_decoder_matches_viterbi_oracle():
    started = time.perf_counter()
    rng = random.Random(20240817)
    checked = 0
    for _ in range(60):
        graph, lm, scorer, lm_weight = random_fixture(rng)
        params = DecodeParams(beam=1e30, max_active=10**9, lm_weight=lm_weight)
        oracle = viterbi_reference(graph, _score_matrix(graph, scorer), lm, lm_weight)
        try:
            hyp, _, _ = decode(graph, scorer, params)
        except DecodeError:
            assert oracle is None
            continue
        words, am, lmtot, combined = oracle
        assert hyp.words == words
        assert abs(hyp.combined - combined) < 1e-9
        checked += 1
    assert checked >= 50
    assert time.perf_counter() - started < 30.0
    report(f"unpruned decode equals the Viterbi oracle on {checked} fixtures")


def test_c06_beam_monotonicity_and_designed_flip():
    rng = random.Random(8)
    beams = (5.0, 10.0, 15.0, 1e30)
    for _ in range(12):
        graph, lm, scorer, lm_weight = random_fixture(rng)
        scores = []
        for beam in beams:
            params = DecodeParams(beam=beam, max_active=10**9, lm_weight=lm_weight)
            try:
                scores.append(decode(graph, scorer, params)[0].combined)
            except DecodeError:
                scores.append(-np.inf)
        assert scores == sorted(scores)

    graph, scorer = beam_flip_fixture()

    def run(beam):
        params = DecodeParams(beam=beam, max_active=10**9, lm_weight=1.0)
        return decode(graph, scorer, params)[0]

    outputs = {beam: run(beam).text for beam in (5.0, 10.0, 13.0, 15.0, 1e30)}
    assert outputs[13.0] == "呀" and outputs[15.0] == "哦"  # flips in (13, 15]
    assert outputs[1e30] == outputs[15.0]
    flip_scores = [run(b).combined for b in beams]
    assert flip_scores == sorted(flip_scores)
    report("beam monotonicity; designed fixture flips between beam 13 and 15")


def _rtf_trend_system():
    rng = random.Random(515)
    inv = default_inventory()
    onsets = sorted(o for o in inv.onsets if o != "-")
    finals = sorted(inv.finals)
    words, seen = [], set()
    while len(words) < 300:
        syls = tuple(
            f"{rng.choice(onsets)}{rng.choice(finals)}{rng.randint(1, 6)}"
            for _ in range(2)
        )
        if syls in seen:
            continue
        seen.add(syls)
        chars = "".join(chr(0x4E00 + 2 * len(words) + k) for k in range(2))
        words.append(LexiconEntry(chars, (syls,)))
    lex = compile_lexicon(words, "onc", inv)
    lm = train_ngram([list(e.word) for e in words], order=2)
    graph = build_graph(lex, lm)
    return words, lex, graph


@pytest.mark.slow
def test_c07_pruning_rtf_trend():
    words, lex, graph = _rtf_trend_system()
    assert graph.num_states > 4000  # the cap at 2000 must actually bite
    base_cfg = SimConfig(seed=1001, frames_per_state=(2, 3), noise_sigma=0.2)
    models = build_state_models(set(graph.pdf_labels), base_cfg)
    n_seeds, n_utts = 20, 200
    faster = 0
    wers = {2000: [], 7000: []}
    for seed in range(n_seeds):
        scorers, refs = [], []
        rng = random.Random(7000 + seed)
        for i in range(n_utts):
            entry = words[rng.randrange(len(words))]
            phones = [p.label for p in lex.entries[entry.word][0]]
            scorers.append(
                simulate_utterance(phones, models, base_cfg, salt=seed * 10**6 + i)
            )
            refs.append(entry.word)
        rtf = {}
        for max_active in (7000, 2000):
            params = DecodeParams(
                beam=1e30, max_active=max_active, lm_weight=1.0, lattice_width=2
            )
            batch = batch_decode(graph, scorers, params)
            rtf[max_active] = batch.rtf
            pairs = [
                (ref, r.hypothesis.text if r.hypothesis else "")
                for ref, r in zip(refs, batch.results)
            ]
            wers[max_active].append(corpus_wer(pairs).rate)
        faster += rtf[2000] <= rtf[7000]
    assert faster >= 16, f"tighter cap faster in only {faster}/20 runs"
    wer_gap = abs(
        sum(wers[2000]) / n_seeds - sum(wers[7000]) / n_seeds
    )
    assert wer_gap <= 0.01, f"max_active changed WER by {wer_gap:.4f}"
    report(
        f"max_active 2000 at least as fast as 7000 in {faster}/20 runs, "
        f"WER gap {wer_gap:.4f}"
    )


@pytest.mark.slow
def test_c08_onc_beats_if_directionally(tmp_path):
    cfg = ExperimentConfig(seed=7, out_dir=tmp_path / "exp")
    assert cfg.confusion_p == 0.5 and cfg.num_utterances == 50 and cfg.num_seeds == 20
    result = run_experiment(cfg)
    agg = result["aggregate"]
    assert agg["onc_better_seeds"] >= 16, agg
    assert agg["mean_relative_improvement"] > 0.0
    report(
        f"onc wins {agg['onc_better_seeds']}/20 seeds, mean relative "
        f"improvement {100 * agg['mean_relative_improvement']:.1f}%"
    )


def test_c09_rescoring_flip():
    corpus = milk_corpus()
    lm2 = train_ngram(corpus, order=2)
    lm4 = train_ngram(corpus, order=4)
    assert lm2.prob("魚", ("有",)) > lm2.prob("乳", ("有",))
    arcs = [
        Arc(0, 1, "奶", -1.0, -0.5),
        Arc(1, 2, "有", -1.0, -0.5),
        Arc(2, 3, "乳糖", -2.0, -3.2),
        Arc(2, 3, "魚塘", -2.0, -2.1),
    ]
    lat = make_lattice(arcs, frames={0: 0, 1: 8, 2: 16, 3: 30}, finals=(3,))
    assert best_path(lat, 10.0).text == "奶有魚塘"
    rescored = rescore_ngram(lat, lm4)
    assert best_path(rescored, 10.0).text == "奶有乳糖"
    assert rescored.word_sequences() == lat.word_sequences()
    report("4-gram rescoring flips the fishpond reading to lactose")


def test_c10_wer_oracle():
    r = wer(
        tokenize_chars("CNF6F-285 該罐裝奶含天然乳糖"),
        tokenize_chars("CNF6F-285 該罐裝奶含天然魚塘"),
    )
    assert r.substitutions == 2 and r.insertions == 0 and r.deletions == 0
    assert r.ref_length == 10
    assert r.rate == 0.20
    rng = random.Random(314)
    for _ in range(20):
        ref = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 15)))
        hyp = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 15)))
        assert wer(ref, hyp).errors == edit_distance(ref, hyp)
    report("Table-8-style pair scores S=2 rate 0.20; DP oracle agreement")


def test_c11_error_classification_accounting():
    rng = random.Random(2718)
    for _ in range(1000):
        n = rng.randint(1, 15)
        refs = [rng.choice("xyz") for _ in range(n)]
        hyps_a = [rng.choice("xyz") for _ in range(n)]
        hyps_b = [rng.choice("xyz") for _ in range(n)]
        cls = classify_errors(refs, hyps_a, hyps_b)
        assert cls.shared_identical + cls.shared_different == cls.shared_errors
        assert cls.correct_a + cls.errors_a_only + cls.shared_errors == n
        assert cls.correct_b + cls.errors_b_only + cls.shared_errors == n
    text = format_classification(classify_errors(["a"], ["a"], ["b"]), "IF", "ONC")
    for needle in (
        "Correct sentences",
        "Incorrect sentences",
        "Errors in IF only",
        "Errors in ONC only",
        "Errors in shared sentences",
    ):
        assert needle in text
    report("classification identities on 1000 random fixtures; report shape")


def test_c12_experiment_determinism(tmp_path):
    cfg_kwargs = dict(seed=7, num_seeds=2, num_utterances=8, words_per_utterance=4)
    run_experiment(ExperimentConfig(out_dir=tmp_path / "a", **cfg_kwargs))
    run_experiment(ExperimentConfig(out_dir=tmp_path / "b", **cfg_kwargs))
    a = (tmp_path / "a/report.json").read_bytes()
    b = (tmp_path / "b/report.json").read_bytes()
    assert a == b
    json.loads(a)
    report("repeated runs produce byte-identical report.json")
