import math
import random
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from cantoasr import DataError, decoder, experiment
from cantoasr.decoder import (
    BatchResult,
    DecodeError,
    DecodeParams,
    DecodeStats,
    GraphError,
    MatrixScorer,
    ScoreFormatError,
    WordLM,
    _cap,
    batch_decode,
    build_graph,
    decode,
    pdf_labels_for,
    read_scores,
    write_scores,
)
from cantoasr.lattice import best_path
from cantoasr.lexicon import (
    LexiconEntry,
    PhoneLexicon,
    compile_lexicon,
    demo_lexicon_path,
    read_lexicon,
)
from cantoasr.ngram import (
    EOS,
    SOS,
    UNK,
    NGramModel,
    read_arpa,
    read_corpus,
    tokenize_chars,
    train_ngram,
    write_arpa,
)
from cantoasr.phonology import default_inventory
from cantoasr.simulate import SimConfig, build_state_models, simulate_utterance

from oracles import viterbi_reference

UNPRUNED = DecodeParams(beam=1e30, max_active=10**9, lm_weight=1.0)


def entry(word, *prons):
    return LexiconEntry(word, tuple(tuple(p.split()) for p in prons))


def make_system(words_syls, scheme="onc", corpus=None, order=2):
    inv = default_inventory()
    entries = [entry(w, s) for w, s in words_syls]
    lex = compile_lexicon(entries, scheme, inv)
    corpus = corpus or [list(w) for w, _ in words_syls]
    lm = train_ngram(corpus, order)
    return lex, lm, build_graph(lex, lm)


def test_graph_counts_one_word_two_phones():
    lex, lm, graph = make_system([("天", "tin1")], scheme="if")
    counts = graph.arc_counts()
    assert counts == {
        "emitting_states": 6,
        "self_loops": 6,
        "forward": 6,
        "entry_eps": 1,
        "word_eps": 1,
    }


def test_graph_chain_layout_one_word_two_phones():
    lex, lm, graph = make_system([("天", "tin1")], scheme="if")
    assert graph.pdf_labels == ("in1#0", "in1#1", "in1#2", "t#0", "t#1", "t#2")
    # hub 0 emits nothing; states 1-6 emit t#0..2, in1#0..2; state 6 moves
    # on to junction 7, which emits nothing either
    assert graph.state_pdf.tolist() == [-1, 3, 4, 5, 0, 1, 2, -1]
    assert graph.entry_states.tolist() == [1]
    assert graph.j_states.tolist() == [7]
    assert graph.j_words.tolist() == [0]


def test_graph_frames_to_word_end_one_word_two_phones():
    lex, lm, graph = make_system([("天", "tin1")], scheme="if")
    # hub, six emitting states of t + in1, junction
    assert graph.frames_to_word_end.tolist() == [0, 6, 5, 4, 3, 2, 1, 0]


def test_graph_homophones_share_chains_structurally():
    lex, lm, graph = make_system([("天", "tin1"), ("田", "tin4")], scheme="if")
    assert graph.num_prons == 2
    assert graph.words == ("天", "田")
    # one chain per word, each ending at its own junction
    assert graph.entry_states.tolist() == [1, 8]
    assert graph.j_states.tolist() == [7, 14]
    assert graph.j_words.tolist() == [0, 1]


def test_graph_if_vs_onc_differ_only_in_alphabet():
    words = [("天氣", "tin1 hei3"), ("香港", "hoeng1 gong2")]
    _, _, g_if = make_system(words, scheme="if")
    _, _, g_onc = make_system(words, scheme="onc")
    assert g_if.words == g_onc.words
    assert g_if.num_prons == g_onc.num_prons
    assert set(g_if.pdf_labels) != set(g_onc.pdf_labels)
    assert g_onc.arc_counts()["emitting_states"] > g_if.arc_counts()["emitting_states"]


def test_graph_rejects_empty_and_wrong_order():
    inv = default_inventory()
    lm2 = train_ngram([["天"]], 2)
    with pytest.raises(GraphError, match="empty"):
        build_graph(compile_lexicon([], "onc", inv), lm2)
    with pytest.raises(GraphError, match="word '天' has no pronunciation"):
        build_graph(PhoneLexicon(entries={"天": ()}), lm2)
    lex = compile_lexicon([entry("天", "tin1")], "onc", inv)
    lm3 = train_ngram([["天"]], 3)
    with pytest.raises(GraphError, match="bigram"):
        build_graph(lex, lm3)


def test_graph_unknown_word_token_warns(caplog):
    inv = default_inventory()
    lex = compile_lexicon([entry("天", "tin1"), entry("罕", "hon2")], "onc", inv)
    lm = train_ngram([["天"]], 2)  # 罕 is not in the LM corpus
    with caplog.at_level("WARNING"):
        build_graph(lex, lm)
    assert any("罕" in rec.message for rec in caplog.records)


def lm_tokens(word, lm):
    return [lm.map_token(tok) for tok in tokenize_chars(word)]


def per_cell_lm_tables(graph, lm):
    """``pron_lm`` and ``end_lm`` built with one ``logprob10`` call per cell."""
    ln10 = math.log(10.0)
    # a context is a word's last token: one row each, in sorted order, then <s>
    contexts = sorted({lm_tokens(word, lm)[-1] for word in graph.words}) + [SOS]
    word_lm = np.empty((len(contexts), len(graph.words)))
    for w, word in enumerate(graph.words):
        toks = lm_tokens(word, lm)
        inner = 0.0
        for prev, tok in zip(toks, toks[1:]):
            inner += ln10 * lm.logprob10(tok, (prev,))
        for c, ctx in enumerate(contexts):
            word_lm[c, w] = ln10 * lm.logprob10(toks[0], (ctx,)) + inner
    end_lm = np.array([ln10 * lm.logprob10(EOS, (ctx,)) for ctx in contexts])
    return word_lm[:, graph.j_words], end_lm


# 香, 港 and 罕 are unknown to the small LM, so they map to <unk>
SMALL_ENTRIES = [
    entry("天氣", "tin1 hei3"),
    entry("好", "hou2"),
    entry("香港", "hoeng1 gong2"),
    entry("罕", "hon2"),
    entry("天", "tin1"),
]
SMALL_CORPUS = [["天", "氣", "好"], ["好", "天"], ["氣"]]


def entries_and_lm(lexicon):
    if lexicon == "demo":
        entries = read_lexicon(demo_lexicon_path())
        return entries, train_ngram(read_corpus(demo_lexicon_path().parent / "demo_corpus.txt"), 2)
    return SMALL_ENTRIES, train_ngram(SMALL_CORPUS, 2)


@pytest.mark.parametrize(
    "lexicon, scheme, lm_kind",
    [
        ("demo", "if", "trained"),
        ("demo", "onc", "trained"),
        ("demo", "onc", "arpa"),
        ("small", "if", "trained"),
        ("small", "onc", "no_unk"),
        ("demo", "if", "word_lm"),
        ("demo", "onc", "word_lm"),
        ("small", "onc", "word_lm"),
    ],
)
def test_pron_lm_equals_per_cell_logprob10(lexicon, scheme, lm_kind, tmp_path):
    entries, lm = entries_and_lm(lexicon)
    if lm_kind == "arpa":
        write_arpa(lm, tmp_path / "lm.arpa")
        lm = read_arpa(tmp_path / "lm.arpa")
    elif lm_kind == "no_unk":
        # unknown characters score LOG10_FLOOR
        no_unk = {g: lp for g, lp in lm.logprob.items() if g != (UNK,)}
        lm = NGramModel(lm.order, no_unk, lm.backoff)
    lex = compile_lexicon(entries, scheme, default_inventory())
    # "word_lm": the graph reads a word-level table built apart from it
    graph = build_graph(lex, WordLM((e.word for e in entries), lm) if lm_kind == "word_lm" else lm)
    pron_lm, end_lm = per_cell_lm_tables(graph, lm)
    assert graph.pron_lm.tobytes() == pron_lm.tobytes()
    assert graph.end_lm.tobytes() == end_lm.tobytes()


GRAPH_ARRAYS = (
    "state_pdf",
    "entry_states",
    "j_states",
    "j_words",
    "frames_to_word_end",
    "pron_lm",
    "end_lm",
    "word_end_ctx",
)


def assert_graph_equals_own_build(shared, own):
    for name in GRAPH_ARRAYS:
        a, b = getattr(shared, name), getattr(own, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert (shared.words, shared.pdf_labels, shared.sos_ctx, shared.num_prons) == (
        own.words,
        own.pdf_labels,
        own.sos_ctx,
        own.num_prons,
    )


@pytest.mark.parametrize("lexicon", ["demo", "small"])
def test_graphs_sharing_one_word_lm_equal_their_own_builds(lexicon, tmp_path):
    entries, lm = entries_and_lm(lexicon)
    inv = default_inventory()
    word_lm = WordLM((e.word for e in entries), lm)
    shared = {}
    for scheme in ("if", "onc"):
        lex = compile_lexicon(entries, scheme, inv)
        shared[scheme] = build_graph(lex, word_lm)
        assert_graph_equals_own_build(shared[scheme], build_graph(lex, lm))
    # the graphs hold a gather of the table, not the table: one, read-only,
    # because both schemes map their pronunciations to the same words
    for graph in shared.values():
        assert not any(v is word_lm or v is word_lm.table for v in vars(graph).values())
    assert shared["if"].pron_lm is shared["onc"].pron_lm
    assert not shared["if"].pron_lm.flags.writeable
    if lexicon == "small":
        return
    # so do the two graphs the experiment builds from the demo lexicon and corpus
    systems = experiment._build_systems(entries, inv, experiment.ExperimentConfig(1, tmp_path))
    for system in systems.values():
        assert_graph_equals_own_build(system.graph, build_graph(system.lex, lm))
    assert systems["if"].graph.pron_lm is systems["onc"].graph.pron_lm
    assert not systems["if"].graph.pron_lm.flags.writeable


def test_word_lm_of_other_words_is_rejected():
    lex = compile_lexicon(SMALL_ENTRIES, "onc", default_inventory())
    lm = train_ngram(SMALL_CORPUS, 2)
    for words in (["天", "好"], [e.word for e in SMALL_ENTRIES] + ["氣"]):
        with pytest.raises(GraphError, match="words"):
            build_graph(lex, WordLM(words, lm))
    with pytest.raises(GraphError, match="empty"):
        WordLM([], lm)
    with pytest.raises(GraphError, match="bigram"):
        WordLM(["天"], train_ngram(SMALL_CORPUS, 3))


@pytest.mark.parametrize("scheme", ["if", "onc"])
def test_state_pdf_chains_are_the_phones_pdf_labels(scheme):
    lex = compile_lexicon(read_lexicon(demo_lexicon_path()), scheme, default_inventory())
    graph = build_graph(lex, train_ngram(read_corpus(demo_lexicon_path().parent / "demo_corpus.txt"), 2))
    index = {lab: i for i, lab in enumerate(graph.pdf_labels)}
    chains = [
        [index[pdf] for phone in pron for pdf in pdf_labels_for(phone.label)]
        for word in graph.words
        for pron in lex.entries[word]
    ]
    state_pdf = graph.state_pdf.tolist()
    assert len(chains) == len(graph.entry_states) == graph.num_prons
    for chain, entry_state, junction in zip(chains, graph.entry_states, graph.j_states):
        assert state_pdf[entry_state:junction] == chain
    assert state_pdf == [-1] + [i for chain in chains for i in [*chain, -1]]


def test_decode_defaults_logged_in_stats():
    lex, lm, graph = make_system([("呀", "aa1")])
    cfg = SimConfig(seed=1, noise_sigma=0.0)
    models = build_state_models(set(graph.pdf_labels), cfg)
    scorer = simulate_utterance(["aa1"], models, cfg)
    _, _, stats = decode(graph, scorer, DecodeParams())
    assert stats.params.beam == 15 and stats.params.max_active == 7000
    payload = stats.to_json()
    for key in ("frames", "active_tokens_mean", "wall_seconds", "audio_seconds", "rtf"):
        assert key in payload


def test_noiseless_single_word_recovered():
    lex, lm, graph = make_system([("天氣", "tin1 hei3"), ("香港", "hoeng1 gong2")])
    cfg = SimConfig(seed=3, noise_sigma=0.0)
    models = build_state_models(set(graph.pdf_labels), cfg)
    phones = [p.label for p in lex.entries["天氣"][0]]
    scorer = simulate_utterance(phones, models, cfg, salt=7)
    hyp, lattice, _ = decode(graph, scorer, UNPRUNED)
    assert hyp.text == "天氣"
    assert best_path(lattice, UNPRUNED.lm_weight).text == "天氣"


def random_fixture(rng):
    inv = default_inventory()
    finals = sorted(inv.finals)
    chars = "甲乙丙"
    n_words = rng.randint(1, 3)
    words = []
    budget = 10  # emitting states
    for i in range(n_words):
        phones_left = budget // 3 - sum(
            (2 if len(s.split()[0]) > 3 else 1) for _, s in words
        )
        if phones_left < 1:
            break
        syl = rng.choice(finals) + str(rng.randint(1, 6))
        words.append((chars[i], syl))
        budget -= 3
    scheme = rng.choice(["if", "onc"])
    corpus = [[w for w, _ in words]] + [
        [rng.choice(words)[0] for _ in range(rng.randint(1, 3))] for _ in range(3)
    ]
    lex, lm, graph = make_system(words, scheme=scheme, corpus=corpus)
    frames = rng.randint(3, 20)
    matrix = np.asarray(
        [[rng.gauss(0, 3.0) for _ in graph.pdf_labels] for _ in range(frames)]
    )
    scorer = MatrixScorer(matrix, graph.pdf_labels)
    lm_weight = rng.choice([1.0, 5.0, 10.0])
    return lex, graph, lm, scorer, lm_weight


def test_unpruned_decode_matches_viterbi_oracle():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(60):
        lex, graph, lm, scorer, lm_weight = random_fixture(rng)
        params = DecodeParams(beam=1e30, max_active=10**9, lm_weight=lm_weight)
        oracle = viterbi_reference(lex, lm, scorer, lm_weight)
        try:
            hyp, _, _ = decode(graph, scorer, params)
        except DecodeError:
            assert oracle is None
            continue
        assert oracle is not None
        words, am, lmtot, combined = oracle
        assert hyp.words == words
        assert hyp.combined == pytest.approx(combined, abs=1e-9)
        assert hyp.am_total == pytest.approx(am, abs=1e-9)
        assert hyp.lm_total == pytest.approx(lmtot, abs=1e-9)
        checked += 1
    assert checked >= 50


def test_no_path_when_too_few_frames():
    lex, lm, graph = make_system([("天", "tin1")])  # needs >= 6 frames
    matrix = np.zeros((2, len(graph.pdf_labels)))
    scorer = MatrixScorer(matrix, graph.pdf_labels)
    with pytest.raises(DecodeError):
        decode(graph, scorer, UNPRUNED)
    assert viterbi_reference(lex, lm, scorer, 1.0) is None


def _assert_matches_oracle(lex, lm, graph, matrix, words):
    scorer = MatrixScorer(np.asarray(matrix, dtype=float), graph.pdf_labels)
    oracle = viterbi_reference(lex, lm, scorer, UNPRUNED.lm_weight)
    hyp, _, _ = decode(graph, scorer, UNPRUNED)
    assert oracle[0] == words
    assert hyp.words == words
    assert hyp.am_total == pytest.approx(oracle[1], abs=1e-9)
    assert hyp.lm_total == pytest.approx(oracle[2], abs=1e-9)


def test_consecutive_forward_winners_keep_their_own_records():
    # one word of three states (1, 2, 3).  A path crosses a word end after
    # frame 2 and re-enters state 1; at frame 3 it moves on to state 2 while
    # the one-word path moves on from state 2 to state 3, so both forward
    # arcs win in one frame and carry different records.  Only the one-word
    # path can finish by frame 4; a record copy that runs state by state
    # would hand it the re-entered path's record, a second word.
    lex, lm, graph = make_system([("甲", "aa1")], corpus=[["甲", "甲"]])
    assert graph.pdf_labels == ("aa1#0", "aa1#1", "aa1#2")
    matrix = [
        [0, -9, -9],
        [0, -1, -9],
        [-5, 0, 0],
        [0, -3, -9],
        [-9, -9, 0],
    ]
    _assert_matches_oracle(lex, lm, graph, matrix, ("甲",))


def test_forward_arc_wins_a_tie_between_different_histories():
    # every score is 0 or -inf and the bigram is uniform, so paths of the
    # same word count tie.  乙 (states 1-3) can end only at frame 2, 甲 at any
    # frame from 2 on, and only 乙 can end at the last frame.  At frame 5,
    # 乙's state 1 holds the path entered after 甲 ended at frame 4, and its
    # state 2 the path entered after 乙 ended at frame 2; they tie, the
    # forward arc wins, and the result is 甲 乙 rather than 乙 乙.
    words = [("甲", "aa1"), ("乙", "m4")]
    corpus = [[a, b] for a, _ in words for b, _ in words]
    lex, lm, graph = make_system(words, corpus=corpus)
    assert graph.pdf_labels == ("aa1#0", "aa1#1", "aa1#2", "m4#0", "m4#1", "m4#2")
    matrix = np.zeros((8, 6))
    for t, col in [(2, 3), (2, 4), (3, 5), (4, 3), (7, 2)]:
        matrix[t, col] = -np.inf
    _assert_matches_oracle(lex, lm, graph, matrix, ("甲", "乙"))


def beam_flip_fixture():
    """Two one-phone words; the eventual winner trails by 14 mid-utterance."""
    lex, lm, graph = make_system(
        [("呀", "aa1"), ("哦", "o4")], corpus=[["呀"], ["哦"]]
    )
    labels = graph.pdf_labels  # aa1#0..2, o4#0..2
    frames = 9
    matrix = np.full((frames, len(labels)), -100.0)
    for f in range(frames):
        state = f // 3
        matrix[f, labels.index(f"aa1#{state}")] = 0.0
        matrix[f, labels.index(f"o4#{state}")] = -3.5 if f <= 3 else 6.0
    return graph, MatrixScorer(matrix, labels)


def test_beam_flip_between_13_and_15():
    graph, scorer = beam_flip_fixture()

    def run(beam):
        params = DecodeParams(beam=beam, max_active=10**9, lm_weight=1.0)
        return decode(graph, scorer, params)[0]

    assert run(5.0).text == "呀"
    assert run(10.0).text == "呀"
    assert run(13.0).text == "呀"
    assert run(15.0).text == "哦"
    assert run(1e30).text == "哦"
    scores = [run(b).combined for b in (5.0, 10.0, 13.0, 15.0, 1e30)]
    assert scores == sorted(scores)
    assert run(15.0).combined > run(13.0).combined


def test_beam_monotonicity_on_random_fixtures():
    rng = random.Random(7)
    for _ in range(10):
        _, graph, lm, scorer, lm_weight = random_fixture(rng)
        scores = []
        for beam in (5.0, 10.0, 15.0, 1e30):
            params = DecodeParams(beam=beam, max_active=10**9, lm_weight=lm_weight)
            try:
                scores.append(decode(graph, scorer, params)[0].combined)
            except DecodeError:
                scores.append(-math.inf)
        assert scores == sorted(scores)


def test_wider_beam_never_turns_success_into_failure():
    # a mid-word token that cannot reach a word end in the frames left must
    # not set the beam reference and prune the only path that can finish
    beams = (2.0, 5.0, 10.0, 15.0, 1e30)
    for seed in range(20):
        rng = random.Random(seed)
        for draw in range(12):
            _, graph, lm, scorer, lm_weight = random_fixture(rng)
            ok = []
            for beam in beams:
                params = DecodeParams(beam=beam, max_active=10**9, lm_weight=lm_weight)
                try:
                    decode(graph, scorer, params)
                    ok.append(True)
                except DecodeError:
                    ok.append(False)
            assert ok == sorted(ok), (seed, draw, ok)

    rng = random.Random(8)
    for _ in range(3):
        _, graph, lm, scorer, lm_weight = random_fixture(rng)
    assert graph.words == ("甲",) and lm_weight == 10.0
    runs = [
        decode(graph, scorer, DecodeParams(beam=b, max_active=10**9, lm_weight=10.0))[0]
        for b in (5.0, 10.0)
    ]
    assert [h.text for h in runs] == ["甲", "甲"]
    assert runs[1].combined == pytest.approx(runs[0].combined, abs=1e-9)


def test_infinite_beam_counts_only_live_tokens():
    # beam=inf puts the cut at -inf: states no token reached must not count
    _, graph, lm, scorer, lm_weight = random_fixture(random.Random(3))
    runs = [
        decode(graph, scorer, DecodeParams(beam=b, lm_weight=lm_weight))
        for b in (math.inf, 1e30)
    ]
    (h_inf, _, s_inf), (h_wide, _, s_wide) = runs
    assert h_inf.words == h_wide.words and h_inf.combined == h_wide.combined
    assert s_inf.active_tokens_mean == s_wide.active_tokens_mean == 4.75


def test_minus_inf_scores_never_reach_the_lattice():
    # a forward arc carrying -inf ties a dead successor (-inf >= -inf) and
    # so "wins" it; such a token must not cross a word end into the lattice
    decoded = 0
    for seed in range(1000, 1020):
        rng = random.Random(seed)
        dead = np.random.default_rng(seed)
        for _ in range(6):
            _, graph, lm, scorer, lm_weight = random_fixture(rng)
            matrix = scorer.matrix.copy()
            matrix[dead.random(matrix.shape) < 0.15] = -np.inf
            scorer = MatrixScorer(matrix, scorer.labels)
            params = DecodeParams(beam=1e30, max_active=10**9, lm_weight=lm_weight)
            try:
                hyp, lattice, _ = decode(graph, scorer, params)
            except DecodeError:
                continue
            decoded += 1
            assert math.isfinite(hyp.combined)
            for arc in lattice.arcs:
                assert math.isfinite(arc.am) and math.isfinite(arc.lm), (seed, arc)
    assert decoded >= 80


def test_acoustic_totals_are_derived_at_word_ends():
    # a record's am total is its crossing score minus lm_weight * lm, not a
    # carried sum: it must match the oracle's carried sum, also where -inf
    # scores kill paths, and the lattice's best path must add up to it
    decoded = 0
    for seed in range(1000, 1040):
        rng = random.Random(seed)
        dead = np.random.default_rng(seed)
        for _ in range(6):
            lex, graph, lm, scorer, lm_weight = random_fixture(rng)
            matrix = scorer.matrix.copy()
            matrix[dead.random(matrix.shape) < 0.15] = -np.inf
            scorer = MatrixScorer(matrix, scorer.labels)
            params = DecodeParams(beam=1e30, max_active=10**9, lm_weight=lm_weight)
            oracle = viterbi_reference(lex, lm, scorer, lm_weight)
            try:
                hyp, lattice, _ = decode(graph, scorer, params)
            except DecodeError:
                assert oracle is None or oracle[3] == -math.inf, (seed, oracle)
                continue
            words, am, _, combined = oracle
            assert hyp.words == words, seed
            assert hyp.am_total == pytest.approx(am, abs=1e-9)
            assert hyp.combined == pytest.approx(combined, abs=1e-9)
            lattice_best = best_path(lattice, lm_weight)
            assert lattice_best.words == words, seed
            assert lattice_best.am_total == pytest.approx(am, abs=1e-9)
            decoded += 1
    assert decoded >= 160


def test_lm_total_is_the_character_bigram_total():
    # the decoder derives a token's LM total from its word-boundary record;
    # recompute it from the words, one bigram per character
    ln10 = math.log(10.0)
    checked = 0
    for seed in range(60):
        rng = random.Random(seed)
        for _ in range(6):
            _, graph, lm, scorer, lm_weight = random_fixture(rng)
            params = DecodeParams(beam=1e30, max_active=10**9, lm_weight=lm_weight)
            try:
                hyp = decode(graph, scorer, params)[0]
            except DecodeError:
                continue
            if len(hyp.words) < 2:
                continue
            tokens = [tok for w in hyp.words for tok in lm_tokens(w, lm)] + [EOS]
            history = [SOS] + tokens[:-1]
            total = sum(lm.logprob10(tok, (h,)) for tok, h in zip(tokens, history))
            assert hyp.lm_total == pytest.approx(ln10 * total, abs=1e-9)
            checked += 1
    assert checked >= 80


def test_max_active_one_is_greedy_extension():
    # degenerate contract: a single surviving token extends greedily.
    # With equal transition weights, self-loop and forward tie exactly (same
    # pdf emitted) and the lower-state-id tie-break keeps the token in
    # place, so it never reaches a word boundary.
    inv = default_inventory()
    entries = [entry("呀", "aa1"), entry("哦", "o4")]
    lex = compile_lexicon(entries, "onc", inv)
    lm = train_ngram([["呀"], ["哦"]], 2)
    matrix = None

    def scorer_for(graph):
        m = np.full((3, len(graph.pdf_labels)), -50.0)
        for f in range(3):
            m[f, graph.pdf_labels.index(f"o4#{f}")] = 0.0
        return MatrixScorer(m, graph.pdf_labels)

    params = DecodeParams(beam=1e30, max_active=1, lm_weight=1.0)
    stuck = build_graph(lex, lm)
    with pytest.raises(DecodeError):
        decode(stuck, scorer_for(stuck), params)


def lexsort_cap(ids, scores, k):
    return np.sort(ids[np.lexsort((ids, -scores))[:k]])


def test_cap_keeps_the_lexsort_set():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        ids = np.sort(rng.choice(1000, size=n, replace=False))
        # integer-valued scores, so most of them tie
        scores = rng.integers(-3, 4, size=n).astype(np.float64)
        scores[rng.random(n) < 0.1] = -np.inf
        for k in (1, n - 1, int(rng.integers(1, n))):
            np.testing.assert_array_equal(
                _cap(ids, scores, k), lexsort_cap(ids, scores, k)
            )
    ids = np.arange(10, 30)
    scores = np.full(ids.size, -2.5)
    for k in (1, 7, ids.size - 1):
        np.testing.assert_array_equal(_cap(ids, scores, k), ids[:k])


def test_decode_deterministic():
    rng = random.Random(99)
    _, graph, lm, scorer, lm_weight = random_fixture(rng)
    params = DecodeParams(beam=20.0, max_active=50, lm_weight=lm_weight)
    runs = [decode(graph, scorer, params) for _ in range(2)]
    (h1, l1, s1), (h2, l2, s2) = runs
    assert h1.words == h2.words and h1.combined == h2.combined
    assert l1.arcs == l2.arcs
    assert s1.tokens_expanded == s2.tokens_expanded


@pytest.mark.parametrize("permuted", [False, True], ids=["graph_order", "permuted"])
def test_decode_leaves_the_scorer_matrix_unchanged(permuted):
    # the decoder pads its own copy with a -inf column; the scorer's array,
    # including a -inf entry, must come back bit for bit
    _, graph, lm, scorer, lm_weight = random_fixture(random.Random(5))
    matrix, labels = scorer.matrix.copy(), scorer.labels
    matrix[1, 0] = -np.inf
    if permuted:
        matrix, labels = matrix[:, ::-1].copy(), labels[::-1]
    scorer = MatrixScorer(matrix, labels)
    before = scorer.matrix.tobytes()
    decode(graph, scorer, DecodeParams(beam=1e30, max_active=10**9, lm_weight=lm_weight))
    assert scorer.matrix.shape == (matrix.shape[0], len(labels))
    assert scorer.matrix.tobytes() == before


def demo_graph(scheme):
    lex = compile_lexicon(read_lexicon(demo_lexicon_path()), scheme, default_inventory())
    return build_graph(lex, train_ngram(read_corpus(demo_lexicon_path().parent / "demo_corpus.txt"), 2))


@pytest.mark.parametrize("which", ["if", "onc", "c07"])
def test_viable_prefix_is_the_states_that_can_finish(which):
    if which == "c07":
        from test_acceptance import _rtf_trend_system

        graph = _rtf_trend_system()[2]
    else:
        graph = demo_graph(which)
    to_end = graph.frames_to_word_end
    assert sorted(graph.by_word_end.tolist()) == list(range(graph.num_states))
    assert len(graph.viable_count) == to_end.max() + 1
    for f in range(len(graph.viable_count)):
        prefix = graph.by_word_end[: graph.viable_count[f]].tolist()
        assert set(prefix) == set(np.flatnonzero(to_end <= f).tolist()), f


def test_every_decode_error_at_tiny_caps_is_a_remaining_one():
    # a frame always keeps an emitting token, so with ties and -inf scores
    # at caps 1 to 3 a decode fails only for want of a token to keep or of
    # one at a word boundary at the end
    messages = {"beam pruned every token", "no surviving token reaches a word boundary"}
    seen = set()
    decoded = 0
    for seed in range(40):
        rng = random.Random(seed)
        dead = np.random.default_rng(seed)
        _, graph, lm, scorer, lm_weight = random_fixture(rng)
        integral = np.round(scorer.matrix)
        for matrix in (integral, np.where(dead.random(integral.shape) < 0.15, -np.inf, integral)):
            scorer = MatrixScorer(matrix, scorer.labels)
            for cap in (1, 2, 3):
                for beam in (5.0, math.inf):
                    params = DecodeParams(beam=beam, max_active=cap, lm_weight=lm_weight)
                    try:
                        decode(graph, scorer, params)
                        decoded += 1
                    except DecodeError as exc:
                        seen.add(str(exc).split(" at ")[0])
    assert decoded >= 50
    assert seen == messages


def test_decoder_lattice_agrees_with_decode():
    lex, lm, graph = make_system(
        [("天氣", "tin1 hei3"), ("香港", "hoeng1 gong2"), ("好", "hou2")],
        corpus=[list("天氣好"), list("香港天氣"), list("好")],
    )
    cfg = SimConfig(seed=21, noise_sigma=0.4)
    models = build_state_models(set(graph.pdf_labels), cfg)
    phones = [p.label for w in ("香港", "好") for p in lex.entries[w][0]]
    scorer = simulate_utterance(phones, models, cfg, salt=2)
    params = DecodeParams(beam=1e30, max_active=10**9, lm_weight=2.0)
    hyp, lattice, _ = decode(graph, scorer, params)
    assert best_path(lattice, 2.0).words == hyp.words


def _finals(lattice, lm_weight):
    """Each final node's incoming arc as (src frame, word, am, lm), and its
    path score, in node order; a record lattice has one arc into each node."""
    into = {a.dst: a for a in lattice.arcs}
    arcs, scores = [], []
    for node in sorted(lattice.finals):
        arc = into[node]
        arcs.append((lattice.nodes[arc.src], arc.word, arc.am, arc.lm))
        am = lm = 0.0
        while node != lattice.start:
            am, lm, node = am + into[node].am, lm + into[node].lm, into[node].src
        scores.append(am + lm_weight * lm)
    return arcs, scores


def _check_lattice_widths(graph, scorer, beam, lm_weight):
    """Decode at several lattice widths; the final frame's crossings, 0 on failure.

    Every token descends from the best word-end crossing of some frame, so
    the width changes only the final frame's records: the lattice's final
    nodes are that frame's best crossings, and every other node is the one
    best crossing of its frame.
    """
    widths = (1, 2, 5, 50, graph.num_prons)  # the last one keeps every crossing
    runs = []
    for width in widths:
        params = DecodeParams(beam=beam, max_active=10**9, lm_weight=lm_weight, lattice_width=width)
        try:
            runs.append(decode(graph, scorer, params))
        except DecodeError as exc:
            runs.append(str(exc))
    if isinstance(runs[0], str):
        assert runs == runs[:1] * len(runs)
        return 0
    hyp, narrow, stats = runs[0]
    full, scores = _finals(runs[-1][1], lm_weight)
    assert all(a >= b - 1e-9 * (1 + abs(b)) for a, b in zip(scores, scores[1:])), scores

    def arc_set(lat):
        return {(lat.nodes[a.src], lat.nodes[a.dst], a.word, a.am, a.lm) for a in lat.arcs}

    for width, (h, lat, st) in zip(widths, runs):
        assert h == hyp
        assert (st.frames, st.active_tokens_mean, st.tokens_expanded) == (
            stats.frames, stats.active_tokens_mean, stats.tokens_expanded
        )
        inner = [f for n, f in lat.nodes.items() if n not in lat.finals]
        assert len(inner) == len(set(inner)), width
        assert best_path(lat, lm_weight).words == hyp.words
        assert arc_set(narrow) <= arc_set(lat), width
        assert _finals(lat, lm_weight)[0] == full[:width], width
    return len(full)


def test_lattice_width_changes_only_the_final_frame():
    crossings = []
    for seed in range(30):
        rng = random.Random(seed)
        dead = np.random.default_rng(seed)
        for _ in range(3):
            _, graph, lm, scorer, lm_weight = random_fixture(rng)
            holed = scorer.matrix.copy()
            holed[dead.random(holed.shape) < 0.15] = -np.inf
            for s in (scorer, MatrixScorer(holed, scorer.labels)):
                for beam in (1e30, 10.0):
                    crossings.append(_check_lattice_widths(graph, s, beam, lm_weight))
    # decodes that succeed, and ones whose final frame has alternatives to keep
    assert sum(n > 0 for n in crossings) >= 200
    assert sum(n > 1 for n in crossings) >= 50, crossings

    for scheme in ("if", "onc"):
        graph = demo_graph(scheme)
        lex = compile_lexicon(read_lexicon(demo_lexicon_path()), scheme, default_inventory())
        # the demo experiment's simulator and search settings
        cfg = SimConfig(seed=34, frames_per_state=(1, 3), noise_sigma=0.6, mean_scale=2.0)
        models = build_state_models(set(graph.pdf_labels), cfg)
        texts = [("合共", "九", "千", "萬元"), ("奶", "含", "乳糖"), ("新", "生", "冷", "八")]
        for salt, text in enumerate(texts):
            phones = [p.label for w in text for p in lex.entries[w][0]]
            scorer = simulate_utterance(phones, models, cfg, salt=salt)
            assert _check_lattice_widths(graph, scorer, 40.0, 0.5), (scheme, text)


def test_an_exact_final_tie_keeps_the_lower_junction_first():
    # two homophones score the same on every frame, so every word end ties
    # exactly; 夾 sorts first, so its junction is the lower one
    lex, lm, graph = make_system([("甲", "gaap3"), ("夾", "gaap3")], corpus=[["甲"], ["夾"]])
    assert graph.words == ("夾", "甲")
    cfg = SimConfig(seed=3, noise_sigma=0.3)
    models = build_state_models(set(graph.pdf_labels), cfg)
    phones = [p.label for w in ("甲", "甲") for p in lex.entries[w][0]]
    scorer = simulate_utterance(phones, models, cfg, salt=1)
    for width in (1, 2, 5):
        params = DecodeParams(beam=1e30, max_active=10**9, lm_weight=1.0, lattice_width=width)
        hyp, lattice, _ = decode(graph, scorer, params)
        assert hyp.words == ("夾", "夾"), width
        finals = [a for a in lattice.arcs if a.dst in lattice.finals]
        assert [a.word for a in finals] == ["夾", "甲"][:width], width
        assert len({(a.src, a.am, a.lm) for a in finals}) == 1, width


def test_fscr_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(17, 6))
    scorer = MatrixScorer(matrix, tuple("abcdef"))
    path = tmp_path / "utt.fscr"
    write_scores(path, scorer)
    back = read_scores(path)
    assert back.labels == scorer.labels
    assert back.num_frames() == 17
    assert back.audio_seconds == pytest.approx(0.17)
    np.testing.assert_allclose(back.matrix, matrix, atol=1e-6)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "pos_inf"])
def test_matrix_scorer_rejects_nan_and_pos_inf(bad):
    matrix = np.zeros((4, 3))
    matrix[2, 1] = bad
    with pytest.raises(ValueError, match=r"NaN or \+inf"):
        MatrixScorer(matrix, tuple("abc"))
    # next to -inf, the bad score is still found
    matrix[2] = -math.inf
    matrix[3, 0] = bad
    with pytest.raises(ValueError, match=r"NaN or \+inf"):
        MatrixScorer(matrix, tuple("abc"))
    # zero likelihood is a valid score, in every column of a frame too
    matrix[3, 0] = 0.0
    assert (MatrixScorer(matrix, tuple("abc")).matrix[2] == -math.inf).all()


@pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
def test_matrix_scorer_accepts_an_empty_matrix(shape):
    assert MatrixScorer(np.zeros(shape), tuple("abc"[: shape[1]])).num_frames() == shape[0]


def test_matrix_scorer_checks_scores_without_a_copy():
    # a check that made an array per score (even one byte each) would show here
    matrix = np.zeros((2000, 50))
    labels = tuple(f"p{k}" for k in range(50))
    tracemalloc.start()
    try:
        MatrixScorer(matrix, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < matrix.size // 10


def test_a_scorer_built_in_code_refuses_a_repeated_label():
    # a repeat would decode from whichever of its columns the column map took last
    with_nan = np.zeros((2, 3))
    with_nan[1, 2] = np.nan
    for matrix in (np.zeros((2, 3)), with_nan):  # the repeat is named before the NaN
        with pytest.raises(DataError, match="^label 'a' names two columns$"):
            MatrixScorer(matrix, ("a", "b", "a"))


def test_fscr_nan_scores_name_the_file(tmp_path):
    p = tmp_path / "nan.fscr"
    data = np.zeros((2, 3), dtype="<f4")
    data[1, 2] = np.nan
    p.write_bytes(b"FSCR" + struct.pack("<II", 2, 3) + data.tobytes())
    (tmp_path / "nan.fscr.labels").write_text("a\nb\nc\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"nan\.fscr: score matrix holds NaN"):
        read_scores(p)


def _fscr(frames, cols, bad=0.0):
    """An FSCR file of zero scores but for ``bad`` in the last cell."""
    data = np.zeros((frames, cols), dtype="<f4")
    data[-1, -1] = bad
    return b"FSCR" + struct.pack("<II", frames, cols) + data.tobytes()


# (file bytes, sidecar text or None, message)
MALFORMED_FSCR = {
    "bad_magic": (b"NOPE" + b"\x00" * 8, "a\n", "bad magic"),
    "truncated_header": (b"FSCR\x02\x00", "a\n", "truncated FSCR header"),
    "truncated_matrix": (_fscr(2, 3)[:-4], "a\nb\nc\n", "truncated score matrix"),
    # read as far as the header says, this would load as a 3x2 matrix
    "trailing_bytes": (_fscr(3, 2) + bytes(12), "a\nb\n", "12 bytes after the 3x2 score matrix"),
    "missing_sidecar": (_fscr(2, 3), None, "no m.fscr.labels sidecar"),
    "label_count": (_fscr(2, 3), "a\nb\n", "3 columns but 2 labels"),
    # otherwise the decoder would silently read the last column named "a"
    "repeated_label": (_fscr(2, 3), "a\nb\na\n", "label 'a' names two columns"),
    "repeated_label_and_nan": (_fscr(2, 3, np.nan), "a\nb\na\n", "label 'a' names two columns"),
    "nan": (_fscr(2, 3, np.nan), "a\nb\nc\n", r"NaN or \+inf"),
    "pos_inf": (_fscr(2, 3, np.inf), "a\nb\nc\n", r"NaN or \+inf"),
    # read as is, this header would ask for 2**66 bytes before any check
    "oversized_header": (
        b"FSCR" + struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF), "a\n", "truncated score matrix"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FSCR))
def test_malformed_fscr_is_a_score_format_error(tmp_path, case):
    data, sidecar, message = MALFORMED_FSCR[case]
    path = tmp_path / "m.fscr"
    path.write_bytes(data)
    if sidecar is not None:
        (tmp_path / "m.fscr.labels").write_text(sidecar, encoding="utf-8")
    with pytest.raises(ScoreFormatError, match=message) as info:
        read_scores(path)
    assert str(info.value).startswith(f"{path}: ")


def test_fscr_bad_magic(tmp_path):
    p = tmp_path / "bad.fscr"
    p.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(ValueError, match="magic"):
        read_scores(p)


def test_rtf_arithmetic():
    stats = DecodeStats(
        frames=180,
        active_tokens_mean=10.0,
        wall_seconds=2.5,
        audio_seconds=1.8,
        params=DecodeParams(),
        tokens_expanded=100,
    )
    assert stats.rtf == pytest.approx(2.5 / 1.8, abs=1e-4)
    batch = BatchResult(wall_seconds=2 * 2.5, audio_seconds=2 * 1.8)
    assert batch.rtf == pytest.approx(2.5 / 1.8, abs=1e-4)
    assert BatchResult().rtf == 0.0


def test_batch_decode_collects_errors():
    lex, lm, graph = make_system([("天", "tin1")])
    cfg = SimConfig(seed=2, noise_sigma=0.0)
    models = build_state_models(set(graph.pdf_labels), cfg)
    good = simulate_utterance([p.label for p in lex.entries["天"][0]], models, cfg)
    bad = MatrixScorer(np.zeros((1, len(graph.pdf_labels))), graph.pdf_labels)
    batch = batch_decode(graph, [good, bad], UNPRUNED)
    assert len(batch.results) == 2
    assert batch.results[0].hypothesis.text == "天"
    assert batch.results[1].error is not None
    assert batch.rtf > 0


def test_batch_decode_empty_batch():
    lex, lm, graph = make_system([("天", "tin1")])
    for empty in ([], iter(())):
        with pytest.raises(ValueError, match="empty"):
            batch_decode(graph, empty, UNPRUNED)


def test_batch_decode_streams_a_generator(monkeypatch):
    lex, lm, graph = make_system([("天", "tin1"), ("地", "dei6")])
    cfg = SimConfig(seed=2, noise_sigma=0.0)
    models = build_state_models(set(graph.pdf_labels), cfg)
    texts = ["天", "地", "天"]
    made, log = [], []

    def scorers():
        for k, word in enumerate(texts):
            made.append(simulate_utterance([p.label for p in lex.entries[word][0]], models, cfg, k))
            log.append(("made", k))
            yield made[-1]

    def logged(graph, scorer, *args):
        log.append(("decoded", next(k for k, s in enumerate(made) if s is scorer)))
        return decode(graph, scorer, *args)

    monkeypatch.setattr(decoder, "decode", logged)
    batch = batch_decode(graph, scorers(), UNPRUNED)
    assert [r.hypothesis.text for r in batch.results] == texts
    # scorer k + 1 is made only after scorer k is decoded
    assert log == [(event, k) for k in range(len(texts)) for event in ("made", "decoded")]


def test_batch_decode_lets_go_of_each_scorer_before_the_next():
    lex, lm, graph = make_system([("天", "tin1"), ("地", "dei6")])
    cfg = SimConfig(seed=2, noise_sigma=0.0)
    models = build_state_models(set(graph.pdf_labels), cfg)
    texts = ["天", "地", None, "天"]  # None: one frame, too short for any word
    yielded = []

    def scorers():
        for k, word in enumerate(texts):
            # every scorer yielded so far must be gone before the next is made
            assert [ref() for ref in yielded] == [None] * len(yielded)
            if word is None:
                scorer = MatrixScorer(np.zeros((1, len(graph.pdf_labels))), graph.pdf_labels)
            else:
                scorer = simulate_utterance([p.label for p in lex.entries[word][0]], models, cfg, k)
            yielded.append(weakref.ref(scorer))
            yield scorer
            del scorer

    batch = batch_decode(graph, scorers(), UNPRUNED)
    assert [r.hypothesis.text if r.error is None else None for r in batch.results] == texts
    assert len(yielded) == len(texts)


def _outcome(graph, scorer, params):
    """What ``decode`` gives that its score reads could change, or its error."""
    try:
        hyp, lattice, stats = decode(graph, scorer, params)
    except DecodeError as exc:
        return str(exc)
    return hyp.words, hyp.combined, lattice.arcs, stats.tokens_expanded


@pytest.mark.parametrize("frames", [1, 31, 32, 33, 65])
def test_the_score_window_edges_read_every_frame(frames):
    # SCORE_WINDOW is 32: one frame, a window's worth either side, and a third refill
    assert decoder.SCORE_WINDOW == 32
    lex, lm, graph = make_system(
        [("天", "tin1"), ("地", "dei6"), ("香港", "hoeng1 gong2")],
        corpus=[["天", "地"], ["香", "港", "天"], ["地"]],
    )
    rng = np.random.default_rng(frames)
    labels = graph.pdf_labels
    extra = ("zz#0", "zz#1")
    matrix = rng.normal(0.0, 3.0, (frames, len(labels)))
    wide = np.hstack([matrix, rng.normal(0.0, 3.0, (frames, len(extra)))])
    perm = rng.permutation(len(labels))
    perm_wide = rng.permutation(len(labels) + len(extra))
    scorers = [
        MatrixScorer(matrix, labels),
        MatrixScorer(matrix[:, perm], tuple(labels[k] for k in perm)),
        MatrixScorer(wide[:, perm_wide], tuple((labels + extra)[k] for k in perm_wide)),
    ]
    unpruned, pruned = (
        [_outcome(graph, scorer, params) for scorer in scorers]
        for params in (UNPRUNED, DecodeParams(beam=6.0, max_active=12, lm_weight=2.0))
    )
    assert unpruned == unpruned[:1] * 3 and pruned == pruned[:1] * 3
    first = unpruned[0]
    oracle = viterbi_reference(lex, lm, scorers[0], UNPRUNED.lm_weight)
    if frames == 1:
        assert oracle is None and isinstance(first, str)
        return
    words, _, _, combined = oracle
    assert first[0] == words
    assert first[1] == pytest.approx(combined, abs=1e-9)


def test_a_missing_label_and_an_empty_scorer_still_raise():
    lex, lm, graph = make_system([("天", "tin1")])
    labels = graph.pdf_labels
    cases = [
        (MatrixScorer(np.zeros((40, len(labels) - 1)), labels[1:]), "missing pdf label"),
        (MatrixScorer(np.zeros((0, len(labels))), labels), "scorer has no frames"),
        # the missing label is named first, as the column map comes first
        (MatrixScorer(np.zeros((0, len(labels) - 1)), labels[1:]), "missing pdf label"),
    ]
    for scorer, message in cases:
        with pytest.raises(DecodeError, match=message):
            decode(graph, scorer, UNPRUNED)


@pytest.mark.parametrize(
    "bad",
    [
        {"beam": math.nan},
        {"beam": 0.0},
        {"max_active": 0},
        {"lm_weight": math.nan},
        {"lm_weight": math.inf},
        {"lm_weight": 0.0},
        {"lattice_width": 0},
        {"lattice_width": -1},
    ],
)
def test_decode_params_reject_bad_values(bad):
    with pytest.raises(ValueError):
        DecodeParams(**bad)


@pytest.mark.parametrize(
    "bad",
    [
        {"max_active": 2.5},
        {"max_active": 7000.0},
        {"max_active": True},
        {"lattice_width": 1.5},
        {"lattice_width": True},
        {"lattice_width": None},
    ],
)
def test_decode_params_reject_non_integral_counts(bad):
    name = next(iter(bad))
    with pytest.raises(DataError, match=f"{name} must be an integer"):
        DecodeParams(**bad)


def test_decode_params_accept_numpy_integers():
    params = DecodeParams(max_active=np.int64(3), lattice_width=np.int32(2))
    assert params.max_active == 3 and params.lattice_width == 2


def test_decode_params_accept_an_infinite_beam():
    assert DecodeParams(beam=math.inf).beam == math.inf
