import math
import random
import re

import pytest

from cantoasr import DataError
from cantoasr.lattice import (
    Arc,
    Hypothesis,
    Lattice,
    LatticeFormatError,
    best_path,
    demo_lattice_path,
    nbest,
    read_external_scores,
    read_lattice,
    rescore_external,
    rescore_ngram,
    write_lattice,
)
from cantoasr.ngram import SOS, UNK, read_arpa, tokenize_chars, train_ngram, write_arpa

from oracles import enumerate_paths


def make_lattice(arcs, frames=None, start=0, finals=(1,)):
    nodes = {n for a in arcs for n in (a.src, a.dst)} | {start} | set(finals)
    node_frames = frames or {n: i for i, n in enumerate(sorted(nodes))}
    return Lattice(nodes=node_frames, start=start, finals=frozenset(finals), arcs=tuple(arcs))


@pytest.fixture()
def diamond():
    # two competing two-word paths plus a one-word shortcut
    arcs = [
        Arc(0, 1, "甲", -0.4, -0.1),
        Arc(0, 2, "乙", -0.6, -0.1),
        Arc(1, 3, "丙", -0.5, -0.1),
        Arc(2, 3, "丁", -0.6, -0.1),
        Arc(0, 3, "戊", -2.5, -0.1),
    ]
    return make_lattice(arcs, frames={0: 0, 1: 10, 2: 10, 3: 20}, finals=(3,))


def test_single_arc():
    lat = make_lattice([Arc(0, 1, "天", -1.5, -0.25)], frames={0: 0, 1: 8})
    hyp = best_path(lat, lm_weight=2.0)
    assert hyp.words == ("天",)
    assert hyp.am_total == pytest.approx(-1.5)
    assert hyp.lm_total == pytest.approx(-0.25)
    assert hyp.combined == pytest.approx(-2.0)


def test_diamond_best_path(diamond):
    hyp = best_path(diamond, lm_weight=1.0)
    oracle = enumerate_paths(diamond, 1.0)
    assert hyp.words == oracle[0][0] == ("甲", "丙")
    assert hyp.combined == pytest.approx(oracle[0][3])
    assert hyp.nodes == (0, 1, 3)


def test_nbest_matches_enumeration(diamond):
    for lm_weight in (1.0, 10.0, 0.0, -2.0):  # any finite weight ranks exactly
        hyps = nbest(diamond, 5, lm_weight)
        oracle = enumerate_paths(diamond, lm_weight)
        assert len(hyps) == 3  # three distinct word sequences
        assert [h.words for h in hyps] == [o[0] for o in oracle]
        for h, o in zip(hyps, oracle):
            assert h.combined == pytest.approx(o[3], abs=1e-9)


def random_lattice(rng):
    """2-7 nodes in topological id order; finals may have successors, scores
    of either sign on a 0.5 grid (so exact ties are common), some epsilons."""
    size = rng.randint(2, 7)
    pairs = {(rng.randrange(j), j) for j in range(1, size)}  # reach every node
    pairs |= {(i, rng.randint(i + 1, size - 1)) for i in range(size - 1)}  # reach the last
    pairs |= {(i, j) for i in range(size) for j in range(i + 1, size) if rng.random() < 0.3}
    arcs = [
        Arc(i, j, rng.choice("ab") if rng.random() < 0.9 else None,
            rng.randint(-8, 8) / 2, rng.randint(-8, 8) / 2)
        for i, j in sorted(pairs) for _ in range(rng.choice((1, 1, 2)))
    ]
    finals = {size - 1} | {i for i in range(size - 1) if rng.random() < 0.3}
    return make_lattice(arcs, frames={i: i for i in range(size)}, finals=finals)


def test_nbest_census_ranks_the_printed_score_against_enumeration():
    rng = random.Random(20)
    for _ in range(1000):
        lat = random_lattice(rng)
        lm_weight = rng.choice((0.5, 1.0, -2.0, 3.0))
        best = {}
        for words, _, _, combined, _ in enumerate_paths(lat, lm_weight):
            best.setdefault(words, combined)  # best combined first
        hyps = nbest(lat, len(best) + 1, lm_weight)
        assert all(a.combined >= b.combined for a, b in zip(hyps, hyps[1:]))
        assert all(abs(h.combined - best[h.words]) <= 1e-9 for h in hyps)
        assert {h.words for h in hyps} == set(best)
        assert best_path(lat, lm_weight) == hyps[0]


def test_nbest_is_the_ranked_enumeration_cut_at_n():
    # pins ties and truncation: each word sequence at its first path in
    # (-combined, node path, words) order, the list cut after n sequences;
    # parallel arcs can give two sequences one node path and one score
    rng = random.Random(20)
    for _ in range(3000):
        lat = random_lattice(rng)
        lm_weight = rng.choice((0.5, 1.0, -2.0, 3.0))
        first_path = {}
        paths = enumerate_paths(lat, lm_weight)
        for words, _, _, _, path in sorted(paths, key=lambda p: (-p[3], p[4], p[0])):
            first_path.setdefault(words, path)
        ranked = list(first_path.items())
        for n in (1, 2, len(ranked), len(ranked) + 1):
            assert [(h.words, h.nodes) for h in nbest(lat, n, lm_weight)] == ranked[:n]


def test_a_final_with_a_better_continuation_is_not_accepted_early():
    lat = make_lattice(
        [Arc(0, 1, "a", -1.0, 0.0), Arc(1, 2, "b", 5.0, 0.0)], finals=(1, 2)
    )
    hyp = best_path(lat, lm_weight=1.0)
    assert (hyp.words, hyp.combined) == (("a", "b"), 4.0)
    assert [(h.words, h.combined) for h in nbest(lat, 5, 1.0)] == [
        (("a", "b"), 4.0), (("a",), -1.0)
    ]


def test_no_finite_path_is_a_format_error():
    # -inf is a zero likelihood: a path through it has no finite score
    dead = make_lattice([Arc(0, 1, "a", -math.inf, -0.5)])
    for search in (lambda lat: nbest(lat, 3, 1.0), lambda lat: best_path(lat, 1.0)):
        with pytest.raises(LatticeFormatError, match="no path .* finite score"):
            search(dead)
    # one finite path is enough
    alive = make_lattice([Arc(0, 1, "a", -math.inf, 0.0), Arc(0, 1, "b", -2.0, 0.0)])
    assert [(h.words, h.combined) for h in nbest(alive, 3, 1.0)] == [(("b",), -2.0)]


def test_demo_nbest_at_a_negative_lm_weight_prints_in_order():
    # exact-arithmetic ties sum differently along the path and in the totals
    lat = read_lattice(demo_lattice_path())
    oracle, seen = [], set()
    for words, _, _, combined, path in enumerate_paths(lat, -2.0):
        if words not in seen:
            seen.add(words)
            oracle.append((words, combined, path))
    hyps = nbest(lat, len(oracle) + 1, -2.0)
    assert [(h.words, h.combined, h.nodes) for h in hyps] == oracle


def test_nbest_prefix_is_best_path(diamond):
    assert nbest(diamond, 1)[0] == best_path(diamond)


def test_nbest_default_is_200():
    import inspect

    sig = inspect.signature(nbest)
    assert sig.parameters["n"].default == 200


def test_combined_monotone_in_lm_weight(diamond):
    # the top path also has the best lm_total here, so raising lm_weight
    # cannot hurt its combined score
    scores = [best_path(diamond, w).combined for w in (1.0, 2.0, 5.0, 10.0)]
    assert scores == sorted(scores, reverse=True)


@pytest.mark.parametrize("lm_weight", [math.nan, math.inf, -math.inf])
def test_nbest_rejects_a_non_finite_lm_weight(diamond, lm_weight):
    with pytest.raises(DataError, match="lm_weight must be finite"):
        nbest(diamond, 2, lm_weight)
    with pytest.raises(DataError, match="lm_weight must be finite"):
        best_path(diamond, lm_weight)


def test_demo_lattice_best_path():
    lat = read_lattice(demo_lattice_path())
    hyp = best_path(lat, lm_weight=1.0)
    assert hyp.text == "合共九千九百萬元"
    assert "-".join(str(n) for n in hyp.nodes) == "0-1-13-14-5-6-7-11-12"


def test_lattice_round_trip(tmp_path, diamond):
    p = tmp_path / "d.lat"
    write_lattice(diamond, p)
    back = read_lattice(p)
    assert back.nodes == diamond.nodes
    assert back.start == diamond.start and back.finals == diamond.finals
    assert back.arcs == diamond.arcs
    write_lattice(back, tmp_path / "d2.lat")
    assert (tmp_path / "d.lat").read_bytes() == (tmp_path / "d2.lat").read_bytes()


def test_lattice_round_trip_keeps_an_epsilon_arc(tmp_path):
    lat = make_lattice([Arc(0, 1, None, -0.5, 0.0), Arc(1, 2, "好", -1.0, -0.2)], finals=(2,))
    write_lattice(lat, tmp_path / "eps.lat")
    assert read_lattice(tmp_path / "eps.lat").arcs == lat.arcs


@pytest.mark.parametrize(
    "word", ["-", "", "好 嘢", "\t"], ids=["epsilon-mark", "empty", "space", "tab"]
)
def test_write_lattice_rejects_a_word_it_cannot_read_back(tmp_path, word):
    # "-" would read back as an epsilon arc, the others as an unrecognized line
    lat = make_lattice([Arc(0, 1, word, -0.5, 0.0), Arc(1, 2, "好", -1.0, -0.2)], finals=(2,))
    path = tmp_path / "w.lat"
    with pytest.raises(LatticeFormatError, match=re.escape(f"cannot write word {word!r}")):
        write_lattice(lat, path)
    assert not path.exists()


def test_lattice_undeclared_node(tmp_path):
    p = tmp_path / "bad.lat"
    p.write_text(
        "LATTICE v1\nnode 0 0\nnode 1 5\nstart 0\nfinal 1\n"
        "arc 0 9 天 -1.000000 -0.100000\n",
        encoding="utf-8",
    )
    with pytest.raises(LatticeFormatError, match="undeclared"):
        read_lattice(p)


@pytest.mark.parametrize(
    "field, value, what",
    [
        ("am", "nan", "NaN"),
        ("lm", "nan", "NaN"),
        ("am", "inf", r"\+inf"),
        ("lm", "inf", r"\+inf"),
    ],
    ids=["am", "lm", "am_inf", "lm_inf"],
)
def test_lattice_nan_score_names_the_line(tmp_path, field, value, what):
    am, lm = (value, "-0.100000") if field == "am" else ("-1.000000", value)
    p = tmp_path / "bad.lat"
    p.write_text(
        "LATTICE v1\nnode 0 0\nnode 1 5\nstart 0\nfinal 1\n"
        f"arc 0 1 天 {am} {lm}\n",
        encoding="utf-8",
    )
    with pytest.raises(LatticeFormatError, match=rf"bad\.lat:6: .*{what} arc score"):
        read_lattice(p)


def test_lattice_neg_inf_score_is_valid(tmp_path):
    p = tmp_path / "zero.lat"
    p.write_text(
        "LATTICE v1\nnode 0 0\nnode 1 5\nstart 0\nfinal 1\narc 0 1 天 -inf -0.100000\n",
        encoding="utf-8",
    )
    assert read_lattice(p).arcs[0].am == -math.inf


@pytest.mark.parametrize(
    "line, what",
    [
        ("arc 0 9 天 -1.000000 -0.100000", "undeclared node"),
        ("arcs 0 1", "unrecognized line"),
        ("node 1 9", "node 1 declared twice"),
        ("start 1", "second start declaration"),
    ],
    ids=["undeclared_node", "unrecognized", "repeated_node", "second_start"],
)
def test_lattice_error_names_the_file_once(tmp_path, line, what):
    p = tmp_path / "bad.lat"
    p.write_text(
        f"LATTICE v1\nnode 0 0\nnode 1 5\nstart 0\nfinal 1\n{line}\n", encoding="utf-8"
    )
    with pytest.raises(LatticeFormatError, match=what) as err:
        read_lattice(p)
    assert str(err.value).startswith(f"{p}:6: ")
    assert str(err.value).count("bad.lat") == 1


def test_lattice_rejects_cycles():
    with pytest.raises(LatticeFormatError, match="cycle"):
        make_lattice(
            [Arc(0, 2, "a", 0, 0), Arc(2, 3, "b", 0, 0), Arc(3, 2, "c", 0, 0),
             Arc(3, 1, "d", 0, 0)],
            frames={0: 0, 1: 3, 2: 1, 3: 2},
        )


def test_lattice_rejects_unreachable():
    with pytest.raises(LatticeFormatError, match="unreachable"):
        make_lattice(
            [Arc(0, 1, "a", 0, 0), Arc(2, 1, "b", 0, 0)],
            frames={0: 0, 1: 5, 2: 3},
        )


def test_lattice_rejects_a_dead_end():
    # node 2 follows the final node but reaches no final itself
    with pytest.raises(LatticeFormatError, match="node 2 cannot reach a final node"):
        make_lattice([Arc(0, 1, "a", 0, 0), Arc(1, 2, "b", 0, 0)])
    # a node that is both is reported unreachable
    with pytest.raises(LatticeFormatError, match="node 2 unreachable from start"):
        make_lattice([Arc(0, 1, "a", 0, 0)], frames={0: 0, 1: 5, 2: 3})


def test_rescore_same_model_keeps_best_path():
    lm = train_ngram([list("天氣好"), list("天氣熱")], order=2)
    ln10 = math.log(10.0)

    def arc_lm(word, prev):
        total, h = 0.0, prev
        for ch in word:
            total += ln10 * lm.logprob10(ch, (h,))
            h = ch
        return total

    arcs = [
        Arc(0, 1, "天氣", -1.0, arc_lm("天氣", "<s>")),
        Arc(1, 2, "好", -1.0, arc_lm("好", "氣")),
        Arc(1, 2, "熱", -1.2, arc_lm("熱", "氣")),
    ]
    lat = make_lattice(arcs, frames={0: 0, 1: 10, 2: 20}, finals=(2,))
    before = best_path(lat, 10.0)
    after = best_path(rescore_ngram(lat, lm), 10.0)
    assert after.words == before.words
    assert after.combined == pytest.approx(before.combined, abs=1e-9)


@pytest.fixture()
def milk_lattice():
    # 奶有乳糖 vs 奶有魚塘 with equal acoustics: the LM decides
    arcs = [
        Arc(0, 1, "奶", -1.0, -0.5),
        Arc(1, 2, "有", -1.0, -0.5),
        Arc(2, 3, "乳糖", -2.0, -3.2),
        Arc(2, 3, "魚塘", -2.0, -2.1),
    ]
    return make_lattice(arcs, frames={0: 0, 1: 8, 2: 16, 3: 30}, finals=(3,))


def milk_corpus():
    # fishpond is frequent in broad contexts; lactose is rarer but always
    # follows the long-context milk cue
    corpus = []
    corpus += [list("山邊魚塘")] * 30
    corpus += [list("有魚塘水")] * 10
    corpus += [list("奶有乳糖")] * 4
    corpus += [list("日日有奶")] * 6
    return corpus


def test_rescore_flip_with_long_context(milk_lattice):
    corpus = milk_corpus()
    lm2 = train_ngram(corpus, order=2)
    lm4 = train_ngram(corpus, order=4)
    # decode-time bigram prefers the frequent fishpond reading
    assert lm2.prob("魚", ("有",)) > lm2.prob("乳", ("有",))
    before = best_path(milk_lattice, 10.0)
    assert before.text == "奶有魚塘"
    after = best_path(rescore_ngram(milk_lattice, lm4), 10.0)
    assert after.text == "奶有乳糖"


def test_rescore_preserves_sequences_and_am(milk_lattice):
    lm4 = train_ngram(milk_corpus(), order=4)
    rescored = rescore_ngram(milk_lattice, lm4)
    assert rescored.word_sequences() == milk_lattice.word_sequences()
    assert len(rescored.nodes) >= len(milk_lattice.nodes)
    for lat in (milk_lattice, rescored):
        for words, am, lm, _, _ in enumerate_paths(lat, 1.0):
            match = [
                o for o in enumerate_paths(milk_lattice, 1.0) if o[0] == words
            ]
            assert match and am == pytest.approx(match[0][1], abs=1e-9)


def raw_history_lm(lm, words):
    """A path's LM total, each character conditioned on the raw ``order - 1`` before it."""
    ctx_len = lm.order - 1
    ln10 = math.log(10.0)
    hist = (SOS,) * ctx_len
    total = 0.0
    for word in words:
        arc_lm = 0.0
        for ch in tokenize_chars(word):
            arc_lm += ln10 * lm.logprob10(ch, hist)
            hist = (hist + (ch,))[-ctx_len:]
        total += arc_lm
    return total


def test_rescore_census_equals_raw_history_scores(tmp_path):
    rng = random.Random(13)
    chars = list("天氣好熱今日香港人奶有")
    for case in range(48):
        order = 2 + case % 4
        corpus = [
            [rng.choice(chars[:8] + ["ab", UNK]) for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(5, 25))
        ]
        lm = train_ngram(corpus, order, smoothing=rng.choice(["none", "witten_bell"]))
        if case % 2:
            write_arpa(lm, tmp_path / "lm.arpa")
            lm = read_arpa(tmp_path / "lm.arpa")
        # in-vocabulary, OOV (龍, 鳳, zz: read as <unk>, which the corpus
        # also holds), ASCII-run and epsilon arcs
        vocab = chars + ["龍", "天龍", "鳳", "ab", "zz", "ab天", None]
        n = rng.randint(2, 5)
        arcs = [Arc(i, i + 1, rng.choice(vocab[:-1]), -1.0, -0.5) for i in range(n)]
        for _ in range(2 * n):
            i = rng.randint(0, n - 1)
            arcs.append(Arc(i, rng.randint(i + 1, n), rng.choice(vocab), rng.uniform(-5, 0), -0.5))
        lat = make_lattice(arcs, start=0, finals=(n - 1, n))
        rescored = rescore_ngram(lat, lm)
        assert rescored.word_sequences() == lat.word_sequences()
        paths = enumerate_paths(rescored, 1.0)
        assert sorted((w, am) for w, am, *_ in paths) == sorted(
            (w, am) for w, am, *_ in enumerate_paths(lat, 1.0)
        )
        for words, _, lm_total, _, _ in paths:
            assert lm_total == raw_history_lm(lm, words)


def test_rescore_merges_histories_the_lm_never_stored():
    lm = train_ngram([list("天氣好"), list("天氣熱")], order=3)
    # three OOV words in one slot: three raw histories, one LM state
    arcs = [Arc(0, 1, w, -1.0, -0.5) for w in ("龍", "鳳", "zz")]
    arcs += [Arc(1, 2, "天", -1.0, -0.5), Arc(2, 3, "氣", -1.0, -0.5)]
    lat = make_lattice(arcs, finals=(3,))
    raw_histories = 1 + 3 + 3 + 3
    rescored = rescore_ngram(lat, lm)
    assert len(rescored.nodes) == len(lat.nodes) < raw_histories
    assert rescored.word_sequences() == lat.word_sequences()
    for words, _, lm_total, _, _ in enumerate_paths(rescored, 1.0):
        assert lm_total == raw_history_lm(lm, words)


def test_rescore_external_orderings(diamond):
    hyps = nbest(diamond, 3, lm_weight=1.0)
    scores = {h.words: -1.0 for h in hyps}
    # interpolation 1.0 keeps the original order
    same = rescore_external(hyps, scores, 1.0)
    assert [h.words for h in same] == [h.words for h in hyps]
    # interpolation 0.0 with a dominant external score flips the ranking
    scores[hyps[1].words] = 50.0
    flipped = rescore_external(hyps, scores, 0.0)
    assert flipped[0].words == hyps[1].words


def test_rescore_external_hand_arithmetic():
    hyps = [
        Hypothesis(("a",), -1.0, -1.0, lm_weight=2.0),
        Hypothesis(("b",), -1.5, -0.5, lm_weight=2.0),
        Hypothesis(("c",), -2.0, -0.2, lm_weight=2.0),
    ]
    scores = {("a",): -2.0, ("b",): -0.1, ("c",): -0.3}
    out = rescore_external(hyps, scores, 0.25)
    expected = sorted(
        hyps,
        key=lambda h: -(
            h.am_total + 2.0 * (0.25 * h.lm_total + 0.75 * scores[h.words])
        ),
    )
    assert [h.words for h in out] == [h.words for h in expected]
    for h in out:
        assert h.lm_total == pytest.approx(
            0.25 * dict((x.words, x.lm_total) for x in hyps)[h.words]
            + 0.75 * scores[h.words]
        )


def test_read_external_scores_reads_the_empty_word_sequence(tmp_path):
    # an all-epsilon path is the hypothesis with no words; its line starts with the TAB
    p = tmp_path / "s.tsv"
    p.write_text("\t-1.0\n \n好\t-2.0\n", encoding="utf-8")
    scores = read_external_scores(p)
    assert scores == {(): -1.0, ("好",): -2.0}
    lat = make_lattice([Arc(0, 1, None, -0.5, 0.0), Arc(0, 1, "好", -1.0, -0.2)])
    hyps = nbest(lat, 2, lm_weight=1.0)
    assert [h.words for h in hyps] == [(), ("好",)]
    out = rescore_external(hyps, scores, 0.5)
    assert {h.words: h.combined for h in out} == {
        (): pytest.approx(-0.5 + 0.5 * -1.0),
        ("好",): pytest.approx(-1.0 + 0.5 * -0.2 + 0.5 * -2.0),
    }


def test_read_external_scores_rejects_a_repeated_word_sequence(tmp_path):
    # whitespace is normalized before the words are a key, so line 3 repeats line 1
    p = tmp_path / "s.tsv"
    p.write_text("甲 乙\t-1.0\n甲\t-2.0\n甲  乙\t-3.0\n", encoding="utf-8")
    with pytest.raises(LatticeFormatError, match=r"s\.tsv:3: .*repeated \(first on line 1\)"):
        read_external_scores(p)


def test_rescore_external_missing_scores(diamond):
    hyps = nbest(diamond, 3, lm_weight=1.0)
    with pytest.raises(DataError, match="甲丙"):
        rescore_external(hyps, {}, 0.5)
