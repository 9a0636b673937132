import math
import random

import numpy as np
import pytest

from cantoasr.lexicon import demo_lexicon_path
from cantoasr.ngram import (
    EOS,
    LOG10_FLOOR,
    SOS,
    UNK,
    ArpaFormatError,
    MixtureModel,
    NGramModel,
    interpolate,
    perplexity,
    read_arpa,
    read_corpus,
    tokenize_chars,
    train_ngram,
    tune_lambda,
    write_arpa,
)

from oracles import arpa_logprob10, counting_train_ngram


def sents(*lines):
    return [line.split() for line in lines]


def predicted_tokens(m):
    """All tokens a history can continue with (excludes the start marker)."""
    return sorted(m.vocab - {SOS})


@pytest.fixture()
def hand_bigram():
    # counted by hand over <s> a b a b a </s>
    return train_ngram(sents("a b a b a"), order=2, smoothing="none")


def test_tokenize_chars():
    assert tokenize_chars("該罐裝奶") == ["該", "罐", "裝", "奶"]
    assert tokenize_chars("abc 該def") == ["abc", "該", "def"]
    assert tokenize_chars("  ") == []


def test_hand_bigram_counts(hand_bigram):
    m = hand_bigram
    assert m.prob("a", (SOS,)) == pytest.approx(1.0, abs=1e-12)
    assert m.prob("b", ("a",)) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert m.prob(EOS, ("a",)) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert m.prob("a", ("b",)) == pytest.approx(1.0, abs=1e-12)


def test_single_token_unigram():
    m = train_ngram(sents("x"), order=1, smoothing="none")
    assert m.prob("x") == pytest.approx(0.5, abs=1e-12)
    assert m.prob(EOS) == pytest.approx(0.5, abs=1e-12)


def test_uniform_unigram():
    # four tokens once each in one sentence: uniform 1/(V+1) incl. end marker
    m = train_ngram(sents("p q r s"), order=1, smoothing="none")
    for tok in ["p", "q", "r", "s", EOS]:
        assert m.prob(tok) == pytest.approx(1.0 / 5.0, abs=1e-12)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty"):
        train_ngram([], order=2)


def test_perplexity_uniform():
    m = train_ngram(sents("p q r s"), order=1, smoothing="none")
    assert perplexity(m, sents("p q", "r")) == pytest.approx(5.0, rel=1e-9)


def test_perplexity_hand_bigram(hand_bigram):
    # P = 1 * 2/3 * 1 * 1/3 over 4 events
    expected = (2.0 / 9.0) ** (-1.0 / 4.0)
    assert perplexity(hand_bigram, sents("a b a")) == pytest.approx(expected, rel=1e-9)


def test_perplexity_reorder_invariant():
    m = train_ngram(sents("a b c", "c b a", "a c b"), order=2)
    text = sents("a b", "c a", "b c")
    shuffled = [text[2], text[0], text[1]]
    assert perplexity(m, text) == pytest.approx(perplexity(m, shuffled), rel=1e-12)


def test_unknown_tokens_never_abort(hand_bigram):
    ppl = perplexity(hand_bigram, sents("a z b"))
    assert math.isfinite(ppl)


def test_normalization_mle_and_wb():
    corpus = sents("a b c a", "b c a b b", "c c a", "a b")
    for smoothing in ("none", "witten_bell"):
        m = train_ngram(corpus, order=2, smoothing=smoothing)
        for h in [(SOS,), ("a",), ("b",), ("c",)]:
            assert sum(m.prob(w, h) for w in predicted_tokens(m)) == pytest.approx(1.0, abs=1e-6)


def test_normalization_trigram_wb():
    corpus = sents("a b c a b", "c a b c", "b b a c")
    m = train_ngram(corpus, order=3, smoothing="witten_bell")
    histories = [(SOS, SOS), (SOS, "a"), ("a", "b"), ("b", "c"), ("c", "z")]
    for h in histories:
        assert sum(m.prob(w, h) for w in predicted_tokens(m)) == pytest.approx(1.0, abs=1e-6)


def test_monotone_under_pure_extension():
    # adding a sentence whose occurrences of the history are all followed by
    # the same word never lowers that conditional probability
    base = sents("a b c", "b a c")
    m1 = train_ngram(base, order=2, smoothing="none")
    m2 = train_ngram(base + sents("c a b"), order=2, smoothing="none")
    assert m2.prob("b", ("a",)) >= m1.prob("b", ("a",)) - 1e-12


def test_interpolate_endpoints():
    a = train_ngram(sents("a b a", "b a"), order=2, smoothing="witten_bell")
    b = train_ngram(sents("a c c", "c b"), order=2, smoothing="witten_bell")
    support = set(a.logprob) | set(b.logprob)
    m1 = interpolate(a, b, 1.0)
    m0 = interpolate(a, b, 0.0)
    for gram in support:
        if gram[-1] in (SOS, UNK):
            continue
        w, h = gram[-1], gram[:-1]
        assert m1.prob(w, h) == pytest.approx(a.prob(w, h), rel=1e-9)
        assert m0.prob(w, h) == pytest.approx(b.prob(w, h), rel=1e-9)


def test_interpolate_convex_combination():
    a = train_ngram(sents("a a b", "a b"), order=2, smoothing="witten_bell")
    b = train_ngram(sents("a b b", "b b a"), order=2, smoothing="witten_bell")
    m = interpolate(a, b, 0.5)
    for gram in set(a.logprob) | set(b.logprob):
        if gram[-1] == SOS:
            continue
        w, h = gram[-1], gram[:-1]
        pa, pb = a.prob(w, h), b.prob(w, h)
        assert m.prob(w, h) == pytest.approx(0.5 * pa + 0.5 * pb, rel=1e-9)
        assert min(pa, pb) - 1e-12 <= m.prob(w, h) <= max(pa, pb) + 1e-12


def test_interpolate_point_values():
    # 0.5 * 0.2 + 0.5 * 0.6 = 0.4 on a constructed pair of unigram models
    a = NGramModel(order=1, logprob={("w",): math.log10(0.2), ("x",): math.log10(0.8)})
    b = NGramModel(order=1, logprob={("w",): math.log10(0.6), ("x",): math.log10(0.4)})
    m = interpolate(a, b, 0.5)
    assert m.prob("w") == pytest.approx(0.4, rel=1e-12)


def test_interpolate_normalized():
    a = train_ngram(sents("a b c a", "c b"), order=2, smoothing="witten_bell")
    b = train_ngram(sents("b b d", "d a c"), order=2, smoothing="witten_bell")
    m = interpolate(a, b, 0.3)
    for h in [(SOS,), ("a",), ("b",), ("d",)]:
        assert sum(m.prob(w, h) for w in predicted_tokens(m)) == pytest.approx(1.0, abs=1e-6)


def test_interpolate_order_mismatch():
    a = train_ngram(sents("a b"), order=1)
    b = train_ngram(sents("a b"), order=2)
    with pytest.raises(ValueError, match="order"):
        interpolate(a, b, 0.5)


def test_tune_lambda_direction():
    a = train_ngram(sents("a b a b", "b a a"), order=2, smoothing="witten_bell")
    b = train_ngram(sents("c d d c", "d c c"), order=2, smoothing="witten_bell")
    lam = tune_lambda(a, b, sents("a b a", "b a b"))
    assert lam >= 0.5


def test_tune_lambda_tie_break():
    a = train_ngram(sents("a b a"), order=2, smoothing="witten_bell")
    lam = tune_lambda(a, a, sents("a b"))
    assert lam == pytest.approx(0.5, abs=1e-9)


def test_tuned_lambda_beats_endpoints():
    a = train_ngram(sents("a b a b", "a a b"), order=2, smoothing="witten_bell")
    b = train_ngram(sents("b c c b", "c b c"), order=2, smoothing="witten_bell")
    heldout = sents("a b c", "b c a b")
    lam = tune_lambda(a, b, heldout)
    tuned = perplexity(MixtureModel(a, b, lam), heldout)
    p0 = perplexity(MixtureModel(a, b, 0.0), heldout)
    p1 = perplexity(MixtureModel(a, b, 1.0), heldout)
    assert tuned <= min(p0, p1) + 1e-9


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("smoothing", ["none", "witten_bell"])
def test_bigram_log10_table_equals_logprob10(order, smoothing):
    m = train_ngram(sents("a b c a", "b b a", "c a"), order=order, smoothing=smoothing)
    # unknown histories ("z") read the <unk> back-off and bigrams
    m.backoff[(UNK,)] = -0.5
    m.logprob[(UNK, "b")] = -0.25
    histories = [SOS, "a", "b", "c", "z", "a", UNK]
    words = ["a", "b", EOS, "y", "c", "a"]
    table = m.bigram_log10_table(histories, words)
    expected = np.array([[m.logprob10(w, (h,)) for w in words] for h in histories])
    assert table.tobytes() == expected.tobytes()


def test_arpa_round_trip(tmp_path, hand_bigram):
    path = tmp_path / "m.arpa"
    write_arpa(hand_bigram, path)
    back = read_arpa(path)
    assert back.order == hand_bigram.order
    for gram, lp in hand_bigram.logprob.items():
        assert back.logprob[gram] == pytest.approx(lp, abs=1e-5)
    queries = [("a", (SOS,)), ("b", ("a",)), (EOS, ("a",)), ("z", ("a",))]
    for w, h in queries:
        assert back.logprob10(w, h) == pytest.approx(
            hand_bigram.logprob10(w, h), abs=1e-5
        )


def test_arpa_format_shape(tmp_path):
    corpus = read_corpus_from(tmp_path)
    m = train_ngram(corpus, order=2, smoothing="witten_bell")
    path = tmp_path / "demo.arpa"
    write_arpa(m, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("\\data\\\n")
    assert text.rstrip().endswith("\\end\\")
    assert "\\1-grams:" in text and "\\2-grams:" in text


def read_corpus_from(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text("天氣好\n今日好熱\n天氣熱\n", encoding="utf-8")
    return read_corpus(p)


def test_arpa_undeclared_section(tmp_path):
    path = tmp_path / "bad.arpa"
    path.write_text(
        "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.3\ta\n-0.6\tb\n"
        "\n\\2-grams:\n-0.1\ta b\n\n\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(ArpaFormatError, match="not declared"):
        read_arpa(path)


def test_arpa_count_mismatch(tmp_path):
    path = tmp_path / "bad.arpa"
    path.write_text(
        "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.3\ta\n-0.6\tb\n\n\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(ArpaFormatError, match="declared 3"):
        read_arpa(path)


def test_arpa_truncated(tmp_path):
    path = tmp_path / "bad.arpa"
    path.write_text("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.3\ta\n", encoding="utf-8")
    with pytest.raises(ArpaFormatError, match="end"):
        read_arpa(path)


@pytest.mark.parametrize(
    "line, what",
    [
        ("nan\ta\t-0.2", "NaN log probability"),
        ("-0.3\ta\tnan", "NaN back-off weight"),
        ("inf\ta\t-0.2", r"\+inf log probability"),
        ("-0.3\ta\tinf", r"\+inf back-off weight"),
    ],
    ids=["logprob", "backoff", "logprob_inf", "backoff_inf"],
)
def test_arpa_rejects_nan(tmp_path, line, what):
    path = tmp_path / "bad.arpa"
    path.write_text(
        "\\data\\\nngram 1=2\nngram 2=1\n\n\\1-grams:\n"
        f"{line}\n-0.6\tb\t-0.1\n\n\\2-grams:\n-0.1\ta b\n\n\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(ArpaFormatError, match=rf"bad\.arpa:6: {what}"):
        read_arpa(path)


def test_arpa_accepts_neg_inf(tmp_path):
    path = tmp_path / "zero.arpa"
    path.write_text(
        "\\data\\\nngram 1=2\n\n\\1-grams:\n-inf\ta\n-0.6\tb\n\n\\end\\\n", encoding="utf-8"
    )
    assert read_arpa(path).logprob[("a",)] == -math.inf


def test_arpa_rejects_unstored_context(tmp_path):
    path = tmp_path / "bad.arpa"
    path.write_text(
        "\\data\\\nngram 1=2\nngram 2=2\n\n\\1-grams:\n-0.3\ta\t-0.1\n-0.6\tb\n"
        "\n\\2-grams:\n-0.1\ta b\n-0.2\tc a\n\n\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(ArpaFormatError, match=r"bad\.arpa:11: context 'c' of 'c a' not stored"):
        read_arpa(path)


def test_arpa_rejects_repeated_ngram(tmp_path):
    path = tmp_path / "bad.arpa"
    path.write_text(
        "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.3\ta\n-0.6\tb\n-0.5\ta\n\n\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(ArpaFormatError, match=r"bad\.arpa:7: repeated n-gram 'a'"):
        read_arpa(path)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_arpa_round_trip_loads_every_model(tmp_path, order):
    a = train_ngram(sents("a b c a", "c b", "b b a c"), order=order)
    b = train_ngram(sents("a c c", "c b a"), order=order)
    for name, m in [("trained", a), ("interpolated", interpolate(a, b, 0.3))]:
        path = tmp_path / f"{name}.arpa"
        write_arpa(m, path)
        back = read_arpa(path)
        assert back.order == order and set(back.logprob) == set(m.logprob)


def test_prefixes_always_present():
    corpus = sents("a b c d", "d c b a", "a c")
    for order in (2, 3, 4):
        m = train_ngram(corpus, order=order, smoothing="witten_bell")
        for gram in m.logprob:
            if len(gram) > 1:
                assert gram[:-1] in m.logprob


def test_normalization_random_histories():
    rng = random.Random(13)
    corpus = [
        [rng.choice("abcdef") for _ in range(rng.randint(2, 8))] for _ in range(60)
    ]
    m = train_ngram(corpus, order=2, smoothing="witten_bell")
    vocab = sorted(m.vocab - {SOS, UNK})
    histories = [(rng.choice(vocab),) for _ in range(100)]
    for h in histories:
        assert sum(m.prob(w, h) for w in predicted_tokens(m)) == pytest.approx(1.0, abs=1e-6)


def test_state_is_the_longest_stored_suffix():
    m = train_ngram(sents("a b c", "b c a"), order=3)
    assert m.state(("c", "a", "b", "c")) == ("b", "c")  # at most order - 1 tokens
    assert m.state(("b", "a")) == ("a",)  # "b a" never occurs, so it is not stored
    assert m.state((UNK, "a")) == ("a",)
    assert m.state((SOS, SOS)) == (SOS, SOS)
    assert m.state(()) == ()
    assert train_ngram(sents("a b"), order=1).state(("a", "b")) == ()


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_ln_score_equals_the_per_token_sum(order):
    rng = random.Random(order)
    corpus = [[rng.choice("abcdef") for _ in range(rng.randint(2, 8))] for _ in range(40)]
    m = train_ngram(corpus, order=order)
    for _ in range(300):
        # "z" is unknown to the model
        history = (SOS,) * rng.randint(0, order - 1) + tuple(rng.choices("abcdefz", k=rng.randint(0, 5)))
        tokens = rng.choices("abcdefz", k=rng.randint(0, 6))
        expected, raw = 0.0, history
        for tok in tokens:
            expected += math.log(10.0) * m.logprob10(tok, raw)
            raw += (tok,)
        total, state = m.ln_score(tokens, m.state(tuple(map(m.map_token, history))))
        assert total == expected
        assert state == m.state(tuple(map(m.map_token, raw)))


def random_model(rng, order):
    """A prefix-closed back-off model with random scores and weights.

    Scores include -0.0, 0.0 and -inf; about half the models store no
    ``<unk>`` unigram, and the others extend ``<unk>`` contexts too.
    """
    def score(low):
        return rng.choice([-0.0, 0.0, -math.inf, low, rng.uniform(low, 0.0)])

    tokens = rng.sample(["a", "b", "c", "d", SOS, EOS], rng.randint(1, 6))
    if rng.random() < 0.5:
        tokens.append(UNK)
    m = NGramModel(order=order)
    level = [(t,) for t in tokens]
    for k in range(1, order + 1):
        for gram in level:
            m.logprob[gram] = score(-3.0)
            if k < order and rng.random() < 0.7:
                m.backoff[gram] = score(-1.0)
        level = [g + (t,) for g in level for t in tokens if rng.random() < 0.4]
    return m


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_logprob10_equals_the_arpa_recursion(tmp_path, order):
    rng = random.Random(order)
    models = [train_ngram(sents("a b c a", "b b d", "c a"), order, s) for s in ("none", "witten_bell")]
    models += [random_model(rng, order) for _ in range(30)]
    for k, m in enumerate(models[:6]):  # written with six decimals, -0.0 and -inf kept
        write_arpa(m, tmp_path / f"{k}.arpa")
        models.append(read_arpa(tmp_path / f"{k}.arpa"))
    queried = ["a", "b", "c", "d", SOS, EOS, UNK, "z"]  # "z" is stored by no model
    for m in models:
        for _ in range(150):
            # empty, shorter than order - 1, and longer than it
            history = tuple(rng.choices(queried, k=rng.randint(0, order + 1)))
            word = rng.choice(queried)
            assert repr(m.logprob10(word, history)) == repr(arpa_logprob10(m, word, history))


def test_negative_zero_reads_zero_after_a_back_off():
    m = NGramModel(order=2, logprob={("a",): -0.0, ("b",): -1.0})
    assert repr(m.logprob10("a")) == "-0.0"
    assert repr(m.logprob10("a", ("b",))) == "0.0"  # -0.0 + the unstored weight 0.0
    assert m.logprob10("z", ("b",)) == LOG10_FLOOR  # no <unk> unigram


def random_corpus(rng):
    """Sentences over a small alphabet, including the literal markers and
    empty sentences, which ``train_ngram`` drops; the last is never empty."""
    vocab = [chr(0x4E00 + i) for i in range(rng.randint(1, 25))] + [SOS, EOS, UNK, "ab"]
    corpus = [[rng.choice(vocab) for _ in range(rng.randint(0, 12))] for _ in range(rng.randint(0, 40))]
    return corpus + [[rng.choice(vocab)]]


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("smoothing", ["none", "witten_bell"])
def test_train_equals_the_counting_reference(order, smoothing):
    rng = random.Random(order)
    corpora = [read_corpus(demo_lexicon_path().parent / "demo_corpus.txt")]
    corpora += [random_corpus(rng) for _ in range(12)]
    for corpus in corpora:
        model = train_ngram(corpus, order, smoothing)
        reference = counting_train_ngram(corpus, order, smoothing)
        # items in insertion order, compared by repr so -0.0 and 0.0 differ
        assert repr(list(model.logprob.items())) == repr(list(reference.logprob.items()))
        assert repr(list(model.backoff.items())) == repr(list(reference.backoff.items()))
