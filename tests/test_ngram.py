import hashlib
import math
import random
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantoasr import DataError, left_sum
from cantoasr.lexicon import demo_lexicon_path, read_lexicon
from cantoasr.ngram import (
    EOS,
    LOG10_FLOOR,
    QUERY_MEMO_SIZE,
    SOS,
    TOKEN_TABLE_SIZE,
    UNK,
    ArpaFormatError,
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

from oracles import (
    MixtureModel,
    arpa_logprob10,
    counting_train_ngram,
    interpolate_reference,
    tune_lambda_reference,
)


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
    assert tokenize_chars("該罐裝奶") == ("該", "罐", "裝", "奶")
    assert tokenize_chars("abc 該def") == ("abc", "該", "def")
    assert tokenize_chars("  ") == ()


def split_reference(text):
    """``tokenize_chars``'s rule as a plain loop: whitespace splits, a run of
    other ASCII is one token, any other code point is a token of its own."""
    tokens, run = [], ""
    for ch in text:
        if ch.isascii() and not ch.isspace():
            run += ch
            continue
        if run:
            tokens.append(run)
            run = ""
        if not ch.isspace():
            tokens.append(ch)
    if run:
        tokens.append(run)
    return tokens


# ASCII runs, the ASCII separators \x1c-\x1f and the non-ASCII spaces U+00A0
# and U+3000 (all four whitespace to str.isspace), CJK, and any code point
TEXTS = st.text(
    st.sampled_from("ab_Z09.- \t\n\x1c\x1d\x1e\x1f\xa0\u3000該罐裝奶乳糖") | st.characters(),
    max_size=12,
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(TEXTS, min_size=1, max_size=8))
def test_tokenize_chars_equals_the_loop_reference(texts):
    # each drawn text again and again, between more distinct texts than the
    # cache holds: answers from a fresh split, from the cache, and after the
    # least recently used texts were evicted
    for i in range(TOKEN_TABLE_SIZE + 1):
        text = texts[i % len(texts)]
        for asked in (text, f"{text}{i}", f"{i}\u3000{text}"):
            assert tokenize_chars(asked) == tuple(split_reference(asked))
    assert tokenize_chars.cache_info().currsize <= TOKEN_TABLE_SIZE


def test_a_token_answer_is_immutable_and_shared():
    first = tokenize_chars("ab 該罐")
    assert first == ("ab", "該", "罐")
    with pytest.raises(TypeError):
        first[0] = "x"
    assert tokenize_chars("ab 該罐") is first


def test_reading_a_corpus_evicts_no_cached_token_answer(tmp_path):
    # more distinct lines than the cache holds, read between two asks
    corpus = tmp_path / "corpus.txt"
    lines = [f"該{i}罐" for i in range(TOKEN_TABLE_SIZE + 1)]
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    first = tokenize_chars("ab 該罐")
    assert read_corpus(corpus) == [["該", str(i), "罐"] for i in range(TOKEN_TABLE_SIZE + 1)]
    assert tokenize_chars("ab 該罐") is first


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


def test_perplexity_never_predicts_a_literal_start_marker():
    m = train_ngram(sents("a b a b", "a <s> b"), order=2)
    lp = m.logprob10
    expected = 10 ** -((lp("a", (SOS,)) + lp("b", (SOS,)) + lp(EOS, ("b",))) / 3)
    assert perplexity(m, sents("a <s> b")) == expected


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
    m = NGramModel(order, {**m.logprob, (UNK, "b"): -0.25}, {**m.backoff, (UNK,): -0.5})
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


def test_arpa_rejects_a_repeated_count_line(tmp_path):
    path = tmp_path / "bad.arpa"
    path.write_text(
        "\\data\\\nngram 1=9\nngram 1=2\n\n\\1-grams:\n-0.3\ta\n-0.6\tb\n\n\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(ArpaFormatError, match=r"bad\.arpa:3: repeated count line for order 1"):
        read_arpa(path)


@pytest.mark.parametrize("line", ["-0.3 a", "-0.3 a -0.1"], ids=["plain", "backoff"])
def test_arpa_rejects_an_ngram_line_without_a_tab(tmp_path, line):
    # n-gram fields are tab-separated, as write_arpa, SRILM and KenLM write them
    path = tmp_path / "bad.arpa"
    path.write_text(
        f"\\data\\\nngram 1=2\n\n\\1-grams:\n{line}\n-0.6 b\n\n\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(ArpaFormatError, match=rf"bad\.arpa:5: bad n-gram line '{line}'"):
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


def test_arpa_drops_a_highest_order_back_off_weight(tmp_path):
    path = tmp_path / "top.arpa"
    path.write_text(
        "\\data\\\nngram 1=1\n\n\\1-grams:\n-0.3\ta\t-0.2\n\n\\end\\\n", encoding="utf-8"
    )
    m = read_arpa(path)
    assert dict(m.logprob) == {("a",): -0.3} and dict(m.backoff) == {}
    write_arpa(m, tmp_path / "back.arpa")
    assert read_arpa(tmp_path / "back.arpa") == m
    # the weight no query reads is still checked as a number
    path.write_text(path.read_text(encoding="utf-8").replace("-0.2", "nan"), encoding="utf-8")
    with pytest.raises(ArpaFormatError, match=r"top\.arpa:5: NaN back-off weight"):
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


def test_arpa_rejects_a_repeated_ngram_past_the_unigrams(tmp_path):
    # its context is stored, so the repeat is what the reader names
    path = tmp_path / "bad.arpa"
    path.write_text(
        "\\data\\\nngram 1=2\nngram 2=2\n\n\\1-grams:\n-0.3\ta\t-0.1\n-0.6\tb\n"
        "\n\\2-grams:\n-0.1\ta b\n-0.2\ta b\n\n\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(ArpaFormatError, match=r"bad\.arpa:11: repeated n-gram 'a b'"):
        read_arpa(path)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_a_read_model_holds_each_token_once(tmp_path, order):
    corpus = read_corpus(demo_lexicon_path().parent / "demo_corpus.txt")
    write_arpa(train_ngram(corpus, order), tmp_path / "m.arpa")
    m = read_arpa(tmp_path / "m.arpa")
    tokens = [tok for table in (m.logprob, m.backoff) for gram in table for tok in gram]
    assert len({id(tok) for tok in tokens}) == len(set(tokens))


def test_write_arpa_bytes_are_pinned(tmp_path):
    corpus = read_corpus(demo_lexicon_path().parent / "demo_corpus.txt")
    write_arpa(train_ngram(corpus, 3), tmp_path / "m.arpa")
    digest = hashlib.sha256((tmp_path / "m.arpa").read_bytes()).hexdigest()
    assert digest == "738bb733d989aecd9df96e3a8e98010160954403018619450431f33c82abfb9b"


@pytest.mark.parametrize(
    "token", ["a b", "", "a\tb", "a\nb"], ids=["space", "empty", "tab", "newline"]
)
def test_write_arpa_rejects_a_token_it_cannot_read_back(tmp_path, token):
    path = tmp_path / "m.arpa"
    m = train_ngram([[token, "c"]], 2)
    with pytest.raises(ArpaFormatError, match=rf"cannot write token {re.escape(repr(token))}"):
        write_arpa(m, path)
    assert not path.exists()


@pytest.mark.parametrize(
    "logprob, backoff, what",
    [
        ({("a",): math.nan}, {}, "log probability nan of n-gram ('a',)"),
        ({("a",): math.inf}, {}, "log probability inf of n-gram ('a',)"),
        ({("a",): -0.5, ("a", "a"): -0.1}, {("a",): math.nan},
         "back-off weight nan of n-gram ('a',)"),
        ({("a",): -0.5, ("a", "a"): -0.1}, {("a",): math.inf},
         "back-off weight inf of n-gram ('a',)"),
    ],
    ids=["logprob_nan", "logprob_inf", "backoff_nan", "backoff_inf"],
)
def test_write_arpa_rejects_a_value_it_cannot_read_back(tmp_path, logprob, backoff, what):
    path = tmp_path / "m.arpa"
    with pytest.raises(ArpaFormatError, match=re.escape(f"cannot write {what}")):
        write_arpa(NGramModel(2, logprob, backoff), path)
    assert not path.exists()


def test_write_arpa_keeps_a_zero_probability(tmp_path):
    m = NGramModel(2, {("a",): -math.inf, ("b",): -0.5, ("b", "a"): -math.inf},
                   {("a",): -math.inf})
    write_arpa(m, tmp_path / "m.arpa")
    back = read_arpa(tmp_path / "m.arpa")
    assert back.logprob == m.logprob and back.backoff[("a",)] == -math.inf


def test_write_arpa_rejects_a_table_that_is_not_prefix_closed(tmp_path):
    path = tmp_path / "m.arpa"
    m = NGramModel(2, {("a",): -0.5, ("b", "c"): -0.1})
    with pytest.raises(ArpaFormatError, match=re.escape("context ('b',) of n-gram ('b', 'c')")):
        write_arpa(m, path)
    assert not path.exists()


@pytest.mark.parametrize(
    "order, gram", [(1, ("a", "b")), (2, ())], ids=["longer_than_order", "empty"]
)
def test_write_arpa_rejects_an_ngram_of_the_wrong_length(tmp_path, order, gram):
    path = tmp_path / "m.arpa"
    m = NGramModel(order, {("a",): -0.5, ("b",): -0.3, gram: -0.1})
    with pytest.raises(ArpaFormatError, match=re.escape(f"{len(gram)}-gram {gram!r}")):
        write_arpa(m, path)
    assert not path.exists()


def test_write_arpa_rejects_an_order_below_one(tmp_path):
    path = tmp_path / "m.arpa"
    with pytest.raises(ArpaFormatError, match="order-0 model"):
        write_arpa(NGramModel(0), path)
    assert not path.exists()


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


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_ln_score_equals_the_per_token_sum(tmp_path, order):
    rng = random.Random(order)
    corpus = [[rng.choice("abcdef") for _ in range(rng.randint(2, 8))] for _ in range(40)]
    models = [train_ngram(corpus, order=order)]
    models += [random_model(rng, order) for _ in range(30)]  # no <unk>, -0.0, -inf
    for k, m in enumerate(models[:6]):  # written with six decimals, -0.0 and -inf kept
        write_arpa(m, tmp_path / f"{k}.arpa")
        models.append(read_arpa(tmp_path / f"{k}.arpa"))
    queried = ["a", "b", "c", "d", "e", "f", SOS, EOS, UNK, "z"]  # no model stores "z"
    for m in models:
        for _ in range(100):
            history = (SOS,) * rng.randint(0, order - 1)
            history += tuple(rng.choices(queried, k=rng.randint(0, 5)))
            tokens = rng.choices(queried, k=rng.randint(0, 6))
            expected, raw = 0.0, history
            for tok in tokens:
                expected += math.log(10.0) * m.logprob10(tok, raw)
                raw += (tok,)
            total, state = m.ln_score(tokens, m.state(tuple(map(m.map_token, history))))
            assert repr(total) == repr(expected)
            assert state == m.state(tuple(map(m.map_token, raw)))
            # a raw history reads as the state it reaches
            assert repr(m.ln_score(tokens, history)[0]) == repr(expected)


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
    logprob, backoff = {}, {}
    level = [(t,) for t in tokens]
    for k in range(1, order + 1):
        for gram in level:
            logprob[gram] = score(-3.0)
            if k < order and rng.random() < 0.7:
                backoff[gram] = score(-1.0)
        level = [g + (t,) for g in level for t in tokens if rng.random() < 0.4]
    return NGramModel(order, logprob, backoff)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_logprob10_equals_the_arpa_recursion(tmp_path, order):
    rng = random.Random(order)
    models = [train_ngram(sents("a b c a", "b b d", "c a"), order, s) for s in ("none", "witten_bell")]
    models += [random_model(rng, order) for _ in range(30)]
    for k, m in enumerate(models[:6]):  # written with six decimals, -0.0 and -inf kept
        write_arpa(m, tmp_path / f"{k}.arpa")
        models.append(read_arpa(tmp_path / f"{k}.arpa"))
    # "z" and the "z<i>" are stored by no model; the "z<i>" alone give a
    # unigram model more distinct queries than the memo holds
    queried = ["a", "b", "c", "d", SOS, EOS, UNK, "z"]
    unknown = [f"z{i}" for i in range(QUERY_MEMO_SIZE)]
    for m in models:
        distinct = {}
        while len(distinct) <= QUERY_MEMO_SIZE:
            # empty, shorter than order - 1, and longer than it; a tuple or a list
            history = rng.choices(queried, k=rng.randint(0, order + 1))
            word = rng.choice(queried if rng.random() < 0.5 else unknown)
            context = tuple(history[len(history) - order + 1:]) if order > 1 else ()
            if (word, context) not in distinct:
                distinct[word, context] = (word, history if rng.random() < 0.5 else tuple(history))
        queries = list(distinct.values()) * 2  # each key asked twice
        rng.shuffle(queries)
        for word, history in queries:
            assert repr(m.logprob10(word, history)) == repr(arpa_logprob10(m, word, history))
        assert len(m._memo) <= QUERY_MEMO_SIZE


def test_tables_and_order_cannot_change():
    m = train_ngram(sents("a b c a", "b b a"), order=2)
    for table in (m.logprob, m.backoff):
        with pytest.raises(TypeError):
            table[("a",)] = 0.0
        with pytest.raises(TypeError):
            del table[("a",)]
    with pytest.raises(FrozenInstanceError):
        m.order = 3


def test_a_model_keeps_its_answers_when_its_source_dicts_change():
    logprob = {("a",): -0.5, ("b",): -0.75, ("a", "b"): -0.125}
    backoff = {("a",): -0.25}
    m = NGramModel(2, logprob, backoff)
    assert m.logprob10("b", ("a",)) == -0.125  # now in the memo
    logprob[("a", "b")] = -3.0
    logprob[("a", "a")] = -2.0
    del logprob[("b",)]
    backoff[("a",)] = -1.0
    assert m.logprob10("b", ("a",)) == -0.125
    # asked for the first time, so read from the model's own copy
    assert m.logprob10("a", ("a",)) == -0.25 + -0.5
    assert m.logprob10("b", ("b",)) == -0.75
    assert m == NGramModel(2, {("a",): -0.5, ("b",): -0.75, ("a", "b"): -0.125}, {("a",): -0.25})


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


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("smoothing", ["none", "witten_bell"])
def test_text_with_literal_markers_trains_a_prefix_closed_model(tmp_path, order, smoothing):
    # "<s> <s>" in the text forces histories such as "a <s> <s>"; their
    # prefixes must be stored, or state() drops context a score reads
    rng = random.Random(order)
    for k in range(12):
        corpus = random_corpus(rng)
        m = train_ngram(corpus, order, smoothing)
        assert all(gram[:-1] in m.logprob for gram in m.logprob if len(gram) > 1)
        write_arpa(m, tmp_path / f"{k}.arpa")
        assert read_arpa(tmp_path / f"{k}.arpa").logprob.keys() == m.logprob.keys()
        start = (SOS,) * (order - 1)
        for sent in corpus:
            tokens = sent + [EOS]
            expected, raw = 0.0, start
            for tok in tokens:
                expected += math.log(10.0) * m.logprob10(tok, raw)
                raw += (tok,)
            total, state = m.ln_score(tokens, m.state(start))
            assert total == expected
            assert state == m.state(tuple(map(m.map_token, raw)))


def assert_same_tables(model, reference):
    # items in insertion order, compared by repr so -0.0 and 0.0 differ
    assert repr(list(model.logprob.items())) == repr(list(reference.logprob.items()))
    assert repr(list(model.backoff.items())) == repr(list(reference.backoff.items()))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("smoothing", ["none", "witten_bell"])
def test_train_equals_the_counting_reference(order, smoothing):
    rng = random.Random(order)
    corpora = [read_corpus(demo_lexicon_path().parent / "demo_corpus.txt")]
    corpora += [random_corpus(rng) for _ in range(12)]
    # more distinct tokens than an int16 holds, and a text of markers alone
    corpora.append([[f"w{i}" for i in range(j, j + 10)] for j in range(0, 40000, 10)])
    corpora.append([[SOS], [EOS, UNK], [SOS, SOS]])
    for corpus in corpora:
        assert_same_tables(
            train_ngram(corpus, order, smoothing), counting_train_ngram(corpus, order, smoothing)
        )


# "a\x00" and "a" differ, though a numpy string array drops trailing NULs
TOKENS = st.sampled_from(["", "a", "a\x00", "a\x00\x00", "\x00", "b", SOS, EOS, UNK]) | st.text(
    max_size=3
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.lists(TOKENS, max_size=6), max_size=6), st.lists(TOKENS, min_size=1, max_size=6))
def test_train_equals_the_counting_reference_on_any_tokens(sentences, last):
    corpus = sentences + [last]
    for order in (1, 2, 3, 4):
        for smoothing in ("none", "witten_bell"):
            assert_same_tables(
                train_ngram(corpus, order, smoothing),
                counting_train_ngram(corpus, order, smoothing),
            )


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("smoothing", ["none", "witten_bell"])
def test_sentence_order_changes_no_table(order, smoothing):
    rng = random.Random(order)
    corpora = [read_corpus(demo_lexicon_path().parent / "demo_corpus.txt")]
    corpora += [random_corpus(rng) for _ in range(6)]
    for corpus in corpora:
        shuffled = rng.sample(corpus, len(corpus))
        assert_same_tables(train_ngram(shuffled, order, smoothing), train_ngram(corpus, order, smoothing))


def test_tune_lambda_rejects_models_of_different_orders():
    bigram = train_ngram(sents("a b a"), order=2)
    trigram = train_ngram(sents("a b a"), order=3)
    for heldout in (sents("a b"), []):  # before any query or other check
        with pytest.raises(DataError) as err:
            tune_lambda(bigram, trigram, heldout)
        assert str(err.value) == "order mismatch: 2 vs 3"


def test_left_sum_adds_left_to_right():
    # a compensated sum, as the built-in sum of floats is from Python 3.12, gives 1.0
    assert repr(left_sum([1e16, 1.0, -1e16])) == "0.0"
    assert repr(left_sum([0.1] * 10)) == "0.9999999999999999"
    assert repr(left_sum([])) == "0.0"


def with_orphans(rng, m):
    """``m`` plus n-grams whose last token, ``q`` or ``r``, has no unigram, as
    an ARPA file may hold them; some of them are contexts of longer n-grams."""
    logprob = dict(m.logprob)
    for k in range(1, m.order):
        for gram in [g for g in logprob if len(g) == k]:
            if rng.random() < 0.3:
                score = rng.choice([-0.0, -math.inf, rng.uniform(-3.0, 0.0)])
                logprob[gram + (rng.choice("qr"),)] = score
    return NGramModel(m.order, logprob, m.backoff)


def mixture_components(rng, order, tmp_path):
    """Two random models of one order, each over its own tokens (``<unk>``
    stored on one side, both or neither; ``<s>`` ending n-grams), some with
    orphan n-grams, some read back from ARPA."""
    models = []
    for side in "ab":
        m = random_model(rng, order)
        if rng.random() < 0.5:
            m = with_orphans(rng, m)
        if rng.random() < 0.3:
            write_arpa(m, tmp_path / f"{side}.arpa")
            m = read_arpa(tmp_path / f"{side}.arpa")
        models.append(m)
    return models


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_interpolate_and_tune_lambda_equal_the_per_ngram_references(tmp_path, order):
    rng = random.Random(41 + order)
    heldout_tokens = ["a", "b", "c", "d", "q", "z", SOS, EOS, UNK]
    for _ in range(60):
        a, b = mixture_components(rng, order, tmp_path)
        heldout = [
            rng.choices(heldout_tokens, k=rng.randint(0, 6)) for _ in range(rng.randint(1, 4))
        ]
        lam = tune_lambda(a, b, heldout)
        assert repr(lam) == repr(tune_lambda_reference(a, b, heldout))
        for weight in (lam, 0.0, 1.0, rng.random()):
            assert_same_tables(interpolate(a, b, weight), interpolate_reference(a, b, weight))


def test_interpolate_maps_a_token_without_a_unigram_before_it_reads(tmp_path):
    # "z" has no unigram in a, so a reads "z" after "a" as "<unk>" after "a",
    # though it stores "a z" too; b stores "z", so the union holds "a z"
    (tmp_path / "a.arpa").write_text(
        "\\data\\\nngram 1=3\nngram 2=2\n\n\\1-grams:\n-0.5\t<s>\t0.0\n-0.3\ta\t-0.2\n"
        "-0.4\t<unk>\t0.0\n\n\\2-grams:\n-0.1\ta z\n-2.0\ta <unk>\n\n\\end\\\n",
        encoding="utf-8",
    )
    a = read_arpa(tmp_path / "a.arpa")
    b = train_ngram(sents("a z z", "z a"), order=2)
    m = interpolate(a, b, 1.0)
    assert m.logprob[("a", "z")] == -2.0
    assert_same_tables(m, interpolate_reference(a, b, 1.0))
    assert_same_tables(interpolate(a, b, 0.25), interpolate_reference(a, b, 0.25))


def test_the_rescore_set_up_mixture_equals_the_per_ngram_references(tmp_path):
    # the benchmark's external scorer: an ARPA-read corpus 3-gram mixed with
    # a lexicon-word 3-gram, tuned on the last 30 sentences
    corpus = read_corpus(demo_lexicon_path().parent / "demo_corpus.txt")
    write_arpa(train_ngram(corpus[:-30], 3), tmp_path / "lm3.arpa")
    corpus_lm = read_arpa(tmp_path / "lm3.arpa")
    words = [e.word for e in read_lexicon(demo_lexicon_path())]
    word_lm = train_ngram([tokenize_chars(w) for w in words], 3)
    lam = tune_lambda(corpus_lm, word_lm, corpus[-30:])
    assert repr(lam) == repr(tune_lambda_reference(corpus_lm, word_lm, corpus[-30:]))
    assert_same_tables(
        interpolate(corpus_lm, word_lm, lam), interpolate_reference(corpus_lm, word_lm, lam)
    )
