import random
from dataclasses import replace

import numpy as np
import pytest

from cantoasr import evaluate
from cantoasr.decoder import DecodeParams, MatrixScorer, batch_decode
from cantoasr.ngram import tokenize_chars
from cantoasr.evaluate import (
    ErrorClassification,
    classify_errors,
    corpus_wer,
    format_classification,
    format_sweep_table,
    format_wer_table,
    sweep,
    wer,
)

from oracles import edit_distance
from test_decoder import beam_flip_fixture


def test_wer_identity():
    r = wer("天氣好", "天氣好")
    assert (r.substitutions, r.insertions, r.deletions) == (0, 0, 0)
    assert r.rate == 0.0


def test_wer_lactose_sentence():
    # the transcript line is scored with its utterance label as one unit
    r = wer(
        tokenize_chars("CNF6F-285 該罐裝奶含天然乳糖"),
        tokenize_chars("CNF6F-285 該罐裝奶含天然魚塘"),
    )
    assert r.substitutions == 2 and r.insertions == 0 and r.deletions == 0
    assert r.ref_length == 10
    assert r.rate == pytest.approx(0.20)
    assert r.percent == "20.00%"
    # the bare character pair has the same two substitutions
    bare = wer("該罐裝奶含天然乳糖", "該罐裝奶含天然魚塘")
    assert bare.substitutions == 2 and bare.ref_length == 9


def test_wer_deletion():
    r = wer("abc", "ab")
    assert (r.substitutions, r.insertions, r.deletions) == (0, 0, 1)
    assert r.rate == pytest.approx(1 / 3)


def test_wer_empty_reference():
    with pytest.raises(ValueError, match="empty"):
        wer("", "abc")


def test_wer_prefers_substitutions():
    # "ab" vs "ba": two substitutions, not insertion+deletion
    r = wer("ab", "ba")
    assert (r.substitutions, r.insertions, r.deletions) == (2, 0, 0)


def test_wer_strips_whitespace():
    assert wer("天 氣 好", "天氣好").rate == 0.0


def test_wer_matches_edit_distance_oracle():
    rng = random.Random(11)
    alphabet = "abcde"
    for _ in range(200):
        ref = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        hyp = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        r = wer(ref, hyp)
        assert r.errors == edit_distance(ref, hyp)
        assert r.insertions - r.deletions == len(hyp) - len(ref)


def test_wer_swap_symmetry():
    rng = random.Random(12)
    for _ in range(50):
        ref = "".join(rng.choice("xyz") for _ in range(rng.randint(1, 10)))
        hyp = "".join(rng.choice("xyz") for _ in range(rng.randint(1, 10)))
        fwd, rev = wer(ref, hyp), wer(hyp, ref)
        assert fwd.insertions == rev.deletions
        assert fwd.deletions == rev.insertions
        assert fwd.substitutions == rev.substitutions


def test_wer_triangle_sanity():
    rng = random.Random(13)
    for _ in range(50):
        a, b, c = (
            "".join(rng.choice("pq") for _ in range(rng.randint(1, 8)))
            for _ in range(3)
        )
        lhs = edit_distance(a, c)
        rhs = edit_distance(a, b) + edit_distance(b, c)
        assert lhs <= rhs


def test_corpus_wer_micro_average():
    pairs = [("十字路口十字路口十字", "十字路口十字路口十字")]
    assert corpus_wer(pairs * 2).rate == 0.0
    pairs = [("天氣好唔好呀今日熱唔", "天氣好唔好呀今日熱唔")]
    mixed = [("該罐裝奶含天然乳糖呀", "該罐裝奶含天然魚塘呀")] + pairs
    r = corpus_wer(mixed)
    assert r.ref_length == 20 and r.errors == 2
    assert r.rate == pytest.approx(0.10)


def test_corpus_wer_singleton_equals_wer():
    pair = ("香港天氣", "香港天熱")
    assert corpus_wer([pair]) == wer(*pair)


def test_classify_all_correct():
    refs = ["甲", "乙", "丙"]
    cls = classify_errors(refs, list(refs), list(refs))
    assert cls.correct_a == cls.correct_b == 3
    assert cls.shared_errors == cls.errors_a_only == cls.errors_b_only == 0


def test_classify_hand_fixture():
    refs = ["一", "二", "三", "四", "五"]
    hyps_a = ["一", "x", "三", "y", "z"]  # wrong on 2, 4, 5
    hyps_b = ["一", "二", "w", "y", "q"]  # wrong on 3, 4, 5
    cls = classify_errors(refs, hyps_a, hyps_b)
    assert cls.errors_a_only == 1  # sentence 2
    assert cls.errors_b_only == 1  # sentence 3
    assert cls.shared_errors == 2  # sentences 4 and 5
    assert cls.shared_identical == 1  # sentence 4 agrees
    assert cls.shared_different == 1


def test_classify_accounting_identities_random():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(1, 12)
        refs = [rng.choice("abc") for _ in range(n)]
        hyps_a = [rng.choice("abc") for _ in range(n)]
        hyps_b = [rng.choice("abc") for _ in range(n)]
        cls = classify_errors(refs, hyps_a, hyps_b)
        assert cls.shared_identical + cls.shared_different == cls.shared_errors
        assert cls.correct_a + cls.errors_a_only + cls.shared_errors == n
        assert cls.correct_b + cls.errors_b_only + cls.shared_errors == n


def test_classify_follows_wers_whitespace_rule():
    # wer strips whitespace, so a hypothesis it finds no error in is correct,
    # and two wrong hypotheses that differ only in spaces are identical
    refs = ["合共九千", "香港人", "天氣好"]
    hyps_a = ["合共 九千", "香港 人", "天 氣熱"]
    hyps_b = ["合共九千", "香港仁", "天氣 熱"]
    for ref, hyp in zip(refs[:2], hyps_a):
        assert wer(ref, hyp).errors == 0
    cls = classify_errors(refs, hyps_a, hyps_b)
    assert (cls.correct_a, cls.correct_b) == (2, 1)
    assert (cls.errors_a_only, cls.errors_b_only) == (0, 1)
    assert cls.shared_errors == cls.shared_identical == 1


def test_classify_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        classify_errors(["a"], ["a", "b"], ["a"])


def test_classification_report_shape():
    cls = ErrorClassification(650, 668, 59, 41, 489, 286)
    text = format_classification(cls, "IF", "ONC")
    assert "Errors in IF only" in text
    assert "Errors in ONC only" in text
    assert "286 identical (58.49%)" in text
    assert "203 different (41.51%)" in text


def test_sweep_single_cell_and_beam_flip():
    graph, scorer = beam_flip_fixture()
    refs = ["哦"]
    cells = sweep(graph, [scorer], beams=[13.0, 15.0, 17.0], max_actives=[7000],
                  refs=refs, params=DecodeParams(lm_weight=1.0))
    assert [(c.beam, c.max_active) for c in cells] == [
        (13.0, 7000), (15.0, 7000), (17.0, 7000)
    ]
    by_beam = {c.beam: c for c in cells}
    assert by_beam[13.0].wer.rate == 1.0  # the narrow beam prunes the winner
    assert by_beam[15.0].wer.rate == 0.0
    assert by_beam[15.0].wer.rate <= by_beam[13.0].wer.rate

    single = sweep(graph, [scorer], beams=[15.0], max_actives=[7000],
                   refs=refs, params=DecodeParams(lm_weight=1.0))
    assert len(single) == 1 and single[0].wer.rate == 0.0
    table = format_sweep_table(cells)
    assert "beam" in table and "100.00%" in table


def test_sweep_marks_failed_cells():
    graph, scorer = beam_flip_fixture()
    dead = MatrixScorer(np.zeros((1, len(graph.pdf_labels))), graph.pdf_labels)
    cells = sweep(graph, [dead], beams=[15.0], max_actives=[100], refs=["哦"],
                  params=DecodeParams(lm_weight=1.0))
    # batch decode collects the per-utterance error; the cell then scores
    # an empty hypothesis rather than failing outright
    assert cells[0].wer.rate == 1.0


def test_sweep_decodes_each_cell_with_the_base_params(monkeypatch):
    graph, scorer = beam_flip_fixture()
    seen = []

    def record(graph, scorers, params):
        seen.append(params)
        return batch_decode(graph, scorers, params)

    monkeypatch.setattr(evaluate, "batch_decode", record)
    base = DecodeParams(lm_weight=1.0, lattice_width=3)
    sweep(graph, [scorer], beams=[17.0, 13.0], max_actives=[7000, 50], refs=["哦"], params=base)
    assert seen == [
        replace(base, beam=b, max_active=m) for b in (13.0, 17.0) for m in (50, 7000)
    ]


@pytest.mark.parametrize("refs", [["哦"], []], ids=["short", "empty"])
def test_sweep_refs_must_match_the_scores(refs):
    graph, scorer = beam_flip_fixture()
    with pytest.raises(ValueError, match=f"{len(refs)} references for 2 score matrices"):
        sweep(graph, [scorer, scorer], beams=[15.0], max_actives=[7000], refs=refs,
              params=DecodeParams(lm_weight=1.0))


def test_wer_table_format():
    rows = [
        ("IF (simulated)", wer("該罐裝奶含天然乳糖", "該罐裝奶含天然魚塘"), 2.53610, 4.816),
        ("ONC (simulated)", wer("該罐裝奶含天然乳糖", "該罐裝奶含天然乳糖"), 1.30221, 6.2),
    ]
    table = format_wer_table(rows)
    assert "22.22%" in table and "0.00%" in table and "1.30221" in table
    assert "RTF (own audio)" in table and "wall ms/utt" in table
    assert "4.82" in table and "6.20" in table
