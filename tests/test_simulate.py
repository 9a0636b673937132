import numpy as np
import pytest

from cantoasr.decoder import DecodeParams, decode, build_graph
from cantoasr.lexicon import LexiconEntry, compile_lexicon
from cantoasr.ngram import train_ngram
from cantoasr.phonology import default_inventory
from cantoasr.simulate import (
    SimConfig,
    SimulationError,
    _label_rng,
    blend_confusions,
    build_state_models,
    simulate_utterance,
    true_label_sequence,
)

LABELS = {"aa1", "_k3", "_t3", "b"}


def pdfs(labels):
    return {f"{lab}#{k}" for lab in labels for k in range(3)}


def test_same_seed_same_means():
    cfg = SimConfig(seed=42)
    m1 = build_state_models(pdfs(LABELS), cfg)
    m2 = build_state_models(pdfs(LABELS), cfg)
    for lab in m1.labels:
        np.testing.assert_array_equal(m1.means[m1.index[lab]], m2.means[m2.index[lab]])


def test_confusion_blend_endpoints():
    base = build_state_models(pdfs(LABELS), SimConfig(seed=7))
    p0 = blend_confusions(base, (("_k3", "_t3", 0.0),))
    p1 = blend_confusions(base, (("_k3", "_t3", 1.0),))
    row = base.index
    for k in range(3):
        np.testing.assert_array_equal(p0.means[row[f"_t3#{k}"]], base.means[row[f"_t3#{k}"]])
        np.testing.assert_array_equal(p1.means[row[f"_t3#{k}"]], p1.means[row[f"_k3#{k}"]])


def test_confusion_halfway_is_blend():
    base = build_state_models(pdfs(LABELS), SimConfig(seed=7))
    p5 = blend_confusions(base, (("_k3", "_t3", 0.5),))
    row = base.index
    for k in range(3):
        expected = 0.5 * base.means[row[f"_k3#{k}"]] + 0.5 * base.means[row[f"_t3#{k}"]]
        np.testing.assert_allclose(p5.means[row[f"_t3#{k}"]], expected, atol=1e-12)


def test_confusion_unknown_label():
    with pytest.raises(SimulationError, match="unknown"):
        blend_confusions(
            build_state_models(pdfs(LABELS), SimConfig(seed=1)), (("zz9", "_t3", 0.5),)
        )


def test_separation_floor():
    cfg = SimConfig(seed=3, noise_sigma=0.3)
    models = build_state_models(pdfs(LABELS), cfg)
    labs = models.labels
    for i, a in enumerate(labs):
        for b in labs[i + 1:]:
            gap = np.linalg.norm(models.means[models.index[a]] - models.means[models.index[b]])
            assert gap >= 4 * cfg.noise_sigma


def per_pair_state_models(labels, cfg):
    """The per-pair separation loop ``build_state_models`` replaced.

    Returns the separated means and the number of redraws.
    """
    labels = sorted(set(labels))
    rngs = {lab: _label_rng(cfg.seed, lab) for lab in labels}
    means = {
        lab: rngs[lab].normal(0.0, cfg.mean_scale, cfg.feature_dim) for lab in labels
    }
    floor = 4.0 * cfg.noise_sigma
    redraws = 0
    mat = np.stack([means[lab] for lab in labels])
    dist = np.sqrt(np.sum((mat[:, None] - mat[None, :]) ** 2, axis=2))
    upper = np.triu(np.ones_like(dist, dtype=bool), 1)
    for i, j in np.argwhere((dist < floor) & upper):
        lab_b = labels[j]
        other_mat = np.stack([means[lab] for lab in labels if lab != lab_b])
        for tries in range(101):
            gaps = np.sqrt(np.sum((other_mat - means[lab_b]) ** 2, axis=1))
            if gaps.min() >= floor:
                break
            assert tries < 100
            means[lab_b] = rngs[lab_b].normal(0.0, cfg.mean_scale, cfg.feature_dim)
            redraws += 1
    return means, redraws


# 24 labels in 3 dimensions at mean_scale 1 against a floor of 0.8, so the
# separation pass redraws
@pytest.mark.parametrize("seed", [7, 13, 40])
def test_state_models_equal_the_per_pair_loop(seed):
    labels = pdfs({"aa1", "_k3", "_t3", "b", "_p3", "i1", "o2", "m"})
    cfg = SimConfig(seed=seed, feature_dim=3, noise_sigma=0.2, mean_scale=1.0)
    means, redraws = per_pair_state_models(labels, cfg)
    assert redraws > 0
    for a in labels:
        for b in labels:
            if a < b:
                assert np.linalg.norm(means[a] - means[b]) >= 4 * cfg.noise_sigma
    models = build_state_models(labels, cfg)
    assert models.labels == tuple(sorted(means))
    for lab in models.labels:
        assert models.means[models.index[lab]].tobytes() == means[lab].tobytes()


def test_noiseless_frames_argmax_true_label():
    cfg = SimConfig(seed=9, noise_sigma=0.0)
    models = build_state_models(pdfs(LABELS), cfg)
    seq = ["b", "aa1", "_k3"]
    scorer = simulate_utterance(seq, models, cfg, salt=4)
    truth = true_label_sequence(seq, models, cfg, salt=4)
    assert len(truth) == scorer.num_frames()
    for t, true_pdf in enumerate(truth):
        best = scorer.labels[int(np.argmax(scorer.matrix[t]))]
        assert best == true_pdf


def test_noiseless_scores_are_mean_distances():
    # pins the label <-> means row <-> scorer column order, with blended rows
    cfg = SimConfig(seed=9, noise_sigma=0.0)
    models = blend_confusions(
        build_state_models(pdfs(LABELS), cfg), (("_k3", "_t3", 0.5),)
    )
    seq = ["b", "_t3", "aa1", "_k3"]
    scorer = simulate_utterance(seq, models, cfg, salt=4)
    truth = true_label_sequence(seq, models, cfg, salt=4)
    labels = list(models.labels)
    true_means = models.means[[labels.index(lab) for lab in truth]]
    col_means = models.means[[labels.index(lab) for lab in scorer.labels]]
    v, d = models.variance, cfg.feature_dim
    sq = np.sum((true_means[:, None, :] - col_means[None, :, :]) ** 2, axis=2)
    expected = -d / 2 * np.log(2 * np.pi * v) - sq / (2 * v)
    np.testing.assert_allclose(scorer.matrix, expected, rtol=0, atol=1e-9)


def test_fixed_seed_identical_matrix():
    cfg = SimConfig(seed=10, noise_sigma=0.5)
    models = build_state_models(pdfs(LABELS), cfg)
    s1 = simulate_utterance(["b", "aa1"], models, cfg, salt=2)
    s2 = simulate_utterance(["b", "aa1"], models, cfg, salt=2)
    np.testing.assert_array_equal(s1.matrix, s2.matrix)
    s3 = simulate_utterance(["b", "aa1"], models, cfg, salt=3)
    assert not np.array_equal(s1.matrix, s3.matrix)


def test_full_confusion_scores_equal():
    cfg = SimConfig(seed=12, noise_sigma=0.3)
    models = blend_confusions(build_state_models(pdfs(LABELS), cfg), (("_k3", "_t3", 1.0),))
    for seq in (["aa1", "_k3"], ["aa1", "_t3"]):
        scorer = simulate_utterance(seq, models, cfg, salt=6)
        for k in range(3):
            col_k = scorer.labels.index(f"_k3#{k}")
            col_t = scorer.labels.index(f"_t3#{k}")
            np.testing.assert_allclose(
                scorer.matrix[:, col_k], scorer.matrix[:, col_t], rtol=0, atol=1e-9
            )


def test_durations_within_range():
    cfg = SimConfig(seed=4, frames_per_state=(2, 5))
    models = build_state_models(pdfs(LABELS), cfg)
    scorer = simulate_utterance(["b", "aa1"], models, cfg)
    assert 2 * 6 <= scorer.num_frames() <= 5 * 6
    assert scorer.audio_seconds == pytest.approx(scorer.num_frames() * 0.01)


def test_unknown_phone_rejected():
    cfg = SimConfig(seed=4)
    models = build_state_models(pdfs(LABELS), cfg)
    with pytest.raises(SimulationError, match="no model"):
        simulate_utterance(["zz9"], models, cfg)


def test_bad_config_rejected():
    with pytest.raises(SimulationError):
        SimConfig(seed=1, frames_per_state=(0, 3))
    with pytest.raises(SimulationError, match="frames_per_state"):
        SimConfig(seed=1, frames_per_state=(1, 2**63 - 1))
    assert SimConfig(seed=1, frames_per_state=(1, 2**63 - 2)).frames_per_state[1] == 2**63 - 2
    models = build_state_models(pdfs(LABELS), SimConfig(seed=1))
    with pytest.raises(SimulationError, match="must differ"):
        blend_confusions(models, (("_k3", "_k3", 0.5),))
    with pytest.raises(SimulationError, match="outside"):
        blend_confusions(models, (("_k3", "_t3", 1.5),))


def test_noiseless_end_to_end_wer_zero():
    # noiseless identifiability: unpruned decode recovers the generating words
    inv = default_inventory()
    entries = [
        LexiconEntry("天氣", (("tin1", "hei3"),)),
        LexiconEntry("香港", (("hoeng1", "gong2"),)),
        LexiconEntry("好", (("hou2",),)),
    ]
    lex = compile_lexicon(entries, "onc", inv)
    lm = train_ngram([list("天氣好"), list("香港好")], 2)
    graph = build_graph(lex, lm)
    cfg = SimConfig(seed=31, noise_sigma=0.0)
    models = build_state_models(set(graph.pdf_labels), cfg)
    params = DecodeParams(beam=1e30, max_active=10**9, lm_weight=1.0)
    for i, text in enumerate([("香港", "好"), ("天氣", "香港"), ("好",)]):
        phones = [p.label for w in text for p in lex.entries[w][0]]
        scorer = simulate_utterance(phones, models, cfg, salt=i)
        hyp, _, _ = decode(graph, scorer, params)
        assert hyp.words == text
