import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantoasr import experiment
from cantoasr.decoder import DecodeParams, decode, build_graph
from cantoasr.lexicon import LexiconEntry, compile_lexicon, demo_lexicon_path, read_lexicon
from cantoasr.ngram import read_corpus, train_ngram
from cantoasr.phonology import default_inventory
from cantoasr.simulate import (
    MAX_FEATURE_DIM,
    MAX_FRAMES_PER_STATE,
    MODEL_VARIANCE,
    SimConfig,
    SimulationError,
    StateModel,
    _close_pairs,
    _label_states,
    _row_clear,
    build_state_models,
    draw_frames,
    mix_models,
    score_frames,
    simulate_utterance,
)

from oracles import (
    blend_rows,
    broadcast_state_models,
    fused_simulate_utterance,
    label_rng,
    score_frames_reference,
    sequential_blend,
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
    p0 = mix_models(base, blend_rows((("_k3", "_t3", 0.0),)))
    p1 = mix_models(base, blend_rows((("_k3", "_t3", 1.0),)))
    row = base.index
    for k in range(3):
        np.testing.assert_array_equal(p0.means[row[f"_t3#{k}"]], base.means[row[f"_t3#{k}"]])
        np.testing.assert_array_equal(p1.means[row[f"_t3#{k}"]], p1.means[row[f"_k3#{k}"]])


def test_confusion_halfway_is_blend():
    base = build_state_models(pdfs(LABELS), SimConfig(seed=7))
    p5 = mix_models(base, blend_rows((("_k3", "_t3", 0.5),)))
    row = base.index
    for k in range(3):
        expected = 0.5 * base.means[row[f"_k3#{k}"]] + 0.5 * base.means[row[f"_t3#{k}"]]
        np.testing.assert_allclose(p5.means[row[f"_t3#{k}"]], expected, atol=1e-12)


def test_confusion_unknown_label():
    with pytest.raises(SimulationError, match="unknown"):
        mix_models(
            build_state_models(pdfs(LABELS), SimConfig(seed=1)), blend_rows((("zz9", "_t3", 0.5),))
        )


# the demo rules and single rules that ExperimentConfig.validate accepts
BLEND_RULES = ["t>k@aa,a,o;ng>n@aa,a,o", "t>k", "k>t@o", "ng>n@aa", "m>n", "n>ng"]


@pytest.mark.parametrize("seed", [7, 81])
@pytest.mark.parametrize("rules", BLEND_RULES)
@pytest.mark.parametrize("scheme", ["if", "onc"])
def test_the_blend_table_mixes_as_the_sequential_blend(tmp_path, monkeypatch, scheme, rules, seed):
    cfg = experiment.ExperimentConfig(seed=seed, out_dir=tmp_path, merge_rules=rules)
    cfg.validate()
    mixes = []

    def recording(generator, table):
        mixes.append((generator, table))
        return mix_models(generator, table)

    monkeypatch.setattr(experiment, "mix_models", recording)
    systems = experiment._build_systems(read_lexicon(cfg.lexicon), default_inventory(), cfg)
    # one mix per scheme, in the systems' order
    generator, table = dict(zip(systems, mixes, strict=True))[scheme]
    system = systems[scheme]
    # the table's rows as the phone-level entries (a, b, p) they came from, in row order
    entries = list(dict.fromkeys(
        (pa.rpartition("#")[0], pb.rpartition("#")[0], w) for pb, ((w, pa), _) in table.items()
    ))
    assert entries and table == blend_rows(entries)
    assert system.models.means.tobytes() == sequential_blend(generator, entries).means.tobytes()


MIX_GENERATOR = build_state_models(pdfs(LABELS | {"_p3"}), SimConfig(seed=7))
MIX_LABELS = MIX_GENERATOR.labels


def test_a_chained_table_is_not_the_sequential_blend():
    # _k3 is both blended (toward _p3) and a blend target (of _t3): the in-place
    # loop reads _k3 after blending it, the table its generator mean.  Configs
    # that would build such a table are rejected (_check_one_blend_per_unit).
    entries = (("_p3", "_k3", 0.5), ("_k3", "_t3", 0.5))
    mixed = mix_models(MIX_GENERATOR, blend_rows(entries)).means.tobytes()
    assert mixed != sequential_blend(MIX_GENERATOR, entries).means.tobytes()
    assert mixed == sequential_blend(MIX_GENERATOR, entries[::-1]).means.tobytes()


mix_rows = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.sampled_from(MIX_LABELS)), min_size=1, max_size=3
).map(tuple)
mix_tables = st.dictionaries(st.sampled_from(MIX_LABELS), mix_rows)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(table=mix_tables, data=st.data())
def test_mix_models_is_independent_of_row_order(table, data):
    rows = data.draw(st.permutations(list(table.items())))
    mixed = mix_models(MIX_GENERATOR, table).means.tobytes()
    assert mix_models(MIX_GENERATOR, dict(rows)).means.tobytes() == mixed


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(labels=st.sets(st.sampled_from(MIX_LABELS)))
def test_an_identity_row_keeps_the_generator_mean(labels):
    mixed = mix_models(MIX_GENERATOR, {lab: ((1.0, lab),) for lab in labels})
    assert mixed.means.tobytes() == MIX_GENERATOR.means.tobytes()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(table=mix_tables, in_key=st.booleans())
def test_mix_models_rejects_an_unknown_label(table, in_key):
    a, b = MIX_LABELS[:2]
    bad = {"zz9#0": ((1.0, a),)} if in_key else {a: ((0.5, b), (0.5, "zz9#0"))}
    with pytest.raises(SimulationError, match="unknown label 'zz9#0'"):
        mix_models(MIX_GENERATOR, table | bad)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(table=mix_tables, w=st.floats().filter(lambda w: not 0.0 <= w <= 1.0))
def test_mix_models_rejects_a_weight_outside_the_unit_interval(table, w):
    a, b = MIX_LABELS[:2]
    with pytest.raises(SimulationError, match="outside"):
        mix_models(MIX_GENERATOR, table | {a: ((0.5, a), (w, b))})


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
    rngs = {lab: label_rng(cfg.seed, lab) for lab in labels}
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


# 40 labels against floors of 0 to 2.4: most builds redraw, and in one
# dimension the means cannot all be separated at mean_scale 1
@pytest.mark.parametrize("feature_dim", [1, 3, 8, 13])
def test_state_models_equal_the_broadcast_reference(feature_dim):
    labels = [f"s{k}#0" for k in range(40)]
    redrawn = failed = 0
    for seed in range(5):
        for noise_sigma in (0.0, 0.1, 0.3, 0.6):
            for mean_scale in (1.0, 4.0):
                cfg = SimConfig(
                    seed=seed, feature_dim=feature_dim, noise_sigma=noise_sigma,
                    mean_scale=mean_scale,
                )
                try:
                    expected = broadcast_state_models(labels, cfg)
                except SimulationError as exc:
                    with pytest.raises(SimulationError) as raised:
                        build_state_models(labels, cfg)
                    assert str(raised.value) == str(exc)
                    failed += 1
                    continue
                models = build_state_models(labels, cfg)
                assert models.labels == expected.labels
                assert models.means.tobytes() == expected.means.tobytes()
                first = np.stack([
                    label_rng(seed, lab).normal(0.0, mean_scale, feature_dim)
                    for lab in models.labels
                ])
                redrawn += not np.array_equal(first, models.means)
    assert redrawn > 0
    assert failed > 0 or feature_dim > 1


# the same at mean_scales that are not powers of two, so that scaling every
# first draw at once must round as each draw's own ``normal`` does; 0.7 redraws
# in 3 to 13 dimensions and 5.3 in one
@pytest.mark.parametrize("feature_dim", [1, 3, 8, 13])
def test_state_models_equal_the_broadcast_reference_at_inexact_scales(feature_dim):
    labels = [f"s{k}#0" for k in range(40)]
    redrawn = failed = 0
    for seed in range(5):
        for noise_sigma in (0.0, 0.1, 0.3, 0.6):
            for mean_scale in (0.7, 5.3):
                cfg = SimConfig(
                    seed=seed, feature_dim=feature_dim, noise_sigma=noise_sigma,
                    mean_scale=mean_scale,
                )
                try:
                    expected = broadcast_state_models(labels, cfg)
                except SimulationError as exc:
                    with pytest.raises(SimulationError) as raised:
                        build_state_models(labels, cfg)
                    assert str(raised.value) == str(exc)
                    failed += 1
                    continue
                models = build_state_models(labels, cfg)
                assert models.labels == expected.labels
                assert models.means.tobytes() == expected.means.tobytes()
                first = np.stack([
                    label_rng(seed, lab).normal(0.0, mean_scale, feature_dim)
                    for lab in models.labels
                ])
                redrawn += not np.array_equal(first, models.means)
    assert redrawn > 0
    assert failed > 0 or feature_dim > 1


def stream_draws(models, cfg):
    """How many draws of each label's own stream its mean took (1 when separation
    kept the first draw)."""
    draws = {}
    for lab, mean in zip(models.labels, models.means):
        rng = label_rng(cfg.seed, lab)
        draws[lab] = next(
            k for k in range(1, 102)
            if rng.normal(0.0, cfg.mean_scale, cfg.feature_dim).tobytes() == mean.tobytes()
        )
    return draws


def later_rows_of_close_pairs(labels, cfg):
    """How many close pairs of the first draws each label is the later row of."""
    labels = sorted(labels)
    first = np.stack([
        label_rng(cfg.seed, lab).normal(0.0, cfg.mean_scale, cfg.feature_dim) for lab in labels
    ])
    dist = np.sqrt(np.add.reduce((first[:, None] - first[None, :]) ** 2, axis=2))
    i, j = np.triu_indices(len(labels), 1)
    return Counter(labels[k] for k in j[dist[i, j] < 4 * cfg.noise_sigma])


# 24 labels in 2 and 3 dimensions against floors of 0.8 and 1 at mean_scale 1:
# rows redrawn more than once in their visit, rows that are the later row of
# several close pairs, and in 2 dimensions rows that cannot be separated
def test_state_models_equal_the_broadcast_reference_through_repeated_redraws():
    labels = [f"s{k}#0" for k in range(24)]
    redrawn_again = later_twice = failed = 0
    for feature_dim in (2, 3):
        for seed in range(4):
            for noise_sigma in (0.2, 0.25):
                cfg = SimConfig(seed=seed, feature_dim=feature_dim, noise_sigma=noise_sigma)
                try:
                    expected = broadcast_state_models(labels, cfg)
                except SimulationError as exc:
                    with pytest.raises(SimulationError) as raised:
                        build_state_models(labels, cfg)
                    assert str(raised.value) == str(exc)
                    failed += 1
                    continue
                models = build_state_models(labels, cfg)
                assert models.labels == expected.labels
                assert models.means.tobytes() == expected.means.tobytes()
                draws = stream_draws(models, cfg)
                later = later_rows_of_close_pairs(labels, cfg)
                redrawn_again += sum(k >= 3 for k in draws.values())
                later_twice += sum(later[lab] >= 2 and draws[lab] >= 2 for lab in labels)
    assert redrawn_again > 0 and later_twice > 0 and failed > 0


def test_state_models_memory_is_linear_in_the_labels():
    labels = [f"s{k}#0" for k in range(1000)]
    cfg = SimConfig(seed=1)
    tracemalloc.start()
    try:
        models = build_state_models(labels, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(models.labels) == 1000
    # the (n, n, feature_dim) float64 difference tensor alone would be 64 MB
    assert peak < 4 * 2**20


def test_state_models_screen_memory_is_linear_in_the_labels():
    labels = [f"s{k}#0" for k in range(4000)]
    tracemalloc.start()
    try:
        models = build_state_models(labels, SimConfig(seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(models.labels) == 4000
    # a full (n, n) float64 Gram matrix alone would be 128 MB
    assert peak < 4 * 4 * 2**20


def row_loop_close_pairs(mat, floor):
    """The row-by-row separation check ``_close_pairs`` replaced: every close
    pair ``(i, j)``, ``i < j``, in row-major order."""
    close = []
    for i in range(len(mat) - 1):
        dist = np.sqrt(np.add.reduce((mat[i] - mat[i + 1 :]) ** 2, axis=1))
        close.extend((i, i + 1 + int(k)) for k in np.flatnonzero(dist < floor))
    return close


def edge_floors(mat):
    """Floors at some pairs' exact distances and one ulp either side."""
    dist = np.sqrt(np.add.reduce((mat[:, None] - mat[None, :]) ** 2, axis=2))
    gaps = np.unique(dist[np.triu_indices(len(mat), 1)])
    floors = []
    for gap in gaps[:: max(1, len(gaps) // 4)]:
        floors += [np.nextafter(gap, 0.0), gap, np.nextafter(gap, np.inf)]
    return floors


def edge_matrices(rng, n, feature_dim, offset):
    """Small integer coordinates, where many pairs share exact squared gaps;
    the same rows nudged by an ulp; normals; and squares that underflow."""
    grid = rng.integers(-2, 3, size=(n, feature_dim)).astype(float) + offset
    nudged = grid.copy()
    nudged[::2] = np.nextafter(nudged[::2], np.inf)
    normal = offset + rng.normal(size=(n, feature_dim))
    tiny = (grid - offset) * 1e-160
    return grid, nudged, normal, tiny


@pytest.mark.parametrize("feature_dim", [1, 3, 8, 64])
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_close_pairs_equal_the_row_loop_at_the_edge(feature_dim, offset):
    rng = np.random.default_rng(feature_dim)
    checked = found = 0
    # around feature_dim, and on both sides of one and two 32-row screen blocks
    sizes = {2, max(2, feature_dim - 1), feature_dim + 1, 2 * feature_dim + 3, 31, 32, 33, 65}
    for n in sorted(sizes):
        for mat in edge_matrices(rng, n, feature_dim, offset):
            for floor in edge_floors(mat):
                close = _close_pairs(mat, floor)
                assert close == row_loop_close_pairs(mat, floor)
                checked += 1
                found += len(close)
    assert checked > 0 and found > 0


def direct_row_clear(mat, j, floor):
    """The redraw check ``_row_clear`` replaced: every row's direct gap to row ``j``."""
    gaps = np.sqrt(np.add.reduce((mat - mat[j]) ** 2, axis=1))
    gaps[j] = np.inf
    return gaps.min() >= floor


@pytest.mark.parametrize("feature_dim", [1, 3, 8, 64])
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_row_clear_equals_the_direct_check_at_the_edge(feature_dim, offset):
    rng = np.random.default_rng(feature_dim)
    checked = clear = 0
    for n in sorted({2, max(2, feature_dim - 1), feature_dim + 1, 33}):
        for mat in edge_matrices(rng, n, feature_dim, offset):
            sq = np.add.reduce(mat * mat, axis=1)
            floors = edge_floors(mat)
            for j in range(n):
                # and at row j's own nearest gap, where its answer flips
                nearest = np.sqrt(np.add.reduce((np.delete(mat, j, axis=0) - mat[j]) ** 2, axis=1)).min()
                for floor in floors + [np.nextafter(nearest, 0.0), nearest, np.nextafter(nearest, np.inf)]:
                    expected = direct_row_clear(mat, j, floor)
                    assert _row_clear(mat, sq, j, floor) == expected
                    checked += 1
                    clear += expected
    assert 0 < clear < checked


@pytest.fixture(scope="module")
def demo_label_sets():
    data = demo_lexicon_path().parent
    entries = read_lexicon(data / "demo_lexicon.txt")
    lm = train_ngram(read_corpus(data / "demo_corpus.txt"), 2, smoothing="witten_bell")
    inv = default_inventory()
    return {
        scheme: set(build_graph(compile_lexicon(entries, scheme, inv), lm).pdf_labels)
        for scheme in ("if", "onc")
    }


@pytest.mark.parametrize("scheme", ["if", "onc"])
def test_state_models_equal_the_broadcast_reference_on_the_demo_labels(
    demo_label_sets, scheme
):
    labels = demo_label_sets[scheme]
    built = failed = 0
    for seed in range(10):
        for noise_sigma in (SimConfig(seed=seed).noise_sigma, 1.0):
            cfg = SimConfig(seed=seed, noise_sigma=noise_sigma)
            try:
                expected = broadcast_state_models(labels, cfg)
            except SimulationError as exc:
                with pytest.raises(SimulationError) as raised:
                    build_state_models(labels, cfg)
                assert str(raised.value) == str(exc)
                failed += 1
                continue
            models = build_state_models(labels, cfg)
            assert models.labels == expected.labels
            assert models.means.tobytes() == expected.means.tobytes()
            built += 1
    assert built >= 10 and failed > 0


def test_each_redraw_is_checked_once_and_no_visit_is(demo_label_sets, monkeypatch, tmp_path):
    cfg = experiment.load_experiment_config(
        demo_lexicon_path().parent / "demo_experiment.cfg", seed=7, out_dir=tmp_path
    ).sim_config()
    calls = []

    def counted(mat, sq, j, floor):
        calls.append(j)
        return _row_clear(mat, sq, j, floor)

    monkeypatch.setattr("cantoasr.simulate._row_clear", counted)
    models = build_state_models(demo_label_sets["if"], cfg)
    redraws = sum(k - 1 for k in stream_draws(models, cfg).values())
    # a check on every visit as well would make about 150 calls
    assert 0 < len(calls) == redraws


@pytest.fixture(scope="module")
def demo_systems(tmp_path_factory):
    """The demo experiment's config, both schemes' systems and its first seed's texts."""
    cfg = experiment.load_experiment_config(
        demo_lexicon_path().parent / "demo_experiment.cfg",
        out_dir=tmp_path_factory.mktemp("demo"),
    )
    entries = read_lexicon(cfg.lexicon)
    systems = experiment._build_systems(entries, default_inventory(), cfg)
    texts = experiment._draw_texts([e.word for e in entries], cfg, 2, 0)
    return cfg, systems, texts


@pytest.mark.parametrize("noise_sigma", [0.0, 0.6])
@pytest.mark.parametrize("scheme", ["if", "onc"])
def test_drawn_then_scored_equals_the_fused_simulator(demo_systems, scheme, noise_sigma):
    cfg, systems, texts = demo_systems
    assert cfg.noise_sigma == 0.6
    sim_cfg = replace(cfg.sim_config(), noise_sigma=noise_sigma)
    system = systems[scheme]
    for i, text in enumerate(texts):
        phones = [p.label for w in text for p in system.lex.entries[w][0]]
        for salt in (i, 1_000_000 + i, 9_000_000 + i, 2**40 + i):
            split = score_frames(draw_frames(phones, system.models, sim_cfg, salt), system.models)
            fused = fused_simulate_utterance(phones, system.models, sim_cfg, salt)
            assert split.labels == fused.labels
            assert split.matrix.tobytes() == fused.matrix.tobytes()
            assert split.audio_seconds == fused.audio_seconds


def test_draw_frames_raises_what_the_fused_simulator_raises():
    cfg = SimConfig(seed=4)
    models = build_state_models(pdfs(LABELS), cfg)
    for seq, salt in ((["b", "aa1"], -1), (["zz9"], 0), ([], 0)):
        with pytest.raises(SimulationError) as expected:
            fused_simulate_utterance(seq, models, cfg, salt)
        with pytest.raises(SimulationError) as raised:
            draw_frames(seq, models, cfg, salt)
        assert str(raised.value) == str(expected.value)


# unchecked, 1 would broadcast one noise value across the models' four
# dimensions, and 3 would raise numpy's shape error, which is no DataError
@pytest.mark.parametrize("feature_dim", [1, 3])
def test_draw_frames_rejects_a_dimension_the_models_lack(feature_dim):
    cfg = SimConfig(seed=4, feature_dim=4)
    models = build_state_models(pdfs(LABELS), cfg)
    with pytest.raises(SimulationError, match=f"feature_dim {feature_dim} "):
        draw_frames(["b", "aa1"], models, replace(cfg, feature_dim=feature_dim))
    assert draw_frames(["b", "aa1"], models, cfg).shape[1] == 4


def test_frames_drawn_from_one_model_scored_under_another():
    cfg = SimConfig(seed=9, noise_sigma=0.4)
    drawn_from = build_state_models(pdfs(LABELS), cfg)
    scored_by = build_state_models(pdfs({"aa1", "_k3", "m", "ng"}), replace(cfg, seed=21))
    assert scored_by.labels != drawn_from.labels
    frames = draw_frames(["b", "aa1", "_t3"], drawn_from, cfg, salt=3)
    scorer = score_frames(frames, scored_by)
    assert scorer.labels == scored_by.labels
    assert scorer.num_frames() == len(frames)
    v, d = MODEL_VARIANCE, frames.shape[1]
    sq = np.sum((frames[:, None, :] - scored_by.means[None, :, :]) ** 2, axis=2)
    expected = -d / 2 * np.log(2 * np.pi * v) - sq / (2 * v)
    np.testing.assert_allclose(scorer.matrix, expected, rtol=0, atol=1e-9)
    # the same frames under the model they were drawn from score differently
    assert not np.array_equal(score_frames(frames, drawn_from).matrix, scorer.matrix)


def test_noiseless_frames_are_the_generating_means():
    cfg = SimConfig(seed=9, noise_sigma=0.0)
    models = mix_models(build_state_models(pdfs(LABELS), cfg), blend_rows((("_k3", "_t3", 0.5),)))
    for salt, seq in enumerate((["b", "aa1", "_k3"], ["_t3"], ["aa1", "b", "_t3", "_k3"])):
        frames = draw_frames(seq, models, cfg, salt)
        truth = true_label_sequence(seq, models, cfg, salt)
        rows = [models.index[lab] for lab in truth]
        assert frames.tobytes() == models.means[rows].tobytes()


# 2**96 + 5 has four 32-bit words, so with the crc its entropy is longer
# than SeedSequence's pool of four
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 5, 2**200])
def test_label_stream_equals_default_rng_on_the_seed_tuple(seed):
    gen = np.random.Generator(np.random.PCG64())
    for labels in [""], ["香港"], ["é#1"], [f"s{k}#{k % 3}" for k in range(500)]:
        for lab, state in zip(labels, _label_states(seed, labels), strict=True):
            ref = label_rng(seed, lab)
            assert ref.bit_generator.state == state
            gen.bit_generator.state = state
            assert gen.normal(0.0, 1.0, 16).tobytes() == ref.normal(0.0, 1.0, 16).tobytes()
            assert gen.integers(0, 2**63, 4).tolist() == ref.integers(0, 2**63, 4).tolist()


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
    models = mix_models(
        build_state_models(pdfs(LABELS), cfg), blend_rows((("_k3", "_t3", 0.5),))
    )
    seq = ["b", "_t3", "aa1", "_k3"]
    scorer = simulate_utterance(seq, models, cfg, salt=4)
    truth = true_label_sequence(seq, models, cfg, salt=4)
    labels = list(models.labels)
    true_means = models.means[[labels.index(lab) for lab in truth]]
    col_means = models.means[[labels.index(lab) for lab in scorer.labels]]
    v, d = MODEL_VARIANCE, cfg.feature_dim
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
    models = mix_models(build_state_models(pdfs(LABELS), cfg), blend_rows((("_k3", "_t3", 1.0),)))
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
    # constructed only: a draw at such a bound would ask for that many frames
    with pytest.raises(SimulationError, match="frames_per_state"):
        SimConfig(seed=1, frames_per_state=(1, MAX_FRAMES_PER_STATE + 1))
    with pytest.raises(SimulationError, match="frames_per_state"):
        SimConfig(seed=1, frames_per_state=(1, 2**63 - 2))
    assert SimConfig(seed=1, frames_per_state=(1, 1000)).frames_per_state[1] == MAX_FRAMES_PER_STATE
    # constructed only: a model build at such a dimension would draw that many floats a label
    assert SimConfig(seed=1, feature_dim=1000).feature_dim == MAX_FEATURE_DIM
    for dim in (MAX_FEATURE_DIM + 1, 10**12):
        with pytest.raises(SimulationError, match="feature_dim"):
            SimConfig(seed=1, feature_dim=dim)
    models = build_state_models(pdfs(LABELS), SimConfig(seed=1))
    with pytest.raises(SimulationError, match="outside"):
        mix_models(models, blend_rows((("_k3", "_t3", 1.5),)))


@pytest.mark.parametrize(
    "settings, name",
    [
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": float("nan")}, "seed"),
        ({"feature_dim": 2.5}, "feature_dim"),
        ({"feature_dim": np.float64(8.0)}, "feature_dim"),
        ({"frames_per_state": (1.5, 3)}, "frames_per_state"),
        ({"frames_per_state": (1, True)}, "frames_per_state"),
    ],
)
def test_a_non_integer_setting_is_a_simulation_error(settings, name):
    with pytest.raises(SimulationError, match=f"^{name}( bound)? must be an integer"):
        SimConfig(**{"seed": 1} | settings)


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"frames_per_state": (1, 2, 3)}, "frames_per_state must be a (lo, hi) pair"),
        ({"frames_per_state": 3}, "frames_per_state must be a (lo, hi) pair"),
        ({"noise_sigma": "0.3"}, "noise_sigma must be a number"),
        ({"noise_sigma": None}, "noise_sigma must be a number"),
        ({"noise_sigma": True}, "noise_sigma must be a number"),
        ({"mean_scale": None}, "mean_scale must be a number"),
    ],
)
def test_a_setting_of_the_wrong_kind_is_a_simulation_error(settings, message):
    with pytest.raises(SimulationError) as raised:
        SimConfig(**{"seed": 1} | settings)
    assert str(raised.value).startswith(message)


def test_numpy_scalar_settings_still_build():
    cfg = SimConfig(
        seed=np.int64(1),
        frames_per_state=np.array([1, 3]),
        feature_dim=np.int32(8),
        noise_sigma=np.float64(0.3),
        mean_scale=np.float32(1.0),
    )
    assert cfg.frames_per_state == (1, 3)
    plain = build_state_models(pdfs(LABELS), SimConfig(seed=1, frames_per_state=(1, 3)))
    assert build_state_models(pdfs(LABELS), cfg).means.tobytes() == plain.means.tobytes()


@pytest.mark.parametrize("salt", [1.5, True, np.float32(2.0)])
def test_a_non_integer_salt_is_a_simulation_error(salt):
    cfg = SimConfig(seed=4)
    models = build_state_models(pdfs(LABELS), cfg)
    with pytest.raises(SimulationError, match="^salt must be an integer"):
        draw_frames(["b", "aa1"], models, cfg, salt)


def test_numpy_integer_settings_draw_what_python_ints_draw():
    cfg = SimConfig(seed=2**40 + 5, frames_per_state=(1, 3), feature_dim=4, noise_sigma=0.3)
    as_numpy = SimConfig(
        seed=np.uint64(2**40 + 5), frames_per_state=(np.int8(1), np.int16(3)),
        feature_dim=np.int32(4), noise_sigma=0.3,
    )
    assert as_numpy == cfg
    assert all(type(v) is int for v in (as_numpy.seed, as_numpy.feature_dim, *as_numpy.frames_per_state))
    models = build_state_models(pdfs(LABELS), cfg)
    assert build_state_models(pdfs(LABELS), as_numpy).means.tobytes() == models.means.tobytes()
    frames = draw_frames(["b", "aa1"], models, cfg, salt=3)
    assert draw_frames(["b", "aa1"], models, as_numpy, salt=np.int64(3)).tobytes() == frames.tobytes()


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


def test_score_frames_is_the_reference_expression_bit_for_bit():
    # the in-place steps must round as the expression with fresh temporaries does
    rng = np.random.default_rng(47)
    for _ in range(200):
        frames, labels, dim = rng.integers(1, 401), rng.integers(1, 601), rng.integers(1, 41)
        feats = rng.normal(0.0, 2.0, (frames, dim))
        means = rng.normal(size=(labels, dim))
        models = StateModel(tuple(f"s{k}#0" for k in range(labels)), means)
        scorer = score_frames(feats, models)
        expected = score_frames_reference(feats, models)
        assert scorer.labels == expected.labels
        assert scorer.matrix.tobytes() == expected.matrix.tobytes()
