import gc
import hashlib
import itertools
import json
import math
import random
import shutil
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from cantoasr import experiment
from cantoasr.decoder import pdf_labels_for
from cantoasr.experiment import (
    ExperimentConfig,
    ExperimentError,
    _build_systems,
    _confusable_pairs,
    derive_confusions,
    load_experiment_config,
    run_experiment,
)
from cantoasr.lexicon import LexiconError, check_merges, read_lexicon
from cantoasr.phonology import (
    TONES,
    JyutpingError,
    MergeRule,
    MergeRuleSet,
    Phone,
    Syllable,
    apply_merge,
    default_inventory,
    to_if,
)
from cantoasr.simulate import build_state_models

DEMO_CFG = Path(__file__).parent.parent / "src/cantoasr/data/demo_experiment.cfg"


def small_config(out_dir, **overrides):
    base = dict(
        seed=13,
        out_dir=out_dir,
        num_seeds=2,
        num_utterances=8,
        words_per_utterance=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_merge_dilution_counts():
    inv = default_inventory()
    rules = MergeRuleSet.parse("t>k@aa,a,o;ng>n@aa,a,o")
    # finals with coda t: aat at it ot eot ut yut; affected: aat at ot
    onc = _confusable_pairs(inv, "onc", rules)
    assert {(a[:-1], b[:-1], e) for a, b, e in onc} == {("_k", "_t", 3 / 7), ("_n", "_ng", 3 / 7)}


def test_overlapping_rules_read_as_the_lexicon_reads_them():
    inv = default_inventory()
    # baat3 -> baak3 by the first rule, so the second rewrites 6 of the 7 t finals
    rules = MergeRuleSet.parse("t>k@aa;t>ng")
    onc = _confusable_pairs(inv, "onc", rules)
    assert {(a[:-1], b[:-1], e) for a, b, e in onc} == {("_k", "_t", 1 / 7), ("_ng", "_t", 6 / 7)}
    # ak is the first rule's alone: the second pairs aau/aak but not au/ak
    rules = MergeRuleSet.parse("k>p@a;k>u")
    pairs = {(a[:-1], b[:-1]) for a, b, _ in _confusable_pairs(inv, "if", rules)}
    assert pairs == {("ap", "ak"), ("aau", "aak")}


def merge_reference(inv, rules):
    """The IF pairs and ONC exposures that ``apply_merge`` implies for ``rules``.

    An IF pair is (merged final, final) of each final the rules rewrite into
    another final of ``inv``; an ONC pair (to coda, from coda) is listed once,
    in the order of its first rule, and its exposure is the share of the from
    coda's finals whose rewrite first happens at a rule with that pair.
    """
    if_pairs, onc = [], []
    for nucleus, coda in inv.finals.values():
        for tone in TONES:
            syl = Syllable(None, nucleus, coda, tone)
            try:
                merged = to_if(apply_merge(syl, rules), inv)
            except JyutpingError:
                continue
            if merged != to_if(syl, inv):
                if_pairs.append((merged[-1].label, to_if(syl, inv)[-1].label, 1.0))
    hits: dict[tuple[str, str], int] = {}
    for i, rule in enumerate(rules.rules):
        before, upto = MergeRuleSet(rules.rules[:i]), MergeRuleSet(rules.rules[: i + 1])
        syls = [Syllable(None, n, c, 1) for n, c in inv.finals.values() if c == rule.from_coda]
        hit = [s for s in syls if apply_merge(s, before) == s != apply_merge(s, upto)]
        pair = (rule.to_coda, rule.from_coda)
        hits[pair] = hits.get(pair, 0) + len(hit)
    for (to, frm), count in hits.items():
        finals = sum(c == frm for _, c in inv.finals.values())
        for tone in TONES:
            a, b = Phone("coda", to, tone), Phone("coda", frm, tone)
            onc.append((a.label, b.label, count / finals))
    return sorted(if_pairs), onc


def accepted(inv, rules):
    try:
        check_merges(rules, inv)
    except LexiconError:
        return False
    return True


def single_rules(inv):
    for src, dst in itertools.permutations(sorted(inv.codas), 2):
        for nuclei in [None, *(frozenset([n]) for n in sorted(inv.nuclei))]:
            yield MergeRuleSet((MergeRule(src, dst, nuclei),))


def random_rule_pairs(inv, count, seed):
    rng = random.Random(seed)
    codas, nuclei = sorted(inv.codas), sorted(inv.nuclei)
    for _ in range(count):
        rules = []
        for _ in range(2):
            src, dst = rng.sample(codas, 2)
            filt = rng.choice([None, frozenset(rng.sample(nuclei, rng.randint(1, 4)))])
            rules.append(MergeRule(src, dst, filt))
        yield MergeRuleSet(tuple(rules))


@pytest.mark.parametrize("sets", ["single", "random-pairs"])
def test_confusable_pairs_follow_apply_merge(sets):
    inv = default_inventory()
    candidates = single_rules(inv) if sets == "single" else random_rule_pairs(inv, 300, 7)
    checked = 0
    for rules in filter(lambda r: accepted(inv, r), candidates):
        if_pairs, onc = merge_reference(inv, rules)
        assert sorted(_confusable_pairs(inv, "if", rules)) == if_pairs, str(rules)
        assert _confusable_pairs(inv, "onc", rules) == onc, str(rules)
        checked += 1
    assert checked >= 100


def test_a_merge_rule_that_rewrites_no_final_fails_the_config(tmp_path):
    p = tmp_path / "merge.cfg"
    p.write_text("seed = 1\nmerge_rules = ng>n@yu\n", encoding="utf-8")
    with pytest.raises(ExperimentError, match="merge rule 'ng>n@yu' rewrites no final"):
        load_experiment_config(p, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "rules, message",
    [
        ("t>k@aa;t>p@o", "merge rules 't>k@aa' and 't>p@o' blend the ONC coda 't' twice"),
        ("t>k@aa;t>ng", "merge rules 't>k@aa' and 't>ng' blend the ONC coda 't' twice"),
        ("t>k@aa;k>p@o", "merge rules 't>k@aa' and 'k>p@o' blend the ONC coda 'k' twice"),
        ("t>k@aa;k>p@aa", "merge rules 't>k@aa' and 'k>p@aa' blend the IF final 'aak' twice"),
    ],
    ids=["two-targets", "two-targets-shadowed", "onc-chain", "if-chain"],
)
def test_merge_rules_that_blend_a_unit_twice_fail_the_config(tmp_path, rules, message):
    # a blend holds one margin per unit: a second blend of a source, or of a
    # target that is itself blended, would undo the first
    p = tmp_path / "merge.cfg"
    p.write_text(f"seed = 1\nmerge_rules = {rules}\n", encoding="utf-8")
    with pytest.raises(ExperimentError, match=f"^{message}$"):
        load_experiment_config(p, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_single_rules_and_the_demo_set_blend_each_unit_once(tmp_path):
    inv = default_inventory()
    demo = load_experiment_config(DEMO_CFG, seed=1, out_dir=tmp_path).merge_rules
    sets = [demo, *(str(r.rules[0]) for r in single_rules(inv) if accepted(inv, r))]
    assert len(sets) == 425
    for rules in sets:
        small_config(tmp_path, merge_rules=rules).validate()


def scheme_system(scheme, cfg):
    return _build_systems(read_lexicon(cfg.lexicon), default_inventory(), cfg)[scheme]


def test_rules_that_repeat_a_pair_blend_it_once(tmp_path):
    # two rules that confuse the same coda pair add up to one exposure, as
    # the rule that names both nuclei does
    inv = default_inventory()
    split = small_config(tmp_path, merge_rules="t>k@aa;t>k@o")
    joined = small_config(tmp_path, merge_rules="t>k@aa,o")
    split.validate()
    pairs = _confusable_pairs(inv, "onc", MergeRuleSet.parse(split.merge_rules))
    assert pairs == _confusable_pairs(inv, "onc", MergeRuleSet.parse(joined.merge_rules))
    assert {e for *_, e in pairs} == {2 / 7}
    split_means = scheme_system("onc", split).models.means
    assert split_means.tobytes() == scheme_system("onc", joined).models.means.tobytes()


def post_blend_gaps(scheme, cfg):
    """Per confused pair of the scheme's system: its blend exposure, its
    nominal blend weight and the mean gap of its three blended pdf means."""
    inv = default_inventory()
    system = scheme_system(scheme, cfg)
    means, row = system.models.means, system.models.index
    rules, labels = MergeRuleSet.parse(cfg.merge_rules), set(system.lex.labels)
    out = {}
    for a, b, exposure in _confusable_pairs(inv, scheme, rules):
        if a not in labels or b not in labels:
            continue
        nominal = cfg.base_similarity + (1 - cfg.base_similarity) * cfg.confusion_p * exposure
        gaps = [np.linalg.norm(means[row[f"{a}#{k}"]] - means[row[f"{b}#{k}"]]) for k in range(3)]
        out[a, b] = (exposure, nominal, sum(gaps) / 3)
    return out


@pytest.mark.parametrize("missing", ["_k3#1", "_t5#0"])
def test_a_pair_gets_no_rows_at_a_tone_whose_pdfs_the_generator_lacks(tmp_path, missing):
    # the ONC pairs are (_kN, _tN) at every tone N; the generator lacks one
    # pdf of one tone's pair: the target's (_k3#1) or the source's (_t5#0)
    cfg = small_config(tmp_path, merge_rules="t>k@aa,a,o")
    inv = default_inventory()
    pairs = _confusable_pairs(inv, "onc", MergeRuleSet.parse(cfg.merge_rules))
    assert [(a, b) for a, b, _ in pairs] == [(f"_k{t}", f"_t{t}") for t in TONES]
    labels = {pdf for a, b, _ in pairs for pdf in (*pdf_labels_for(a), *pdf_labels_for(b))}
    full = derive_confusions(inv, "onc", build_state_models(labels, cfg.sim_config()), cfg)
    assert set(full) == {pdf for t in TONES for pdf in pdf_labels_for(f"_t{t}")}
    generator = build_state_models(labels - {missing}, cfg.sim_config())
    tone = missing[2]
    lacking = derive_confusions(inv, "onc", generator, cfg)
    assert set(lacking) == set(full) - set(pdf_labels_for(f"_t{tone}"))


def test_derive_confusions_asymmetry(tmp_path):
    cfg = small_config(tmp_path, merge_rules="t>k@aa,a,o", confusion_p=0.5, base_similarity=0.8)
    reference = cfg.mean_scale * math.sqrt(2 * cfg.feature_dim)
    gaps_if = post_blend_gaps("if", cfg)
    gaps_onc = post_blend_gaps("onc", cfg)
    assert gaps_if and gaps_onc
    assert all(a.endswith(tuple("123456")) and not a.startswith("_") for a, _ in gaps_if)
    assert all(a.startswith("_k") and b.startswith("_t") for a, b in gaps_onc)
    # the whole-final units absorb the full merge strength, the shared coda
    # units only the diluted share, so the coda pairs stay further apart
    for _, _, gap in gaps_if.values():
        assert gap == pytest.approx((1 - (0.8 + 0.2 * 0.5)) * reference, abs=1e-9)
    for _, _, gap in gaps_onc.values():
        assert gap == pytest.approx((1 - (0.8 + 0.2 * 0.5 * 3 / 7)) * reference, abs=1e-9)
    assert max(g for *_, g in gaps_if.values()) < min(g for *_, g in gaps_onc.values())


# at these seeds a confused pair of the parent design's clean build (read
# for the pair distances) and of its blended build drew different means
@pytest.mark.parametrize("scheme, seed", [("if", 81), ("if", 169), ("onc", 71), ("onc", 180)])
def test_blend_hits_the_target_margin(tmp_path, scheme, seed):
    cfg = load_experiment_config(DEMO_CFG, seed=seed, out_dir=tmp_path)
    reference = cfg.mean_scale * math.sqrt(2 * cfg.feature_dim)
    gaps = post_blend_gaps(scheme, cfg)
    assert gaps
    for _, nominal, gap in gaps.values():
        assert gap == pytest.approx((1 - nominal) * reference, abs=1e-9)


def test_seed_loop_holds_one_utterance_at_a_time(tmp_path, monkeypatch):
    # every scorer the run simulates, held weakly: alive only while the run holds it
    made = weakref.WeakSet()
    alive_at_call = []
    simulate = experiment.simulate_utterance

    def tracked(*args, **kwargs):
        gc.collect()
        alive_at_call.append(len(made))
        scorer = simulate(*args, **kwargs)
        made.add(scorer)
        return scorer

    monkeypatch.setattr(experiment, "simulate_utterance", tracked)
    run_experiment(small_config(tmp_path / "out", num_seeds=2, num_utterances=5))
    assert len(alive_at_call) == 2 * 2 * 5
    # batch_decode lets go of each scorer before it asks for the next
    assert max(alive_at_call) == 0


def test_set_up_lets_go_of_each_lm_before_the_next_phase(tmp_path, monkeypatch):
    # the bigram and the word-level table, held weakly: alive only while the run holds them
    made = {}
    alive_at = {"build_graph": [], "build_state_models": [], "batch_decode": []}

    def track(name, made_as=None):
        fn = getattr(experiment, name)

        def call(*args, **kwargs):
            if name in alive_at:
                gc.collect()
                alive_at[name].append(sorted(k for k, ref in made.items() if ref() is not None))
            out = fn(*args, **kwargs)
            if made_as:
                made[made_as] = weakref.ref(out)
            return out

        monkeypatch.setattr(experiment, name, call)

    track("train_ngram", "bigram")
    track("WordLM", "word_lm")
    for name in alive_at:
        track(name)
    run_experiment(small_config(tmp_path / "out", num_seeds=1, num_utterances=2))
    assert sorted(made) == ["bigram", "word_lm"]
    # the graphs are built after the bigram is gone, the models after the
    # word-level table is too, and every decode after both
    assert alive_at == {
        "build_graph": [["word_lm"]] * 2,
        "build_state_models": [[], []],
        "batch_decode": [[], []],
    }


def test_one_state_model_build_per_scheme(tmp_path, monkeypatch):
    calls = []
    build = experiment.build_state_models
    monkeypatch.setattr(
        experiment, "build_state_models", lambda *args: calls.append(args) or build(*args)
    )
    run_experiment(small_config(tmp_path / "out", num_seeds=1, num_utterances=2))
    assert len(calls) == 2


def test_config_file_round_trip(tmp_path):
    cfg = load_experiment_config(DEMO_CFG, seed=99, out_dir=tmp_path)
    assert cfg.seed == 99
    assert cfg.num_seeds == 20 and cfg.num_utterances == 50
    assert cfg.merge_rules.startswith("t>k")
    assert cfg.frames_per_state == (1, 3)
    assert cfg.lexicon.exists() and cfg.corpus.exists()


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("seed = 1\nbogus = 2\n", encoding="utf-8")
    with pytest.raises(ExperimentError, match="bogus"):
        load_experiment_config(p)


def test_config_requires_seed(tmp_path):
    p = tmp_path / "noseed.cfg"
    p.write_text("num_seeds = 2\n", encoding="utf-8")
    with pytest.raises(ExperimentError, match="seed"):
        load_experiment_config(p)
    assert load_experiment_config(p, seed=3).seed == 3


def test_config_validates_paths(tmp_path):
    p = tmp_path / "badpath.cfg"
    p.write_text("seed = 1\nlexicon = missing.txt\n", encoding="utf-8")
    with pytest.raises(ExperimentError, match="missing.txt"):
        load_experiment_config(p)


@pytest.mark.parametrize("key", ["lexicon", "corpus", "out_dir"])
def test_a_nul_byte_in_a_path_names_file_line_and_key(tmp_path, key):
    p = tmp_path / "nul.cfg"
    p.write_text(f"seed = 1\n{key} = a\0b.txt\n", encoding="utf-8")
    with pytest.raises(ExperimentError, match=rf"nul\.cfg:2: {key}: .*NUL byte"):
        load_experiment_config(p)
    if key != "out_dir":
        with pytest.raises(ExperimentError, match="does not exist"):
            small_config(tmp_path, **{key: Path("a\0b.txt")}).validate()


# a non-default value of every setting but out_dir: as written in a file, as read
NON_DEFAULTS = {
    "seed": ("5", 5),
    "lexicon": ("lex.txt", "lex.txt"),
    "corpus": ("corpus.txt", "corpus.txt"),
    "num_seeds": ("3", 3),
    "num_utterances": ("4", 4),
    "words_per_utterance": ("2", 2),
    "merge_rules": ("t>k", "t>k"),
    "confusion_p": ("0.25", 0.25),
    "base_similarity": ("0.5", 0.5),
    "noise_sigma": ("0.1", 0.1),
    "frames_per_state": ("2:4", (2, 4)),
    "feature_dim": ("6", 6),
    "mean_scale": ("1.5", 1.5),
    "beam": ("12.5", 12.5),
    "max_active": ("300", 300),
    "lm_weight": ("2", 2.0),
    "lattice_width": ("3", 3),
    "sweep_beams": ("10, 20", (10.0, 20.0)),
    "sweep_max_actives": ("100,200", (100, 200)),
}


def test_every_setting_round_trips_from_a_one_line_file(tmp_path):
    assert set(NON_DEFAULTS) == {f.name for f in fields(ExperimentConfig)} - {"out_dir"}
    default = ExperimentConfig(seed=0, out_dir=Path("."))
    shutil.copy(default.lexicon, tmp_path / "lex.txt")
    shutil.copy(default.corpus, tmp_path / "corpus.txt")
    for key, (text, value) in NON_DEFAULTS.items():
        if key in ("lexicon", "corpus"):
            value = (tmp_path / value).resolve()
        p = tmp_path / f"{key}.cfg"
        p.write_text(f"{key} = {text}\n", encoding="utf-8")
        cfg = load_experiment_config(p, seed=None if key == "seed" else 1)
        assert getattr(cfg, key) == value != getattr(default, key), key


def test_config_paths_resolve_and_empty_values(tmp_path, monkeypatch):
    default = ExperimentConfig(seed=0, out_dir=Path("."))
    shutil.copy(default.lexicon, tmp_path / "lex.txt")
    (tmp_path / "cfg").mkdir()
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    p = tmp_path / "cfg/x.cfg"
    p.write_text("seed = 1\nlexicon = ../lex.txt\nout_dir = results\n", encoding="utf-8")
    cfg = load_experiment_config(p)
    assert cfg.lexicon == (tmp_path / "lex.txt").resolve()
    assert cfg.out_dir == Path("results")
    p.write_text(
        "seed = 1\nlexicon =\ncorpus =\nout_dir =\nmerge_rules =\nsweep_beams =\n",
        encoding="utf-8",
    )
    cfg = load_experiment_config(p)
    assert (cfg.lexicon, cfg.corpus) == (default.lexicon, default.corpus)
    assert cfg.out_dir == Path(".")
    assert cfg.merge_rules == "" and cfg.sweep_beams == ()


@pytest.mark.parametrize("line", ["num_seeds = abc", "frames_per_state = 3", "beam = x"])
def test_config_value_errors_name_file_line_and_key(tmp_path, line):
    p = tmp_path / "bad.cfg"
    p.write_text(f"seed = 1\n# a comment\n{line}\n", encoding="utf-8")
    with pytest.raises(ExperimentError, match=rf"bad\.cfg:3: {line.split()[0]}: "):
        load_experiment_config(p)


# the second value would load without the check; an empty path is a value too
@pytest.mark.parametrize(
    "first, second",
    [("num_seeds = 2", "num_seeds = 3"), ("seed = 1", "seed = 1"), ("lexicon =", "lexicon =")],
)
def test_config_repeated_key_names_file_line_and_key(tmp_path, first, second):
    key = first.split()[0]
    p = tmp_path / "twice.cfg"
    p.write_text(f"{first}\n# a comment\n{second}\n", encoding="utf-8")
    with pytest.raises(
        ExperimentError, match=rf"twice\.cfg:3: config key '{key}' repeated \(first on line 1\)"
    ):
        load_experiment_config(p, seed=1)


@pytest.mark.parametrize(
    "key, text, value",
    [
        ("sweep_beams", "0", (0.0,)),
        ("lattice_width", "0", 0),
        ("merge_rules", "t>", "t>"),
        ("merge_rules", "t>k,n>ng", "t>k,n>ng"),
        ("merge_rules", "t>k@", "t>k@"),
        ("merge_rules", "t>k@,", "t>k@,"),
    ],
)
def test_bad_settings_are_rejected_before_any_work(tmp_path, key, text, value):
    p = tmp_path / "bad.cfg"
    p.write_text(f"seed = 1\n{key} = {text}\n", encoding="utf-8")
    with pytest.raises(ExperimentError):
        load_experiment_config(p)
    out = tmp_path / "out"
    with pytest.raises(ExperimentError):
        run_experiment(small_config(out, **{key: value}))
    assert not out.exists()


@pytest.mark.parametrize(
    "key, text",
    [
        ("noise_sigma", "nan"),
        ("mean_scale", "0"),
        ("mean_scale", "nan"),
        ("mean_scale", "inf"),
        ("feature_dim", "0"),
        ("feature_dim", "1000000000000"),
        ("words_per_utterance", "0"),
        ("words_per_utterance", "1000000000000"),
        ("num_utterances", "1000000000000"),
        ("seed", "-1"),
    ],
)
def test_simulation_settings_are_checked_when_loaded(tmp_path, key, text):
    p = tmp_path / "bad.cfg"
    p.write_text(f"seed = 1\n{key} = {text}\n", encoding="utf-8")
    with pytest.raises(ExperimentError, match=key):
        load_experiment_config(p)


@pytest.mark.parametrize(
    "key, value",
    [("seed", 1.5), ("seed", True), ("feature_dim", 2.5), ("frames_per_state", (1.5, 3))],
)
def test_a_non_integer_simulation_setting_is_an_experiment_error(tmp_path, key, value):
    out = tmp_path / "out"
    with pytest.raises(ExperimentError, match=f"^{key}.* must be an integer"):
        small_config(out, **{key: value}).validate()
    with pytest.raises(ExperimentError, match=f"^{key}.* must be an integer"):
        run_experiment(small_config(out, **{key: value}))
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("frames_per_state", (1, 2, 3)),
        ("frames_per_state", 3),
        ("noise_sigma", "0.3"),
        ("noise_sigma", None),
        ("mean_scale", None),
    ],
)
def test_a_simulation_setting_of_the_wrong_kind_is_an_experiment_error(tmp_path, key, value):
    with pytest.raises(ExperimentError, match=f"^{key} must be a "):
        small_config(tmp_path / "out", **{key: value}).validate()


# one value of the wrong kind per setting; none opens a descriptor, as
# validate rejects a path that is not a str or os.PathLike before it looks
WRONG_KINDS = {
    "seed": 1.5,
    "out_dir": 5,
    "lexicon": 0,
    "corpus": 2,
    "num_seeds": 1.5,
    "num_utterances": True,
    "words_per_utterance": 2.5,
    "merge_rules": None,
    "confusion_p": "0.5",
    "base_similarity": None,
    "noise_sigma": "0.3",
    "frames_per_state": 3,
    "feature_dim": 2.5,
    "mean_scale": None,
    "beam": "40",
    "max_active": 7000.0,
    "lm_weight": None,
    "lattice_width": True,
    "sweep_beams": 5.0,
    "sweep_max_actives": 7,
}


@pytest.mark.parametrize("key", WRONG_KINDS)
def test_a_setting_of_the_wrong_kind_fails_validation(tmp_path, key):
    # a key is one field plus its check in validate, so a new field needs a row here
    assert list(WRONG_KINDS) == [f.name for f in fields(ExperimentConfig)]
    cfg = replace(small_config(tmp_path / "out"), **{key: WRONG_KINDS[key]})
    with pytest.raises(ExperimentError, match=f"^{key} must be (a|an) "):
        cfg.validate()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("sweep_beams", "x", "sweep_beams value must be a number > 0, got 'x'"),
        ("sweep_beams", math.nan, "sweep_beams value must be a number > 0, got nan"),
        ("sweep_beams", -1.0, "sweep_beams value must be a number > 0, got -1.0"),
        ("sweep_beams", 0, "sweep_beams value must be a number > 0, got 0"),
        ("sweep_max_actives", 0, "sweep_max_actives value must be an integer >= 1, got 0"),
        ("sweep_max_actives", True, "sweep_max_actives value must be an integer >= 1, got True"),
        ("sweep_max_actives", 5.0, "sweep_max_actives value must be an integer >= 1, got 5.0"),
    ],
)
def test_a_sweep_grid_value_is_checked_under_its_grid_key(tmp_path, key, value, message):
    # the bad value follows a good one, so the message names the value, not the grid
    good = {"sweep_beams": 20.0, "sweep_max_actives": 100}[key]
    cfg = small_config(tmp_path / "out", **{key: (good, value)})
    with pytest.raises(ExperimentError) as info:
        cfg.validate()
    assert str(info.value) == message


def test_a_sweep_grid_value_is_checked_when_loaded(tmp_path):
    p = tmp_path / "grid.cfg"
    p.write_text("seed = 1\nsweep_max_actives = 100, 0\n", encoding="utf-8")
    with pytest.raises(ExperimentError) as info:
        load_experiment_config(p)
    assert str(info.value) == "sweep_max_actives value must be an integer >= 1, got 0"


def test_report_params_are_the_settings(tmp_path):
    cfg = small_config(tmp_path / "out", num_seeds=1, num_utterances=2)
    params = run_experiment(cfg)["params"]
    left_out = {"out_dir", "sweep_beams", "sweep_max_actives"}
    assert set(params) == {f.name for f in fields(ExperimentConfig)} - left_out
    # the bundled files read the same from every checkout
    assert params["lexicon"] == "data/demo_lexicon.txt"
    assert params["corpus"] == "data/demo_corpus.txt"
    # a file outside the package is recorded as given
    lexicon = tmp_path / "lexicon.txt"
    shutil.copy(cfg.lexicon, lexicon)
    params = run_experiment(replace(cfg, lexicon=lexicon))["params"]
    assert params["lexicon"] == str(lexicon)
    assert params["corpus"] == "data/demo_corpus.txt"


def test_run_experiment_report_shape(tmp_path):
    report = run_experiment(small_config(tmp_path / "out"))
    assert set(report) == {
        "params",
        "lexicon_stats",
        "per_seed",
        "aggregate",
        "classification",
    }
    assert len(report["per_seed"]) == 2
    agg = report["aggregate"]
    assert 0 <= agg["onc_better_fraction"] <= 1
    out = tmp_path / "out"
    assert (out / "report.json").exists()
    assert (out / "timing.json").exists()
    assert (out / "report.txt").exists()
    timing = json.loads((out / "timing.json").read_text())
    assert timing["if"]["rtf"] > 0 and timing["onc"]["rtf"] > 0
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert "WER" in text and "RTF" in text and "relative improvement" in text
    assert "Errors in IF only" in text


def test_run_experiment_deterministic_report(tmp_path):
    run_experiment(small_config(tmp_path / "a"))
    run_experiment(small_config(tmp_path / "b"))
    assert (tmp_path / "a/report.json").read_bytes() == (
        tmp_path / "b/report.json"
    ).read_bytes()


# the report of the demo settings at 2 seeds x 8 utterances x 4 words: a
# change to how the run counts its errors must keep every one of these numbers
PINNED = {
    "per_seed": [
        {
            "seed_index": 0,
            "wer_if": {"S": 1, "I": 0, "D": 0, "N": 48, "rate": 0.020833333333333332},
            "wer_onc": {"S": 1, "I": 0, "D": 0, "N": 48, "rate": 0.020833333333333332},
            "relative_improvement": 0.0,
        },
        {
            "seed_index": 1,
            "wer_if": {"S": 0, "I": 0, "D": 0, "N": 45, "rate": 0.0},
            "wer_onc": {"S": 0, "I": 0, "D": 0, "N": 45, "rate": 0.0},
            "relative_improvement": 0.0,
        },
    ],
    "aggregate": {
        "wer_if": {"S": 1, "I": 0, "D": 0, "N": 93, "rate": 0.010752688172043012},
        "wer_onc": {"S": 1, "I": 0, "D": 0, "N": 93, "rate": 0.010752688172043012},
        "onc_better_seeds": 0,
        "num_seeds": 2,
        "onc_better_fraction": 0.0,
        "mean_relative_improvement": 0.0,
        "relative_improvement_pooled": 0.0,
        "decode_failures": {"if": 0, "onc": 0},
    },
    "classification": {
        "correct_a": 15,
        "correct_b": 15,
        "errors_a_only": 0,
        "errors_b_only": 0,
        "shared_errors": 1,
        "shared_identical": 1,
        "shared_different": 0,
    },
}


def test_small_demo_report_is_pinned(tmp_path):
    cfg = load_experiment_config(DEMO_CFG, out_dir=tmp_path)
    assert cfg.seed == 7
    report = run_experiment(replace(cfg, num_seeds=2, num_utterances=8, words_per_utterance=4))
    assert {k: report[k] for k in PINNED} == PINNED


# sha256 of report.json and sweep.json for a run of GOLDEN_CONFIG
GOLDEN_CONFIG = dict(
    seed=7, num_seeds=2, num_utterances=8, words_per_utterance=4, sweep_beams=(20.0, 40.0)
)
GOLDEN_SHA256 = {
    "report.json": "23945ff0adc9251616588f344ac0c3ab90243242063a5ba0026c8b933aab48dc",
    "sweep.json": "39a3c3db6f26e0f390fb137413518637fbbdb060890458701f77492a3a3a5633",
}


def test_a_small_run_writes_the_pinned_outputs(tmp_path):
    """Two seeds of the demo settings, plus a beam sweep, write both files as pinned.

    ``sweep.json`` carries each cell's ``tokens_expanded``, so the decoder's
    work is pinned as well as its hypotheses.  A change that means to move
    the outputs updates both hashes and lists the change in CHANGES.md.
    """
    run_experiment(ExperimentConfig(out_dir=tmp_path, **GOLDEN_CONFIG))
    written = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256
    }
    assert written == GOLDEN_SHA256


def test_noiseless_zero_confusion_is_exact(tmp_path):
    cfg = small_config(
        tmp_path / "clean", confusion_p=0.0, noise_sigma=0.0, num_seeds=1,
        num_utterances=10,
    )
    report = run_experiment(cfg)
    agg = report["aggregate"]
    assert agg["wer_if"]["rate"] == 0.0
    assert agg["wer_onc"]["rate"] == 0.0


def test_every_failed_decode_scores_as_the_empty_hypothesis(tmp_path):
    # a cap of one token never lets a word end survive to the final frame
    cfg = small_config(tmp_path / "out", max_active=1)
    report = run_experiment(cfg)
    agg = report["aggregate"]
    utterances = cfg.num_seeds * cfg.num_utterances
    assert agg["decode_failures"] == {"if": utterances, "onc": utterances}
    for key in ("wer_if", "wer_onc"):
        pooled = agg[key]
        assert pooled["S"] == pooled["I"] == 0
        assert pooled["D"] == pooled["N"] > 0
    assert report["classification"] == {
        "correct_a": 0,
        "correct_b": 0,
        "errors_a_only": 0,
        "errors_b_only": 0,
        "shared_errors": utterances,
        "shared_identical": utterances,
        "shared_different": 0,
    }


def test_sweep_grids_written(tmp_path):
    cfg = small_config(
        tmp_path / "sweep",
        num_seeds=1,
        num_utterances=4,
        sweep_beams=(20.0, 40.0),
        sweep_max_actives=(7000,),
    )
    run_experiment(cfg)
    payload = json.loads((tmp_path / "sweep/sweep.json").read_text())
    assert set(payload) == {"if", "onc"}
    assert len(payload["if"]) == 2
    text = (tmp_path / "sweep/report.txt").read_text(encoding="utf-8")
    assert "Sweep (if)" in text and "Sweep (onc)" in text


def test_sweep_json_is_deterministic(tmp_path):
    for run in ("a", "b"):
        run_experiment(
            small_config(tmp_path / run, num_seeds=1, num_utterances=4, sweep_beams=(20.0, 40.0))
        )
    sweep_json = (tmp_path / "a/sweep.json").read_bytes()
    assert sweep_json == (tmp_path / "b/sweep.json").read_bytes()
    cells = json.loads(sweep_json)["if"]
    assert [set(c) for c in cells] == [{"beam", "max_active", "wer", "tokens_expanded"}] * 2
    assert all(c["tokens_expanded"] > 0 for c in cells)
    # the wall-clock RTF of each cell is in timing.json
    timing = json.loads((tmp_path / "a/timing.json").read_text())
    assert [(c["beam"], c["max_active"]) for c in timing["sweep"]["if"]] == [
        (20.0, 7000), (40.0, 7000)
    ]
    assert all(c["rtf"] > 0 for c in timing["sweep"]["onc"])
