import gc
import json
import math
import shutil
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from cantoasr import experiment
from cantoasr.experiment import (
    ExperimentConfig,
    ExperimentError,
    _build_system,
    _confusable_pairs,
    load_experiment_config,
    merge_dilution,
    run_experiment,
)
from cantoasr.lexicon import read_lexicon
from cantoasr.ngram import read_corpus, train_ngram
from cantoasr.phonology import MergeRuleSet, default_inventory

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
    assert merge_dilution(inv, rules.rules[0]) == pytest.approx(3 / 7)
    assert merge_dilution(inv, rules.rules[1]) == pytest.approx(3 / 7)


def post_blend_gaps(scheme, cfg):
    """Per confused pair of the scheme's system: its blend exposure, its
    nominal blend weight and the mean gap of its three blended pdf means."""
    inv = default_inventory()
    lm = train_ngram(read_corpus(cfg.corpus), order=2, smoothing="witten_bell")
    system = _build_system(scheme, read_lexicon(cfg.lexicon), inv, lm, cfg)
    means, row = system.models.means, system.models.index
    rules = MergeRuleSet.parse(cfg.merge_rules)
    out = {}
    for a, b, exposure in _confusable_pairs(inv, scheme, set(system.lex.labels), rules):
        nominal = cfg.base_similarity + (1 - cfg.base_similarity) * cfg.confusion_p * exposure
        gaps = [np.linalg.norm(means[row[f"{a}#{k}"]] - means[row[f"{b}#{k}"]]) for k in range(3)]
        out[a, b] = (exposure, nominal, sum(gaps) / 3)
    return out


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
    # the scorer being decoded may still be held while the next one is made
    assert max(alive_at_call) <= 1


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
