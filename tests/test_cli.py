import importlib
import json
import os
import pkgutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cantoasr
from cantoasr import DataError, cli, experiment
from cantoasr.cli import main
from cantoasr.decoder import DecodeParams, MatrixScorer, ScoreFormatError, read_scores, write_scores
from cantoasr.experiment import ExperimentError, load_experiment_config
from cantoasr.lattice import (
    LatticeFormatError,
    best_path,
    demo_lattice_path,
    read_external_scores,
    read_lattice,
)
from cantoasr.lexicon import LexiconError, read_lexicon
from cantoasr.ngram import ArpaFormatError, read_arpa
from cantoasr.phonology import InventoryError, load_inventory

DATA = Path(__file__).parent.parent / "src/cantoasr/data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_json(capsys):
    code, out, _ = run(capsys, "parse", "ling4")
    assert code == 0
    assert json.loads(out) == {"onset": "l", "nucleus": "i", "coda": "ng", "tone": 4}


def test_parse_bad_tone_is_data_error(capsys):
    code, out, err = run(capsys, "parse", "xyz7")
    assert code == 2
    assert "tone" in err


def test_unknown_subcommand_usage_error(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err.lower()


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == "0.1.0"


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fresh_python(args, **env):
    """``python args`` in a fresh interpreter with ``src`` on the path, the BLAS
    thread variables unset and then ``env`` set."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**base, "PYTHONPATH": str(DATA.parent.parent), **env},
    )


@pytest.mark.parametrize("preset", [None, "3"])
def test_the_cli_sets_one_blas_thread_unless_told_otherwise(preset):
    probe = (
        "import os, cantoasr.cli\n"
        f"print(*[os.environ[k] for k in {BLAS_THREADS!r}])"
    )
    env = dict.fromkeys(BLAS_THREADS, preset) if preset else {}
    done = fresh_python(["-c", probe], **env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [preset or "1"] * 3


def test_python_dash_m_runs_the_cli():
    done = fresh_python(["-m", "cantoasr", "--help"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: cantoasr ")


def test_lexicon_stats_json(capsys):
    code, out, _ = run(capsys, "--json", "lexicon", "stats", "--scheme", "onc")
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] >= 200 and payload["variants"] >= 1


def test_lexicon_compile(tmp_path, capsys):
    code, out, _ = run(
        capsys, "lexicon", "compile", "--scheme", "if", "--out", str(tmp_path)
    )
    assert code == 0
    assert (tmp_path / "lexicon.txt").exists()
    assert (tmp_path / "phones.txt").exists()


def test_lm_pipeline_and_perplexity(tmp_path, capsys):
    arpa = tmp_path / "lm.arpa"
    code, _, _ = run(
        capsys, "lm", "train", "--corpus", str(DATA / "demo_corpus.txt"),
        "--order", "2", "--out", str(arpa),
    )
    assert code == 0 and arpa.exists()
    code, out, _ = run(
        capsys, "--json", "lm", "perplexity", "--model", str(arpa),
        "--text", str(DATA / "demo_corpus.txt"),
    )
    assert code == 0
    assert json.loads(out)["perplexity"] > 1.0


def test_lm_interpolate(tmp_path, capsys):
    (tmp_path / "a.txt").write_text("天氣好\n天氣熱\n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("香港人多\n人人好\n", encoding="utf-8")
    for name in ("a", "b"):
        run(
            capsys, "lm", "train", "--corpus", str(tmp_path / f"{name}.txt"),
            "--order", "2", "--out", str(tmp_path / f"{name}.arpa"),
        )
    code, out, _ = run(
        capsys, "--json", "lm", "interpolate",
        "--model-a", str(tmp_path / "a.arpa"), "--model-b", str(tmp_path / "b.arpa"),
        "--tune", str(tmp_path / "a.txt"), "--out", str(tmp_path / "mix.arpa"),
    )
    assert code == 0
    assert json.loads(out)["lambda"] >= 0.5
    assert (tmp_path / "mix.arpa").exists()


def test_graph_build_stats(tmp_path, capsys):
    arpa = tmp_path / "lm.arpa"
    run(capsys, "lm", "train", "--corpus", str(DATA / "demo_corpus.txt"),
        "--order", "2", "--out", str(arpa))
    code, out, _ = run(
        capsys, "--json", "graph", "build", "--scheme", "onc", "--lm", str(arpa)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["states"] > 1000
    assert payload["self_loops"] == payload["emitting_states"]


def test_simulate_decode_round_trip(tmp_path, capsys):
    arpa = tmp_path / "lm.arpa"
    run(capsys, "lm", "train", "--corpus", str(DATA / "demo_corpus.txt"),
        "--order", "2", "--out", str(arpa))
    scores = tmp_path / "utt.fscr"
    code, out, _ = run(
        capsys, "--json", "--seed", "5", "simulate", "--scheme", "onc",
        "--text", "香港 天氣 好", "--out", str(scores), "--noise-sigma", "0.1",
    )
    assert code == 0 and scores.exists()
    lattice_out = tmp_path / "utt.lat"
    code, out, _ = run(
        capsys, "--json", "decode", "--scheme", "onc", "--lm", str(arpa),
        "--scores", str(scores), "--beam", "1000000", "--lm-weight", "1.0",
        "--lattice-out", str(lattice_out),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["text"] == "香港天氣好"
    assert lattice_out.exists()
    code, out, _ = run(
        capsys, "--json", "nbest", "--lattice", str(lattice_out), "--n", "5",
        "--lm-weight", "1.0",
    )
    assert code == 0
    hyps = json.loads(out)
    assert hyps[0]["text"] == "香港天氣好"


def test_decode_truncated_fscr_header_is_data_error(tmp_path, capsys):
    arpa = tmp_path / "lm.arpa"
    run(capsys, "lm", "train", "--corpus", str(DATA / "demo_corpus.txt"),
        "--order", "2", "--out", str(arpa))
    scores = tmp_path / "short.fscr"
    scores.write_bytes(b"FSCR\x01\x00")
    code, _, err = run(
        capsys, "decode", "--scheme", "onc", "--lm", str(arpa), "--scores", str(scores),
    )
    assert code == 2
    assert "short.fscr: truncated FSCR header" in err


def test_decode_repeated_fscr_label_is_data_error(tmp_path, capsys):
    arpa = tmp_path / "lm.arpa"
    run(capsys, "lm", "train", "--corpus", str(DATA / "demo_corpus.txt"),
        "--order", "2", "--out", str(arpa))
    scores = tmp_path / "utt.fscr"
    run(capsys, "simulate", "--scheme", "onc", "--text", "香港", "--out", str(scores))
    sidecar = tmp_path / "utt.fscr.labels"
    labels = sidecar.read_text(encoding="utf-8").split()
    labels[-1] = labels[0]
    sidecar.write_text("\n".join(labels) + "\n", encoding="utf-8")
    code, out, err = run(
        capsys, "decode", "--scheme", "onc", "--lm", str(arpa), "--scores", str(scores),
    )
    assert code == 2 and out == ""
    assert f"utt.fscr: label {labels[0]!r} names two columns" in err


@pytest.mark.parametrize(
    "flag, value, why",
    [
        ("--lattice-width", "0", "lattice_width must be >= 1"),
        ("--lattice-width", "-1", "lattice_width must be >= 1"),
        ("--beam", "nan", "must be positive"),
        ("--lm-weight", "nan", "lm_weight finite"),
        ("--lm-weight", "inf", "lm_weight finite"),
    ],
)
def test_decode_bad_params_are_data_errors(tmp_path, capsys, flag, value, why):
    arpa = tmp_path / "lm.arpa"
    run(capsys, "lm", "train", "--corpus", str(DATA / "demo_corpus.txt"),
        "--order", "2", "--out", str(arpa))
    scores = tmp_path / "utt.fscr"
    run(capsys, "--seed", "5", "simulate", "--scheme", "onc", "--text", "香港 天氣 好",
        "--out", str(scores))
    code, out, err = run(
        capsys, "decode", "--scheme", "onc", "--lm", str(arpa), "--scores", str(scores),
        flag, value,
    )
    assert code == 2 and out == ""
    assert why in err


def test_simulate_rejects_unknown_word(tmp_path, capsys):
    code, _, err = run(
        capsys, "simulate", "--scheme", "onc", "--text", "不存在詞",
        "--out", str(tmp_path / "x.fscr"),
    )
    assert code == 2
    assert "not in lexicon" in err


@pytest.mark.parametrize(
    "before, after, why",
    [(["--seed", "-1"], [], "seed must be >= 0"), ([], ["--salt", "-1"], "salt must be >= 0")],
    ids=["seed", "salt"],
)
def test_simulate_rejects_negative_seed_and_salt(tmp_path, capsys, before, after, why):
    simulate = ["simulate", "--text", "香港", "--out", str(tmp_path / "x.fscr")]
    code, out, err = run(capsys, *before, *simulate, *after)
    assert code == 2 and out == ""
    assert why in err


def test_simulate_rejects_a_frames_per_state_bound_it_cannot_draw(tmp_path, capsys):
    # a bound past what an int64 holds, far above simulate.MAX_FRAMES_PER_STATE
    code, out, err = run(
        capsys, "simulate", "--text", "香港", "--out", str(tmp_path / "x.fscr"),
        "--frames-per-state", "1:99999999999999999999",
    )
    assert code == 2 and out == ""
    assert "frames_per_state" in err


def test_a_frames_per_state_bound_above_the_cap_exits_2_before_any_draw(
    tmp_path, capsys, monkeypatch
):
    def no_draw(*args, **kwargs):
        raise AssertionError("simulate_utterance reached")

    for owner in (cli, experiment):
        monkeypatch.setattr(owner, "simulate_utterance", no_draw)
    code, out, err = run(
        capsys, "simulate", "--text", "香港", "--out", str(tmp_path / "x.fscr"),
        "--frames-per-state", "1:1000000000000",
    )
    assert code == 2 and out == ""
    assert "frames_per_state" in err
    cfg = tmp_path / "long.cfg"
    cfg.write_text("frames_per_state = 1:1000000000000\n", encoding="utf-8")
    code, out, err = run(
        capsys, "--seed", "7", "experiment", "onc-vs-if",
        "--config", str(cfg), "--out", str(tmp_path / "out"),
    )
    assert code == 2 and out == ""
    assert "frames_per_state" in err
    assert not (tmp_path / "out").exists()


def test_lm_trained_on_repeated_literal_start_markers_reads_back(tmp_path, capsys):
    # two literal <s> in a row force the history "a <s> <s>" into an order-4
    # model; its context "a <s>" must be stored too for the reader
    corpus = tmp_path / "markers.txt"
    corpus.write_text("a <s> <s> b\nc b\n", encoding="utf-8")
    arpa = tmp_path / "lm.arpa"
    code, _, err = run(
        capsys, "lm", "train", "--corpus", str(corpus), "--order", "4", "--out", str(arpa)
    )
    assert code == 0, err
    code, out, err = run(
        capsys, "--json", "lm", "perplexity", "--model", str(arpa), "--text", str(corpus)
    )
    assert code == 0, err
    assert json.loads(out)["perplexity"] > 1.0


def test_nbest_demo_lattice_prints_node_path(capsys):
    code, out, _ = run(
        capsys, "--json", "nbest", "--lattice", str(demo_lattice_path()),
        "--n", "3", "--lm-weight", "1.0",
    )
    assert code == 0
    hyps = json.loads(out)
    assert hyps[0]["nodes"] == "0-1-13-14-5-6-7-11-12"
    assert hyps[0]["text"] == "合共九千九百萬元"


def test_nbest_nan_lattice_score_is_data_error(tmp_path, capsys):
    lines = demo_lattice_path().read_text(encoding="utf-8").splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("arc "))
    fields = lines[k].split()
    for value, what in [("nan", "NaN"), ("inf", "+inf")]:
        lines[k] = " ".join(fields[:4] + [value, fields[5]])
        lat = tmp_path / f"{value}.lat"
        lat.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "--json", "nbest", "--lattice", str(lat), "--n", "3")
        assert code == 2 and out == ""
        assert f"{value}.lat:{k + 1}: " in err and f"{what} arc score" in err


NO_FINITE_PATH_LATTICE = "LATTICE v1\nnode 0 0\nnode 1 10\nstart 0\nfinal 1\narc 0 1 天 -inf -0.5\n"


def test_nbest_with_no_finite_path_is_data_error(tmp_path, capsys):
    lat = tmp_path / "dead.lat"
    lat.write_text(NO_FINITE_PATH_LATTICE, encoding="utf-8")
    code, out, err = run(capsys, "nbest", "--lattice", str(lat))
    assert code == 2 and out == ""
    assert "no path through the lattice has a finite score" in err


def test_rescore_with_no_finite_path_is_data_error(tmp_path, capsys):
    lat = tmp_path / "dead.lat"
    lat.write_text(NO_FINITE_PATH_LATTICE, encoding="utf-8")
    lm = tmp_path / "lm.arpa"
    assert run(capsys, "lm", "train", "--corpus", str(DATA / "demo_corpus.txt"),
               "--order", "2", "--out", str(lm))[0] == 0
    code, out, err = run(capsys, "rescore", "--lattice", str(lat), "--lm", str(lm))
    assert code == 2 and out == ""
    assert "no path through the lattice has a finite score" in err


def test_nbest_repeated_node_is_data_error(tmp_path, capsys):
    lines = demo_lattice_path().read_text(encoding="utf-8").splitlines()
    lat = tmp_path / "twice.lat"
    lat.write_text("\n".join(lines + ["node 1 9"]) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "--json", "nbest", "--lattice", str(lat), "--n", "3")
    assert code == 2 and out == ""
    assert f"twice.lat:{len(lines) + 1}: node 1 declared twice" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nbest_non_finite_lm_weight_is_data_error(capsys, value):
    code, out, err = run(
        capsys, "--json", "nbest", "--lattice", str(demo_lattice_path()), "--n", "2",
        f"--lm-weight={value}",
    )
    assert code == 2 and out == ""
    assert "lm_weight must be finite" in err


def test_decode_options_are_the_decode_params_fields():
    parser = cli.build_parser()
    required = ["decode", "--lm", "lm.arpa", "--scores", "x.fscr"]
    args = vars(parser.parse_args(required))
    others = {"json", "seed", "inventory", "command", "func", "lexicon", "scheme", "merge",
              "lm", "scores", "lattice_out"}
    settings = {k: v for k, v in args.items() if k not in others}
    assert settings == {f.name: f.default for f in fields(DecodeParams)}
    for f in fields(DecodeParams):
        value = getattr(parser.parse_args(required + [f"--{f.name.replace('_', '-')}", "3"]), f.name)
        assert type(value) is f.type and value == 3


def test_rescore_cli(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text(
        "".join(["山邊魚塘\n"] * 30 + ["有魚塘水\n"] * 10 + ["奶有乳糖\n"] * 4),
        encoding="utf-8",
    )
    lm4 = tmp_path / "lm4.arpa"
    run(capsys, "lm", "train", "--corpus", str(corpus), "--order", "4",
        "--out", str(lm4))
    lat = tmp_path / "milk.lat"
    lat.write_text(
        "LATTICE v1\nnode 0 0\nnode 1 8\nnode 2 16\nnode 3 30\n"
        "start 0\nfinal 3\n"
        "arc 0 1 奶 -1.000000 -0.500000\n"
        "arc 1 2 有 -1.000000 -0.500000\n"
        "arc 2 3 乳糖 -2.000000 -3.200000\n"
        "arc 2 3 魚塘 -2.000000 -2.100000\n",
        encoding="utf-8",
    )
    rescored = tmp_path / "rescored.lat"
    code, out, _ = run(
        capsys, "--json", "rescore", "--lattice", str(lat), "--lm", str(lm4),
        "--out", str(rescored),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["text"] == "奶有乳糖"
    back = read_lattice(rescored)
    assert back.word_sequences() == read_lattice(lat).word_sequences()
    best = best_path(back)
    assert best.text == payload["text"]
    # the file keeps six decimals per arc score
    assert best.combined == pytest.approx(payload["combined"], abs=1e-4)


def test_rescore_external_cli(tmp_path, capsys):
    ext = tmp_path / "scores.tsv"
    ext.write_text("合 共 九 千 九 百 萬 元\t-1.0\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "--json", "rescore", "--lattice", str(demo_lattice_path()),
        "--external", str(ext), "--n", "1", "--interpolation", "1.0",
    )
    assert code == 0
    assert json.loads(out)[0]["text"] == "合共九千九百萬元"


def test_rescore_external_scores_the_empty_hypothesis(tmp_path, capsys):
    lat, ext = tmp_path / "eps.lat", tmp_path / "scores.tsv"
    lat.write_text(
        "LATTICE v1\nnode 0 0\nnode 1 5\nstart 0\nfinal 1\n"
        "arc 0 1 - -0.5 0.0\narc 0 1 好 -1.0 -0.2\n",
        encoding="utf-8",
    )
    ext.write_text("\t-9.0\n好\t-1.0\n", encoding="utf-8")
    code, out, err = run(
        capsys, "--json", "rescore", "--lattice", str(lat),
        "--external", str(ext), "--n", "2", "--interpolation", "0.0",
    )
    assert code == 0, err
    assert [h["text"] for h in json.loads(out)] == ["好", ""]


def strict_json(text):
    """``json.loads`` that refuses the non-standard ``NaN``, ``Infinity`` and ``-Infinity``."""

    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


def test_decode_json_writes_an_infinite_beam_as_a_string(tmp_path, capsys):
    arpa, scores = tmp_path / "lm.arpa", tmp_path / "utt.fscr"
    run(capsys, "lm", "train", "--corpus", str(DATA / "demo_corpus.txt"),
        "--order", "2", "--out", str(arpa))
    run(capsys, "--seed", "5", "simulate", "--scheme", "onc", "--text", "香港 好",
        "--out", str(scores))
    argv = ["decode", "--scheme", "onc", "--lm", str(arpa), "--scores", str(scores),
            "--beam", "inf"]
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    payload = strict_json(out)
    assert payload["stats"]["beam"] == "inf" and payload["text"] == "香港好"
    code, text_out, _ = run(capsys, *argv)
    assert code == 0 and text_out == "香港好\n"


def test_rescore_external_json_writes_minus_inf_as_a_string(tmp_path, capsys):
    ext = tmp_path / "scores.tsv"
    ext.write_text("合 共 九 千 九 百 萬 元\t-inf\n", encoding="utf-8")
    argv = ["rescore", "--lattice", str(demo_lattice_path()), "--external", str(ext), "--n", "1"]
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    assert strict_json(out) == [{"combined": "-inf", "text": "合共九千九百萬元"}]
    code, text_out, _ = run(capsys, *argv)
    assert code == 0 and text_out == "合共九千九百萬元\n"


def test_rescore_external_leaves_a_zero_weight_term_out(tmp_path, capsys):
    # 0 * -inf is nan: at weight 1 the -inf external score must not reach the total
    ext = tmp_path / "scores.tsv"
    ext.write_text("合 共 九 千 九 百 萬 元\t-inf\n", encoding="utf-8")
    lattice = ["--lattice", str(demo_lattice_path()), "--n", "1"]
    code, out, _ = run(capsys, "--json", "nbest", *lattice)
    assert code == 0
    own = strict_json(out)[0]["combined"]
    argv = ["--json", "rescore", *lattice, "--external", str(ext), "--interpolation"]
    code, out, _ = run(capsys, *argv, "1.0")
    assert code == 0
    assert strict_json(out) == [{"combined": own, "text": "合共九千九百萬元"}] and own == -48.0
    code, out, _ = run(capsys, *argv, "0.0")
    assert code == 0
    assert strict_json(out) == [{"combined": "-inf", "text": "合共九千九百萬元"}]


@pytest.mark.parametrize(
    "bad, why",
    [("合 共 九 千 九 百 萬 元\tnan", "NaN or +inf score"), ("合 共 九 千 九 百 萬 元 -2.0", "TAB")],
    ids=["nan", "no_tab"],
)
def test_rescore_external_bad_scores_name_the_line(tmp_path, capsys, bad, why):
    ext = tmp_path / "scores.tsv"
    ext.write_text(f"合 共 九 千 九 百 萬 圓\t-1.0\n\n{bad}\n", encoding="utf-8")
    code, out, err = run(
        capsys, "--json", "rescore", "--lattice", str(demo_lattice_path()),
        "--external", str(ext), "--n", "1",
    )
    assert code == 2 and out == ""
    assert "scores.tsv:3: " in err and why in err


def test_rescore_external_refuses_a_word_sequence_scored_twice(tmp_path, capsys):
    ext = tmp_path / "scores.tsv"
    ext.write_text(
        "合 共 九 千 九 百 萬 元\t-1.0\n合 共 九 遷 九 百 萬 元\t-2.0\n"
        "合 共 九 千 九 白 萬 元\t-3.0\n合  共 九 千 九 百 萬 元\t-40.0\n",
        encoding="utf-8",
    )
    code, out, err = run(
        capsys, "--json", "rescore", "--lattice", str(demo_lattice_path()), "--n", "3",
        "--external", str(ext), "--interpolation", "0.0",
    )
    assert code == 2 and out == ""
    assert "scores.tsv:4: " in err and "repeated (first on line 1)" in err


def test_score_wer_identical_files(tmp_path, capsys):
    ref = tmp_path / "r.txt"
    hyp = tmp_path / "h.txt"
    for p in (ref, hyp):
        p.write_text("天氣好\n香港人\n", encoding="utf-8")
    code, out, _ = run(capsys, "score", "wer", "--ref", str(ref), "--hyp", str(hyp))
    assert code == 0
    assert "rate 0.0000" in out


def test_score_classify(tmp_path, capsys):
    (tmp_path / "r.txt").write_text("甲\n乙\n", encoding="utf-8")
    (tmp_path / "a.txt").write_text("甲\n丙\n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("甲\n乙\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "--json", "score", "classify", "--ref", str(tmp_path / "r.txt"),
        "--hyp-a", str(tmp_path / "a.txt"), "--hyp-b", str(tmp_path / "b.txt"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["errors_a_only"] == 1 and payload["correct_b"] == 2


def test_score_classify_follows_score_wers_whitespace_rule(tmp_path, capsys):
    # hypotheses spaced into words, as another recognizer writes them
    (tmp_path / "r.txt").write_text("合共九千\n香港人\n", encoding="utf-8")
    (tmp_path / "a.txt").write_text("合共 九千\n香港 人\n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("合共九千\n香港仁\n", encoding="utf-8")
    ref, hyp_a, hyp_b = (str(tmp_path / f"{n}.txt") for n in "rab")
    code, out, _ = run(capsys, "score", "wer", "--ref", ref, "--hyp", hyp_a)
    assert code == 0
    assert out.startswith("rate 0.0000 ") and "N=7" in out
    code, out, _ = run(capsys, "score", "classify", "--ref", ref, "--hyp-a", hyp_a, "--hyp-b", hyp_b)
    assert code == 0
    lines = [line.split() for line in out.splitlines()]
    assert ["Correct", "sentences", "2", "1"] in lines
    assert ["Errors", "in", "A", "only", "0"] in lines
    assert ["Errors", "in", "B", "only", "1"] in lines


BOM_TEXT = b"\xef\xbb\xbf" + "合共九千\n香港人\n".encode()


def test_score_wer_reads_a_byte_order_mark_as_nothing(tmp_path, capsys):
    ref = tmp_path / "r.txt"
    ref.write_bytes(BOM_TEXT)
    hyp = tmp_path / "h.txt"
    hyp.write_text("合共九千\n香港人\n", encoding="utf-8")
    code, out, _ = run(capsys, "score", "wer", "--ref", str(ref), "--hyp", str(hyp))
    assert code == 0
    assert "(0.00%)" in out and "N=7" in out


def test_lm_train_reads_a_byte_order_mark_as_nothing(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_bytes(BOM_TEXT)
    arpa = tmp_path / "lm.arpa"
    code, _, _ = run(
        capsys, "lm", "train", "--corpus", str(corpus), "--order", "2", "--out", str(arpa)
    )
    assert code == 0
    text = arpa.read_text(encoding="utf-8")
    assert "\ufeff" not in text and "<s> 合" in text


def test_score_wer_reads_an_empty_line_as_the_empty_hypothesis(tmp_path, capsys):
    # a failed decode is written as an empty line (evaluate.hypothesis_texts)
    (tmp_path / "r.txt").write_text("甲\n乙\n丙\n", encoding="utf-8")
    (tmp_path / "h.txt").write_text("甲\n\n丙\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "score", "wer", "--ref", str(tmp_path / "r.txt"), "--hyp", str(tmp_path / "h.txt")
    )
    assert code == 0
    assert "S=0 I=0 D=1 N=3" in out


def test_score_wer_counts_a_blank_hypothesis_line_as_an_utterance(tmp_path, capsys):
    (tmp_path / "r.txt").write_text("甲\n乙\n丙\n", encoding="utf-8")
    (tmp_path / "h.txt").write_text("甲\n\n乙\n丙\n", encoding="utf-8")
    code, out, err = run(
        capsys, "score", "wer", "--ref", str(tmp_path / "r.txt"), "--hyp", str(tmp_path / "h.txt")
    )
    assert code == 2 and out == ""
    assert "3 references but 4 hypotheses" in err


@pytest.mark.parametrize("command", ["wer", "classify", "sweep"])
def test_an_empty_reference_line_is_a_data_error(tmp_path, capsys, command):
    refs = tmp_path / "r.txt"
    refs.write_text("香港\n\n", encoding="utf-8")
    hyps = tmp_path / "h.txt"
    hyps.write_text("香港\n\n", encoding="utf-8")
    if command == "wer":
        argv = ["score", "wer", "--ref", str(refs), "--hyp", str(hyps)]
    elif command == "classify":
        argv = ["score", "classify", "--ref", str(refs), "--hyp-a", str(hyps), "--hyp-b", str(hyps)]
    else:
        arpa = tmp_path / "lm.arpa"
        run(capsys, "lm", "train", "--corpus", str(DATA / "demo_corpus.txt"),
            "--order", "2", "--out", str(arpa))
        scores = [str(tmp_path / f"{i}.fscr") for i in range(2)]
        for path in scores:
            run(capsys, "simulate", "--text", "香港", "--out", path)
        argv = ["sweep", "--lm", str(arpa), "--scores", *scores, "--refs", str(refs)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"{refs}:2: empty reference line" in err


def test_experiment_cli_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "num_seeds = 2\nnum_utterances = 6\nwords_per_utterance = 3\n",
        encoding="utf-8",
    )
    for name in ("run1", "run2"):
        code, out, _ = run(
            capsys, "--json", "--seed", "7", "experiment", "onc-vs-if",
            "--config", str(cfg), "--out", str(tmp_path / name),
        )
        assert code == 0
        json.loads(out)  # stdout payload is parseable JSON
    assert (tmp_path / "run1/report.json").read_bytes() == (
        tmp_path / "run2/report.json"
    ).read_bytes()


def test_experiment_files_write_an_infinite_beam_as_a_string(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(
        "num_seeds = 1\nnum_utterances = 2\nwords_per_utterance = 2\n"
        "beam = inf\nsweep_beams = inf\n",
        encoding="utf-8",
    )
    code, _, err = run(
        capsys, "--seed", "7", "experiment", "onc-vs-if",
        "--config", str(cfg), "--out", str(tmp_path / "out"),
    )
    assert code == 0, err
    report, sweep, timing = (
        strict_json((tmp_path / "out" / name).read_text(encoding="utf-8"))
        for name in ("report.json", "sweep.json", "timing.json")
    )
    assert report["params"]["beam"] == "inf"
    assert [c["beam"] for cells in sweep.values() for c in cells] == ["inf", "inf"]
    assert [c["beam"] for cells in timing["sweep"].values() for c in cells] == ["inf", "inf"]


def test_experiment_repeated_config_key_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("num_seeds = 2\nnum_seeds = 3\n", encoding="utf-8")
    code, out, err = run(
        capsys, "--seed", "7", "experiment", "onc-vs-if",
        "--config", str(cfg), "--out", str(tmp_path / "out"),
    )
    assert code == 2 and out == ""
    assert "twice.cfg:2: config key 'num_seeds' repeated (first on line 1)" in err
    assert not (tmp_path / "out").exists()


def test_merge_rule_outside_the_inventory_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "merge.cfg"
    cfg.write_text("merge_rules = t>k,n>ng\n", encoding="utf-8")
    code, out, err = run(
        capsys, "--seed", "7", "experiment", "onc-vs-if",
        "--config", str(cfg), "--out", str(tmp_path / "out"),
    )
    assert code == 2 and out == ""
    assert "merge rule 't>k,n>ng' names unknown coda 'k,n>ng'" in err
    assert not (tmp_path / "out").exists()
    code, out, err = run(capsys, "lexicon", "stats", "--scheme", "if", "--merge", "t>k,n>ng")
    assert code == 2 and out == ""
    assert "merge rule 't>k,n>ng'" in err


def test_merge_rule_that_rewrites_no_final_is_data_error(tmp_path, capsys):
    out_dir = tmp_path / "lex"
    code, out, err = run(
        capsys, "lexicon", "compile", "--scheme", "onc", "--merge", "ng>n@yu", "--out", str(out_dir)
    )
    assert code == 2 and out == ""
    assert "merge rule 'ng>n@yu' rewrites no final of the inventory" in err
    assert not out_dir.exists()
    cfg = tmp_path / "merge.cfg"
    cfg.write_text("merge_rules = t>k;t>p\n", encoding="utf-8")
    code, out, err = run(
        capsys, "--seed", "7", "experiment", "onc-vs-if",
        "--config", str(cfg), "--out", str(tmp_path / "out"),
    )
    assert code == 2 and out == ""
    assert "merge rule 't>p' rewrites no final of the inventory" in err
    assert not (tmp_path / "out").exists()


def test_merge_rule_with_an_empty_nucleus_filter_is_data_error(tmp_path, capsys):
    out_dir = tmp_path / "lex"
    code, out, err = run(
        capsys, "lexicon", "compile", "--scheme", "if", "--merge", "t>k@,", "--out", str(out_dir)
    )
    assert code == 2 and out == ""
    assert "bad merge rule 't>k@,'" in err
    assert not out_dir.exists()


def test_merge_to_a_final_the_scheme_lacks_names_the_word_and_rules(capsys):
    # IF has no final yuk, so t>k fails on 月 jyut6; ONC splits nucleus and coda
    code, out, err = run(capsys, "lexicon", "stats", "--scheme", "if", "--merge", "t>k")
    assert code == 2 and out == ""
    assert (
        "word '月': bad syllable 'jyut6' under merge rules 't>k': "
        "no final decomposes to nucleus 'yu' + coda 'k'"
    ) in err
    code, out, err = run(capsys, "--json", "lexicon", "stats", "--scheme", "onc", "--merge", "t>k")
    assert code == 0
    assert json.loads(out)["entries"] == 316


def test_json_outputs_parse_and_logs_on_stderr(tmp_path, capsys):
    code, out, err = run(capsys, "--json", "lexicon", "stats")
    assert code == 0
    json.loads(out)


def test_every_package_exception_is_a_data_error():
    found = []
    for info in pkgutil.iter_modules(cantoasr.__path__):
        module = importlib.import_module(f"cantoasr.{info.name}")
        found += [
            obj
            for obj in vars(module).values()
            if isinstance(obj, type)
            and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        ]
    assert len(found) >= 10  # the ten typed errors
    assert [c.__name__ for c in found if not issubclass(c, DataError)] == []


def test_a_bug_is_not_a_data_error(monkeypatch):
    def bug(*args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "parse_jyutping", bug)
    with pytest.raises(KeyError, match="bug"):
        main(["parse", "ling4"])


@pytest.mark.parametrize(
    "argv, option",
    [
        (["simulate", "--text", "香港", "--out", "x.fscr", "--frames-per-state", "3"],
         "--frames-per-state"),
        (["sweep", "--lm", "lm.arpa", "--scores", "x.fscr", "--refs", "r.txt", "--beams", "x"],
         "--beams"),
        (["rescore", "--lattice", "x.lat"], "--external"),
        (["lm", "interpolate", "--model-a", "a.arpa", "--model-b", "b.arpa", "--out", "m.arpa"],
         "--tune"),
    ],
    ids=["frames_per_state", "beams", "rescore", "interpolate"],
)
def test_usage_errors_exit_1_naming_the_option(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    last = err.strip().splitlines()[-1]
    assert last.startswith("error: ") and option in last


def test_non_utf8_file_is_a_data_error(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_bytes(b"\xff\xfe\n")
    code, out, err = run(
        capsys, "lm", "train", "--corpus", str(corpus), "--out", str(tmp_path / "lm.arpa")
    )
    assert code == 2 and out == ""
    assert "utf-8" in err and str(corpus) in err
    # a reader that holds the whole file, with the bad byte past a valid header
    lat = tmp_path / "x.lat"
    lat.write_bytes(b"LATTICE v1\nnode 0 0\nstart 0\n# \xe9t\xe9\n")
    code, out, err = run(capsys, "nbest", "--lattice", str(lat))
    assert code == 2 and out == ""
    assert "utf-8" in err and str(lat) in err


# each reader with a file whose bytes after the first line are not UTF-8,
# and its format's error type
NON_UTF8_READERS = {
    "arpa": (read_arpa, "m.arpa", b"\\data\\\n\xff\n", ArpaFormatError),
    "lattice": (read_lattice, "m.lat", b"LATTICE v1\n# \xe9t\xe9\n", LatticeFormatError),
    "external_scores": (read_external_scores, "s.txt", b"a\t-1.0\n\xff\n", LatticeFormatError),
    "fscr_labels": (read_scores, "m.fscr", b"a\n\xffb\n", ScoreFormatError),
    "lexicon": (read_lexicon, "lex.txt", b"a\tjat1\n\xff\n", LexiconError),
    "inventory": (load_inventory, "inv.txt", b"#onsets\n\xff\n", InventoryError),
    "experiment_config": (load_experiment_config, "e.cfg", b"seed = 1\n\xff\n", ExperimentError),
}


@pytest.mark.parametrize("reader", sorted(NON_UTF8_READERS))
def test_non_utf8_input_raises_the_formats_own_error(tmp_path, reader):
    read, name, data, error = NON_UTF8_READERS[reader]
    path = bad = tmp_path / name
    if reader == "fscr_labels":  # a valid matrix; its sidecar holds the bad bytes
        write_scores(path, MatrixScorer(np.zeros((1, 2)), ("a", "b")))
        bad = Path(f"{path}.labels")
    bad.write_bytes(data)
    with pytest.raises(error) as info:
        read(path)
    assert str(info.value).startswith(f"{bad}: not utf-8 text (")
