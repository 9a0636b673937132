import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import cantoasr
from cantoasr import DataError, cli
from cantoasr.cli import main
from cantoasr.lattice import demo_lattice_path

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
    # a duration is drawn below hi + 1, which must fit an int64
    code, out, err = run(
        capsys, "simulate", "--text", "香港", "--out", str(tmp_path / "x.fscr"),
        "--frames-per-state", "1:99999999999999999999",
    )
    assert code == 2 and out == ""
    assert "frames_per_state" in err


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
    code, out, _ = run(
        capsys, "--json", "rescore", "--lattice", str(lat), "--lm", str(lm4),
        "--out", str(tmp_path / "rescored.lat"),
    )
    assert code == 0
    assert json.loads(out)["text"] == "奶有乳糖"


def test_rescore_external_cli(tmp_path, capsys):
    ext = tmp_path / "scores.tsv"
    ext.write_text("合 共 九 千 九 百 萬 元\t-1.0\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "--json", "rescore", "--lattice", str(demo_lattice_path()),
        "--external", str(ext), "--n", "1", "--interpolation", "1.0",
    )
    assert code == 0
    assert json.loads(out)[0]["text"] == "合共九千九百萬元"


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
