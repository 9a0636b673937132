"""Mutated ARPA, lattice, experiment-config, FSCR, lexicon, inventory and
external-score files: a reader either loads one or raises its typed error."""

import math
import struct
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cantoasr.decoder import MatrixScorer, ScoreFormatError, read_scores, write_scores
from cantoasr.experiment import ExperimentError, load_experiment_config
from cantoasr.lattice import (
    LatticeFormatError,
    demo_lattice_path,
    read_external_scores,
    read_lattice,
)
from cantoasr.lexicon import LexiconError, compile_lexicon, demo_lexicon_path, read_lexicon
from cantoasr.ngram import ArpaFormatError, read_arpa, train_ngram, write_arpa
from cantoasr.phonology import (
    SCHEME_IF,
    SCHEME_ONC,
    InventoryError,
    default_inventory,
    default_inventory_path,
    load_inventory,
)

# what a mutation writes: the formats' own keywords and values that an
# int or float parse reads oddly
TOKENS = [
    "", " ", "\t", "#", "-", "=", "-inf", "inf", "nan", "-0.0", "1e999", "-1e-320", "0x10",
    "\\data\\", "\\end\\", "\\1-grams:", "\\2-grams:", "\\3-grams:", "\\0-grams:",
    "\\x-grams:", "\\-grams:", "ngram", "ngram 1=1", "ngram 2=0", "ngram 4=1", "ngram 1=x",
    "<s>", "</s>", "<unk>", "LATTICE v1", "node", "start", "final", "arc", "-1", "0", "12",
    "99999999999999999999", "1.5", "合", "é", " ",
]
# values the experiment config reads oddly: a NUL byte in a path, a reversed pair
CONFIG_VALUES = [
    "\x00", "a\x00b.txt", "nan", "inf", "-1", "0", "1:0", "3:1", ":", "", "x", "1e999",
    "99999999999999999999", "t>k", ",",
]
# with its keys, so that an edit can repeat one
CONFIG_TOKENS = TOKENS + CONFIG_VALUES + ["seed", "lexicon", "seed = 1", "out_dir = a\x00b"]


def mutate(text: str, rnd, tokens=TOKENS) -> str:
    """``text`` after one to three line or field edits drawn from ``rnd``."""
    for _ in range(rnd.randint(1, 3)):
        lines = text.split("\n")
        a, b = rnd.randrange(len(lines)), rnd.randrange(len(lines))
        op = rnd.choice(["delete", "repeat", "swap", "field", "field", "field", "insert", "cut"])
        token = rnd.choice(tokens)
        if op == "delete":
            del lines[a]
        elif op == "repeat":
            lines.insert(b, lines[a])
        elif op == "swap":
            lines[a], lines[b] = lines[b], lines[a]
        elif op == "field":  # replace, drop or add one whitespace-separated field
            sep = "\t" if "\t" in lines[a] else " "
            fields = lines[a].split(sep)
            k = rnd.randrange(len(fields))
            fields[k : k + 1] = rnd.choice([[token], [], [token, fields[k]]])
            lines[a] = sep.join(fields)
        elif op == "insert":
            lines.insert(a, token)
        else:  # cut the file at a character
            lines = [text[: rnd.randrange(len(text) + 1)]]
        text = "\n".join(lines)
    return text


def check_reader(tmp_path, write, reader, error, check_loaded=None):
    """``reader`` on 200 files that ``write(path, rnd)`` makes: each loads or
    raises ``error``.  ``check_loaded(path, result)`` vets what loads."""
    path = tmp_path / "mutated"

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(rnd=st.randoms(use_true_random=False))
    def mutated(rnd):
        write(path, rnd)
        try:
            result = reader(path)
        except error:
            return
        if check_loaded is not None:
            check_loaded(path, result)

    mutated()


def write_mutated_text(text, tokens=TOKENS):
    return lambda path, rnd: path.write_text(mutate(text, rnd, tokens), encoding="utf-8")


def test_mutated_arpa_loads_or_raises_arpa_format_error(tmp_path):
    model = train_ngram([["a", "b", "c", "a"], ["b", "b", "d"], ["c", "a"]], 3)
    write_arpa(model, tmp_path / "valid.arpa")
    text = (tmp_path / "valid.arpa").read_text(encoding="utf-8")

    def writes_back(path, model):
        # a model that loads writes a file that reads back with the same n-grams
        # and values: writing the read-back model gives the same bytes
        write_arpa(model, tmp_path / "back.arpa")
        back = read_arpa(tmp_path / "back.arpa")
        assert back.logprob.keys() == model.logprob.keys()
        write_arpa(back, tmp_path / "again.arpa")
        assert (tmp_path / "again.arpa").read_bytes() == (tmp_path / "back.arpa").read_bytes()

    check_reader(tmp_path, write_mutated_text(text), read_arpa, ArpaFormatError, writes_back)


def test_mutated_lattice_loads_or_raises_lattice_format_error(tmp_path):
    text = demo_lattice_path().read_text(encoding="utf-8")
    check_reader(tmp_path, write_mutated_text(text), read_lattice, LatticeFormatError)


def mutate_config(text: str, rnd) -> str:
    """``text`` after ``mutate``'s edits, or with one setting's value replaced."""
    if rnd.random() < 0.5:
        return mutate(text, rnd, CONFIG_TOKENS)
    lines = text.split("\n")
    at = rnd.choice([i for i, line in enumerate(lines) if "=" in line and line[0] != "#"])
    lines[at] = f"{lines[at].partition('=')[0]}= {rnd.choice(CONFIG_VALUES)}"
    return "\n".join(lines)


def test_mutated_experiment_config_loads_or_raises_experiment_error(tmp_path):
    demo = Path(__file__).parent.parent / "src/cantoasr/data/demo_experiment.cfg"
    text = demo.read_text(encoding="utf-8")

    def write(path, rnd):
        path.write_text(mutate_config(text, rnd), encoding="utf-8")

    check_reader(tmp_path, write, load_experiment_config, ExperimentError)


# what a byte edit writes into a header word or a score cell
HEADER_WORDS = [0, 1, 2, 3, 4, 5, 6, 7, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF]
CELLS = [np.nan, np.inf, -np.inf, -0.0, 1e-45, -3.4e38, 3.4e38]


def mutate_fscr(data: bytes, rnd) -> bytes:
    """An FSCR file after one to three edits: a header word, a score cell, a
    magic byte, a cut or appended bytes."""
    data = bytearray(data)
    for _ in range(rnd.randint(1, 3)):
        op = rnd.choice(["header", "header", "cell", "cell", "magic", "cut", "append"])
        if op == "header":  # the frame or the label count
            at = rnd.choice((4, 8))
            data[at : at + 4] = struct.pack("<I", rnd.choice(HEADER_WORDS))
        elif op == "cell" and len(data) >= 16:
            at = 12 + 4 * rnd.randrange((len(data) - 12) // 4)
            data[at : at + 4] = struct.pack("<f", rnd.choice(CELLS))
        elif op == "magic" and data:
            data[rnd.randrange(min(4, len(data)))] = rnd.randrange(256)
        elif op == "cut":
            del data[rnd.randrange(len(data) + 1) :]
        elif op == "append":
            data += bytes(rnd.randrange(256) for _ in range(rnd.choice((1, 3, 4, 8, 12))))
    return bytes(data)


def test_mutated_fscr_loads_or_raises_score_format_error(tmp_path):
    labels = ("a", "b#0", "合", "sil")
    rng = np.random.default_rng(3)
    write_scores(tmp_path / "valid.fscr", MatrixScorer(-rng.random((3, len(labels))), labels))
    data = (tmp_path / "valid.fscr").read_bytes()
    sidecar = (tmp_path / "valid.fscr.labels").read_text(encoding="utf-8")

    def write(path, rnd):
        path.write_bytes(mutate_fscr(data, rnd) if rnd.random() < 0.8 else data)
        labels_path = Path(f"{path}.labels")
        labels_path.unlink(missing_ok=True)
        if rnd.random() < 0.95:  # else the sidecar is missing
            text = mutate(sidecar, rnd) if rnd.random() < 0.4 else sidecar
            labels_path.write_text(text, encoding="utf-8")

    def writes_back(path, scorer):
        # a file that loads holds exactly the matrix it loads as
        write_scores(tmp_path / "back.fscr", scorer)
        assert (tmp_path / "back.fscr").read_bytes() == path.read_bytes()

    check_reader(tmp_path, write, read_scores, ScoreFormatError, writes_back)


# syllables and segments the lexicon and inventory readers parse: valid, out
# of the inventory, a bad tone, a syllabic nasal, a section header
SEGMENT_TOKENS = TOKENS + [
    "baat3", "baat7", "baat0", "ng5", "m4", "hm4", "zzz1", "令狐", "aa", "k", "ng", "y",
    "#onsets", "#nuclei", "#codas", "#finals", "aak\taa\tk", "ik\ti\tk", "a\t-\t-",
]


def test_mutated_lexicon_compiles_or_raises_lexicon_error(tmp_path):
    text = demo_lexicon_path().read_text(encoding="utf-8")

    def compiles(path):
        entries = read_lexicon(path)
        for scheme in (SCHEME_IF, SCHEME_ONC):
            compile_lexicon(entries, scheme, default_inventory())

    check_reader(tmp_path, write_mutated_text(text, SEGMENT_TOKENS), compiles, LexiconError)


def test_mutated_inventory_loads_or_raises_inventory_error(tmp_path):
    text = default_inventory_path().read_text(encoding="utf-8")
    write = write_mutated_text(text, SEGMENT_TOKENS)
    check_reader(tmp_path, write, load_inventory, InventoryError)


def test_mutated_external_scores_load_or_raise_lattice_format_error(tmp_path):
    text = "\t-0.5\n好\t-1.0\n好 天\t-2.5\n天 好 天\t-inf\n命令\t-3.25\n"

    def scores_are_finite_or_minus_inf(path, scores):
        assert all(isinstance(v, float) and v < math.inf for v in scores.values())

    check_reader(
        tmp_path,
        write_mutated_text(text),
        read_external_scores,
        LatticeFormatError,
        scores_are_finite_or_minus_inf,
    )
