"""Mutated ARPA and lattice files: a reader either loads one or raises its typed error."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cantoasr.lattice import LatticeFormatError, demo_lattice_path, read_lattice
from cantoasr.ngram import ArpaFormatError, read_arpa, train_ngram, write_arpa

# what a mutation writes: the formats' own keywords and values that an
# int or float parse reads oddly
TOKENS = [
    "", " ", "\t", "#", "-", "=", "-inf", "inf", "nan", "-0.0", "1e999", "-1e-320", "0x10",
    "\\data\\", "\\end\\", "\\1-grams:", "\\2-grams:", "\\3-grams:", "\\0-grams:",
    "\\x-grams:", "\\-grams:", "ngram", "ngram 1=1", "ngram 2=0", "ngram 4=1", "ngram 1=x",
    "<s>", "</s>", "<unk>", "LATTICE v1", "node", "start", "final", "arc", "-1", "0", "12",
    "99999999999999999999", "1.5", "合", "é", " ",
]


def mutate(text: str, rnd) -> str:
    """``text`` after one to three line or field edits drawn from ``rnd``."""
    for _ in range(rnd.randint(1, 3)):
        lines = text.split("\n")
        a, b = rnd.randrange(len(lines)), rnd.randrange(len(lines))
        op = rnd.choice(["delete", "repeat", "swap", "field", "field", "field", "insert", "cut"])
        token = rnd.choice(TOKENS)
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


def check_reader(tmp_path, text, reader, error):
    path = tmp_path / "mutated"

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(rnd=st.randoms(use_true_random=False))
    def mutated(rnd):
        path.write_text(mutate(text, rnd), encoding="utf-8")
        try:
            reader(path)
        except error:
            pass

    mutated()


def test_mutated_arpa_loads_or_raises_arpa_format_error(tmp_path):
    model = train_ngram([["a", "b", "c", "a"], ["b", "b", "d"], ["c", "a"]], 3)
    write_arpa(model, tmp_path / "valid.arpa")
    text = (tmp_path / "valid.arpa").read_text(encoding="utf-8")
    check_reader(tmp_path, text, read_arpa, ArpaFormatError)


def test_mutated_lattice_loads_or_raises_lattice_format_error(tmp_path):
    text = demo_lattice_path().read_text(encoding="utf-8")
    check_reader(tmp_path, text, read_lattice, LatticeFormatError)
