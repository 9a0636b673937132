"""Word lexicon compilation into phone sequences under either scheme.

The input lexicon maps a Chinese word to one or more Jyutping
pronunciations, one syllable per character.  ``compile_lexicon`` turns it
into a ``PhoneLexicon``: per-word phone label sequences plus the phone set,
which downstream modules use to build the recognizer search graph.
"""

from dataclasses import dataclass, field
from pathlib import Path

from . import DataError, open_text
from .phonology import (
    Inventory,
    JyutpingError,
    MergeRuleSet,
    Phone,
    apply_merge,
    parse_jyutping,
    to_phones,
)


class LexiconError(DataError):
    pass


@dataclass(frozen=True)
class LexiconEntry:
    """One word with its pronunciations (syllable-string tuples)."""

    word: str
    pronunciations: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.pronunciations:
            raise LexiconError(f"word {self.word!r} has no pronunciation")
        for pron in self.pronunciations:
            if len(pron) != len(self.word):
                raise LexiconError(
                    f"word {self.word!r} has {len(self.word)} characters but "
                    f"pronunciation {' '.join(pron)!r} has {len(pron)} syllables"
                )


@dataclass
class PhoneLexicon:
    """Compiled lexicon: word -> phone sequences, plus the phone alphabet."""

    scheme: str
    entries: dict[str, tuple[tuple[Phone, ...], ...]] = field(default_factory=dict)

    @property
    def phone_set(self) -> frozenset[Phone]:
        return frozenset(
            p for prons in self.entries.values() for pron in prons for p in pron
        )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(sorted({p.label for p in self.phone_set}))


def read_lexicon(path: str | Path) -> list[LexiconEntry]:
    """Read ``word<TAB>syl1 syl2 ...`` lines, merging repeated words."""
    path = Path(path)
    prons: dict[str, list[tuple[str, ...]]] = {}
    order: list[str] = []
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise LexiconError(
                    f"{path}:{lineno}: expected 'word<TAB>syllables', got {line!r}"
                )
            word, syls = fields[0].strip(), tuple(fields[1].split())
            if not word or not syls:
                raise LexiconError(f"{path}:{lineno}: empty word or pronunciation")
            if word not in prons:
                prons[word] = []
                order.append(word)
            if syls not in prons[word]:
                prons[word].append(syls)
    return [LexiconEntry(w, tuple(prons[w])) for w in order]


def compile_lexicon(
    entries: list[LexiconEntry],
    scheme: str,
    inv: Inventory,
    merges: MergeRuleSet | None = None,
) -> PhoneLexicon:
    """Expand every pronunciation into a phone sequence.

    Each distinct syllable is parsed, optionally coda-merged, then
    decomposed under the chosen scheme once, the first time a word uses it;
    a bad syllable's error names that word.  Duplicate phone sequences per
    word are dropped.
    """
    lex = PhoneLexicon(scheme=scheme)
    syllable_phones: dict[str, tuple[Phone, ...]] = {}
    for entry in entries:
        seqs: list[tuple[Phone, ...]] = []
        for pron in entry.pronunciations:
            phones: list[Phone] = []
            for syl_text in pron:
                expanded = syllable_phones.get(syl_text)
                if expanded is None:
                    try:
                        syl = parse_jyutping(syl_text, inv)
                    except JyutpingError as exc:
                        raise LexiconError(
                            f"word {entry.word!r}: bad syllable {syl_text!r}: {exc}"
                        ) from exc
                    if merges is not None:
                        syl = apply_merge(syl, merges)
                    expanded = syllable_phones[syl_text] = to_phones(syl, scheme, inv)
                phones.extend(expanded)
            seq = tuple(phones)
            if seq not in seqs:
                seqs.append(seq)
        if entry.word in lex.entries:
            merged = list(lex.entries[entry.word])
            merged.extend(s for s in seqs if s not in merged)
            lex.entries[entry.word] = tuple(merged)
        else:
            lex.entries[entry.word] = tuple(seqs)
    return lex


@dataclass(frozen=True)
class LexiconStats:
    entries: int
    variants: int
    phone_set_size: int

    def __str__(self) -> str:
        return (
            f"entries={self.entries} variants={self.variants} "
            f"phones={self.phone_set_size}"
        )


def lexicon_stats(lex: PhoneLexicon) -> LexiconStats:
    """Variant count is total pronunciations minus distinct words."""
    total = sum(len(prons) for prons in lex.entries.values())
    return LexiconStats(
        entries=len(lex.entries),
        variants=total - len(lex.entries),
        phone_set_size=len(lex.labels),
    )


def write_phone_lexicon(lex: PhoneLexicon, out_dir: str | Path) -> tuple[Path, Path]:
    """Emit ``lexicon.txt`` and ``phones.txt``, bit-stable ordering.

    ``lexicon.txt`` holds ``word<TAB>label label ...``, one pronunciation per
    line, sorted by word then label sequence; ``phones.txt`` one label per
    line, sorted.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for word in sorted(lex.entries):
        prons = sorted(" ".join(p.label for p in pron) for pron in lex.entries[word])
        for pron in prons:
            lines.append(f"{word}\t{pron}")
    lex_path = out_dir / "lexicon.txt"
    lex_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    phones_path = out_dir / "phones.txt"
    phones_path.write_text("\n".join(lex.labels) + "\n", encoding="utf-8")
    return lex_path, phones_path


def demo_lexicon_path() -> Path:
    return Path(__file__).parent / "data" / "demo_lexicon.txt"
