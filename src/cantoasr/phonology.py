"""Jyutping phonology: syllable parsing, rendering, and phone decomposition.

A written Jyutping syllable is an optional onset, a final, and one tone
digit 1..6.  Two decompositions of the same syllable are supported as
acoustic-unit schemes:

* ``if`` (initial/final): one optional initial plus a single tone-carrying
  final unit, e.g. ``ling4`` -> ``l ing4``.
* ``onc`` (onset/nucleus/coda): the final is split into a vowel nucleus and
  an optional consonant coda, both carrying the syllable tone,
  e.g. ``ling4`` -> ``l i4 _ng4``.

The segment inventory (onsets, nuclei, codas, and the final -> nucleus+coda
decomposition table) lives in a TSV data file rather than in code, so
phonetic corrections never require a code change.  ``load_inventory``
validates the file against the expected cardinalities (20 onsets including
the null onset, 15 nuclei, 9 codas, 53 finals) and referential integrity.
"""

from dataclasses import dataclass, field, replace
from functools import cache
from pathlib import Path

from . import DataError, open_text

SCHEME_IF = "if"
SCHEME_ONC = "onc"
SCHEMES = (SCHEME_IF, SCHEME_ONC)

NULL_MARK = "-"

TONES = (1, 2, 3, 4, 5, 6)

EXPECTED_ONSETS = 20  # including the null onset
EXPECTED_NUCLEI = 15
EXPECTED_CODAS = 9  # non-null codas
EXPECTED_FINALS = 53


class InventoryError(DataError):
    """Raised when an inventory file is malformed or violates cardinalities."""


class JyutpingError(DataError):
    """Raised when a syllable string cannot be parsed.

    ``reason`` is one of ``"unknown-syllable"``, ``"invalid-tone"``,
    ``"empty-input"``.
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class Syllable:
    """A parsed Jyutping syllable.  The nucleus is mandatory."""

    onset: str | None
    nucleus: str
    coda: str | None
    tone: int

    def __post_init__(self):
        if self.tone not in TONES:
            raise ValueError(f"tone must be in 1..6, got {self.tone!r}")
        if not self.nucleus:
            raise ValueError("nucleus is mandatory")


@dataclass(frozen=True)
class Phone:
    """One acoustic-model unit under either scheme, which its ``kind`` implies.

    Initials and onsets are toneless; finals, nuclei and codas carry the
    syllable tone.  ``label`` gives the text encoding used in lexicon and
    scorer files: onsets/initials bare, nuclei and finals ``<base><tone>``,
    codas ``_<base><tone>``.  It is fixed at construction, and equality,
    hashing and ``repr`` leave it out, as they would a derived value.
    ``to_if`` and ``to_onc`` share one object per unit, so equal phones from
    one compile are one object.
    """

    kind: str  # "initial" | "final" (IF) | "onset" | "nucleus" | "coda" (ONC)
    base: str
    tone: int | None = None
    label: str = field(init=False, compare=False, repr=False)

    _TONELESS = ("initial", "onset")
    _TONED = ("final", "nucleus", "coda")

    def __post_init__(self):
        if self.kind in self._TONELESS:
            if self.tone is not None:
                raise ValueError(f"{self.kind} phones carry no tone")
            label = self.base
        elif self.kind in self._TONED:
            if self.tone not in TONES:
                raise ValueError(f"{self.kind} phones need a tone in 1..6")
            label = f"_{self.base}{self.tone}" if self.kind == "coda" else f"{self.base}{self.tone}"
        else:
            raise ValueError(f"unknown phone kind {self.kind!r}")
        # the dataclass is frozen
        object.__setattr__(self, "label", label)


class Inventory:
    """Immutable segment inventory with the final decomposition table.

    ``onsets`` includes the explicit null marker ``-``; ``codas`` holds only
    real codas (the null coda is written ``-`` in the finals table).
    """

    def __init__(
        self,
        onsets: frozenset[str],
        nuclei: frozenset[str],
        codas: frozenset[str],
        finals: dict[str, tuple[str, str | None]],
    ):
        self.onsets = frozenset(onsets)
        self.nuclei = frozenset(nuclei)
        self.codas = frozenset(codas)
        self.finals = dict(finals)
        self._validate()
        self._by_parts = {parts: f for f, parts in self.finals.items()}
        self._onset_lens = sorted({len(o) for o in self.onsets}, reverse=True)

    def _validate(self):
        if len(self.onsets) != EXPECTED_ONSETS:
            raise InventoryError(
                f"cardinality mismatch: onsets (incl. null) must be "
                f"{EXPECTED_ONSETS}, got {len(self.onsets)}"
            )
        if NULL_MARK not in self.onsets:
            raise InventoryError("onsets must include the explicit null onset '-'")
        if len(self.nuclei) != EXPECTED_NUCLEI:
            raise InventoryError(
                f"cardinality mismatch: nuclei must be {EXPECTED_NUCLEI}, "
                f"got {len(self.nuclei)}"
            )
        if len(self.codas) != EXPECTED_CODAS or NULL_MARK in self.codas:
            raise InventoryError(
                f"cardinality mismatch: codas must be {EXPECTED_CODAS} non-null "
                f"symbols, got {len(self.codas)}"
            )
        if len(self.finals) != EXPECTED_FINALS:
            raise InventoryError(
                f"cardinality mismatch: finals must be {EXPECTED_FINALS}, "
                f"got {len(self.finals)}"
            )
        seen_parts: dict[tuple[str, str | None], str] = {}
        for final, (nucleus, coda) in self.finals.items():
            if nucleus not in self.nuclei:
                raise InventoryError(
                    f"final {final!r} references unknown nucleus {nucleus!r}"
                )
            if coda is not None and coda not in self.codas:
                raise InventoryError(
                    f"final {final!r} references unknown coda {coda!r}"
                )
            if (nucleus, coda) in seen_parts:
                raise InventoryError(
                    f"finals {seen_parts[nucleus, coda]!r} and {final!r} share "
                    f"the decomposition ({nucleus}, {coda})"
                )
            seen_parts[nucleus, coda] = final

    def final_for(self, nucleus: str, coda: str | None) -> str:
        """The final whose decomposition is (nucleus, coda)."""
        try:
            return self._by_parts[nucleus, coda]
        except KeyError:
            raise JyutpingError(
                f"no final decomposes to nucleus {nucleus!r} + coda {coda!r}",
                reason="unknown-syllable",
            ) from None


def load_inventory(path: str | Path) -> Inventory:
    """Parse an inventory TSV file.

    The file has four sections introduced by the header lines ``#onsets``,
    ``#nuclei``, ``#codas`` and ``#finals``.  Any other ``#`` line is a
    comment.  Onset/nucleus/coda sections hold one symbol per line; the
    finals section holds ``final<TAB>nucleus<TAB>coda`` with ``-`` for the
    null coda.
    """
    path = Path(path)
    section = None
    onsets: list[str] = []
    nuclei: list[str] = []
    codas: list[str] = []
    finals: dict[str, tuple[str, str | None]] = {}
    headers = {"#onsets", "#nuclei", "#codas", "#finals"}
    with open_text(path, InventoryError) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line in headers:
                section = line[1:]
                continue
            if line.startswith("#"):
                continue
            if section is None:
                raise InventoryError(f"{path}:{lineno}: data before any section header")
            if section == "finals":
                fields = line.split("\t")
                if len(fields) != 3:
                    raise InventoryError(
                        f"{path}:{lineno}: finals lines need 3 tab-separated "
                        f"fields, got {len(fields)}"
                    )
                final, nucleus, coda = fields
                if final in finals:
                    raise InventoryError(f"{path}:{lineno}: duplicate final {final!r}")
                finals[final] = (nucleus, None if coda == NULL_MARK else coda)
            else:
                symbol = line.strip()
                target = {"onsets": onsets, "nuclei": nuclei, "codas": codas}[section]
                if symbol in target:
                    raise InventoryError(
                        f"{path}:{lineno}: duplicate {section[:-1]} {symbol!r}"
                    )
                target.append(symbol)
    return Inventory(frozenset(onsets), frozenset(nuclei), frozenset(codas), finals)


def default_inventory_path() -> Path:
    return Path(__file__).parent / "data" / "inventory.tsv"


@cache
def default_inventory() -> Inventory:
    """The bundled inventory, loaded once."""
    return load_inventory(default_inventory_path())


def parse_jyutping(s: str, inv: Inventory) -> Syllable:
    """Parse one lowercase Jyutping syllable string ending in a tone digit.

    If the whole body is itself a final (the syllabic nasals ``m``/``ng``),
    the syllable is onsetless; otherwise each onset length is tried, longest
    first, and the one onset prefix of that length whose remainder is a
    final wins.
    """
    if not s:
        raise JyutpingError("empty syllable string", reason="empty-input")
    tone_char = s[-1]
    if tone_char not in "123456":
        raise JyutpingError(
            f"syllable {s!r} must end in a tone digit 1..6", reason="invalid-tone"
        )
    tone = int(tone_char)
    body = s[:-1]
    if not body:
        raise JyutpingError(f"syllable {s!r} has no segments", reason="unknown-syllable")
    if body in inv.finals:
        nucleus, coda = inv.finals[body]
        return Syllable(None, nucleus, coda, tone)
    for n in inv._onset_lens:
        onset, rest = body[:n], body[n:]
        if rest and onset in inv.onsets and onset != NULL_MARK and rest in inv.finals:
            nucleus, coda = inv.finals[rest]
            return Syllable(onset, nucleus, coda, tone)
    raise JyutpingError(
        f"cannot segment {s!r} into onset + final", reason="unknown-syllable"
    )


def render(syl: Syllable, inv: Inventory) -> str:
    """Inverse of ``parse_jyutping`` for syllables constructible from ``inv``."""
    final = inv.final_for(syl.nucleus, syl.coda)
    return f"{syl.onset or ''}{final}{syl.tone}"


_phone = cache(Phone)  # one shared Phone per (kind, base, tone)


def to_if(syl: Syllable, inv: Inventory) -> tuple[Phone, ...]:
    """Initial/final phones: optional initial, then one tone-carrying final."""
    final = inv.final_for(syl.nucleus, syl.coda)
    phones = [] if syl.onset is None else [_phone("initial", syl.onset)]
    phones.append(_phone("final", final, syl.tone))
    return tuple(phones)


def to_onc(syl: Syllable) -> tuple[Phone, ...]:
    """Onset/nucleus/coda phones; nucleus and coda both carry the tone."""
    phones = [] if syl.onset is None else [_phone("onset", syl.onset)]
    phones.append(_phone("nucleus", syl.nucleus, syl.tone))
    if syl.coda is not None:
        phones.append(_phone("coda", syl.coda, syl.tone))
    return tuple(phones)


def to_phones(syl: Syllable, scheme: str, inv: Inventory) -> tuple[Phone, ...]:
    if scheme == SCHEME_IF:
        return to_if(syl, inv)
    if scheme == SCHEME_ONC:
        return to_onc(syl)
    raise ValueError(f"unknown scheme {scheme!r}")


@dataclass(frozen=True)
class MergeRule:
    """Directional coda rewrite, optionally restricted to certain nuclei."""

    from_coda: str
    to_coda: str
    nuclei: frozenset[str] | None = None

    def __post_init__(self):
        if self.from_coda == self.to_coda:
            raise DataError(f"merge rule must change the coda: {self.from_coda!r}")
        if self.nuclei == frozenset():
            raise DataError(f"merge rule {str(self)!r} has an empty nucleus filter")

    def __str__(self) -> str:
        """The rule as ``MergeRuleSet.parse`` reads it."""
        text = f"{self.from_coda}>{self.to_coda}"
        return text if self.nuclei is None else f"{text}@{','.join(sorted(self.nuclei))}"


@dataclass(frozen=True)
class MergeRuleSet:
    """Ordered coda-merge rules.  ``rule_for`` alone decides which rule, if
    any, rewrites a syllable (the first that matches it), for ``apply_merge``,
    ``lexicon.check_merges`` and the experiment's confusion derivation alike.
    """

    rules: tuple[MergeRule, ...] = ()

    def rule_for(self, nucleus: str, coda: str | None) -> MergeRule | None:
        """The first rule that rewrites a syllable with this nucleus and coda, or None."""
        for rule in self.rules:
            if rule.from_coda == coda and (rule.nuclei is None or nucleus in rule.nuclei):
                return rule
        return None

    @classmethod
    def parse(cls, text: str) -> "MergeRuleSet":
        """Parse e.g. ``"t>k@aa,a,o;ng>n@aa,a,o"``; ``@`` part optional."""
        rules = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            spec, at, filt = chunk.partition("@")
            src, sep, dst = spec.partition(">")
            nuclei = frozenset(n.strip() for n in filt.split(",") if n.strip()) if at else None
            if not sep or not src.strip() or not dst.strip() or nuclei == frozenset():
                raise DataError(f"bad merge rule {chunk!r}, expected 'from>to[@n1,n2]'")
            rules.append(MergeRule(src.strip(), dst.strip(), nuclei))
        return cls(tuple(rules))


def apply_merge(syl: Syllable, rules: MergeRuleSet) -> Syllable:
    """Rewrite the coda by ``rules.rule_for``'s rule; other fields unchanged."""
    rule = rules.rule_for(syl.nucleus, syl.coda)
    return syl if rule is None else replace(syl, coda=rule.to_coda)
