"""Character error rates, error classification, and decode parameter sweeps.

The word error rate here is computed over characters: substitutions,
insertions and deletions from a minimal edit-distance alignment, divided
by the reference length.  Among minimal alignments the one with the most
substitutions (fewest insertion+deletion pairs) is chosen, which makes the
split of errors symmetric: swapping reference and hypothesis swaps
insertions and deletions.  Corpus rates are micro-averaged (total errors
over total reference length).
"""

from dataclasses import dataclass, replace

from . import DataError
from .decoder import DecodeParams, batch_decode


@dataclass(frozen=True)
class WerResult:
    substitutions: int
    insertions: int
    deletions: int
    ref_length: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def rate(self) -> float:
        return self.errors / self.ref_length

    @property
    def percent(self) -> str:
        return f"{self.rate * 100:.2f}%"

    def to_json(self) -> dict:
        return {
            "S": self.substitutions,
            "I": self.insertions,
            "D": self.deletions,
            "N": self.ref_length,
            "rate": self.rate,
        }

    def __add__(self, other: "WerResult") -> "WerResult":
        return WerResult(
            self.substitutions + other.substitutions,
            self.insertions + other.insertions,
            self.deletions + other.deletions,
            self.ref_length + other.ref_length,
        )


def normalize(text: str) -> str:
    """Strip whitespace; punctuation is kept."""
    return "".join(c for c in text if not c.isspace())


def wer(ref: str | list[str], hyp: str | list[str]) -> WerResult:
    """Character error counts from a minimal-edit alignment.

    Strings are scored one unit per character (whitespace stripped first);
    pass token lists to score other unit choices, e.g. ``tokenize_chars``
    output where ASCII runs such as utterance labels stay whole.

    The DP minimizes (total edits, insertions + deletions) lexicographically,
    so substitutions are preferred over insertion+deletion pairs; with the
    totals fixed, the individual counts follow from the length difference.
    """
    if isinstance(ref, str):
        ref = list(normalize(ref))
    if isinstance(hyp, str):
        hyp = list(normalize(hyp))
    if not ref:
        raise DataError("empty reference")
    n, m = len(ref), len(hyp)
    # dp[j] = (edits, ins+del) for ref[:i] vs hyp[:j]
    prev = [(j, j) for j in range(m + 1)]
    for i in range(1, n + 1):
        cur = [(i, i)] + [(0, 0)] * m
        for j in range(1, m + 1):
            if ref[i - 1] == hyp[j - 1]:
                diag = prev[j - 1]
            else:
                diag = (prev[j - 1][0] + 1, prev[j - 1][1])
            delete = (prev[j][0] + 1, prev[j][1] + 1)
            insert = (cur[j - 1][0] + 1, cur[j - 1][1] + 1)
            cur[j] = min(diag, delete, insert)
        prev = cur
    edits, insdel = prev[m]
    # I - D is fixed by the lengths; I + D is minimized by the DP
    diff = m - n
    insertions = (insdel + diff) // 2
    deletions = insdel - insertions
    substitutions = edits - insdel
    return WerResult(substitutions, insertions, deletions, n)


def corpus_wer(pairs: list[tuple]) -> WerResult:
    """Component-wise sums over sentence pairs (micro-average)."""
    if not pairs:
        raise DataError("no sentence pairs")
    total = WerResult(0, 0, 0, 0)
    for ref, hyp in pairs:
        total = total + wer(ref, hyp)
    return total


@dataclass(frozen=True)
class ErrorClassification:
    correct_a: int
    correct_b: int
    errors_a_only: int
    errors_b_only: int
    shared_errors: int
    shared_identical: int

    @property
    def shared_different(self) -> int:
        return self.shared_errors - self.shared_identical

    def to_json(self) -> dict:
        return {
            "correct_a": self.correct_a,
            "correct_b": self.correct_b,
            "errors_a_only": self.errors_a_only,
            "errors_b_only": self.errors_b_only,
            "shared_errors": self.shared_errors,
            "shared_identical": self.shared_identical,
            "shared_different": self.shared_different,
        }


def classify_errors(
    refs: list[str], hyps_a: list[str], hyps_b: list[str]
) -> ErrorClassification:
    """Sentence-level comparison of two systems against shared references."""
    if not (len(refs) == len(hyps_a) == len(hyps_b)):
        raise DataError(
            f"length mismatch: {len(refs)} refs, {len(hyps_a)} vs {len(hyps_b)} hyps"
        )
    correct_a = correct_b = a_only = b_only = shared = identical = 0
    for ref, ha, hb in zip(refs, hyps_a, hyps_b):
        ok_a, ok_b = ha == ref, hb == ref
        correct_a += ok_a
        correct_b += ok_b
        if ok_a and not ok_b:
            b_only += 1
        elif ok_b and not ok_a:
            a_only += 1
        elif not ok_a and not ok_b:
            shared += 1
            identical += ha == hb
    return ErrorClassification(correct_a, correct_b, a_only, b_only, shared, identical)


def format_classification(
    cls: ErrorClassification, name_a: str = "A", name_b: str = "B"
) -> str:
    """Count table plus exact percentages of the shared-error split."""
    lines = [
        f"{'':<28}{name_a:>8}{name_b:>8}",
        f"{'Correct sentences':<28}{cls.correct_a:>8}{cls.correct_b:>8}",
        f"{'Incorrect sentences':<28}{cls.errors_a_only + cls.shared_errors:>8}"
        f"{cls.errors_b_only + cls.shared_errors:>8}",
        "",
        f"Errors in {name_a} only            {cls.errors_a_only}",
        f"Errors in {name_b} only            {cls.errors_b_only}",
    ]
    if cls.shared_errors:
        pid = 100.0 * cls.shared_identical / cls.shared_errors
        pdf = 100.0 * cls.shared_different / cls.shared_errors
        lines.append(
            f"Errors in shared sentences   {cls.shared_identical} identical"
            f" ({pid:.2f}%), {cls.shared_different} different ({pdf:.2f}%)"
        )
    else:
        lines.append("Errors in shared sentences   0")
    return "\n".join(lines)


@dataclass
class SweepCell:
    """One grid point; ``tokens_expanded`` sums the decoded utterances'
    counts, a deterministic measure of decode work, unlike ``rtf``."""

    beam: float
    max_active: int
    wer: WerResult
    rtf: float
    tokens_expanded: int

    def to_json(self) -> dict:
        return {
            "beam": self.beam,
            "max_active": self.max_active,
            "wer": self.wer.to_json(),
            "rtf": self.rtf,
            "tokens_expanded": self.tokens_expanded,
        }


def sweep(
    graph,
    scorers: list,
    beams: list[float],
    max_actives: list[int],
    refs: list[str],
    params: DecodeParams = DecodeParams(),
) -> list[SweepCell]:
    """One batch decode per (beam, max_active) grid point, ``params`` at that point.

    ``refs[i]`` is the reference of ``scorers[i]``.  An utterance that fails
    to decode scores as an empty hypothesis.  Rows come back sorted by
    (beam, max_active).
    """
    if not beams or not max_actives:
        raise DataError("empty sweep grid")
    if len(refs) != len(scorers):
        raise DataError(f"{len(refs)} references for {len(scorers)} score matrices")
    cells = []
    for beam in sorted(beams):
        for max_active in sorted(max_actives):
            batch = batch_decode(graph, scorers, replace(params, beam=beam, max_active=max_active))
            pairs = []
            for ref, result in zip(refs, batch.results):
                hyp = result.hypothesis.text if result.hypothesis else ""
                pairs.append((ref, hyp))
            expanded = sum(r.stats.tokens_expanded for r in batch.results if r.stats)
            cells.append(SweepCell(beam, max_active, corpus_wer(pairs), batch.rtf, expanded))
    return cells


def format_sweep_table(cells: list[SweepCell]) -> str:
    lines = [f"{'beam':>8} {'max_active':>11} {'WER':>8} {'RTF':>9}"]
    for cell in cells:
        lines.append(
            f"{cell.beam:>8.1f} {cell.max_active:>11} "
            f"{cell.wer.percent:>8} {cell.rtf:>9.5f}"
        )
    return "\n".join(lines)


def format_wer_table(rows: list[tuple[str, WerResult, float, float]]) -> str:
    """(system name, wer, rtf, wall ms per utterance) rows in the
    comparison-table layout; each system's RTF is over its own audio."""
    lines = [f"{'System':<24} {'WER':>8} {'RTF (own audio)':>16} {'wall ms/utt':>12}"]
    for name, result, rtf, ms_per_utt in rows:
        lines.append(f"{name:<24} {result.percent:>8} {rtf:>16.5f} {ms_per_utt:>12.2f}")
    return "\n".join(lines)

