"""Back-off n-gram language models over character tokens.

Supports maximum-likelihood and Witten-Bell estimation, linear
interpolation of two equal-order models (with EM tuning of the mixture
weight on held-out text), perplexity, and ARPA serialization.  Probabilities
are stored as log10 per the ARPA convention; the decoder converts to
natural log when building search graphs.

Witten-Bell here is the interpolated form: for a history ``h`` with total
continuation count ``c(h)`` and ``T(h)`` distinct continuation types,

    P(w|h) = (c(hw) + T(h) * P(w|h')) / (c(h) + T(h))

with back-off weight ``T(h) / (c(h) + T(h))`` for unseen continuations,
which keeps every history exactly normalized.  Maximum likelihood stores
relative frequencies and assigns unknown tokens a small unigram floor so
perplexity stays finite.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import DataError, open_text

SOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

LOG10_FLOOR = -99.0  # ARPA convention for "effectively zero"
DEFAULT_SMOOTHING = "witten_bell"
EM_TOL = 1e-6
EM_MAX_ITER = 100
MLE_UNK_FLOOR = 1e-7


class ArpaFormatError(DataError):
    pass


def tokenize_chars(text: str) -> list[str]:
    """One token per code point, but keep runs of ASCII word chars whole."""
    tokens: list[str] = []
    ascii_run: list[str] = []
    for ch in text.strip():
        if ch.isspace():
            if ascii_run:
                tokens.append("".join(ascii_run))
                ascii_run = []
            continue
        if ch.isascii():
            ascii_run.append(ch)
            continue
        if ascii_run:
            tokens.append("".join(ascii_run))
            ascii_run = []
        tokens.append(ch)
    if ascii_run:
        tokens.append("".join(ascii_run))
    return tokens


def read_corpus(path: str | Path) -> list[list[str]]:
    """One sentence per line, character-tokenized, blank lines skipped."""
    sentences = []
    with open_text(path) as fh:
        for line in fh:
            tokens = tokenize_chars(line)
            if tokens:
                sentences.append(tokens)
    return sentences


@dataclass
class NGramModel:
    """Back-off model: stored log10 probs plus per-history back-off weights."""

    order: int
    logprob: dict[tuple[str, ...], float] = field(default_factory=dict)
    backoff: dict[tuple[str, ...], float] = field(default_factory=dict)

    @property
    def vocab(self) -> frozenset[str]:
        return frozenset(g[0] for g in self.logprob if len(g) == 1)

    def _map_token(self, token: str) -> str:
        return token if (token,) in self.logprob else UNK

    def logprob10(self, word: str, history: tuple[str, ...] = ()) -> float:
        """log10 P(word | history) through the back-off recursion."""
        word = self._map_token(word)
        if self.order > 1:
            history = tuple(self._map_token(t) for t in history[-(self.order - 1):])
        else:
            history = ()
        return self._backoff_logprob(history + (word,))

    def _backoff_logprob(self, gram: tuple[str, ...]) -> float:
        if gram in self.logprob:
            return self.logprob[gram]
        if len(gram) == 1:
            return self.logprob.get((UNK,), LOG10_FLOOR)
        bow = self.backoff.get(gram[:-1], 0.0)
        return bow + self._backoff_logprob(gram[1:])

    def bigram_log10_table(self, histories: list[str], words: list[str]) -> np.ndarray:
        """``table[i, j] == logprob10(words[j], (histories[i],))``, bitwise.

        Every cell that no stored bigram covers is the back-off sum
        ``backoff[h] + unigram[w]``, so the table starts as that outer sum
        and the stored bigrams are written over it; tokens are mapped as
        ``logprob10`` maps them.
        """
        words = [self._map_token(w) for w in words]
        # a word missing from the unigrams is <unk> without a unigram
        uni = np.array([self.logprob.get((w,), LOG10_FLOOR) for w in words])
        if self.order == 1:
            return np.tile(uni, (len(histories), 1))
        histories = [self._map_token(h) for h in histories]
        bow = np.array([self.backoff.get((h,), 0.0) for h in histories])
        table = bow[:, None] + uni
        rows: dict[str, list[int]] = {}
        for i, h in enumerate(histories):
            rows.setdefault(h, []).append(i)
        cols: dict[str, list[int]] = {}
        for j, w in enumerate(words):
            cols.setdefault(w, []).append(j)
        at_rows, at_cols, values = [], [], []
        for gram, lp in self.logprob.items():
            if len(gram) == 2 and gram[0] in rows and gram[1] in cols:
                for i in rows[gram[0]]:
                    for j in cols[gram[1]]:
                        at_rows.append(i)
                        at_cols.append(j)
                        values.append(lp)
        table[at_rows, at_cols] = values
        return table

    def prob(self, word: str, history: tuple[str, ...] = ()) -> float:
        return 10.0 ** self.logprob10(word, history)

    def predicted_tokens(self) -> list[str]:
        """All tokens a history can continue with (excludes the start marker)."""
        return sorted(self.vocab - {SOS})

    def continuation_sum(self, history: tuple[str, ...]) -> float:
        return sum(self.prob(w, history) for w in self.predicted_tokens())


def _predictions(order: int, sentences):
    """Per sentence, the list of predicted ``(token, history)`` pairs, end marker included."""
    for sent in sentences:
        padded = [SOS] * (order - 1) + list(sent) + [EOS]
        yield [(padded[i], tuple(padded[max(0, i - order + 1):i])) for i in range(order - 1, len(padded))]


def _collect_counts(corpus, order):
    counts: list[dict[tuple[str, ...], int]] = [dict() for _ in range(order + 1)]
    for sent in corpus:
        if not sent:
            continue
        padded = [SOS] * (order - 1) + list(sent) + [EOS]
        n = len(padded)
        for k in range(1, order + 1):
            grams = counts[k]
            for i in range(n - k + 1):
                gram = tuple(padded[i:i + k])
                if gram[-1] == SOS:
                    continue  # the start marker is never predicted
                grams[gram] = grams.get(gram, 0) + 1
    return counts


def train_ngram(
    corpus: list[list[str]], order: int, smoothing: str = DEFAULT_SMOOTHING
) -> NGramModel:
    """Estimate an order-``order`` model from tokenized sentences.

    ``smoothing`` is ``"none"`` (maximum likelihood) or ``"witten_bell"``.
    """
    corpus = [s for s in corpus if s]
    if not corpus:
        raise DataError("empty corpus")
    if order < 1:
        raise DataError(f"order must be >= 1, got {order}")
    if smoothing not in ("none", "witten_bell"):
        raise DataError(f"unknown smoothing {smoothing!r}")

    counts = _collect_counts(corpus, order)
    totals: list[dict[tuple[str, ...], int]] = [dict() for _ in range(order)]
    types: list[dict[tuple[str, ...], int]] = [dict() for _ in range(order)]
    for k in range(1, order + 1):
        for gram, c in counts[k].items():
            h = gram[:-1]
            totals[k - 1][h] = totals[k - 1].get(h, 0) + c
            types[k - 1][h] = types[k - 1].get(h, 0) + 1

    model = NGramModel(order=order)
    wb = smoothing == "witten_bell"

    n_tokens = totals[0][()]
    n_types = types[0][()]
    for (tok,), c in sorted(counts[1].items()):
        p = c / (n_tokens + n_types) if wb else c / n_tokens
        model.logprob[(tok,)] = math.log10(p)
    if wb:
        model.logprob[(UNK,)] = math.log10(n_types / (n_tokens + n_types))
    else:
        model.logprob[(UNK,)] = math.log10(MLE_UNK_FLOOR)

    for k in range(2, order + 1):
        for gram, c in sorted(counts[k].items()):
            h = gram[:-1]
            if wb:
                t = types[k - 1][h]
                tot = totals[k - 1][h]
                p_low = model.prob(gram[-1], h[1:])
                p = (c + t * p_low) / (tot + t)
            else:
                p = c / totals[k - 1][h]
            model.logprob[gram] = math.log10(p)
        # histories need back-off weights; force-missing prefixes get -99
        for h in sorted(totals[k - 1]):
            if h not in model.logprob and len(h) >= 1:
                model.logprob[h] = LOG10_FLOOR
            if wb:
                t = types[k - 1][h]
                bow = t / (totals[k - 1][h] + t)
                model.backoff[h] = math.log10(bow)
            else:
                model.backoff[h] = LOG10_FLOOR
    return model


def perplexity(model, sentences: list[list[str]]) -> float:
    """10 ** (-mean log10 prob); token count includes the end markers."""
    if not sentences:
        raise DataError("empty evaluation text")
    total = 0.0
    n = 0
    for walk in _predictions(model.order, sentences):
        sentence = 0.0
        for token, history in walk:
            sentence += model.logprob10(token, history)
        total += sentence
        n += len(walk)
    return 10.0 ** (-total / n)


class MixtureModel:
    """Exact linear mixture of two equal-order models, used for tuning."""

    def __init__(self, a: NGramModel, b: NGramModel, lam: float):
        if a.order != b.order:
            raise DataError(f"order mismatch: {a.order} vs {b.order}")
        self.a, self.b, self.lam = a, b, lam
        self.order = a.order

    def prob(self, word: str, history: tuple[str, ...] = ()) -> float:
        return self.lam * self.a.prob(word, history) + (1.0 - self.lam) * self.b.prob(
            word, history
        )

    def logprob10(self, word: str, history: tuple[str, ...] = ()) -> float:
        return math.log10(max(self.prob(word, history), 1e-300))


def tune_lambda(a: NGramModel, b: NGramModel, heldout: list[list[str]]) -> float:
    """EM for the two-component mixture weight on held-out sentences.

    The held-out log-likelihood is strictly concave in the weight, so EM
    converges to the optimum; the endpoints 0 and 1 are also evaluated so a
    boundary optimum is returned exactly.
    """
    if not heldout:
        raise DataError("empty held-out text")
    events = [(a.prob(w, h), b.prob(w, h)) for walk in _predictions(a.order, heldout) for w, h in walk]
    lam = 0.5
    for _ in range(EM_MAX_ITER):
        post = 0.0
        for pa, pb in events:
            mixed = lam * pa + (1.0 - lam) * pb
            post += lam * pa / mixed if mixed > 0 else 0.5
        new_lam = post / len(events)
        if abs(new_lam - lam) < EM_TOL:
            lam = new_lam
            break
        lam = new_lam

    def loglik(l):
        return sum(math.log(max(l * pa + (1.0 - l) * pb, 1e-300)) for pa, pb in events)

    best = max((lam, 0.0, 1.0), key=lambda l: (loglik(l), l == lam))
    return best


def interpolate(a: NGramModel, b: NGramModel, lam: float) -> NGramModel:
    """Rebuild the linear mixture as a back-off model over the union support.

    Every n-gram stored in either component gets the exact mixture
    probability (each side evaluated through its own back-off recursion);
    back-off weights are then chosen so each history renormalizes exactly.
    When the component vocabularies differ, each side scores the other's
    words through its unknown marker, which would double-count that mass,
    so the unknown-marker unigram is set to the leftover probability instead
    of the raw mixture.
    """
    if a.order != b.order:
        raise DataError(f"order mismatch: {a.order} vs {b.order}")
    if not 0.0 <= lam <= 1.0:
        raise DataError(f"lambda must be in [0, 1], got {lam}")
    order = a.order
    model = NGramModel(order=order)
    support: list[list[tuple[str, ...]]] = [
        sorted(
            {g for g in a.logprob if len(g) == k} | {g for g in b.logprob if len(g) == k}
        )
        for k in range(1, order + 1)
    ]

    for k_idx, grams in enumerate(support):
        for gram in grams:
            if gram[-1] == SOS:
                model.logprob[gram] = LOG10_FLOOR
                continue
            pa = a.prob(gram[-1], gram[:-1])
            pb = b.prob(gram[-1], gram[:-1])
            p = lam * pa + (1.0 - lam) * pb
            model.logprob[gram] = math.log10(max(p, 1e-300))
        if k_idx == 0:
            # the unknown marker takes whatever mass the real words leave
            leftover = 1.0 - sum(
                10.0 ** lp
                for g, lp in model.logprob.items()
                if len(g) == 1 and g[0] != UNK
            )
            model.logprob[(UNK,)] = math.log10(max(leftover, 1e-12))
            continue
        # back-off weights for the (k-1)-gram histories
        continuations: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        for gram in grams:
            continuations.setdefault(gram[:-1], []).append(gram)
        for h in support[k_idx - 1]:
            stored = continuations.get(h, [])
            num = 1.0
            den = 1.0
            for gram in stored:
                if gram[-1] == SOS:
                    continue
                num -= 10.0 ** model.logprob[gram]
                den -= 10.0 ** model._backoff_logprob(h[1:] + gram[-1:])
            if num <= 1e-12 or den <= 1e-12:
                model.backoff[h] = LOG10_FLOOR
            else:
                model.backoff[h] = math.log10(num / den)
    return model


def write_arpa(model: NGramModel, path: str | Path) -> None:
    grams_by_order: list[list[tuple[str, ...]]] = [
        sorted(g for g in model.logprob if len(g) == k)
        for k in range(1, model.order + 1)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\\data\\\n")
        for k, grams in enumerate(grams_by_order, 1):
            fh.write(f"ngram {k}={len(grams)}\n")
        for k, grams in enumerate(grams_by_order, 1):
            fh.write(f"\n\\{k}-grams:\n")
            for gram in grams:
                line = f"{model.logprob[gram]:.6f}\t{' '.join(gram)}"
                if k < model.order:
                    line += f"\t{model.backoff.get(gram, 0.0):.6f}"
                fh.write(line + "\n")
        fh.write("\n\\end\\\n")


def read_arpa(path: str | Path) -> NGramModel:
    path = Path(path)

    def fail(lineno, msg):
        raise ArpaFormatError(f"{path}:{lineno}: {msg}")

    declared: dict[int, int] = {}
    model: NGramModel | None = None
    section = 0
    seen_in_section = 0
    state = "preamble"
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if state == "preamble":
                if line == "\\data\\":
                    state = "counts"
                continue
            if state == "counts":
                if line.startswith("ngram "):
                    try:
                        k, n = line[len("ngram "):].split("=")
                        declared[int(k)] = int(n)
                    except ValueError:
                        fail(lineno, f"bad count line {line!r}")
                    continue
                if line.endswith("-grams:") and line.startswith("\\"):
                    if not declared:
                        fail(lineno, "no ngram counts declared")
                    if sorted(declared) != list(range(1, max(declared) + 1)):
                        fail(lineno, "non-contiguous ngram orders declared")
                    model = NGramModel(order=max(declared))
                    state = "grams"
                    # fall through to section handling
                else:
                    fail(lineno, f"unexpected line {line!r} in \\data\\ section")
            if state == "grams":
                header = line.startswith("\\") and line.endswith("-grams:")
                ends_section = header or line == "\\end\\"
                if ends_section and section and seen_in_section != declared[section]:
                    fail(
                        lineno,
                        f"section {section} declared {declared[section]} "
                        f"entries but has {seen_in_section}",
                    )
                if header:
                    try:
                        new_section = int(line[1:-len("-grams:")])
                    except ValueError:
                        fail(lineno, f"bad section header {line!r}")
                    if new_section not in declared:
                        fail(lineno, f"section {new_section} not declared in \\data\\")
                    if new_section != section + 1:
                        fail(lineno, f"section {new_section} out of order")
                    section = new_section
                    seen_in_section = 0
                    continue
                if line == "\\end\\":
                    if section != max(declared):
                        fail(lineno, f"missing sections after {section}")
                    state = "done"
                    continue
                fields = line.split("\t")
                if len(fields) == 1:
                    fields = line.split()
                    fields = [fields[0], " ".join(fields[1:])]
                if len(fields) < 2 or len(fields) > 3:
                    fail(lineno, f"bad n-gram line {line!r}")
                try:
                    lp = float(fields[0])
                except ValueError:
                    fail(lineno, f"bad log probability in {line!r}")
                if not lp < math.inf:  # -inf is a zero probability, NaN compares false
                    kind = "NaN" if math.isnan(lp) else "+inf"
                    fail(lineno, f"{kind} log probability in {line!r}")
                gram = tuple(fields[1].split())
                if len(gram) != section:
                    fail(lineno, f"{len(gram)}-gram {gram!r} in section {section}")
                assert model is not None
                model.logprob[gram] = lp
                if len(fields) == 3:
                    try:
                        bow = float(fields[2])
                    except ValueError:
                        fail(lineno, f"bad back-off weight in {line!r}")
                    if not bow < math.inf:
                        kind = "NaN" if math.isnan(bow) else "+inf"
                        fail(lineno, f"{kind} back-off weight in {line!r}")
                    model.backoff[gram] = bow
                seen_in_section += 1
    if state != "done" or model is None:
        raise ArpaFormatError(f"{path}: truncated ARPA file (no \\end\\)")
    return model
