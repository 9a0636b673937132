"""Back-off n-gram language models over character tokens.

Supports maximum-likelihood and Witten-Bell estimation, linear
interpolation of two equal-order models (with EM tuning of the mixture
weight on held-out text), perplexity, and ARPA serialization.  Probabilities
are stored as log10 per the ARPA convention.  ``LN10`` is the one
natural-log conversion, and ``NGramModel.ln_score`` scores a token sequence
in natural log from an LM state (``NGramModel.state``) for both the search
graph and the lattice rescorer.

A query, ``NGramModel.logprob10``, maps each token once (a token outside
the unigrams reads as ``<unk>``), then walks the back-off chain in one
loop: it finds the longest stored suffix of the n-gram and adds the
back-off weight of each dropped context, innermost first, which is the
ARPA recursion's own float sum (the lookup of KenLM and SRILM).  There is
no query cache: a ``(word, history)`` memo holds one entry per distinct
query, 166k in one ``rescore`` benchmark run (700 lattices, seed 1051), and
it raised that run's peak RSS from 55.6 to 99.5 MB for a 23 % lower ``rtf``.

Witten-Bell here is the interpolated form: for a history ``h`` with total
continuation count ``c(h)`` and ``T(h)`` distinct continuation types,

    P(w|h) = (c(hw) + T(h) * P(w|h')) / (c(h) + T(h))

with back-off weight ``T(h) / (c(h) + T(h))`` for unseen continuations,
which keeps every history exactly normalized.  Maximum likelihood stores
relative frequencies and assigns unknown tokens a small unigram floor so
perplexity stays finite.
"""

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
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
LN10 = math.log(10.0)  # natural log of a log10 score: LN10 * log10


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
    """Back-off model: stored log10 probs plus per-history back-off weights.

    The stored n-grams are prefix closed: every stored n-gram's context
    (its first n - 1 tokens) is stored too.  ``train_ngram`` and
    ``interpolate`` build models that way and ``read_arpa`` requires it;
    ``state`` relies on it to drop context that no score reads.
    """

    order: int
    logprob: dict[tuple[str, ...], float] = field(default_factory=dict)
    backoff: dict[tuple[str, ...], float] = field(default_factory=dict)

    @property
    def vocab(self) -> frozenset[str]:
        return frozenset(g[0] for g in self.logprob if len(g) == 1)

    def map_token(self, token: str) -> str:
        """The token as queries read it: ``<unk>`` for one outside the unigrams."""
        return token if (token,) in self.logprob else UNK

    def logprob10(self, word: str, history: tuple[str, ...] = ()) -> float:
        """log10 P(word | history): each token mapped once, then one back-off walk."""
        logprob = self.logprob
        if (word,) not in logprob:
            word = UNK
        history = tuple(history[1 - self.order:]) if self.order > 1 else ()
        for tok in history:
            if (tok,) not in logprob:
                history = tuple(t if (t,) in logprob else UNK for t in history)
                break
        return self._backoff_logprob(history + (word,))

    def _backoff_logprob(self, gram: tuple[str, ...]) -> float:
        """The longest stored suffix's log prob plus each dropped context's back-off.

        Weights are added innermost first, the float sum of the ARPA recursion
        ``bow(gram[:-1]) + P(gram[1:])``; an unstored weight adds ``0.0``.
        """
        logprob = self.logprob
        last = len(gram) - 1
        start = 0
        while start < last and gram[start:] not in logprob:
            start += 1
        total = logprob.get(gram[start:])
        if total is None:
            total = logprob.get((UNK,), LOG10_FLOOR)
        backoff = self.backoff
        while start:
            start -= 1
            total = backoff.get(gram[start:last], 0.0) + total
        return total

    def bigram_log10_table(self, histories: list[str], words: list[str]) -> np.ndarray:
        """``table[i, j] == logprob10(words[j], (histories[i],))``, bitwise.

        Every cell that no stored bigram covers is the back-off sum
        ``backoff[h] + unigram[w]``, so the table starts as that outer sum
        and the stored bigrams are written over it; tokens are mapped as
        ``logprob10`` maps them.
        """
        words = [self.map_token(w) for w in words]
        # a word missing from the unigrams is <unk> without a unigram
        uni = np.array([self.logprob.get((w,), LOG10_FLOOR) for w in words])
        if self.order == 1:
            return np.tile(uni, (len(histories), 1))
        histories = [self.map_token(h) for h in histories]
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

    def state(self, history: tuple[str, ...]) -> tuple[str, ...]:
        """The LM state after ``history``, tokens as ``map_token`` maps them.

        It is the longest suffix of at most ``order - 1`` tokens that the
        model stores.  Every stored n-gram's context is stored too, so a
        dropped token could only have added a zero back-off weight: each
        score read after the state equals the one read after ``history``.
        """
        history = history[1 - self.order:] if self.order > 1 else ()
        while history and history not in self.backoff and history not in self.logprob:
            history = history[1:]
        return history

    def ln_score(self, tokens, state: tuple[str, ...]) -> tuple[float, tuple[str, ...]]:
        """Natural-log total of ``tokens`` after LM state ``state``, and the state after them."""
        logprob10, map_token, next_state = self.logprob10, self.map_token, self.state
        total = 0.0
        for tok in tokens:
            tok = map_token(tok)
            total += LN10 * logprob10(tok, state)
            state = next_state(state + (tok,))
        return total, state

    def prob(self, word: str, history: tuple[str, ...] = ()) -> float:
        return 10.0 ** self.logprob10(word, history)


def _predictions(order: int, sentences):
    """Per sentence, the list of predicted ``(token, history)`` pairs, end marker included."""
    for sent in sentences:
        padded = [SOS] * (order - 1) + list(sent) + [EOS]
        yield [(padded[i], tuple(padded[max(0, i - order + 1):i])) for i in range(order - 1, len(padded))]


def train_ngram(
    corpus: list[list[str]], order: int, smoothing: str = DEFAULT_SMOOTHING
) -> NGramModel:
    """Estimate an order-``order`` model from tokenized sentences.

    ``smoothing`` is ``"none"`` (maximum likelihood) or ``"witten_bell"``.
    Each order's counts and each history's total and type count are one
    ``Counter`` each, over the n-gram of every prediction (its history,
    padded with ``<s>``, plus the token).  Orders are stored one after
    another, each in sorted order, so a Witten-Bell lower order is read
    as its suffix's stored probability.
    """
    corpus = [s for s in corpus if s]
    if not corpus:
        raise DataError("empty corpus")
    if order < 1:
        raise DataError(f"order must be >= 1, got {order}")
    if smoothing not in ("none", "witten_bell"):
        raise DataError(f"unknown smoothing {smoothing!r}")

    pad = (SOS,) * (order - 1)
    grams: list[tuple[str, ...]] = []
    for sent in corpus:
        padded = (*pad, *sent, EOS)
        ngrams = zip(*[padded[i:] for i in range(order)])
        if SOS in sent:
            # the start marker is never predicted
            ngrams = (g for g in ngrams if g[-1] != SOS)
        grams.extend(ngrams)
    # counts[k]: each k-gram's count; totals[k] and types[k]: each k-token
    # history's count and its number of distinct continuations
    counts = [Counter()]
    counts += (Counter(map(itemgetter(slice(-k, None)), grams)) for k in range(1, order + 1))
    totals = [Counter(map(itemgetter(slice(-k - 1, -1)), grams)) for k in range(order)]
    types = [Counter(map(itemgetter(slice(None, -1)), counts[k + 1])) for k in range(order)]

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
                # gram[1:] was stored at order k - 1 and its tokens are all
                # unigrams, so this is prob(gram[-1], h[1:]) without the walk
                p_low = 10.0 ** model.logprob[gram[1:]]
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
    """Exact linear mixture of two equal-order models; ``interpolate`` stores its scores."""

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
    mixture = MixtureModel(a, b, lam)
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
            model.logprob[gram] = mixture.logprob10(gram[-1], gram[:-1])
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
                if gram in model.logprob:
                    fail(lineno, f"repeated n-gram {fields[1]!r}")
                if len(gram) > 1 and gram[:-1] not in model.logprob:
                    # NGramModel.state drops context only when every context is stored
                    fail(lineno, f"context {' '.join(gram[:-1])!r} of {fields[1]!r} not stored")
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
