"""Back-off n-gram language models over character tokens.

Supports maximum-likelihood and Witten-Bell estimation, linear
interpolation of two equal-order models (with EM tuning of the mixture
weight on held-out text), perplexity, and ARPA serialization.  Probabilities
are stored as log10 per the ARPA convention.  ``LN10`` is the one
natural-log conversion, and ``NGramModel.ln_score`` scores a token sequence
in natural log from an LM state (``NGramModel.state``) for both the search
graph and the lattice rescorer.

``train_ngram`` puts the ``<s>``-padded sentences in one array of token
ids, ranked so that id order is Python's string order, and counts each
order with one sort of the id rows: a run of equal rows is one n-gram and
its count, and the adjacent runs of one history give its total and type
count.  Its floats are those of a plain per-n-gram count, so its tables
equal a dict-counting trainer's item for item.

A query, ``NGramModel.logprob10``, cuts the history to its last
``order - 1`` tokens and answers from a bounded memo keyed by
``(word, history)``.  On a miss, ``_query`` maps each token once (a token
outside the unigrams reads as ``<unk>``), then walks the back-off chain in
one loop: it finds the longest stored suffix of the n-gram and adds the
back-off weight of each dropped context, innermost first, which is the
ARPA recursion's own float sum (the lookup of KenLM and SRILM).  The memo
is emptied when it holds ``QUERY_MEMO_SIZE`` entries: a 200-best list asks
about 2,076 queries but only 116 distinct ones, so 94 % of queries repeat
within one list, while a whole 700-lattice ``rescore`` benchmark run asks
76k distinct queries of 1.45M, and an unbounded memo that held them all
raised that run's peak RSS from 55.6 to 99.5 MB.  Emptied at 256
entries, the memo answers 93 % of the n-best scorer's queries, in
constant memory.  It cannot go stale: ``logprob`` and ``backoff`` are
read-only views of dicts that only the model holds, and ``order`` cannot
be rebound.  ``ln_score``, which ``rescore_ngram`` and the decoder's word
tables call, skips the memo and walks once per token from the state it
holds: 22 % of ``rescore_ngram``'s queries hit the memo, so for the other
78 % it only added a key, an insert and a periodic clear.  Set-up queries
hardly repeat, so they skip the memo too.

The rest of set-up makes no helper call per n-gram.  ``interpolate`` sorts
the union of both models' n-grams once and makes one loop per order: each
side's query is the n-gram with its tokens mapped as ``_query`` maps them,
read from the side's table, and only an unstored one walks the back-off
chain; the same loop sums each history's continuations for its back-off
weight.  ``tune_lambda`` asks ``_query`` once per held-out event and runs
each EM step as array arithmetic.  ``read_arpa`` parses each n-gram line in
its section loop.  All three give the tables and weight, bit for bit, of
per-n-gram code that calls a query for each n-gram, and float sums that
feed them are added left to right (``left_sum``).

``tokenize_chars`` is a ``functools.lru_cache`` of ``TOKEN_TABLE_SIZE``
texts, and answers a tuple that no caller can change: scoring a 200-best
list word by word tokenizes 1,600 words drawn from at most 32 distinct
ones per ``rescore`` lattice.  ``read_corpus`` splits its lines without
the cache, so reading a corpus evicts none of those words.

Witten-Bell here is the interpolated form: for a history ``h`` with total
continuation count ``c(h)`` and ``T(h)`` distinct continuation types,

    P(w|h) = (c(hw) + T(h) * P(w|h')) / (c(h) + T(h))

with back-off weight ``T(h) / (c(h) + T(h))`` for unseen continuations,
which keeps every history exactly normalized.  Maximum likelihood stores
relative frequencies and assigns unknown tokens a small unigram floor so
perplexity stays finite.
"""

import math
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, islice
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import DataError, left_sum, open_text

SOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

LOG10_FLOOR = -99.0  # ARPA convention for "effectively zero"
DEFAULT_SMOOTHING = "witten_bell"
EM_TOL = 1e-6
EM_MAX_ITER = 100
MLE_UNK_FLOOR = 1e-7
LN10 = math.log(10.0)  # natural log of a log10 score: LN10 * log10
QUERY_MEMO_SIZE = 256  # entries; a full memo is emptied before the next insert
TOKEN_TABLE_SIZE = 256  # texts tokenize_chars keeps, least recently used out first


class ArpaFormatError(DataError):
    pass


@lru_cache(maxsize=TOKEN_TABLE_SIZE)
def tokenize_chars(text: str) -> tuple[str, ...]:
    """One token per code point, but keep runs of ASCII word chars whole.

    The answer is a tuple, cached for the ``TOKEN_TABLE_SIZE`` most recently
    asked texts; a repeated text gets the same tuple.
    """
    return tuple(_split_chars(text))


def _split_chars(text: str) -> list[str]:
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
            tokens = _split_chars(line)
            if tokens:
                sentences.append(tokens)
    return sentences


@dataclass(frozen=True)
class NGramModel:
    """Back-off model: stored log10 probs plus per-history back-off weights.

    The stored n-grams are prefix closed: every stored n-gram's context
    (its first n - 1 tokens) is stored too.  ``train_ngram`` and
    ``interpolate`` build models that way and ``read_arpa`` requires it;
    ``state`` relies on it to drop context that no score reads.

    A model never changes after construction: ``logprob`` and ``backoff``
    are read-only views of dicts that only the model holds (the constructor
    copies the mappings passed in), and ``order`` cannot be rebound, so
    ``logprob10``'s memo always holds current answers.  The memo is not a
    field: equality and ``repr`` ignore it.
    """

    order: int
    logprob: Mapping[tuple[str, ...], float] = field(default_factory=dict)
    backoff: Mapping[tuple[str, ...], float] = field(default_factory=dict)

    def __post_init__(self):
        self._install(dict(self.logprob), dict(self.backoff))

    @classmethod
    def _adopt(cls, order: int, logprob: dict, backoff: dict) -> "NGramModel":
        """A model over ``logprob`` and ``backoff`` themselves, not copies.

        For ``train_ngram``, ``interpolate`` and ``read_arpa``, which build
        the dicts and keep no reference to them.  A copy would leave the
        freed first table resident: 0.5 MB (1 %) more ``rescore`` benchmark
        peak RSS.
        """
        model = cls.__new__(cls)
        object.__setattr__(model, "order", order)
        model._install(logprob, backoff)
        return model

    def _install(self, logprob: dict, backoff: dict) -> None:
        # a frozen dataclass sets attributes through object.__setattr__;
        # reads inside the class use the plain dicts, a little faster
        for name, value in (
            ("_logprob", logprob),
            ("_backoff", backoff),
            ("logprob", MappingProxyType(logprob)),
            ("backoff", MappingProxyType(backoff)),
            # the last order - 1 tokens of a history; none for a unigram model
            ("_context", slice(1 - self.order, None) if self.order > 1 else slice(0, 0)),
            ("_memo", {}),
        ):
            object.__setattr__(self, name, value)

    @property
    def vocab(self) -> frozenset[str]:
        return frozenset(g[0] for g in self._logprob if len(g) == 1)

    def map_token(self, token: str) -> str:
        """The token as queries read it: ``<unk>`` for one outside the unigrams."""
        return token if (token,) in self._logprob else UNK

    def logprob10(self, word: str, history: tuple[str, ...] = ()) -> float:
        """log10 P(word | history), from the memo when asked since it was last emptied."""
        key = (word, tuple(history[self._context]))
        memo = self._memo
        value = memo.get(key)
        if value is None:
            if len(memo) >= QUERY_MEMO_SIZE:
                memo.clear()
            value = memo[key] = self._query(*key)
        return value

    def _query(self, word: str, history: tuple[str, ...] = ()) -> float:
        """``logprob10`` without the memo: the same history cut, each token
        mapped once, then one back-off walk."""
        logprob = self._logprob
        if (word,) not in logprob:
            word = UNK
        return _backoff_logprob(logprob, self._backoff, self._map_history(history) + (word,))

    def _map_history(self, history) -> tuple[str, ...]:
        """The last ``order - 1`` tokens of ``history``, each as ``map_token`` maps it."""
        logprob = self._logprob
        history = tuple(history[self._context])
        for tok in history:
            if (tok,) not in logprob:
                return tuple(t if (t,) in logprob else UNK for t in history)
        return history

    def bigram_log10_table(self, histories: list[str], words: list[str]) -> np.ndarray:
        """``table[i, j] == logprob10(words[j], (histories[i],))``, bitwise.

        Every cell that no stored bigram covers is the back-off sum
        ``backoff[h] + unigram[w]``, so the table starts as that outer sum
        and the stored bigrams are written over it; tokens are mapped as
        ``logprob10`` maps them.
        """
        words = [self.map_token(w) for w in words]
        # a word missing from the unigrams is <unk> without a unigram
        uni = np.array([self._logprob.get((w,), LOG10_FLOOR) for w in words])
        if self.order == 1:
            return np.tile(uni, (len(histories), 1))
        histories = [self.map_token(h) for h in histories]
        bow = np.array([self._backoff.get((h,), 0.0) for h in histories])
        table = bow[:, None] + uni
        rows: dict[str, list[int]] = {}
        for i, h in enumerate(histories):
            rows.setdefault(h, []).append(i)
        cols: dict[str, list[int]] = {}
        for j, w in enumerate(words):
            cols.setdefault(w, []).append(j)
        at_rows, at_cols, values = [], [], []
        for gram, lp in self._logprob.items():
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
        history = history[self._context]
        while history and history not in self._backoff and history not in self._logprob:
            history = history[1:]
        return history

    def ln_score(self, tokens, state: tuple[str, ...]) -> tuple[float, tuple[str, ...]]:
        """Natural-log total of ``tokens`` after LM state ``state``, and the state after them.

        Each token is one back-off walk from the state, without the query
        memo: an arc's state and token rarely repeat within the memo's
        reach.  The total is the per-token sum of ``LN10 * logprob10``.
        ``state`` may be any history: it is cut and mapped as a query's is,
        which changes nothing that ``state()`` returns.
        """
        logprob, backoff, next_state = self._logprob, self._backoff, self.state
        state = self._map_history(state)
        total = 0.0
        for tok in tokens:
            if (tok,) not in logprob:
                tok = UNK
            gram = state + (tok,)
            total += LN10 * _backoff_logprob(logprob, backoff, gram)
            state = next_state(gram)
        return total, state

    def prob(self, word: str, history: tuple[str, ...] = ()) -> float:
        return 10.0 ** self.logprob10(word, history)


def _backoff_logprob(logprob, backoff, gram: tuple[str, ...]) -> float:
    """The longest stored suffix's log prob plus each dropped context's back-off.

    Weights are added innermost first, the float sum of the ARPA recursion
    ``bow(gram[:-1]) + P(gram[1:])``; an unstored weight adds ``0.0``.
    """
    last = len(gram) - 1
    start = 0
    while start < last and gram[start:] not in logprob:
        start += 1
    total = logprob.get(gram[start:])
    if total is None:
        total = logprob.get((UNK,), LOG10_FLOOR)
    while start:
        start -= 1
        total = backoff.get(gram[start:last], 0.0) + total
    return total


def _ngrams(order: int, sentence):
    """The ``order``-grams ``sentence`` predicts, its end marker included: each
    token after its history, padded with ``<s>``.  ``<s>`` is never predicted."""
    padded = (SOS,) * (order - 1) + (*sentence, EOS)
    grams = zip(*[padded[i:] for i in range(order)])
    if SOS in sentence:
        grams = (g for g in grams if g[-1] != SOS)
    return grams


def train_ngram(
    corpus: list[list[str]], order: int, smoothing: str = DEFAULT_SMOOTHING
) -> NGramModel:
    """Estimate an order-``order`` model from tokenized sentences.

    ``smoothing`` is ``"none"`` (maximum likelihood) or ``"witten_bell"``.
    Each order is one ``np.lexsort`` of the token-id rows that end at the
    predicted positions, so its n-grams and their histories come out in
    sorted order; orders are stored one after another, so a Witten-Bell
    lower order is read as its suffix's stored probability.  ``+``, ``*``
    and ``/`` on float64 arrays of exact counts give the values of the
    per-n-gram Python expressions; ``math.log10`` and ``10.0 **`` stay
    per-element calls, since numpy's SIMD ``log10`` and ``power`` can
    differ from them in the last bit.
    """
    corpus = [s for s in corpus if s]
    if not corpus:
        raise DataError("empty corpus")
    if order < 1:
        raise DataError(f"order must be >= 1, got {order}")
    if smoothing not in ("none", "witten_bell"):
        raise DataError(f"unknown smoothing {smoothing!r}")

    # every sentence padded with <s>, as _ngrams pads it, in one list; a
    # token's id is its rank, so id order is Python's string order
    pad = [SOS] * (order - 1)
    tokens = [tok for sent in corpus for tok in chain(pad, sent, (EOS,))]
    vocab = sorted({SOS, *tokens})
    rank = dict(zip(vocab, range(len(vocab))))
    ids = np.fromiter(map(rank.__getitem__, tokens), np.intp, len(tokens))
    words = np.array(vocab, dtype=object)
    # the predicted positions: all but the pads and a literal <s>; each has
    # order - 1 positions of its own sentence before it
    sos = rank[SOS]
    at = np.flatnonzero(ids != sos)

    logprob: dict[tuple[str, ...], float] = {}
    backoff: dict[tuple[str, ...], float] = {}
    wb = smoothing == "witten_bell"
    # each position's lower-order probability: a unigram has none, and a
    # k-gram's is its suffix's, order k - 1's gram at the same position
    p_low = np.zeros(len(at))
    for k in range(1, order + 1):
        # the k-gram ending at each predicted position, one column per token,
        # sorted as rows: equal k-grams are runs, equal histories adjacent runs
        cols = [ids[at - j] for j in range(k - 1, -1, -1)]
        rows = np.lexsort(cols[::-1])
        cols = [c[rows] for c in cols]
        new_hist = np.zeros(len(at), dtype=bool)
        new_hist[0] = True
        for c in cols[:-1]:
            new_hist[1:] |= c[1:] != c[:-1]
        new_gram = new_hist.copy()
        new_gram[1:] |= cols[-1][1:] != cols[-1][:-1]
        starts = np.flatnonzero(new_gram)
        counts = np.diff(starts, append=len(at))
        hist_starts = np.flatnonzero(new_hist[starts])
        totals = np.add.reduceat(counts, hist_starts)
        types = np.diff(hist_starts, append=len(starts))
        tot = np.repeat(totals, types)
        if wb:
            t = np.repeat(types, types)
            p = (counts + t * p_low[rows[starts]]) / (tot + t)
        else:
            p = counts / tot
        grams = list(zip(*(words[c[starts]] for c in cols)))
        logprob.update(zip(grams, map(math.log10, p.tolist())))
        if k == 1:
            n_tokens, n_types = int(totals[0]), int(types[0])
            unk = n_types / (n_tokens + n_types) if wb else MLE_UNK_FLOOR
            logprob[(UNK,)] = math.log10(unk)
        else:
            firsts = starts[hist_starts]
            histories = list(zip(*(words[c[firsts]] for c in cols[:-1])))
            # any other history was stored as a k - 1-gram; one that ends in
            # <s> is never predicted, so it is stored at -99, and so is each
            # missing prefix of it, which a literal "<s> <s>" can leave unstored
            for i in np.flatnonzero(cols[-2][firsts] == sos).tolist():
                h = histories[i]
                j = len(h)
                while j and h[:j] not in logprob:
                    logprob[h[:j]] = LOG10_FLOOR
                    j -= 1
            if wb:
                bows = (types / (totals + types)).tolist()
                backoff.update(zip(histories, map(math.log10, bows)))
            else:
                backoff.update(dict.fromkeys(histories, LOG10_FLOOR))
        if wb and k < order:
            # read back from the dict, which holds the <unk> overwrite
            p_low[rows] = np.repeat([10.0 ** logprob[g] for g in grams], counts)
    return NGramModel._adopt(order, logprob, backoff)


def perplexity(model, sentences: list[list[str]]) -> float:
    """10 ** (-mean log10 prob); the token count includes the end markers
    and leaves out a literal ``<s>``, which is never predicted."""
    if not sentences:
        raise DataError("empty evaluation text")
    total = 0.0
    n = 0
    for sent in sentences:
        sentence = 0.0
        for gram in _ngrams(model.order, sent):
            sentence += model.logprob10(gram[-1], gram[:-1])
            n += 1
        total += sentence
    return 10.0 ** (-total / n)


def _check_orders(a: NGramModel, b: NGramModel) -> None:
    """Only two models of one order mix."""
    if a.order != b.order:
        raise DataError(f"order mismatch: {a.order} vs {b.order}")


def tune_lambda(a: NGramModel, b: NGramModel, heldout: list[list[str]]) -> float:
    """EM for the two-component mixture weight on held-out sentences.

    The held-out log-likelihood is strictly concave in the weight, so EM
    converges to the optimum; the endpoints 0 and 1 are also evaluated so a
    boundary optimum is returned exactly.  Each EM step is array arithmetic
    over the held-out events; its posterior shares are added in order by
    ``np.add.accumulate``, the float sum of a ``+=`` loop, and the
    log-likelihood keeps ``math.log`` per event, since numpy's SIMD ``log``
    can differ from it in the last bit.
    """
    _check_orders(a, b)
    if not heldout:
        raise DataError("empty held-out text")
    # held-out queries hardly repeat, so they skip the memo
    pa, pb = np.array([
        (10.0 ** a._query(g[-1], g[:-1]), 10.0 ** b._query(g[-1], g[:-1]))
        for sent in heldout
        for g in _ngrams(a.order, sent)
    ]).T
    lam = 0.5
    for _ in range(EM_MAX_ITER):
        mixed = lam * pa + (1.0 - lam) * pb
        # an event that neither model can produce gives each side half
        share = np.divide(lam * pa, mixed, out=np.full(len(pa), 0.5), where=mixed > 0)
        new_lam = float(np.add.accumulate(share)[-1]) / len(pa)
        if abs(new_lam - lam) < EM_TOL:
            lam = new_lam
            break
        lam = new_lam

    def loglik(l):
        mixed = np.maximum(l * pa + (1.0 - l) * pb, 1e-300)
        return left_sum(map(math.log, mixed.tolist()))

    return max((lam, 0.0, 1.0), key=lambda l: (loglik(l), l == lam))


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
    _check_orders(a, b)
    if not 0.0 <= lam <= 1.0:
        raise DataError(f"lambda must be in [0, 1], got {lam}")
    order = a.order
    logprob: dict[tuple[str, ...], float] = {}
    backoff: dict[tuple[str, ...], float] = {}
    union = sorted(a._logprob.keys() | b._logprob.keys())
    union.sort(key=len)  # stable: each order stays sorted
    support = [
        union[bisect_left(union, k, key=len):bisect_right(union, k, key=len)]
        for k in range(1, order + 1)
    ]
    lp_a, bo_a, vocab_a = a._logprob, a._backoff, a.vocab
    lp_b, bo_b, vocab_b = b._logprob, b._backoff, b.vocab
    mu = 1.0 - lam

    for k, grams in enumerate(support, 1):
        weights: dict[tuple[str, ...], float] = {}
        h, num, den = None, 1.0, 1.0
        for gram in grams:
            if gram[-1] == SOS:
                logprob[gram] = LOG10_FLOOR
                continue
            # each side's query: a token outside its unigrams reads as <unk>
            qa = gram if vocab_a.issuperset(gram) else tuple(
                t if t in vocab_a else UNK for t in gram
            )
            qb = gram if vocab_b.issuperset(gram) else tuple(
                t if t in vocab_b else UNK for t in gram
            )
            la = lp_a.get(qa)
            if la is None:
                la = _backoff_logprob(lp_a, bo_a, qa)
            lb = lp_b.get(qb)
            if lb is None:
                lb = _backoff_logprob(lp_b, bo_b, qb)
            lp = logprob[gram] = math.log10(max(lam * 10.0 ** la + mu * 10.0 ** lb, 1e-300))
            if k == 1:
                continue
            if gram[:-1] != h:
                if h is not None:
                    weights[h] = _backoff_weight(num, den)
                h, num, den = gram[:-1], 1.0, 1.0
            num -= 10.0 ** lp
            low = logprob.get(gram[1:])
            if low is None:
                low = _backoff_logprob(logprob, backoff, gram[1:])
            den -= 10.0 ** low
        if k == 1:
            # the unknown marker takes whatever mass the real words leave
            leftover = 1.0 - left_sum(10.0 ** logprob[g] for g in grams if g[0] != UNK)
            logprob[(UNK,)] = math.log10(max(leftover, 1e-12))
            continue
        if h is not None:
            weights[h] = _backoff_weight(num, den)
        # the (k-1)-gram histories in their sorted order; one with no
        # continuation keeps all its mass: log10(1 / 1)
        for h in support[k - 2]:
            backoff[h] = weights.get(h, 0.0)
    return NGramModel._adopt(order, logprob, backoff)


def _backoff_weight(num: float, den: float) -> float:
    """log10 of a history's back-off weight: the mass its stored continuations
    leave (``num``) over the mass the lower order leaves them (``den``)."""
    if num <= 1e-12 or den <= 1e-12:
        return LOG10_FLOOR
    return math.log10(num / den)


def write_arpa(model: NGramModel, path: str | Path) -> None:
    """Write ``model`` as an ARPA file, each order's n-grams sorted.

    The n-grams are sorted into orders in one pass over the model and each
    section is written in one call.  A model that ``read_arpa`` would not
    read back raises ``ArpaFormatError`` naming the n-gram, and nothing is
    written: a token that is empty or holds whitespace, an n-gram of no
    tokens or more than ``order``, one whose context is not stored, and a
    NaN or +inf log probability or written back-off weight.
    """
    order, logprob, backoff = model.order, model._logprob, model._backoff
    if order < 1:
        raise ArpaFormatError(f"{path}: cannot write an order-{order} model")
    bow, inf = backoff.get, math.inf
    grams_by_order: list[list[tuple[str, ...]]] = [[] for _ in range(order)]
    for gram, lp in logprob.items():
        n = len(gram)
        if not 0 < n <= order:
            raise ArpaFormatError(
                f"{path}: cannot write {n}-gram {gram!r} of an order-{order} model"
            )
        if n > 1 and gram[:-1] not in logprob:
            raise ArpaFormatError(f"{path}: context {gram[:-1]!r} of n-gram {gram!r} not stored")
        # -inf is a zero probability; NaN compares false
        if not lp < inf:
            raise ArpaFormatError(f"{path}: cannot write log probability {lp} of n-gram {gram!r}")
        if n < order and not bow(gram, 0.0) < inf:
            raise ArpaFormatError(
                f"{path}: cannot write back-off weight {bow(gram)} of n-gram {gram!r}"
            )
        grams_by_order[n - 1].append(gram)
    for grams in grams_by_order:
        grams.sort()
    written = chain.from_iterable(chain.from_iterable(grams_by_order))
    bad = {tok for tok in set(written) if tok.split() != [tok]}
    if bad:
        # name the first in the order the file would hold them
        gram, tok = next((g, t) for grams in grams_by_order for g in grams for t in g if t in bad)
        raise ArpaFormatError(f"{path}: cannot write token {tok!r} of n-gram {gram!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\\data\\\n")
        fh.write("".join(f"ngram {k}={len(grams)}\n" for k, grams in enumerate(grams_by_order, 1)))
        for k, grams in enumerate(grams_by_order, 1):
            fh.write(f"\n\\{k}-grams:\n")
            if k < order:
                fh.write("".join(
                    f"{logprob[g]:.6f}\t{' '.join(g)}\t{bow(g, 0.0):.6f}\n" for g in grams
                ))
            else:
                fh.write("".join(f"{logprob[g]:.6f}\t{' '.join(g)}\n" for g in grams))
        fh.write("\n\\end\\\n")


def _truncated(path: Path) -> ArpaFormatError:
    return ArpaFormatError(f"{path}: truncated ARPA file (no \\end\\)")


def _arpa_lines(numbered, path: Path):
    """Each non-blank line of ``numbered`` (``enumerate`` over a file), stripped,
    with its number.  An ARPA file ends with ``\\end\\``, so running out of
    lines raises."""
    for lineno, raw in numbered:
        line = raw.strip()
        if line:
            yield lineno, line
    raise _truncated(path)


def read_arpa(path: str | Path) -> NGramModel:
    """Read an ARPA file; malformed text raises ``ArpaFormatError`` naming its line.

    The file is read in the order it is written: text up to ``\\data\\``
    is skipped, the ``ngram k=n`` counts follow, then each declared
    section in turn, its count checked where it ends, then ``\\end\\``;
    anything after that is ignored.  An n-gram line is tab-separated:
    log probability, the n-gram's tokens, and an optional back-off weight.
    A highest-order n-gram's weight is checked but not stored: no query
    reads it and ``write_arpa`` writes none.

    The file is read line by line, never held whole, and each n-gram line
    is parsed in the section loop; ``bad_number`` runs only on a fault.

    The model holds each distinct token once, not once per position.  The
    file is prefix closed, so an n-gram's context was stored in the section
    before: its key is that stored key plus the last token, taken from a
    per-read ``str -> str`` table, so each n-gram adds a tuple but no string.
    """
    path = Path(path)
    inf = math.inf

    def fail(lineno, msg):
        raise ArpaFormatError(f"{path}:{lineno}: {msg}")

    def bad_number(lineno, line, text, what):
        try:
            value = float(text)
        except ValueError:
            fail(lineno, f"bad {what} in {line!r}")
        # -inf is a zero probability, so the value is NaN or +inf
        fail(lineno, f"{'NaN' if math.isnan(value) else '+inf'} {what} in {line!r}")

    logprob: dict[tuple[str, ...], float] = {}
    backoff: dict[tuple[str, ...], float] = {}
    # the previous section's keys, each mapped to itself, and one object per token
    contexts: dict[tuple[str, ...], tuple[str, ...]] = {(): ()}
    tokens: dict[str, str] = {}
    with open_text(path, ArpaFormatError) as fh:
        numbered = enumerate(fh, 1)
        lines = _arpa_lines(numbered, path)
        for lineno, line in lines:
            if line == "\\data\\":
                break
        declared: dict[int, int] = {}
        for lineno, line in lines:
            if not line.startswith("ngram "):
                break
            try:
                k, n = map(int, line[len("ngram "):].split("="))
            except ValueError:
                fail(lineno, f"bad count line {line!r}")
            if k in declared:
                fail(lineno, f"repeated count line for order {k}: {line!r}")
            declared[k] = n
        if not (line.startswith("\\") and line.endswith("-grams:")):
            fail(lineno, f"unexpected line {line!r} in \\data\\ section")
        if not declared:
            fail(lineno, "no ngram counts declared")
        order = len(declared)
        if sorted(declared) != list(range(1, order + 1)):
            fail(lineno, "non-contiguous ngram orders declared")
        section = 0
        while line != "\\end\\":
            section += 1
            if not line.endswith("-grams:"):
                fail(lineno, f"bad section header {line!r}")
            try:
                k = int(line[1:-len("-grams:")])
            except ValueError:
                fail(lineno, f"bad section header {line!r}")
            if k not in declared:
                fail(lineno, f"section {k} not declared in \\data\\")
            if k != section:
                fail(lineno, f"section {k} out of order")
            start = len(logprob)
            # a section runs to the next line that starts with a backslash,
            # which no n-gram line does
            for lineno, line in numbered:
                line = line.strip()
                if not line:
                    continue
                if line[0] == "\\":
                    break
                fields = line.split("\t")
                if not 2 <= len(fields) <= 3:
                    fail(lineno, f"bad n-gram line {line!r}")
                try:
                    lp = float(fields[0])
                except ValueError:
                    bad_number(lineno, line, fields[0], "log probability")
                if not lp < inf:  # -inf is a zero probability, NaN compares false
                    bad_number(lineno, line, fields[0], "log probability")
                words = fields[1].split()
                if len(words) != section:
                    fail(lineno, f"{len(words)}-gram {tuple(words)!r} in section {section}")
                word = words.pop()
                context = contexts.get(tuple(words))
                if context is None:
                    # a stored n-gram's context is stored, so this one is not a repeat;
                    # NGramModel.state drops context only when every context is stored
                    fail(lineno, f"context {' '.join(words)!r} of {fields[1]!r} not stored")
                gram = context + (tokens.setdefault(word, word),)
                if gram in logprob:
                    fail(lineno, f"repeated n-gram {fields[1]!r}")
                logprob[gram] = lp
                if len(fields) == 3:
                    try:
                        bow = float(fields[2])
                    except ValueError:
                        bad_number(lineno, line, fields[2], "back-off weight")
                    if not bow < inf:
                        bad_number(lineno, line, fields[2], "back-off weight")
                    # no query reads a highest-order n-gram's weight
                    if section < order:
                        backoff[gram] = bow
            else:
                raise _truncated(path)
            seen = len(logprob) - start
            if seen != declared[section]:
                fail(
                    lineno, f"section {section} declared {declared[section]} entries but has {seen}"
                )
            keys = list(islice(reversed(logprob), seen))
            contexts = dict(zip(keys, keys))
        if section != order:
            fail(lineno, f"missing sections after {section}")
    return NGramModel._adopt(order, logprob, backoff)
