"""Independent reference implementations used to check the fast paths."""

import math
import zlib
from types import SimpleNamespace

import numpy as np

from cantoasr.decoder import MatrixScorer, pdf_labels_for
from cantoasr.ngram import (
    EM_MAX_ITER,
    EM_TOL,
    EOS,
    LOG10_FLOOR,
    MLE_UNK_FLOOR,
    SOS,
    UNK,
    NGramModel,
    tokenize_chars,
)
from cantoasr.phonology import NULL_MARK, JyutpingError, Syllable
from cantoasr.simulate import MODEL_VARIANCE, SimConfig, SimulationError, StateModel


def enumerate_paths(lat, lm_weight):
    """Every complete start-to-final path by brute-force DFS.

    Returns (words, am, lm, combined, node_path) tuples, best combined first,
    ties by node path.
    """
    results = []
    out = {}
    for arc in lat.arcs:
        out.setdefault(arc.src, []).append(arc)

    def walk(node, words, am, lm, path):
        if node in lat.finals:
            results.append(
                (tuple(words), am, lm, am + lm_weight * lm, tuple(path))
            )
        for arc in out.get(node, []):
            walk(
                arc.dst,
                words + ([arc.word] if arc.word else []),
                am + arc.am,
                lm + arc.lm,
                path + [arc.dst],
            )

    walk(lat.start, [], 0.0, 0.0, [lat.start])
    results.sort(key=lambda r: (-r[3], r[4]))
    return results


def edit_distance(ref, hyp):
    """Plain quadratic DP, minimum unit-cost edits only."""
    n, m = len(ref), len(hyp)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dp[i][0] = i
    for j in range(m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if ref[i - 1] == hyp[j - 1] else 1
            dp[i][j] = min(dp[i - 1][j] + 1, dp[i][j - 1] + 1, dp[i - 1][j - 1] + cost)
    return dp[n][m]


def viterbi_reference(lex, lm, scorer, lm_weight):
    """Unpruned Viterbi over the lexicon's word loop, plain dict loops.

    Builds its own chains and reads nothing of the decoder's graph.  Words
    go in sorted order, each word's pronunciations in lexicon order.  A
    pronunciation is a chain of its phones' states (``pdf_labels_for``),
    and each state has a self-loop and a forward arc, each of weight
    log 0.5, that both emit the state's label, read from ``scorer`` by
    name.  The chain's last forward arc reaches the word end.  Word ends
    join a hub with no cost, and the hub enters every pronunciation
    charging the whole word's character-bigram LM score (``tokenize_chars``)
    after the hub's context, the last character of the previous word.  The
    end-of-sentence term is added after the final frame's best word end is
    chosen, as the decoder adds it, so it takes no part in that choice (an
    exact oracle would add it before).  A state keeps one
    token.  A forward arc wins a tie with a self-loop, the first word end
    in that order wins a tie at the hub, and a token already in a chain's
    first state wins a tie with the hub's entry.  Returns
    (words, am_total, lm_total, combined), or None when no complete path
    exists.

    ``perfbench/workloads.py`` still calls the earlier form
    ``(graph, am_matrix, lm, lm_weight)``; ``_graph_form`` serves it.
    """
    if isinstance(lm, np.ndarray):
        lex, lm, scorer = _graph_form(lex, lm, scorer)
    ln10 = math.log(10.0)
    log_half = math.log(0.5)
    column = {label: k for k, label in enumerate(scorer.labels)}
    chars = {word: tokenize_chars(word) for word in lex.entries}
    prons = [
        (word, [column[pdf] for phone in pron for pdf in pdf_labels_for(phone.label)])
        for word in sorted(lex.entries)
        for pron in lex.entries[word]
    ]

    def word_lm(word, ctx):
        total = 0.0
        for ch in chars[word]:
            total += ln10 * lm.logprob10(ch, (ctx,))
            ctx = ch
        return total

    def closure(tokens, hub):
        # word ends into the hub, then the hub into every pronunciation
        for p, (word, chain) in enumerate(prons):
            tok = tokens.get((p, len(chain)))
            if tok is not None and (hub is None or tok[0] > hub[0]):
                comb, am, lmtot, _, words = tok
                hub = (comb, am, lmtot, chars[word][-1], words + (word,))
        if hub is not None:
            comb, am, lmtot, ctx, words = hub
            for p, (word, _) in enumerate(prons):
                delta = word_lm(word, ctx)
                cand = (comb + lm_weight * delta, am, lmtot + delta, ctx, words)
                cur = tokens.get((p, 0))
                if cur is None or cand[0] > cur[0]:
                    tokens[p, 0] = cand
        return tokens, hub

    # tokens are keyed (pronunciation, position); position len(chain) is the word end
    tokens, hub = closure({}, (0.0, 0.0, 0.0, "<s>", ()))
    for frame in scorer.matrix:
        moved = {}
        for p, (_, chain) in enumerate(prons):
            for k in range(len(chain) + 1):
                # the forward arc from k - 1 goes first, so it wins a tie with the self-loop
                for src in (k - 1, k):
                    tok = tokens.get((p, src)) if 0 <= src < len(chain) else None
                    if tok is None:
                        continue
                    comb, am, lmtot, ctx, words = tok
                    delta = log_half + frame[chain[src]]
                    cand = (comb + delta, am + delta, lmtot, ctx, words)
                    cur = moved.get((p, k))
                    if cur is None or cand[0] > cur[0]:
                        moved[p, k] = cand
        tokens, hub = closure(moved, None)
        if not tokens:
            return None
    if hub is None:
        return None
    comb, am, lmtot, ctx, words = hub
    end = ln10 * lm.logprob10("</s>", (ctx,))
    return words, am, lmtot + end, comb + lm_weight * end


def _graph_form(graph, am_matrix, lm):
    """``(lex, lm, scorer)`` for a call that passes a search graph and its
    pdf-ordered score matrix.  Each phone is read back from the label of its
    first state in the graph's chains, so this form still checks the state
    order within a phone but takes the phone sequences from the graph."""
    entries = {}
    for entry, junction, w in zip(graph.entry_states, graph.j_states, graph.j_words):
        labels = [graph.pdf_labels[i] for i in graph.state_pdf[entry:junction:3]]
        pron = tuple(SimpleNamespace(label=label.rsplit("#", 1)[0]) for label in labels)
        entries.setdefault(graph.words[w], []).append(pron)
    return SimpleNamespace(entries=entries), lm, MatrixScorer(am_matrix, graph.pdf_labels)


def arpa_logprob10(model, word, history):
    """log10 P(word | history) by the ARPA back-off definition, recursively.

    Reads only ``model.order``, ``model.logprob`` and ``model.backoff``.  A
    token outside the unigrams reads as ``<unk>``; the context is the last
    ``order - 1`` tokens of the history.  ``P(w | c)`` is the stored value of
    ``c + (w,)``, else ``bow(c) + P(w | c[1:])`` with an unstored weight
    read as 0; with an empty context, the ``<unk>`` unigram, or -99 (the
    ARPA floor) when there is none.
    """
    unk = "<unk>"
    logprob, backoff = model.logprob, model.backoff
    mapped = [tok if (tok,) in logprob else unk for tok in [*history, word]]
    context, word = tuple(mapped[:-1]), mapped[-1]
    context = context[max(0, len(context) - (model.order - 1)):]

    def p(context):
        if context + (word,) in logprob:
            return logprob[context + (word,)]
        if not context:
            return logprob.get((unk,), -99.0)
        return backoff.get(context, 0.0) + p(context[1:])

    return p(context)


def label_rng(seed, label):
    """The reference stream of pdf label ``label`` under model seed ``seed``:
    ``default_rng`` on the ``(seed, crc32(label))`` tuple."""
    return np.random.default_rng(
        np.random.SeedSequence((seed, zlib.crc32(label.encode("utf-8"))))
    )


def broadcast_state_models(labels, cfg):
    """``simulate.build_state_models`` with its first-draw distances as one
    (n, n, feature_dim) broadcast and ``np.argwhere`` over the upper triangle.

    The same streams, seeded by ``default_rng`` from the ``(seed, crc32)``
    tuple, the same float expression per pair and the same redraw loop, so
    the means must equal the fast path's byte for byte.  Its memory is
    quadratic in the label count.
    """
    labels = sorted(set(labels))
    if not labels:
        raise SimulationError("no labels")
    rngs = [label_rng(cfg.seed, lab) for lab in labels]
    mat = np.stack([rng.normal(0.0, cfg.mean_scale, cfg.feature_dim) for rng in rngs])

    floor = 4.0 * cfg.noise_sigma
    if floor > 0.0 and len(labels) > 1:
        dist = np.sqrt(np.sum((mat[:, None] - mat[None, :]) ** 2, axis=2))
        upper = np.triu(np.ones_like(dist, dtype=bool), 1)
        for j in np.argwhere((dist < floor) & upper)[:, 1]:
            # redraw the later label until it clears every other mean
            other_mat = np.delete(mat, j, axis=0)
            for tries in range(101):
                gaps = np.sqrt(np.sum((other_mat - mat[j]) ** 2, axis=1))
                if gaps.min() >= floor:
                    break
                if tries == 100:
                    raise SimulationError(
                        f"cannot separate {labels[j]!r}; raise mean_scale or "
                        f"lower noise_sigma"
                    )
                mat[j] = rngs[j].normal(0.0, cfg.mean_scale, cfg.feature_dim)
    return StateModel(tuple(labels), mat)


def blend_rows(entries):
    """The ``simulate.mix_models`` table rows of phone-level blends: each entry
    ``(a, b, p)`` gives every state pdf pair ``(pa, pb)`` of the two phones the
    row ``pb -> ((p, pa), (1 - p, pb))``, as ``experiment.derive_confusions``
    builds them."""
    return {
        pb: ((p, pa), (1.0 - p, pb))
        for a, b, p in entries
        for pa, pb in zip(pdf_labels_for(a), pdf_labels_for(b))
    }


def sequential_blend(models, entries):
    """The coda-merge blend as one in-place loop: for each entry ``(a, b, p)``
    in order and each state pdf pair of the two phones, ``means[pb] = p *
    means[pa] + (1 - p) * means[pb]``, reading rows that earlier entries may
    already have replaced."""
    means, row = models.means.copy(), models.index
    for a, b, p in entries:
        for pa, pb in zip(pdf_labels_for(a), pdf_labels_for(b)):
            means[row[pb]] = p * means[row[pa]] + (1.0 - p) * means[row[pb]]
    return StateModel(models.labels, means)


def true_label_sequence(phone_seq, models, cfg, salt=0):
    """The generating pdf label of every frame ``simulate.draw_frames`` draws,
    re-derived from its draw protocol.

    One generator on ``SeedSequence((seed, 1, salt))``; for each HMM state
    of each phone in turn (``pdf_labels_for``), one ``integers(lo, hi + 1)``
    duration, then one ``(duration, feature_dim)`` ``standard_normal`` block,
    drawn here only to keep the stream in step.
    """
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1, salt)))
    lo, hi = cfg.frames_per_state
    labels = []
    for phone in phone_seq:
        for pdf in pdf_labels_for(phone):
            duration = int(rng.integers(lo, hi + 1))
            rng.standard_normal((duration, cfg.feature_dim))
            labels += [pdf] * duration
    return labels


def fused_simulate_utterance(
    phone_seq: list[str] | tuple[str, ...],
    models: StateModel,
    cfg: SimConfig,
    salt: int = 0,
) -> MatrixScorer:
    """``simulate.simulate_utterance`` as one function that draws the frames
    and scores them against the same models, before it was split into
    ``draw_frames`` and ``score_frames``; kept verbatim as their reference.
    """
    if not salt >= 0:
        raise SimulationError(f"salt must be >= 0, got {salt}")
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1, salt)))
    lo, hi = cfg.frames_per_state
    mean_mat = models.means
    frames = []
    for phone in phone_seq:
        for pdf in pdf_labels_for(phone):
            row = models.index.get(pdf)
            if row is None:
                raise SimulationError(f"phone {phone!r} has no model for {pdf!r}")
            duration = int(rng.integers(lo, hi + 1))
            noise = rng.standard_normal((duration, cfg.feature_dim))
            frames.append(mean_mat[row] + cfg.noise_sigma * noise)
    if not frames:
        raise SimulationError("empty phone sequence")
    feats = np.concatenate(frames, axis=0)

    # log N(x; mu, v I) = -d/2 log(2 pi v) - |x - mu|^2 / (2v)
    v = MODEL_VARIANCE
    d = cfg.feature_dim
    sq = (
        np.sum(feats**2, axis=1)[:, None]
        - 2.0 * feats @ mean_mat.T
        + np.sum(mean_mat**2, axis=1)[None, :]
    )
    matrix = -0.5 * d * np.log(2.0 * np.pi * v) - sq / (2.0 * v)
    return MatrixScorer(matrix, models.labels)


def score_frames_reference(frames, models):
    """``simulate.score_frames`` as one expression that allocates each
    intermediate afresh, as it was written before it built the scores in
    place; kept verbatim as its reference."""
    # log N(x; mu, v I) = -d/2 log(2 pi v) - |x - mu|^2 / (2v)
    v = MODEL_VARIANCE
    d = frames.shape[1]
    mean_mat = models.means
    sq = (
        np.sum(frames**2, axis=1)[:, None]
        - 2.0 * frames @ mean_mat.T
        + np.sum(mean_mat**2, axis=1)[None, :]
    )
    matrix = -0.5 * d * np.log(2.0 * np.pi * v) - sq / (2.0 * v)
    return MatrixScorer(matrix, models.labels)


def counting_train_ngram(corpus, order, smoothing="witten_bell"):
    """``ngram.train_ngram`` counting in plain dicts, one prediction at a time.

    Each prediction adds one to every suffix of its n-gram, and each
    history's total and type count are summed gram by gram; the Witten-Bell
    lower order is read through ``arpa_logprob10`` over the orders stored so
    far.  The same insertion order, the same storage rule for histories and
    their prefixes, and the same float expressions, so its ``logprob`` and
    ``backoff`` must equal the fast path's item for item.
    """
    corpus = [s for s in corpus if s]
    counts = [dict() for _ in range(order + 1)]
    for sent in corpus:
        padded = [SOS] * (order - 1) + list(sent) + [EOS]
        for i in range(order - 1, len(padded)):
            if padded[i] == SOS:
                continue  # the start marker is never predicted
            gram = tuple(padded[i - order + 1 : i + 1])
            for k in range(1, order + 1):
                grams, g = counts[k], gram[-k:]
                grams[g] = grams.get(g, 0) + 1
    totals = [dict() for _ in range(order)]
    types = [dict() for _ in range(order)]
    for k in range(1, order + 1):
        for gram, c in counts[k].items():
            h = gram[:-1]
            totals[k - 1][h] = totals[k - 1].get(h, 0) + c
            types[k - 1][h] = types[k - 1].get(h, 0) + 1

    logprob, backoff = {}, {}
    # the orders stored so far, as arpa_logprob10 reads a model
    so_far = SimpleNamespace(order=order, logprob=logprob, backoff=backoff)
    wb = smoothing == "witten_bell"

    n_tokens = totals[0][()]
    n_types = types[0][()]
    for (tok,), c in sorted(counts[1].items()):
        p = c / (n_tokens + n_types) if wb else c / n_tokens
        logprob[(tok,)] = math.log10(p)
    if wb:
        logprob[(UNK,)] = math.log10(n_types / (n_tokens + n_types))
    else:
        logprob[(UNK,)] = math.log10(MLE_UNK_FLOOR)

    for k in range(2, order + 1):
        for gram, c in sorted(counts[k].items()):
            h = gram[:-1]
            if wb:
                t = types[k - 1][h]
                tot = totals[k - 1][h]
                p_low = 10.0 ** arpa_logprob10(so_far, gram[-1], h[1:])
                p = (c + t * p_low) / (tot + t)
            else:
                p = c / totals[k - 1][h]
            logprob[gram] = math.log10(p)
        # histories need back-off weights; a history that is not stored gets
        # -99, and so does each of its prefixes that is not stored
        for h in sorted(totals[k - 1]):
            for j in range(len(h), 0, -1):
                if h[:j] in logprob:
                    break
                logprob[h[:j]] = LOG10_FLOOR
            if wb:
                t = types[k - 1][h]
                bow = t / (totals[k - 1][h] + t)
                backoff[h] = math.log10(bow)
            else:
                backoff[h] = LOG10_FLOOR
    return NGramModel(order, logprob, backoff)


class MixtureModel:
    """Exact linear mixture of two equal-order models, queried per event.

    ``ngram.interpolate`` stores the same probabilities as a back-off
    model; this form scores held-out text (``perplexity``) without one.
    """

    def __init__(self, a, b, lam):
        self.a, self.b, self.lam = a, b, lam
        self.order = a.order

    def prob(self, word, history=()):
        # each component without its memo: a mixture's queries hardly repeat
        pa = 10.0 ** self.a._query(word, history)
        pb = 10.0 ** self.b._query(word, history)
        return self.lam * pa + (1.0 - self.lam) * pb

    def logprob10(self, word, history=()):
        return math.log10(max(self.prob(word, history), 1e-300))


def interpolate_reference(a, b, lam):
    """``ngram.interpolate`` one n-gram at a time.

    Each order is sorted from its own pass over both models.  A union
    n-gram's mixture is ``lam * pa + (1 - lam) * pb`` with each side read
    through ``arpa_logprob10``, which maps the tokens first; ``<unk>`` takes
    the unigram mass the other words leave, summed left to right.  A
    history's back-off weight renormalizes its continuations, each lower
    order read by the ARPA recursion over the mixture's tables so far with
    the tokens unmapped.  Its items, their order and their bits must equal
    the fast path's.
    """
    logprob, backoff = {}, {}
    support = [
        sorted({g for m in (a, b) for g in m.logprob if len(g) == k})
        for k in range(1, a.order + 1)
    ]

    def walk(gram):
        if gram in logprob:
            return logprob[gram]
        if len(gram) == 1:
            return logprob.get((UNK,), LOG10_FLOOR)
        return backoff.get(gram[:-1], 0.0) + walk(gram[1:])

    for k, grams in enumerate(support, 1):
        for gram in grams:
            if gram[-1] == SOS:
                logprob[gram] = LOG10_FLOOR
                continue
            pa = 10.0 ** arpa_logprob10(a, gram[-1], gram[:-1])
            pb = 10.0 ** arpa_logprob10(b, gram[-1], gram[:-1])
            logprob[gram] = math.log10(max(lam * pa + (1.0 - lam) * pb, 1e-300))
        if k == 1:
            mass = 0.0
            for g, lp in logprob.items():
                if g[0] != UNK:
                    mass += 10.0 ** lp
            logprob[(UNK,)] = math.log10(max(1.0 - mass, 1e-12))
            continue
        continuations = {}
        for gram in grams:
            continuations.setdefault(gram[:-1], []).append(gram)
        for h in support[k - 2]:
            num = den = 1.0
            for gram in continuations.get(h, []):
                if gram[-1] != SOS:
                    num -= 10.0 ** logprob[gram]
                    den -= 10.0 ** walk(gram[1:])
            backoff[h] = LOG10_FLOOR if num <= 1e-12 or den <= 1e-12 else math.log10(num / den)
    return NGramModel(a.order, logprob, backoff)


def tune_lambda_reference(a, b, heldout):
    """``ngram.tune_lambda`` as a plain EM loop over (pa, pb) pairs.

    Each event is a held-out prediction, read through ``arpa_logprob10``;
    each step sums the posterior shares left to right, an event that
    neither side can produce giving half; the endpoints 0 and 1 compete
    with the EM weight on the left-to-right log-likelihood sum, a tie going
    to the EM weight.  Its weight must equal the fast path's bit for bit.
    """
    events = []
    for sent in heldout:
        padded = [SOS] * (a.order - 1) + list(sent) + [EOS]
        for i in range(a.order - 1, len(padded)):
            if padded[i] != SOS:
                history = tuple(padded[i - a.order + 1 : i])
                events.append(tuple(
                    10.0 ** arpa_logprob10(m, padded[i], history) for m in (a, b)
                ))
    lam = 0.5
    for _ in range(EM_MAX_ITER):
        post = 0.0
        for pa, pb in events:
            mixed = lam * pa + (1.0 - lam) * pb
            post += lam * pa / mixed if mixed > 0 else 0.5
        new_lam = post / len(events)
        done = abs(new_lam - lam) < EM_TOL
        lam = new_lam
        if done:
            break

    def loglik(l):
        total = 0.0
        for pa, pb in events:
            total += math.log(max(l * pa + (1.0 - l) * pb, 1e-300))
        return total

    return max((lam, 0.0, 1.0), key=lambda l: (loglik(l), l == lam))


def parse_jyutping_reference(s, inv):
    """``parse_jyutping`` by scanning every onset, longest first, then
    alphabetic, for the first prefix whose remainder is a final."""
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
    onsets = sorted((o for o in inv.onsets if o != NULL_MARK), key=lambda o: (-len(o), o))
    for onset in onsets:
        rest = body[len(onset):]
        if rest and body.startswith(onset) and rest in inv.finals:
            nucleus, coda = inv.finals[rest]
            return Syllable(onset, nucleus, coda, tone)
    raise JyutpingError(
        f"cannot segment {s!r} into onset + final", reason="unknown-syllable"
    )
