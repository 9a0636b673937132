"""Independent reference implementations used to check the fast paths."""

import math
from types import SimpleNamespace

import numpy as np

from cantoasr.decoder import MatrixScorer, pdf_labels_for
from cantoasr.ngram import (
    LOG10_FLOOR,
    MLE_UNK_FLOOR,
    SOS,
    UNK,
    NGramModel,
    _predictions,
    tokenize_chars,
)
from cantoasr.simulate import MODEL_VARIANCE, SimulationError, StateModel, _label_rng


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
    end-of-sentence term is added at the final frame.  A state keeps one
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


def broadcast_state_models(labels, cfg):
    """``simulate.build_state_models`` with its first-draw distances as one
    (n, n, feature_dim) broadcast and ``np.argwhere`` over the upper triangle.

    The same draws, the same float expression per pair and the same redraw
    loop, so the means must equal the fast path's byte for byte.  Its
    memory is quadratic in the label count.
    """
    labels = sorted(set(labels))
    if not labels:
        raise SimulationError("no labels")
    rngs = [_label_rng(cfg.seed, lab) for lab in labels]
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
    return StateModel(tuple(labels), mat, MODEL_VARIANCE)


def counting_train_ngram(corpus, order, smoothing="witten_bell"):
    """``ngram.train_ngram`` counting in plain dicts, one prediction at a time.

    Each prediction adds one to every suffix of its n-gram, and each
    history's total and type count are summed gram by gram; the Witten-Bell
    lower order is read through ``model.prob``.  The same insertion order
    and the same float expressions, so its ``logprob`` and ``backoff`` must
    equal the fast path's item for item.
    """
    corpus = [s for s in corpus if s]
    counts = [dict() for _ in range(order + 1)]
    for walk in _predictions(order, corpus):
        for token, history in walk:
            if token == SOS:
                continue  # the start marker is never predicted
            gram = history + (token,)
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
