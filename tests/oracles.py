"""Independent reference implementations used to check the fast paths."""

import math


def enumerate_paths(lat, lm_weight):
    """Every complete start-to-final path by brute-force DFS.

    Returns (words, am, lm, combined, node_path) tuples, best combined first,
    ties by node path.
    """
    results = []

    def walk(node, words, am, lm, path):
        if node in lat.finals:
            results.append(
                (tuple(words), am, lm, am + lm_weight * lm, tuple(path))
            )
        for arc in lat.arcs_from(node):
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


def viterbi_reference(graph, am_matrix, lm, lm_weight):
    """Unpruned Viterbi over the search graph, plain dict loops.

    Mirrors the decoder's semantics (per-state recombination, the whole
    word's LM charged on the entry arc using the token's character context,
    end-of-sentence LM term at finalization) without any of its vectorized
    machinery.  ``am_matrix`` is indexed by the graph's pdf order.  Returns
    (words, am_total, lm_total, combined) or None when no complete path
    exists.
    """
    ln10 = math.log(10.0)
    n_frames = am_matrix.shape[0]

    def word_lm(word, ctx):
        total = 0.0
        h = ctx
        for ch in graph.word_tokens[word]:
            total += ln10 * lm.logprob10(ch, (h,))
            h = ch
        return total

    def closure(tokens):
        # word-end arcs into the hub (no cost: the word's LM was charged on
        # entry), then entries for the next word
        hub_best = tokens.get(graph.hub)
        for j_state in sorted(graph.junction_words):
            tok = tokens.get(j_state)
            if tok is None:
                continue
            word = graph.junction_words[j_state]
            comb, am, lmtot, _, words = tok
            cand = (comb, am, lmtot, graph.word_tokens[word][-1], words + (word,))
            if hub_best is None or cand[0] > hub_best[0]:
                hub_best = cand
        if hub_best is not None:
            tokens[graph.hub] = hub_best
            comb, am, lmtot, ctx, words = hub_best
            for entry, word in graph.entry_word_pairs():
                delta = word_lm(word, ctx)
                cand = (comb + lm_weight * delta, am, lmtot + delta, ctx, words)
                cur = tokens.get(entry)
                if cur is None or cand[0] > cur[0]:
                    tokens[entry] = cand
        return tokens

    tokens = closure({graph.start: (0.0, 0.0, 0.0, "<s>", ())})
    for t in range(n_frames):
        new_tokens = {}
        for src, dst, pdf_idx, weight in graph.emitting_arcs():
            tok = tokens.get(src)
            if tok is None:
                continue
            comb, am, lmtot, ctx, words = tok
            delta = weight + am_matrix[t, pdf_idx]
            cand = (comb + delta, am + delta, lmtot, ctx, words)
            cur = new_tokens.get(dst)
            if cur is None or cand[0] > cur[0]:
                new_tokens[dst] = cand
        tokens = closure(new_tokens)
        if not tokens:
            return None
    tok = tokens.get(graph.hub)
    if tok is None:
        return None
    comb, am, lmtot, ctx, words = tok
    end = ln10 * lm.logprob10("</s>", (ctx,))
    return words, am, lmtot + end, comb + lm_weight * end


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
