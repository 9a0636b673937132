"""Phone-HMM search graph and token-passing Viterbi beam decoding.

The graph is a word loop: a hub state fans out to every pronunciation,
each phone expands to a strict left-to-right 3-state HMM (self-loop plus
forward transition, emitting its state's pdf on both), and a word-end
epsilon arc returns to the hub carrying the word.  The bigram character LM
is conditioned on the last character of the previous word, so the graph
stays small; the LM maps and scores each word's tokens itself
(``NGramModel.map_token`` and ``NGramModel.ln_score``).  These word-level
tables hold nothing of a unit set, so one ``WordLM`` is built per word list
and LM and shared by every scheme's graph over them.  The whole word's
LM cost is charged on the entry arc (the context is already known there):
path totals are unchanged versus charging it at the word end, but tokens
inside competing words then carry comparable LM amounts, which is what
makes beam comparisons meaningful.
The end-of-sentence LM term is added when the best final token is
selected.

A token is its score and the word-boundary record it descends from.
Inside a word its LM total and context never change, so both are derived
from that record: each record keeps its word and the LM total at its word
end, the context after it is ``word_end_ctx`` of its word, and a token in
pronunciation ``p`` entered from record ``r`` has LM total
``rec_lm[r] + pron_lm[word_end_ctx[rec_word[r]], p]``.  The hub's context
is the context of its record.  A record's acoustic total is derived too,
as ``score - lm_weight * lm`` at its word end.

Pronunciations are laid out as consecutive state ids (entry state, chain,
junction), so every emitting state ``s`` has exactly two arcs, ``s -> s``
and ``s -> s + 1``, both emitting ``state_pdf[s]`` with the one log
weight ``TRANSITION_LOG_PROB``; the graph stores that topology, not an arc
list.  Both arcs of a state carry the same score, so the emitting step
computes it once per active state and lands it on ``s`` and on ``s + 1``;
where a self-loop and a forward arc tie, the forward arc wins.  The step
expands every surviving token without picking out the emitting ones: the
score array has one ``-inf`` column past the graph's pdfs, which
``state_pdf`` -1 of the hub and the junctions reads, so their arcs land
only ``-inf`` scores, and a state's record is read only where its score is
finite.  The dense per-state arrays have one sentinel slot past the last
junction, so ``s + 1`` exists for every state.

Decoding is frame-synchronous token passing with at most one surviving
token per graph state, beam pruning, and a hard cap on surviving tokens
(``max_active``).  The surviving tokens are carried from frame to frame as
an ascending list of state ids with their scores, so no frame rescans the
graph to find them.  The cap keeps the ``max_active`` highest scores, found
with a partition, and among tokens tied at the cut the lowest state ids.
The beam is measured from the best token that can still end on a word
boundary: a token at emitting position ``k`` of an ``L``-state chain needs
``L - k`` more frames (``frames_to_word_end``), so near the end of the
utterance a token that cannot finish in the frames left does not set the
reference, though it is kept or pruned like any other.  The states that
can finish in ``f`` frames are a prefix of one per-graph order
(``by_word_end``), so the reference reads only them.  A wider beam
never turns a successful decode into a failure (see ``decode``).  The
combined score is not promised to rise with the beam: a wider beam can
raise the reference and so prune a token that a narrower one kept, and the
single hub keeps only one word-end token per frame.  The per-frame work is
vectorized over the active set only, so tighter pruning genuinely reduces
wall-clock time.  Transition weights are folded into the acoustic total so
a hypothesis score is always ``am_total + lm_weight * lm_total``.
"""

import logging
import math
import numbers
import os
import struct
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path

import numpy as np

from . import DataError, open_text
from .lattice import DEFAULT_LM_WEIGHT, Arc, Hypothesis, Lattice
from .lexicon import PhoneLexicon
from .ngram import EOS, LN10, SOS, NGramModel, tokenize_chars

log = logging.getLogger(__name__)

NEG_INF = -np.inf
HMM_STATES_PER_PHONE = 3
FRAME_SHIFT_SECONDS = 0.01
# every emitting state's self-loop and forward arc are equally likely
TRANSITION_LOG_PROB = math.log(0.5)


class GraphError(DataError):
    pass


class DecodeError(DataError):
    pass


class ScoreFormatError(DataError):
    """A malformed FSCR score file; the message names the file."""


@dataclass(frozen=True)
class DecodeParams:
    beam: float = 15.0
    max_active: int = 7000
    lm_weight: float = DEFAULT_LM_WEIGHT
    lattice_width: int = 10

    def __post_init__(self):
        # a bool is an int to Python, but True is no count
        for name in ("max_active", "lattice_width"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DataError(f"{self}: {name} must be an integer")
        # written so that NaN fails; an infinite beam (no beam) stays valid
        if not (self.beam > 0 and self.max_active > 0 and 0 < self.lm_weight < math.inf):
            raise DataError(f"{self}: beam, max_active, lm_weight must be positive, lm_weight finite")
        if not self.lattice_width >= 1:
            raise DataError(f"{self}: lattice_width must be >= 1")


@dataclass
class DecodeStats:
    frames: int
    active_tokens_mean: float
    wall_seconds: float
    audio_seconds: float
    params: DecodeParams
    tokens_expanded: int

    @property
    def rtf(self) -> float:
        return self.wall_seconds / self.audio_seconds if self.audio_seconds else 0.0

    def to_json(self) -> dict:
        return {
            "frames": self.frames,
            "active_tokens_mean": self.active_tokens_mean,
            "wall_seconds": self.wall_seconds,
            "audio_seconds": self.audio_seconds,
            "rtf": self.rtf,
            "beam": self.params.beam,
            "max_active": self.params.max_active,
            "lm_weight": self.params.lm_weight,
            "tokens_expanded": self.tokens_expanded,
        }


class MatrixScorer:
    """Acoustic scores backed by a (frames x labels) matrix.

    ``matrix[t, k]`` is the natural-log likelihood of frame ``t`` under
    ``labels[k]``; the audio duration assumes a fixed 10 ms frame shift.
    """

    def __init__(self, matrix: np.ndarray, labels: tuple[str, ...]):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != len(labels):
            raise ValueError("matrix must be (frames, len(labels))")
        # NaN compares false and +inf is no log likelihood; -inf (zero
        # likelihood) is a valid score
        if not (matrix < np.inf).all():
            raise DataError("score matrix holds NaN or +inf")
        self.matrix = matrix
        self.labels = tuple(labels)

    def num_frames(self) -> int:
        return self.matrix.shape[0]

    @property
    def audio_seconds(self) -> float:
        return self.num_frames() * FRAME_SHIFT_SECONDS


FSCR_MAGIC = b"FSCR"


def write_scores(path: str | Path, scorer: MatrixScorer) -> None:
    """Binary score matrix: magic, u32 frames, u32 labels, row-major f32 LE.

    Label names go to a ``.labels`` sidecar, one per line.
    """
    path = Path(path)
    frames, labels = scorer.matrix.shape
    with open(path, "wb") as fh:
        fh.write(FSCR_MAGIC)
        fh.write(struct.pack("<II", frames, labels))
        fh.write(scorer.matrix.astype("<f4").tobytes(order="C"))
    Path(str(path) + ".labels").write_text(
        "\n".join(scorer.labels) + "\n", encoding="utf-8"
    )


def read_scores(path: str | Path) -> MatrixScorer:
    """Read an FSCR file and its ``.labels`` sidecar."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FSCR_MAGIC:
            raise ScoreFormatError(f"{path}: bad magic {magic!r}, expected FSCR")
        header = fh.read(8)
        if len(header) != 8:
            raise ScoreFormatError(f"{path}: truncated FSCR header")
        frames, n_labels = struct.unpack("<II", header)
        # a header can declare more than the file holds; reading that would allocate it first
        held, wanted = os.fstat(fh.fileno()).st_size - fh.tell(), frames * n_labels * 4
        if held < wanted:
            raise ScoreFormatError(f"{path}: truncated score matrix")
        if held > wanted:
            raise ScoreFormatError(
                f"{path}: {held - wanted} bytes after the {frames}x{n_labels} score matrix"
            )
        data = np.frombuffer(fh.read(wanted), dtype="<f4")
    sidecar = Path(str(path) + ".labels")
    if not sidecar.exists():
        raise ScoreFormatError(f"{path}: no {sidecar.name} sidecar")
    with open_text(sidecar) as fh:
        labels = tuple(fh.read().split())
    if len(labels) != n_labels:
        raise ScoreFormatError(f"{path}: {n_labels} columns but {len(labels)} labels")
    if len(set(labels)) != n_labels:
        twice = next(lab for i, lab in enumerate(labels) if lab in labels[:i])
        raise ScoreFormatError(f"{path}: label {twice!r} names two columns")
    matrix = data.reshape(frames, n_labels).astype(np.float64)
    try:
        return MatrixScorer(matrix, labels)
    except ValueError as exc:
        raise ScoreFormatError(f"{path}: {exc}") from None


def pdf_labels_for(phone_label: str) -> tuple[str, ...]:
    """The three HMM-state pdf labels of one phone."""
    return tuple(f"{phone_label}#{k}" for k in range(HMM_STATES_PER_PHONE))


class WordLM:
    """The word-level bigram tables of one word list under one LM.

    They hold no unit of any scheme, so every scheme's graph over the same
    words and LM shares one.  ``words`` is the sorted word list.  A
    context is a word's last LM token, one per row in sorted order, then
    ``<s>`` at row ``sos_ctx``; ``table[c, w]`` is the natural-log LM cost
    of word ``w`` after context ``c``, factored as first-token-given-context
    plus the word's inner cost.  ``end_lm[c]`` is the end-of-sentence cost after context ``c``,
    and ``word_end_ctx[w]`` the context after word ``w``.
    """

    def __init__(self, words: Iterable[str], lm: NGramModel):
        self.words = tuple(sorted(set(words)))
        if not self.words:
            raise GraphError("empty lexicon")
        if lm.order != 2:
            raise GraphError(f"decoding LM must be a bigram, got order {lm.order}")

        word_tokens: dict[str, tuple[str, ...]] = {}
        for word in self.words:
            tokens = tokenize_chars(word)
            word_tokens[word] = tuple(map(lm.map_token, tokens))
            for tok, mapped in zip(tokens, word_tokens[word]):
                if mapped != tok:
                    log.warning("word %r: token %r unknown to the LM", word, tok)

        ctx_chars = sorted({toks[-1] for toks in word_tokens.values()})
        ctx_index = {c: i for i, c in enumerate(ctx_chars)}
        self.sos_ctx = len(ctx_chars)
        ctx_tokens = ctx_chars + [SOS]

        inner = np.zeros(len(self.words))
        firsts = []
        for w, word in enumerate(self.words):
            toks = word_tokens[word]
            firsts.append(toks[0])
            inner[w] = lm.ln_score(toks[1:], (toks[0],))[0]
        self.table = LN10 * lm.bigram_log10_table(ctx_tokens, firsts) + inner
        self.end_lm = np.array(
            [LN10 * lm.logprob10(EOS, (tok,)) for tok in ctx_tokens]
        )
        self.word_end_ctx = np.array(
            [ctx_index[word_tokens[w][-1]] for w in self.words],
            dtype=np.int32,
        )


class SearchGraph:
    """Compiled word-loop graph with flat arrays for fast decoding.

    The LM arrays come from ``word_lm``: ``words``, ``end_lm``,
    ``word_end_ctx`` and ``sos_ctx`` are its own, and ``pron_lm[c, p]`` is
    its table's column for pronunciation ``p``'s word, one contiguous row
    per context.  The graph keeps no reference to ``word_lm`` itself.
    """

    def __init__(self, lex: PhoneLexicon, word_lm: WordLM):
        # a WordLM is never empty, so neither is a lexicon with its words
        self.words = tuple(sorted(lex.entries))
        if self.words != word_lm.words:
            raise GraphError("the lexicon's words are not the LM table's words")

        # lex.labels rebuilds the phone set, so it is read once, and each
        # phone's pdf labels are formed once
        phone_pdf_labels = {lab: pdf_labels_for(lab) for lab in lex.labels}
        self.pdf_labels = tuple(
            sorted({p for pdfs in phone_pdf_labels.values() for p in pdfs})
        )
        pdf_index = {lab: i for i, lab in enumerate(self.pdf_labels)}
        phone_pdfs = {
            lab: [pdf_index[p] for p in pdfs] for lab, pdfs in phone_pdf_labels.items()
        }
        word_index = {w: i for i, w in enumerate(self.words)}

        self.hub = 0
        # every emitting state s has a self-loop and a forward arc to s + 1,
        # both emitting state_pdf[s]; the last state of a chain moves to its
        # junction, which with the hub emits nothing (state_pdf -1)
        state_pdf: list[int] = [-1]
        entry_states: list[int] = []
        j_states: list[int] = []
        j_words: list[int] = []
        to_end: list[int] = [0]
        self.num_prons = 0
        for word in self.words:
            for pron in lex.entries[word]:
                chain = [i for phone in pron for i in phone_pdfs[phone.label]]
                entry_states.append(len(state_pdf))
                state_pdf.extend(chain)
                j_states.append(len(state_pdf))
                state_pdf.append(-1)
                j_words.append(word_index[word])
                to_end.extend(range(len(chain), 0, -1))
                to_end.append(0)
                self.num_prons += 1
        self.num_states = len(state_pdf)

        # index arrays are intp: numpy casts any other dtype on every use
        self.state_pdf = np.asarray(state_pdf, dtype=np.intp)
        self.entry_states = np.asarray(entry_states, dtype=np.intp)
        self.j_states = np.asarray(j_states, dtype=np.intp)
        self.j_words = np.asarray(j_words, dtype=np.int32)
        # fewest frames from each state to a word boundary: 0 at the hub
        # and the junctions, L - k at position k of a length-L chain
        self.frames_to_word_end = np.asarray(to_end, dtype=np.int32)
        # the states that can reach a word end in f frames are the first
        # viable_count[f] of by_word_end, for f up to the longest chain
        self.by_word_end = np.argsort(self.frames_to_word_end, kind="stable")
        self.viable_count = np.cumsum(np.bincount(self.frames_to_word_end))

        self.pron_lm = word_lm.table[:, self.j_words]
        self.end_lm = word_lm.end_lm
        self.word_end_ctx = word_lm.word_end_ctx
        self.sos_ctx = word_lm.sos_ctx

    def arc_counts(self) -> dict:
        emitting = self.num_states - 1 - self.num_prons  # all but the hub and the junctions
        return {
            "emitting_states": emitting,
            "self_loops": emitting,
            "forward": emitting,
            "entry_eps": len(self.entry_states),
            "word_eps": len(self.j_states),
        }


def build_graph(lex: PhoneLexicon, lm: NGramModel | WordLM) -> SearchGraph:
    """The graph of ``lex`` under ``lm``, or under a ``WordLM`` of its words."""
    if not isinstance(lm, WordLM):
        lm = WordLM(lex.entries, lm)
    return SearchGraph(lex, lm)


def _score_matrix(graph: SearchGraph, scorer: MatrixScorer) -> np.ndarray:
    """(frames, graph pdf + 1) score array, mapped from the scorer's labels.

    Column ``k`` holds the scores of ``graph.pdf_labels[k]`` and the last
    column is ``-inf``, which ``state_pdf`` -1 (the hub and the junctions)
    reads.  The array is always a new copy, so the scorer's matrix is never
    written.
    """
    n_pdfs = len(graph.pdf_labels)
    am = np.full((scorer.num_frames(), n_pdfs + 1), NEG_INF)
    if scorer.labels == graph.pdf_labels:
        am[:, :n_pdfs] = scorer.matrix
        return am
    col = {lab: i for i, lab in enumerate(scorer.labels)}
    try:
        perm = np.array([col[lab] for lab in graph.pdf_labels])
    except KeyError as exc:
        raise DecodeError(f"scorer is missing pdf label {exc.args[0]!r}") from None
    am[:, :n_pdfs] = scorer.matrix[:, perm]
    return am


def _cap(ids: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` of ``ids`` with the highest ``scores``, in ascending order.

    ``ids`` must be ascending; among the scores tied at the cut the lowest
    ids are kept, so the set is exactly the first ``k`` of a sort by
    (-score, id).
    """
    cut = np.partition(scores, scores.size - k)[scores.size - k]
    keep = scores > cut
    ties = np.flatnonzero(scores == cut)
    keep[ties[: k - np.count_nonzero(keep)]] = True
    return ids.take(np.flatnonzero(keep))


def decode(
    graph: SearchGraph, scorer: MatrixScorer, params: DecodeParams | None = None
) -> tuple[Hypothesis, Lattice, DecodeStats]:
    """Frame-synchronous beam search; see the module docstring.

    At each frame the beam keeps the tokens within ``params.beam`` of the
    best token that can still reach a word boundary by the final frame
    (of the best token overall if none can); ``max_active`` then keeps the
    highest-scoring of those, viable or not.

    Raises ``DecodeError`` when the scorer lacks a graph pdf label or has no
    frames, when no token is left to keep at some frame, or when no
    surviving token is at a word boundary after the final frame.  With
    finite scores and a ``max_active`` that never binds, the last two
    happen only when the utterance is shorter than every pronunciation: a
    chain's last state scores at least as high as its word end (its
    self-loop weighs what its forward arc weighs), so the best viable token
    can be taken in a chain, where it survives the beam and has a viable
    successor (its self-loop, or its forward arc when it must move on).  So
    every beam succeeds exactly when the unpruned search does, and a wider
    beam never turns a success into a failure.  A binding ``max_active`` can
    drop every token that could still finish, since it ranks by score alone.

    No frame is left with only the hub and junctions, which emit nothing:
    the best-ranked survivor other than the hub is never a junction (its
    chain's last state scores at least as high and has the lower id), and
    a cap of 1 never keeps the hub alone, since the single token's
    self-loop ties its forward arc, so it never crosses a word end.
    """
    params = params or DecodeParams()
    am = _score_matrix(graph, scorer)
    n_frames = am.shape[0]
    if n_frames < 1:
        raise DecodeError("scorer has no frames")
    started = time.perf_counter()

    # the surviving tokens are the ascending state ids ``act`` with scores
    # ``vals``; each frame recombines into the dense ``nv`` and ``rec``,
    # which hold meaning only where ``nv`` is finite.  Both have one
    # sentinel slot past the last junction, so ``act + 1`` always exists.
    S = graph.num_states
    rec = np.full(S + 1, -1, dtype=np.int32)
    # per-record parallel lists: word id, previous record, end frame, am
    # total and lm total at the crossing
    rec_word: list[int] = []
    rec_prev: list[int] = []
    rec_frame: list[int] = []
    rec_am: list[float] = []
    rec_lm: list[float] = []
    pron_lm = graph.pron_lm

    lm_weight = params.lm_weight
    nv = np.full(S + 1, NEG_INF)
    nv[graph.hub] = 0.0
    nv[graph.entry_states] = lm_weight * pron_lm[graph.sos_ctx]
    act = (nv > NEG_INF).nonzero()[0]
    vals = nv[act]

    expanded = 0
    active_total = 0
    state_pdf = graph.state_pdf
    horizon = len(graph.viable_count) - 1
    by_word_end = graph.by_word_end
    viable_count = graph.viable_count.tolist()
    hub = graph.hub
    entries = graph.entry_states
    j_words = graph.j_words.tolist()
    word_end_ctx = graph.word_end_ctx.tolist()

    for t in range(n_frames):
        expanded += act.size
        # both arcs of a state score the same: the self-loop lands it on act,
        # the forward arc on act + 1 where it ties or beats the self-loop
        # there (it has the lower arc id).  The hub and the junctions read
        # the -inf column, so they land only -inf.  Every sum runs
        # (v + w) + am: another order moves scores in their last bits.
        vals += TRANSITION_LOG_PROB
        vals += am[t].take(state_pdf.take(act))
        nv.fill(NEG_INF)
        nv[act] = vals
        win = (vals >= nv[act + 1]).nonzero()[0]
        src = act[win]
        dst = src + 1
        nv[dst] = vals[win]
        # a self-loop keeps its state's record, so only forward winners copy it
        rec[dst] = rec[src]

        # epsilon closure: word-end arcs into the hub, then word entries
        # (each word's LM cost was already charged on its entry arc)
        jv = nv.take(graph.j_states)
        j_prons = (jv > NEG_INF).nonzero()[0]
        if j_prons.size:
            j_states = graph.j_states[j_prons]
            crossing = jv[j_prons]
            order = np.lexsort((j_states, -crossing))
            keep = order[: params.lattice_width]
            first = len(rec_word)  # first appended = best
            ks = j_states[keep]
            for p, r, c in zip(
                j_prons[keep].tolist(), rec[ks].tolist(), crossing[keep].tolist()
            ):
                w = j_words[p]
                # the word's LM total was fixed on its entry arc from record r
                if r < 0:
                    lm = pron_lm.item(graph.sos_ctx, p)
                else:
                    lm = rec_lm[r] + pron_lm.item(word_end_ctx[rec_word[r]], p)
                rec_word.append(w)
                rec_prev.append(r)
                rec_frame.append(t + 1)
                rec_am.append(c - lm_weight * lm)
                rec_lm.append(lm)
            hv = crossing[keep[0]]
            nv[hub] = hv
            rec[hub] = first
            cand_entry = hv + lm_weight * pron_lm[word_end_ctx[rec_word[first]]]
            improve = cand_entry > nv[entries]
            targets = entries[improve]
            nv[targets] = cand_entry[improve]
            rec[targets] = first

        # the beam is measured from the best token that can still reach a
        # word boundary in the frames left; if none can, from the best token
        frames_left = n_frames - 1 - t
        if frames_left < horizon:
            best = nv.take(by_word_end[: viable_count[frames_left]]).max()
        else:
            best = NEG_INF
        if best == NEG_INF:
            best = nv.max()
        if best == NEG_INF:
            raise DecodeError(f"beam pruned every token at frame {t}")
        cut = best - params.beam
        act = (nv >= cut if cut > NEG_INF else nv > NEG_INF).nonzero()[0]
        if act.size > params.max_active:
            act = _cap(act, nv[act], params.max_active)
        vals = nv[act]
        active_total += act.size

    # the hub has the lowest state id, so it leads ``act`` when it survived
    if act[0] != hub:
        raise DecodeError(
            "no surviving token reaches a word boundary at the final frame"
        )
    r = int(rec[hub])
    am_total = rec_am[r]
    lm_total = rec_lm[r] + float(graph.end_lm[word_end_ctx[rec_word[r]]])

    words = []
    while r >= 0:
        words.append(graph.words[rec_word[r]])
        r = rec_prev[r]
    words.reverse()

    wall = time.perf_counter() - started
    hyp = Hypothesis(
        words=tuple(words),
        am_total=am_total,
        lm_total=lm_total,
        lm_weight=lm_weight,
    )
    lattice = _records_to_lattice(
        graph, rec_word, rec_prev, rec_frame, rec_am, rec_lm, n_frames
    )
    stats = DecodeStats(
        frames=n_frames,
        active_tokens_mean=active_total / n_frames,
        wall_seconds=wall,
        audio_seconds=scorer.audio_seconds,
        params=params,
        tokens_expanded=expanded,
    )
    return hyp, lattice, stats


def _records_to_lattice(
    graph, rec_word, rec_prev, rec_frame, rec_am, rec_lm, n_frames
) -> Lattice:
    """Word-boundary records -> word lattice (kept chains only)."""
    kept = [f == n_frames for f in rec_frame]
    # a record's predecessor was appended before it, so one backward pass
    # marks every chain that reaches a final record
    for r in range(len(kept) - 1, -1, -1):
        if kept[r] and rec_prev[r] >= 0:
            kept[rec_prev[r]] = True
    node_of = {}
    nodes = {0: 0}
    arcs = []
    for r in compress(range(len(kept)), kept):
        node = node_of[r] = len(node_of) + 1
        nodes[node] = rec_frame[r]
        prev = rec_prev[r]
        if prev >= 0:
            src = node_of[prev]
            am_delta = rec_am[r] - rec_am[prev]
            lm_delta = rec_lm[r] - rec_lm[prev]
        else:
            src = 0
            am_delta = rec_am[r]
            lm_delta = rec_lm[r]
        arcs.append(Arc(src, node, graph.words[rec_word[r]], am_delta, lm_delta))
    return Lattice(
        nodes=nodes,
        start=0,
        finals=frozenset(node_of[r] for r, f in enumerate(rec_frame) if f == n_frames),
        arcs=tuple(arcs),
    )


@dataclass
class UtteranceResult:
    hypothesis: Hypothesis | None = None
    lattice: Lattice | None = None
    stats: DecodeStats | None = None
    error: str | None = None


@dataclass
class BatchResult:
    results: list[UtteranceResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    audio_seconds: float = 0.0

    @property
    def rtf(self) -> float:
        """Total processing time over total audio duration."""
        return self.wall_seconds / self.audio_seconds if self.audio_seconds else 0.0

    @property
    def failures(self) -> list[UtteranceResult]:
        return [r for r in self.results if r.error is not None]


def batch_decode(
    graph: SearchGraph, scorers: Iterable[MatrixScorer], params: DecodeParams | None = None
) -> BatchResult:
    """Decode utterances independently; per-utterance errors are collected.

    ``scorers`` may be any iterable; it is read once, in order.  A
    generator's next scorer is made only after the current one is decoded,
    and the current one is dropped when the next arrives, so a streamed
    batch holds at most two utterances' scores.  An iterable that yields
    nothing raises ``DataError``.  Utterances run sequentially so the timing
    that feeds the aggregate real-time factor is never skewed by contention.
    """
    params = params or DecodeParams()
    batch = BatchResult()
    for i, scorer in enumerate(scorers):
        try:
            hyp, lattice, stats = decode(graph, scorer, params)
        except DecodeError as exc:
            batch.results.append(UtteranceResult(error=str(exc)))
            log.warning("utterance %d failed: %s", i, exc)
            continue
        batch.results.append(
            UtteranceResult(hypothesis=hyp, lattice=lattice, stats=stats)
        )
        batch.wall_seconds += stats.wall_seconds
        batch.audio_seconds += stats.audio_seconds
    if not batch.results:
        raise DataError("empty batch")
    return batch
