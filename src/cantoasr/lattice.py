"""Word lattices: best path, n-best extraction, and second-pass rescoring.

A lattice is an acyclic word graph whose arcs carry separate acoustic and
language-model scores (both natural log), stored once as each node's
out-arcs; every walk follows the topological order.  Paths are ranked by
the combined score a ``Hypothesis`` reports, its ``am_total + lm_weight *
lm_total``, and ``lm_weight`` must be finite.
Rescoring replaces the per-arc LM scores with a stronger character n-gram
conditioned on the full in-lattice word history.  It splits a node once
per LM state that reaches it (``NGramModel.state``: the longest suffix of
the history the model stores, not the raw ``order - 1`` characters), so
histories the model backs off through alike share a node.
"""

import heapq
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from . import DataError, open_text
from .ngram import SOS, NGramModel, tokenize_chars

DEFAULT_LM_WEIGHT = 10.0
DEFAULT_NBEST = 200


class LatticeFormatError(DataError):
    pass


class Arc(NamedTuple):
    src: int
    dst: int
    word: str | None  # None is an epsilon arc
    am: float
    lm: float


class Hypothesis(NamedTuple):
    """A word sequence with its score breakdown.

    ``nodes`` is the lattice node path when the hypothesis came from a
    lattice search; decoder tracebacks leave it unset.  Like ``Arc`` it is
    an immutable named tuple: it compares, hashes and unpacks as the tuple
    of its fields.
    """

    words: tuple[str, ...]
    am_total: float
    lm_total: float
    lm_weight: float = DEFAULT_LM_WEIGHT
    nodes: tuple[int, ...] | None = None

    @property
    def combined(self) -> float:
        return self.am_total + self.lm_weight * self.lm_total

    @property
    def text(self) -> str:
        return "".join(self.words)


@dataclass
class Lattice:
    """Acyclic word graph.  ``nodes`` maps node id to a frame index."""

    nodes: dict[int, int]
    start: int
    finals: frozenset[int]
    arcs: tuple[Arc, ...] = ()

    def __post_init__(self):
        self.finals = frozenset(self.finals)
        self._out: dict[int, list[Arc]] = {}
        for arc in self.arcs:
            self._out.setdefault(arc.src, []).append(arc)
        self.validate()

    def validate(self) -> None:
        if self.start not in self.nodes:
            raise LatticeFormatError(f"start node {self.start} undeclared")
        if not self.finals:
            raise LatticeFormatError("lattice needs at least one final node")
        for node in self.finals:
            if node not in self.nodes:
                raise LatticeFormatError(f"final node {node} undeclared")
        for arc in self.arcs:
            if arc.src not in self.nodes or arc.dst not in self.nodes:
                raise LatticeFormatError(
                    f"arc {arc.src}->{arc.dst} references an undeclared node"
                )
            if arc.src == arc.dst:
                raise LatticeFormatError(f"self arc on node {arc.src}")
        order = self._order = self._topo_order()  # raises on cycles
        out = self._out
        reachable, co_reachable = {self.start}, set(self.finals)
        for node in order:
            if node in reachable:
                for arc in out.get(node, ()):
                    reachable.add(arc.dst)
        for node in reversed(order):
            for arc in out.get(node, ()):
                if arc.dst in co_reachable:
                    co_reachable.add(node)
                    break
        for node in self.nodes:
            if node not in reachable:
                raise LatticeFormatError(f"node {node} unreachable from start")
            if node not in co_reachable:
                raise LatticeFormatError(f"node {node} cannot reach a final node")

    def _topo_order(self) -> list[int]:
        indeg = {n: 0 for n in self.nodes}
        for arc in self.arcs:
            indeg[arc.dst] += 1
        # the smallest ready node id goes first
        ready = [n for n, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        out = self._out
        order = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for arc in out.get(node, []):
                indeg[arc.dst] -= 1
                if indeg[arc.dst] == 0:
                    heapq.heappush(ready, arc.dst)
        if len(order) != len(self.nodes):
            raise LatticeFormatError("lattice contains a cycle")
        return order

    def word_sequences(self) -> set[tuple[str, ...]]:
        """All complete word sequences, by exhaustive path enumeration."""
        out = self._out
        results: set[tuple[str, ...]] = set()

        def walk(node, words):
            if node in self.finals:
                results.add(tuple(words))
            for arc in out.get(node, []):
                walk(arc.dst, words + ([arc.word] if arc.word else []))

        walk(self.start, [])
        return results


def _completion_scores(lat: Lattice, lm_weight: float) -> dict[int, float]:
    """Best score from each node to any final (admissible A* heuristic)."""
    best: dict[int, float] = {n: -math.inf for n in lat.nodes}
    for n in lat.finals:
        best[n] = 0.0
    out = lat._out
    for node in reversed(lat._order):
        for arc in out.get(node, ()):
            score = arc.am + lm_weight * arc.lm + best[arc.dst]
            if score > best[node]:
                best[node] = score
    return best


def nbest(
    lat: Lattice, n: int = DEFAULT_NBEST, lm_weight: float = DEFAULT_LM_WEIGHT
) -> list[Hypothesis]:
    """The ``n`` best-scoring distinct word sequences, best first.

    A* search.  An open path's key is its ``am + lm_weight * lm`` plus its
    node's best completion, the most any extension can score.  A path is
    accepted only at its own ``combined``: at a final node whose completion
    is 0 the key is that score, and at a final node with a better
    continuation the path is pushed again as a closed entry keyed by it.
    Each word sequence is reported at its best path.  The list is sorted
    by ``(-combined, nodes)``, so paths that tie print in node-path order;
    parallel arcs that tie on both print in word order, as they are popped.
    A lattice with no path of finite score (an arc score of ``-inf`` on
    every path) raises ``LatticeFormatError``.
    """
    if n < 1:
        raise DataError(f"n must be >= 1, got {n}")
    if not math.isfinite(lm_weight):
        raise DataError(f"lm_weight must be finite, got {lm_weight}")
    completion = _completion_scores(lat, lm_weight)
    if completion[lat.start] == -math.inf:
        raise LatticeFormatError("no path through the lattice has a finite score")
    out, finals = lat._out, lat.finals
    # node -> per out-arc (dst, words it adds, am, lm, dst's best completion),
    # built at the node's first expansion, so once per call
    successors: dict[int, list[tuple]] = {}
    push, pop = heapq.heappush, heapq.heappop
    # heap items: (-key, node path, words, am, lm, closed)
    heap = [(-completion[lat.start], (lat.start,), (), 0.0, 0.0, False)]
    results: list[Hypothesis] = []
    seen: set[tuple[str, ...]] = set()
    pops = 0
    while heap and len(results) < n:
        _, path, words, am, lm, closed = pop(heap)
        pops += 1
        if pops > 1_000_000:
            raise DataError("n-best search exceeded the pop budget")
        node = path[-1]
        if node in finals and words not in seen:
            if closed or completion[node] == 0.0:
                seen.add(words)
                results.append(Hypothesis(words, am, lm, lm_weight, path))
            else:
                push(heap, (-(am + lm_weight * lm), path, words, am, lm, True))
        if closed:
            continue
        expand = successors.get(node)
        if expand is None:
            expand = successors[node] = [
                (a.dst, (a.word,) if a.word else (), a.am, a.lm, completion[a.dst])
                for a in out.get(node, ())
            ]
        for dst, added, arc_am, arc_lm, rest in expand:
            new_am, new_lm = am + arc_am, lm + arc_lm
            key = new_am + lm_weight * new_lm + rest
            if key == -math.inf:
                continue
            push(heap, (-key, path + (dst,), words + added, new_am, new_lm, False))
    results.sort(key=lambda h: (-h.combined, h.nodes))
    return results


def best_path(lat: Lattice, lm_weight: float = DEFAULT_LM_WEIGHT) -> Hypothesis:
    return nbest(lat, 1, lm_weight)[0]


def rescore_ngram(lat: Lattice, lm: NGramModel) -> Lattice:
    """Replace arc LM scores with ``lm`` conditioned on full word history.

    Nodes are split on the LM state (``NGramModel.state``) that the
    history reaches, so histories the model backs off through to the same
    scores share a node and the lattice grows by no more than ``lm`` has
    contexts.  Each arc's score equals that under the raw ``order - 1``
    character history.  Acoustic scores and the set of complete word
    sequences are preserved.  Epsilon arcs pass the state through and carry
    LM score 0.
    """
    if lm.order < 2:
        raise DataError(f"rescoring needs order >= 2, got order {lm.order}")
    start_state = (lat.start, lm.state((lm.map_token(SOS),) * (lm.order - 1)))
    ids: dict[tuple[int, tuple[str, ...]], int] = {start_state: 0}
    nodes = {0: lat.nodes[lat.start]}
    arcs: list[Arc] = []
    finals: set[int] = set()
    if lat.start in lat.finals:
        finals.add(0)
    out = lat._out
    tokens: dict[str, list[str]] = {}  # each arc word's tokens, once per call
    queue = [start_state]
    for state in queue:  # the queue grows as new states are found
        base, hist = state
        src_id = ids[state]
        for arc in out.get(base, []):
            word = arc.word
            if word is None:
                new_lm, new_hist = 0.0, hist
            else:
                word_tokens = tokens.get(word)
                if word_tokens is None:
                    word_tokens = tokens[word] = tokenize_chars(word)
                new_lm, new_hist = lm.ln_score(word_tokens, hist)
            dst_state = (arc.dst, new_hist)
            if dst_state not in ids:
                ids[dst_state] = len(ids)
                nodes[ids[dst_state]] = lat.nodes[arc.dst]
                if arc.dst in lat.finals:
                    finals.add(ids[dst_state])
                queue.append(dst_state)
            arcs.append(Arc(src_id, ids[dst_state], word, arc.am, new_lm))
    return Lattice(nodes=nodes, start=0, finals=frozenset(finals), arcs=tuple(arcs))


def rescore_external(
    hyps: list[Hypothesis],
    scores: dict[tuple[str, ...], float],
    interpolation: float,
) -> list[Hypothesis]:
    """Blend hypothesis LM totals with externally supplied scores and re-sort.

    ``interpolation`` weights the original LM total; 0 replaces it entirely.
    A term whose weight is 0 is left out, so a ``-inf`` there gives no NaN.
    """
    if not 0.0 <= interpolation <= 1.0:
        raise DataError(f"interpolation must be in [0, 1], got {interpolation}")
    missing = [h.words for h in hyps if h.words not in scores]
    if missing:
        raise DataError(
            "missing external scores for: "
            + "; ".join("".join(w) for w in missing)
        )
    rescored = []
    for h in hyps:
        if interpolation == 0.0:
            new_lm = scores[h.words]
        elif interpolation == 1.0:
            new_lm = h.lm_total
        else:
            new_lm = interpolation * h.lm_total + (1.0 - interpolation) * scores[h.words]
        rescored.append(Hypothesis(h.words, h.am_total, new_lm, h.lm_weight, h.nodes))
    rescored.sort(key=lambda h: (-h.combined, h.words))
    return rescored


def read_external_scores(path: str | Path) -> dict[tuple[str, ...], float]:
    """``rescore_external``'s scores: one ``words<TAB>log prob`` line per hypothesis."""
    scores = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text, tab, lp = line.strip().rpartition("\t")
            if not lp:
                continue
            try:
                if not tab:
                    raise ValueError("expected 'words<TAB>log prob'")
                score = float(lp)
                if not score < math.inf:  # -inf is a zero probability, NaN compares false
                    raise ValueError("NaN or +inf score")
            except ValueError as exc:
                raise LatticeFormatError(f"{path}:{lineno}: {exc} in {line.strip()!r}") from None
            scores[tuple(text.split())] = score
    return scores


def write_lattice(lat: Lattice, path: str | Path) -> None:
    """Write ``lat`` in the text format ``read_lattice`` reads.

    An epsilon arc's word is written ``-``, so a word ``-``, or one that is
    empty or holds whitespace, could not be read back as itself: such a
    word raises ``LatticeFormatError`` and nothing is written.
    """
    lines = ["LATTICE v1"]
    for node in sorted(lat.nodes):
        lines.append(f"node {node} {lat.nodes[node]}")
    lines.append(f"start {lat.start}")
    for node in sorted(lat.finals):
        lines.append(f"final {node}")
    for arc in lat.arcs:
        word = arc.word
        if word is None:
            word = "-"
        elif word == "-" or word.split() != [word]:
            raise LatticeFormatError(
                f"{path}: arc {arc.src} -> {arc.dst}: cannot write word {word!r}"
            )
        lines.append(f"arc {arc.src} {arc.dst} {word} {arc.am:.6f} {arc.lm:.6f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_lattice(path: str | Path) -> Lattice:
    path = Path(path)

    def fail(lineno, msg):
        raise LatticeFormatError(f"{path}:{lineno}: {msg}")

    nodes: dict[int, int] = {}
    start: int | None = None
    finals: set[int] = set()
    arcs: list[Arc] = []
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "LATTICE v1":
        raise LatticeFormatError(f"{path}:1: expected header 'LATTICE v1'")
    for lineno, line in enumerate(lines[1:], 2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "node" and len(fields) == 3:
                node = int(fields[1])
                if node in nodes:
                    fail(lineno, f"node {node} declared twice")
                nodes[node] = int(fields[2])
            elif kind == "start" and len(fields) == 2:
                if start is not None:
                    fail(lineno, "second start declaration")
                start = int(fields[1])
            elif kind == "final" and len(fields) == 2:
                finals.add(int(fields[1]))
            elif kind == "arc" and len(fields) == 6:
                src, dst = int(fields[1]), int(fields[2])
                if src not in nodes or dst not in nodes:
                    fail(lineno, f"arc references undeclared node: {line!r}")
                word = None if fields[3] == "-" else fields[3]
                am, lm = float(fields[4]), float(fields[5])
                for score in (am, lm):
                    if not score < math.inf:  # -inf is a zero likelihood, NaN compares false
                        raise ValueError(f"{'NaN' if math.isnan(score) else '+inf'} arc score")
                arcs.append(Arc(src, dst, word, am, lm))
            else:
                fail(lineno, f"unrecognized line {line!r}")
        except LatticeFormatError:
            raise  # already names the file and line
        except ValueError as exc:
            fail(lineno, f"bad value in {line!r}: {exc}")
    if start is None:
        raise LatticeFormatError(f"{path}: missing start declaration")
    try:
        return Lattice(nodes=nodes, start=start, finals=frozenset(finals), arcs=tuple(arcs))
    except LatticeFormatError as exc:
        raise LatticeFormatError(f"{path}: {exc}") from exc


def demo_lattice_path() -> Path:
    return Path(__file__).parent / "data" / "demo_lattice.lat"
