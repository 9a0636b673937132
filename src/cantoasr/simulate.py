"""Synthetic per-frame acoustic scores for phone sequences.

Stands in for a real acoustic front-end and emission model: every HMM
state gets a deterministic seed-derived mean vector, one row of a single
means matrix in sorted label order.  ``draw_frames`` samples a duration per
state and draws an utterance's noisy feature vectors; ``score_frames`` gives
a scorer whose columns, in the same order, hold the Gaussian log density of
each frame under every state's model.  The two halves need not share the
models: frames drawn from one ``StateModel`` can be scored under another.
``simulate_utterance`` is the two with one model; a scorer holds one
score-sized array, built in place.  Scoring uses a fixed
model variance so the zero-noise case stays well-defined; ``noise_sigma``
only controls the generation noise.

A state model is a generator and a table.  ``build_state_models`` draws
the generator, every pdf's mean with every pair kept apart; ``mix_models``
gives each pdf in a table ``{pdf: ((w, gen_label), ...)}`` the weighted sum
of those generator means.  That is how coda-merge sound change is injected:
in the emission space, so schemes that share units share its geometry.

Each pdf label has its own stream, the one ``default_rng(SeedSequence((seed,
crc32(label))))`` gives, and its mean is that stream's first draw.  The
streams are not built one by one: ``_label_states`` runs numpy's seeding
for every label at once on uint32 arrays, and one generator, set to each
label's seeded state in turn, writes every first draw straight into its
row of the means matrix.  A label that separation redraws continues its
own stream.

Separation decides by the direct distance ``np.sqrt(np.add.reduce((a - b)
** 2))``, but measures it only for the pairs that one Gram screen
(``_gram_candidates``: ``|a|^2 + |b|^2 - 2 a.b`` against ``floor**2`` and a
rounding margin) cannot clear.  Every separation check goes through that
screen: the first draws' pairs ``SCREEN_BLOCK_ROWS`` = 32 rows at a time,
holding 32 × n floats per block for n labels, and each redraw as one row
against all the others, holding O(n) floats.  A visit of a close pair's
later label needs no check: the label is redrawn when it has not been
redrawn and some first-draw partner of it has not been either, which is
what the check would answer, so ``_row_clear`` runs once after each redraw.

``numpy.random`` is loaded at the first draw, not at import, so a process
that only rescores never holds it (nor the ``hashlib`` it brings).
"""

import numbers
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import DataError
from .decoder import MatrixScorer, pdf_labels_for

MODEL_VARIANCE = 1.0
# rows per block of the state models' separation screen (``_close_pairs``)
SCREEN_BLOCK_ROWS = 32
# the largest duration an HMM state may draw: 10 s at the 10 ms frame shift
MAX_FRAMES_PER_STATE = 1000
# the largest feature dimension: every label's mean and every frame holds this many floats
MAX_FEATURE_DIM = 1000


# numpy's SeedSequence (bit_generator.pyx) and PCG64 seeding (pcg64.c) constants
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# float64's rounding unit and smallest subnormal, for the separation screen's bound
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)


class SimulationError(DataError):
    pass


def _integer(name: str, value) -> int:
    """``value`` as a Python int, or ``SimulationError`` naming ``name``."""
    # a bool is an int to Python, but True is no count
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SimulationError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SimConfig:
    seed: int
    frames_per_state: tuple[int, int] = (2, 5)
    feature_dim: int = 8
    noise_sigma: float = 0.3
    mean_scale: float = 1.0

    def __post_init__(self):
        # a numpy integer is kept as the Python int, so it draws the same means
        lo, hi = (_integer("frames_per_state bound", v) for v in self.frames_per_state)
        # each state draws up to hi frames of feature_dim floats
        if not 1 <= lo <= hi <= MAX_FRAMES_PER_STATE:
            raise SimulationError(
                f"bad frames_per_state range {self.frames_per_state}: "
                f"need 1 <= lo <= hi <= {MAX_FRAMES_PER_STATE}"
            )
        object.__setattr__(self, "frames_per_state", (lo, hi))
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        object.__setattr__(self, "feature_dim", _integer("feature_dim", self.feature_dim))
        # each check written so that NaN fails it
        if not self.seed >= 0:
            raise SimulationError(f"seed must be >= 0, got {self.seed}")
        if not self.noise_sigma >= 0:
            raise SimulationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 1 <= self.feature_dim <= MAX_FEATURE_DIM:
            raise SimulationError(
                f"feature_dim must be in [1, {MAX_FEATURE_DIM}], got {self.feature_dim}"
            )
        if not 0 < self.mean_scale < np.inf:
            raise SimulationError(f"mean_scale must be positive and finite, got {self.mean_scale}")


@dataclass
class StateModel:
    """Isotropic Gaussian per pdf label, all with the variance ``MODEL_VARIANCE``.

    ``labels`` is sorted and row ``i`` of the ``(len(labels), dim)`` array
    ``means`` is the mean of ``labels[i]``; ``index`` maps a label to its row.
    """

    labels: tuple[str, ...]
    means: np.ndarray
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {lab: i for i, lab in enumerate(self.labels)}


def _hash_constants(init: int, mult: int):
    """``SeedSequence``'s hash constant before and after each step: it starts
    at ``init`` and is multiplied by ``mult`` modulo 2**32 per step."""
    while True:
        yield init, (init := init * mult & _MASK32)


def _hashmix(value: np.ndarray, step) -> np.ndarray:
    """``SeedSequence``'s hash of every uint32 in ``value``, taking the next
    hash constants from ``step``."""
    before, after = next(step)
    value = (value ^ before) * after
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s mix of two uint32 arrays, element by element."""
    value = x * _MIX_MULT_L - y * _MIX_MULT_R
    return value ^ (value >> 16)


def _label_states(seed: int, labels: list[str]) -> list[dict]:
    """The PCG64 state that ``default_rng(SeedSequence((seed, crc32(label))))``
    starts from, for every label in ``labels``, as the dict a ``PCG64``'s
    ``state`` attribute takes.

    This is numpy's seeding (``SeedSequence`` and ``pcg64_set_seed``) run
    over all labels at once: each label's entropy is the seed's
    little-endian 32-bit words followed by the label's crc, and the hash
    constant advances the same way for every label, so each step of the
    pool mixing and of ``generate_state(4, uint64)`` is one uint32 array
    operation.  Only arrays take the uint32 products, which wrap silently;
    the 128-bit step is on Python ints.
    """
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    crcs = np.array([zlib.crc32(lab.encode("utf-8")) for lab in labels], dtype=np.uint32)
    entropy = [np.full_like(crcs, w) for w in words] + [crcs]
    step = _hash_constants(_INIT_A, _MULT_A)
    pool = [
        _hashmix(entropy[i] if i < len(entropy) else np.zeros_like(crcs), step)
        for i in range(4)
    ]
    # every pool word is mixed into every other, then each entropy word past the pool
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], step))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, step))

    # generate_state(4, uint64): eight words cycling the pool, paired little-endian
    step = _hash_constants(_INIT_B, _MULT_B)
    out = [_hashmix(pool[i % 4], step).astype(np.uint64) for i in range(8)]
    u0, u1, u2, u3 = ((out[k] | out[k + 1] << 32).tolist() for k in range(0, 8, 2))
    states = []
    # pcg64_set_seed: initstate = u0:u1, initseq = u2:u3, two LCG steps from 0
    for hi_state, lo_state, hi_seq, lo_seq in zip(u0, u1, u2, u3):
        inc = (hi_seq << 65 | lo_seq << 1 | 1) & _MASK128
        state = ((inc + (hi_state << 64 | lo_state)) * _PCG64_MULT + inc) & _MASK128
        states.append({
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        })
    return states


def _gram_candidates(norms: np.ndarray, dots: np.ndarray, floor: float, dim: int) -> np.ndarray:
    """Where a pair of ``dim``-float rows ``a`` and ``b`` may be closer than
    ``floor``, given ``norms = |a|^2 + |b|^2`` and ``dots = a.b``.

    The Gram gap ``norms - 2 * dots`` loses, against the direct form
    ``np.add.reduce((a - b) ** 2)``, under ``(2 * dim + 4) * eps * norms`` to
    rounding, whatever the summation order of the norms and products, plus
    about ``2.5 * dim`` subnormal units where squares underflow.  A pair is a
    candidate unless its Gram gap clears ``floor**2`` by twice that, so every
    pair closer than ``floor`` by the direct distance is a candidate, and so
    is every pair whose gap is NaN (from an overflowed norm).
    """
    bound = floor * floor + 4.0 * (dim + 4) * _TINY
    return ~(norms - 2.0 * dots >= bound + 4.0 * (dim + 4) * _EPS * norms)


def _close_pairs(mat: np.ndarray, floor: float) -> list[tuple[int, int]]:
    """Every pair ``(i, j)``, ``i < j``, of rows of ``mat`` closer than
    ``floor``, in row-major order.

    A pair ``(i, j)`` is close when ``np.sqrt(np.add.reduce((mat[i] -
    mat[j]) ** 2)) < floor``.  The Gram screen (``_gram_candidates``), the
    one every separation check goes through, finds the candidates
    ``SCREEN_BLOCK_ROWS`` rows at a time: one matrix product against the
    later rows gives every squared gap of the block, so its temporaries
    hold at most ``SCREEN_BLOCK_ROWS * n`` floats (a redraw's check,
    ``_row_clear``, holds O(n)).  Each candidate is measured by the direct
    expression, so the result is the row-by-row check's, bit for bit, in
    O(n * (feature_dim + SCREEN_BLOCK_ROWS)) memory.
    """
    n, d = mat.shape
    sq = np.add.reduce(mat * mat, axis=1)
    close = []
    for i0 in range(0, n - 1, SCREEN_BLOCK_ROWS):
        i1 = min(i0 + SCREEN_BLOCK_ROWS, n - 1)
        norms = sq[i0:i1, None] + sq[None, i0 + 1 :]
        rows, cols = _gram_candidates(norms, mat[i0:i1] @ mat[i0 + 1 :].T, floor, d).nonzero()
        # column c is row i0 + 1 + c, so the pairs j > i are those with c >= r
        upper = cols >= rows
        if upper.any():
            i, j = rows[upper] + i0, cols[upper] + (i0 + 1)
            near = np.sqrt(np.add.reduce((mat[i] - mat[j]) ** 2, axis=1)) < floor
            close.extend(zip(i[near].tolist(), j[near].tolist()))
    return close


def _row_clear(mat: np.ndarray, sq: np.ndarray, j: int, floor: float) -> bool:
    """Whether row ``j`` of ``mat`` is at least ``floor`` from every other row
    by the direct distance ``np.sqrt(np.add.reduce((mat - mat[j]) ** 2,
    axis=1))``.

    ``sq`` holds the squared norm of every row.  The Gram screen
    (``_gram_candidates``) takes one matrix-vector product against all the
    rows, and only the candidates other than row ``j`` are measured
    directly, so the answer is the direct check's in O(n) floats.
    """
    row = mat[j]
    near = _gram_candidates(sq + sq[j], mat @ row, floor, mat.shape[1])
    near[j] = False
    near = near.nonzero()[0]
    if not len(near):
        return True
    return np.sqrt(np.add.reduce((mat[near] - row) ** 2, axis=1)).min() >= floor


def build_state_models(labels: set[str] | tuple[str, ...], cfg: SimConfig) -> StateModel:
    """Deterministic seed-derived means, every pair at least ``4 * noise_sigma`` apart.

    Label ``lab``'s mean is the first draw of its own stream, the one
    ``np.random.default_rng(np.random.SeedSequence((cfg.seed,
    crc32(lab))))`` gives.  ``_label_states`` seeds every label's stream in
    one array pass, and one generator draws them all, set to each label's
    state before its draw.  The first draws go straight into the rows of
    the means matrix as standard normals, and the matrix is scaled once:
    ``* mean_scale + 0.0`` is numpy's ``normal(0.0, mean_scale)``, bit for
    bit.

    Separation redraws the lexicographically later mean of each pair that
    is too close.  A redrawn label continues its own stream, so its k-th
    redraw is that stream's (k + 1)-th draw.  The conflicting pairs are
    those of the first draws (``_close_pairs``, in row-major order), and
    each visit of a pair's later label ``j`` is decided without a distance
    check: ``j`` needs a redraw exactly when it has not been redrawn and
    some first-draw partner of it (earlier or later row) has not been
    either.  That is what checking row ``j`` against every current row
    would answer, since a row moves only when it is redrawn, each redraw is
    checked clear of every row as it stood then, and the direct gap is
    symmetric bit for bit.  So a label is redrawn on one visit at most,
    each redraw overwrites its row in place, and the one check,
    ``_row_clear``, runs once after each redraw.  Every distance check goes
    through the one Gram screen (``_gram_candidates``) and measures by the
    direct distance only the pairs the screen cannot clear: the first-draw
    pairs in blocks of 32 rows (temporaries of at most 32 * n floats for n
    labels), each redraw as one row against all the others (O(n) floats).
    """
    labels = sorted(set(labels))
    if not labels:
        raise SimulationError("no labels")
    states = _label_states(cfg.seed, labels)
    # one generator for every stream: each draw first sets the label's state
    gen = np.random.Generator(np.random.PCG64(0))
    bitgen = gen.bit_generator
    scale = float(cfg.mean_scale)  # the double that normal() reads
    mat = np.empty((len(labels), cfg.feature_dim))
    for state, row in zip(states, mat):
        bitgen.state = state
        gen.standard_normal(out=row)
    # normal(0.0, scale) is 0.0 + scale * z, which turns a -0.0 product into +0.0
    mat *= scale
    mat += 0.0

    floor = 4.0 * cfg.noise_sigma
    if floor > 0.0 and len(labels) > 1:
        pairs = _close_pairs(mat, floor)
        partners: dict[int, set[int]] = {}
        for i, j in pairs:
            partners.setdefault(i, set()).add(j)
            partners.setdefault(j, set()).add(i)
        sq = np.add.reduce(mat * mat, axis=1)
        redrawn: set[int] = set()
        for _, j in pairs:
            # row j is still clear once it or every partner it was close to has moved
            if j in redrawn or partners[j] <= redrawn:
                continue
            redrawn.add(j)
            # continue the label's stream past its first draw, which is row j
            bitgen.state = states[j]
            gen.standard_normal(cfg.feature_dim)
            for _ in range(100):
                mat[j] = gen.normal(0.0, scale, cfg.feature_dim)
                sq[j] = mat[j] @ mat[j]
                if _row_clear(mat, sq, j, floor):
                    break
            else:
                raise SimulationError(
                    f"cannot separate {labels[j]!r}; raise mean_scale or "
                    f"lower noise_sigma"
                )
    return StateModel(tuple(labels), mat)


def mix_models(generator: StateModel, table: dict) -> StateModel:
    """``generator`` with each pdf label in ``table`` given the mean ``w1 * g1 +
    w2 * g2 + ...`` of its row ``((w1, g1), (w2, g2), ...)``; a label the table
    leaves out keeps its generator mean.  Every ``g`` is a generator row, never
    a replaced one, so the result does not depend on the table's row order.
    """
    gen, row, means = generator.means, generator.index, generator.means.copy()
    for label, components in table.items():
        for w, lab in ((1.0, label), *components):
            if lab not in row:
                raise SimulationError(f"model table names unknown label {lab!r}")
            if not 0.0 <= w <= 1.0:
                raise SimulationError(f"component weight {w} outside [0, 1]")
        (w, lab), *rest = components
        means[row[label]] = w * gen[row[lab]]
        for w, lab in rest:
            means[row[label]] += w * gen[row[lab]]
    return StateModel(generator.labels, means)


def draw_frames(
    phone_seq: list[str] | tuple[str, ...], models: StateModel, cfg: SimConfig, salt: int = 0
) -> np.ndarray:
    """The ``(frames, feature_dim)`` features of one utterance of ``phone_seq``
    (phone labels, in order), drawn from ``models``.

    Each of a phone's three HMM states gets a uniform duration from
    ``frames_per_state``; each frame is the state mean plus isotropic noise.
    ``cfg.feature_dim`` must be the models' dimension.
    """
    salt = _integer("salt", salt)
    if not salt >= 0:
        raise SimulationError(f"salt must be >= 0, got {salt}")
    if cfg.feature_dim != models.means.shape[1]:
        raise SimulationError(
            f"feature_dim {cfg.feature_dim} does not match the models' dimension "
            f"{models.means.shape[1]}"
        )
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
    return np.concatenate(frames, axis=0)


def score_frames(frames: np.ndarray, models: StateModel) -> MatrixScorer:
    """The log density of every row of ``frames`` under every label in ``models``.

    The scorer's columns are ``models.labels`` and it carries the
    10 ms-per-frame audio-duration annotation.  The log densities are built
    in the one ``(frames, labels)`` array the product makes, each step with
    ``out=`` in the operand order of ``-0.5 * d * log(2 pi v) - (|x|^2 - 2
    x.mu + |mu|^2) / (2v)``, so no second score-sized array is made.
    """
    # log N(x; mu, v I) = -d/2 log(2 pi v) - |x - mu|^2 / (2v)
    v = MODEL_VARIANCE
    d = frames.shape[1]
    mean_mat = models.means
    matrix = 2.0 * frames @ mean_mat.T
    np.subtract(np.sum(frames**2, axis=1)[:, None], matrix, out=matrix)
    np.add(matrix, np.sum(mean_mat**2, axis=1)[None, :], out=matrix)
    np.divide(matrix, 2.0 * v, out=matrix)
    np.subtract(-0.5 * d * np.log(2.0 * np.pi * v), matrix, out=matrix)
    return MatrixScorer(matrix, models.labels)


def simulate_utterance(
    phone_seq: list[str] | tuple[str, ...], models: StateModel, cfg: SimConfig, salt: int = 0
) -> MatrixScorer:
    """One utterance of ``phone_seq`` drawn from ``models`` and scored under them."""
    return score_frames(draw_frames(phone_seq, models, cfg, salt), models)
