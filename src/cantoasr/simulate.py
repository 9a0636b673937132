"""Synthetic per-frame acoustic scores for phone sequences.

Stands in for a real acoustic front-end and emission model: every HMM
state gets a deterministic seed-derived mean vector, one row of a single
means matrix in sorted label order, utterances sample a duration per state
and draw noisy feature vectors, and the scorer's columns, in the same
order, hold the Gaussian log density of each drawn frame under every
state's model.  Scoring uses a fixed model variance so the zero-noise case
stays well-defined; ``noise_sigma`` only controls the generation noise.

The state models are made in two steps.  ``build_state_models`` draws
every pdf's mean and keeps every pair apart; ``blend_confusions`` then
moves one unit's means toward another's, which is how coda-merge sound
change is injected: the blend happens in the emission space, so schemes
that share the underlying units experience the same degradation geometry.
"""

import zlib
from dataclasses import dataclass, field

import numpy as np

from . import DataError
from .decoder import MatrixScorer, pdf_labels_for

MODEL_VARIANCE = 1.0


class SimulationError(DataError):
    pass


@dataclass(frozen=True)
class SimConfig:
    seed: int
    frames_per_state: tuple[int, int] = (2, 5)
    feature_dim: int = 8
    noise_sigma: float = 0.3
    mean_scale: float = 1.0

    def __post_init__(self):
        lo, hi = self.frames_per_state
        # a duration is drawn from [lo, hi + 1), whose bound must fit an int64
        if not 1 <= lo <= hi < np.iinfo(np.int64).max:
            raise SimulationError(f"bad frames_per_state range {self.frames_per_state}")
        # each check written so that NaN fails it
        if not self.seed >= 0:
            raise SimulationError(f"seed must be >= 0, got {self.seed}")
        if not self.noise_sigma >= 0:
            raise SimulationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not self.feature_dim >= 1:
            raise SimulationError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if not 0 < self.mean_scale < np.inf:
            raise SimulationError(f"mean_scale must be positive and finite, got {self.mean_scale}")


@dataclass
class StateModel:
    """Isotropic Gaussian per pdf label, with one shared variance.

    ``labels`` is sorted and row ``i`` of the ``(len(labels), dim)`` array
    ``means`` is the mean of ``labels[i]``; ``index`` maps a label to its row.
    """

    labels: tuple[str, ...]
    means: np.ndarray
    variance: float
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {lab: i for i, lab in enumerate(self.labels)}


def _label_rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((seed, zlib.crc32(label.encode("utf-8"))))
    )


def build_state_models(labels: set[str] | tuple[str, ...], cfg: SimConfig) -> StateModel:
    """Deterministic seed-derived means, every pair at least ``4 * noise_sigma`` apart.

    Separation redraws the lexicographically later mean of each pair that
    is too close.  The conflicting pairs are those of the first draws, taken
    in row-major order; each redraw overwrites its label's row of the means
    matrix in place, and is checked against the current rows of every other
    label.  The first draws' distances are taken one row at a time, row
    ``i`` against the rows after it in one reduction, so the check needs
    O(n * feature_dim) memory for n labels, not the (n, n, feature_dim)
    difference tensor.  A redraw measures its gaps against the whole
    matrix, with its own gap set to infinity.
    """
    labels = sorted(set(labels))
    if not labels:
        raise SimulationError("no labels")
    rngs = [_label_rng(cfg.seed, lab) for lab in labels]
    mat = np.stack([rng.normal(0.0, cfg.mean_scale, cfg.feature_dim) for rng in rngs])

    floor = 4.0 * cfg.noise_sigma
    if floor > 0.0 and len(labels) > 1:
        # the later label of every too-close pair of first draws, in row-major order
        conflicts = []
        for i in range(len(labels) - 1):
            dist = np.sqrt(np.add.reduce((mat[i] - mat[i + 1 :]) ** 2, axis=1))
            (close,) = (dist < floor).nonzero()
            if len(close):
                conflicts.extend(i + 1 + close)
        for j in conflicts:
            # redraw the later label until it clears every other mean
            for tries in range(101):
                gaps = np.sqrt(np.add.reduce((mat - mat[j]) ** 2, axis=1))
                gaps[j] = np.inf
                if gaps.min() >= floor:
                    break
                if tries == 100:
                    raise SimulationError(
                        f"cannot separate {labels[j]!r}; raise mean_scale or "
                        f"lower noise_sigma"
                    )
                mat[j] = rngs[j].normal(0.0, cfg.mean_scale, cfg.feature_dim)
    return StateModel(tuple(labels), mat, MODEL_VARIANCE)


def blend_confusions(
    models: StateModel, entries: tuple[tuple[str, str, float], ...]
) -> StateModel:
    """``models`` with each entry ``(a, b, p)`` blending phone ``b`` toward ``a``.

    For each of the two phones' state pdfs in turn, ``means[b] = p *
    means[a] + (1 - p) * means[b]``; the entries apply in order.
    """
    means, row = models.means.copy(), models.index
    for a, b, p in entries:
        if not 0.0 <= p <= 1.0:
            raise SimulationError(f"confusion probability {p} outside [0, 1]")
        if a == b:
            raise SimulationError(f"confusion pair must differ, got {a!r}")
        for pa, pb in zip(pdf_labels_for(a), pdf_labels_for(b)):
            if pa not in row or pb not in row:
                raise SimulationError(f"confusion names unknown label {a!r}/{b!r}")
            means[row[pb]] = p * means[row[pa]] + (1.0 - p) * means[row[pb]]
    return StateModel(models.labels, means, models.variance)


def _state_draws(phone_seq, models: StateModel, cfg: SimConfig, salt: int):
    """``(row, duration, noise)`` for each HMM state of ``phone_seq``, in draw
    order; ``row`` is the state's pdf row in ``models.means``."""
    if not salt >= 0:
        raise SimulationError(f"salt must be >= 0, got {salt}")
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1, salt)))
    lo, hi = cfg.frames_per_state
    for phone in phone_seq:
        for pdf in pdf_labels_for(phone):
            row = models.index.get(pdf)
            if row is None:
                raise SimulationError(f"phone {phone!r} has no model for {pdf!r}")
            duration = int(rng.integers(lo, hi + 1))
            yield row, duration, rng.standard_normal((duration, cfg.feature_dim))


def simulate_utterance(
    phone_seq: list[str] | tuple[str, ...],
    models: StateModel,
    cfg: SimConfig,
    salt: int = 0,
) -> MatrixScorer:
    """Sample one utterance for ``phone_seq`` (phone labels, in order).

    Each of a phone's three HMM states gets a uniform duration from
    ``frames_per_state``; each frame is the state mean plus isotropic noise.
    The returned scorer covers every label in ``models`` and carries the
    10 ms-per-frame audio-duration annotation.
    """
    mean_mat = models.means
    frames = []
    for row, _, noise in _state_draws(phone_seq, models, cfg, salt):
        frames.append(mean_mat[row] + cfg.noise_sigma * noise)
    if not frames:
        raise SimulationError("empty phone sequence")
    feats = np.concatenate(frames, axis=0)

    # log N(x; mu, v I) = -d/2 log(2 pi v) - |x - mu|^2 / (2v)
    v = models.variance
    d = cfg.feature_dim
    sq = (
        np.sum(feats**2, axis=1)[:, None]
        - 2.0 * feats @ mean_mat.T
        + np.sum(mean_mat**2, axis=1)[None, :]
    )
    matrix = -0.5 * d * np.log(2.0 * np.pi * v) - sq / (2.0 * v)
    return MatrixScorer(matrix, models.labels)


def true_label_sequence(
    phone_seq: list[str], models: StateModel, cfg: SimConfig, salt: int = 0
) -> list[str]:
    """The generating pdf label of every frame, for diagnostics (the same
    draws as ``simulate_utterance``)."""
    draws = _state_draws(phone_seq, models, cfg, salt)
    return [models.labels[row] for row, duration, _ in draws for _ in range(duration)]
