"""Synthetic per-frame acoustic scores for phone sequences.

Stands in for a real acoustic front-end and emission model: every HMM
state gets a deterministic seed-derived mean vector, utterances sample a
duration per state and draw noisy feature vectors, and the scorer exposes
the Gaussian log density of each drawn frame under every state's model.
Scoring uses a fixed model variance so the zero-noise case stays
well-defined; ``noise_sigma`` only controls the generation noise.

Confusion entries blend one unit's mean toward another's, which is how
coda-merge sound change is injected: the blend happens in the emission
space, so schemes that share the underlying units experience the same
degradation geometry.
"""

import zlib
from dataclasses import dataclass, field

import numpy as np

from .decoder import HMM_STATES_PER_PHONE, MatrixScorer, pdf_labels_for

FRAME_SHIFT_SECONDS = 0.01
MODEL_VARIANCE = 1.0


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class SimConfig:
    seed: int
    frames_per_state: tuple[int, int] = (2, 5)
    feature_dim: int = 8
    noise_sigma: float = 0.3
    mean_scale: float = 1.0
    confusion: tuple[tuple[str, str, float], ...] = ()

    def __post_init__(self):
        lo, hi = self.frames_per_state
        if lo < 1 or hi < lo:
            raise SimulationError(f"bad frames_per_state range {self.frames_per_state}")
        if self.noise_sigma < 0:
            raise SimulationError("noise_sigma must be >= 0")
        for a, b, p in self.confusion:
            if not 0.0 <= p <= 1.0:
                raise SimulationError(f"confusion probability {p} outside [0, 1]")
            if a == b:
                raise SimulationError(f"confusion pair must differ, got {a!r}")


@dataclass
class StateModel:
    """Isotropic Gaussian per pdf label: mean vectors, shared variance."""

    means: dict[str, np.ndarray]
    variance: float
    labels: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        self.labels = tuple(sorted(self.means))


def _label_rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((seed, zlib.crc32(label.encode("utf-8"))))
    )


def _expand_confusion(
    entry: tuple[str, str, float], labels: set[str]
) -> list[tuple[str, str, float]]:
    """Phone-label entries apply to all three state pdfs; pdf-label entries
    apply directly."""
    a, b, p = entry
    if a in labels and b in labels:
        return [(a, b, p)]
    expanded = []
    for pa, pb in zip(pdf_labels_for(a), pdf_labels_for(b)):
        if pa not in labels or pb not in labels:
            raise SimulationError(f"confusion names unknown label {a!r}/{b!r}")
        expanded.append((pa, pb, p))
    return expanded


def build_state_models(labels: set[str] | tuple[str, ...], cfg: SimConfig) -> StateModel:
    """Deterministic seed-derived means with separation enforcement.

    Non-confused label pairs are kept at least ``4 * noise_sigma`` apart by
    redrawing the lexicographically later mean (separation is enforced on
    the independent draws; the confusion blend is applied afterwards).  The
    conflicting pairs are those of the first draws, taken in row-major
    order; each redraw overwrites its label's row of one (labels x dim)
    matrix in place, and is checked against the current rows of every label
    it is not confused with.
    """
    labels = sorted(set(labels))
    if not labels:
        raise SimulationError("no labels")
    rngs = [_label_rng(cfg.seed, lab) for lab in labels]
    mat = np.stack([rng.normal(0.0, cfg.mean_scale, cfg.feature_dim) for rng in rngs])

    expanded: list[tuple[str, str, float]] = []
    for entry in cfg.confusion:
        expanded.extend(_expand_confusion(entry, set(labels)))
    index = {lab: k for k, lab in enumerate(labels)}
    exempt: list[list[int]] = [[] for _ in labels]
    for a, b, _ in expanded:
        exempt[index[a]].append(index[b])
        exempt[index[b]].append(index[a])

    floor = 4.0 * cfg.noise_sigma
    if floor > 0.0 and len(labels) > 1:
        dist = np.sqrt(np.sum((mat[:, None] - mat[None, :]) ** 2, axis=2))
        upper = np.triu(np.ones_like(dist, dtype=bool), 1)
        for i, j in np.argwhere((dist < floor) & upper):
            if i in exempt[j]:
                continue
            # redraw the later label until it clears every non-exempt mean
            others = np.ones(len(labels), dtype=bool)
            others[j] = False
            others[exempt[j]] = False
            other_mat = mat[others]
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

    means = dict(zip(labels, mat))
    for a, b, p in expanded:
        means[b] = p * means[a] + (1.0 - p) * means[b]
    return StateModel(means=means, variance=MODEL_VARIANCE)


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
    state_labels = []
    for phone in phone_seq:
        for pdf in pdf_labels_for(phone):
            if pdf not in models.means:
                raise SimulationError(f"phone {phone!r} has no model for {pdf!r}")
            state_labels.append(pdf)
    if not state_labels:
        raise SimulationError("empty phone sequence")

    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1, salt)))
    lo, hi = cfg.frames_per_state
    frames = []
    for pdf in state_labels:
        duration = int(rng.integers(lo, hi + 1))
        mean = models.means[pdf]
        noise = rng.standard_normal((duration, cfg.feature_dim))
        frames.append(mean + cfg.noise_sigma * noise)
    feats = np.concatenate(frames, axis=0)

    labels = models.labels
    mean_mat = np.stack([models.means[lab] for lab in labels])
    # log N(x; mu, v I) = -d/2 log(2 pi v) - |x - mu|^2 / (2v)
    v = models.variance
    d = cfg.feature_dim
    sq = (
        np.sum(feats**2, axis=1)[:, None]
        - 2.0 * feats @ mean_mat.T
        + np.sum(mean_mat**2, axis=1)[None, :]
    )
    matrix = -0.5 * d * np.log(2.0 * np.pi * v) - sq / (2.0 * v)
    return MatrixScorer(matrix, labels, FRAME_SHIFT_SECONDS)


def true_label_sequence(
    phone_seq: list[str], models: StateModel, cfg: SimConfig, salt: int = 0
) -> list[str]:
    """The generating pdf label of every frame, for diagnostics (replays the
    duration draws of ``simulate_utterance``)."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1, salt)))
    lo, hi = cfg.frames_per_state
    out = []
    for phone in phone_seq:
        for pdf in pdf_labels_for(phone):
            duration = int(rng.integers(lo, hi + 1))
            rng.standard_normal((duration, cfg.feature_dim))
            out.extend([pdf] * duration)
    return out
