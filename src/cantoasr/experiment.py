"""One-shot paired comparison of the two syllable schemes on simulated speech.

The runner builds an initial/final system and an onset/nucleus/coda system
from the same word list and the same character bigram LM, injects the
configured coda-merge confusion into both acoustic simulators, and decodes a
shared utterance set under both schemes across a battery of seeds.  The seed
loop only decodes and records: one table row per utterance, its reference
and each scheme's hypothesis text (empty where the decode failed), plus the
wall, audio and failure sums.  Every reported number is computed from that
table after the loop: per-seed and pooled error rates, sentence-level error
classification, and timing.  Each scheme's state models are built once: a
generator with every pair of means separated, mixed (``mix_models``) by a
blend table built from that generator alone (``derive_confusions``): a row
per pdf of each confused pair it holds, weighted by the pair's distance in it.

Confusion derivation is where the scheme asymmetry lives, and the scheme
enters it only through its decomposition (``phonology.to_phones``): a merge
rule such as ``t>k@aa,a,o`` acts on the last phone of each final it
rewrites, the IF final or the ONC coda; ``MergeRuleSet.rule_for`` picks the
rule (the first that matches), as in the lexicon.  Each confused pair of
units is blended once, by ``b + (1-b) * p * exposure``, where ``b`` is the
baseline acoustic similarity of the pair (unreleased stops and the two nasal
codas are close even for careful speakers) and ``p`` the merge strength.
The exposure is the share of the source unit's finals that the rules rewrite
into the target: 1 for a whole final (``aat``/``aak``), only ever trained
inside the merging context; a fraction for a coda, which every final using
it shares (3/7 for ``_t`` under the demo rules).  A rule that rewrites no
final, or a unit blended twice, is a config error.

Each setting is one ``ExperimentConfig`` field: its name is the config-file
key and the ``report.json`` params key, its type says how the file value is
read, and ``validate`` checks its kind and range with the class that uses it
before any work.

Timing numbers go to a separate file so the main report is byte-identical
across repeated runs with the same seed.
"""

import logging
import math
import numbers
import os
import time
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import DataError, check_kind, json_text, left_sum, open_text
from .decoder import (
    BatchResult,
    DecodeParams,
    MatrixScorer,
    WordLM,
    batch_decode,
    build_graph,
    pdf_labels_for,
)
from .evaluate import (
    WerResult,
    classify_errors,
    corpus_wer,
    format_classification,
    format_sweep_table,
    format_wer_table,
    hypothesis_texts,
    sweep,
    wer,
)
from .lexicon import check_merges, compile_lexicon, demo_lexicon_path, lexicon_stats, read_lexicon
from .ngram import read_corpus, train_ngram
from .phonology import SCHEME_IF, SCHEME_ONC, SCHEMES, TONES, JyutpingError, MergeRuleSet, Phone
from .phonology import Syllable, default_inventory, to_phones
from .simulate import SimConfig, StateModel, build_state_models, mix_models, simulate_utterance

log = logging.getLogger(__name__)

# the most words one utterance may draw
MAX_WORDS_PER_UTTERANCE = 1000
# the most utterances one run may decode (num_seeds * num_utterances)
MAX_UTTERANCES = 1_000_000


class ExperimentError(DataError):
    pass


@dataclass
class ExperimentConfig:
    seed: int
    out_dir: Path
    lexicon: Path = field(default_factory=demo_lexicon_path)
    corpus: Path = field(
        default_factory=lambda: Path(__file__).parent / "data" / "demo_corpus.txt"
    )
    num_seeds: int = 20
    num_utterances: int = 50
    words_per_utterance: int = 8
    merge_rules: str = "t>k@aa,a,o;ng>n@aa,a,o"
    confusion_p: float = 0.5
    base_similarity: float = 0.85
    noise_sigma: float = 0.6
    frames_per_state: tuple[int, int] = (1, 3)
    feature_dim: int = 8
    mean_scale: float = 2.0
    beam: float = 40.0
    max_active: int = 7000
    lm_weight: float = 0.5
    lattice_width: int = 5
    sweep_beams: tuple[float, ...] = ()
    sweep_max_actives: tuple[int, ...] = ()

    def sim_config(self) -> SimConfig:
        # each SimConfig field is the setting of the same name
        return SimConfig(**{f.name: getattr(self, f.name) for f in fields(SimConfig)})

    def decode_params(self) -> DecodeParams:
        # each DecodeParams field is the setting of the same name
        return DecodeParams(**{f.name: getattr(self, f.name) for f in fields(DecodeParams)})

    def validate(self) -> None:
        """Check every setting, each with the class that uses it, before any work."""
        # the kinds of the settings that only the runner reads
        for names, kind, what in (
            (("out_dir", "lexicon", "corpus"), str | os.PathLike, "a path"),
            (("num_seeds", "num_utterances", "words_per_utterance"), numbers.Integral, "an integer"),
            (("merge_rules",), str, "a string"),
            (("confusion_p", "base_similarity"), numbers.Real, "a number"),
            (("sweep_beams", "sweep_max_actives"), tuple | list, "a tuple"),
        ):
            for name in names:
                check_kind(name, getattr(self, name), kind, what, ExperimentError)
        for path in (self.lexicon, self.corpus):
            if not os.path.exists(path):  # unlike Path.exists, False for a NUL byte
                raise ExperimentError(f"referenced path does not exist: {path}")
        if self.num_seeds < 1 or self.num_utterances < 1:
            raise ExperimentError("num_seeds and num_utterances must be >= 1")
        # the run's table holds a reference and two hypotheses per utterance
        if self.num_seeds * self.num_utterances > MAX_UTTERANCES:
            raise ExperimentError(
                f"num_seeds * num_utterances must be <= {MAX_UTTERANCES}, "
                f"got {self.num_seeds * self.num_utterances}"
            )
        if not 1 <= self.words_per_utterance <= MAX_WORDS_PER_UTTERANCE:
            raise ExperimentError(
                f"words_per_utterance must be in [1, {MAX_WORDS_PER_UTTERANCE}], "
                f"got {self.words_per_utterance}"
            )
        if not 0.0 <= self.confusion_p <= 1.0:
            raise ExperimentError("confusion_p must be in [0, 1]")
        if not 0.0 <= self.base_similarity < 1.0:
            raise ExperimentError("base_similarity must be in [0, 1)")
        # each sweep grid value under its grid's key, with DecodeParams' ranges:
        # written so that NaN fails, and an infinite beam (no beam) stays valid
        for name, kind, what, valid in (
            ("sweep_beams", numbers.Real, "a number > 0", lambda v: v > 0),
            ("sweep_max_actives", numbers.Integral, "an integer >= 1", lambda v: v >= 1),
        ):
            for value in getattr(self, name):
                if not valid(check_kind(f"{name} value", value, kind, what, ExperimentError)):
                    raise ExperimentError(f"{name} value must be {what}, got {value!r}")
        try:
            rules = MergeRuleSet.parse(self.merge_rules)
            check_merges(rules, default_inventory())
            _check_one_blend_per_unit(default_inventory(), rules)
            self.sim_config()
            self.decode_params()
        except DataError as exc:
            raise ExperimentError(str(exc)) from exc


def convert(kind, value: str):
    """A config-file value as the field type ``kind``."""
    if kind is Path and "\0" in value:
        raise ValueError("a path cannot hold a NUL byte")
    if get_origin(kind) is not tuple:
        return kind(value)
    item, rest = get_args(kind)
    if rest is Ellipsis:
        return tuple(item(v) for v in value.split(",") if v.strip())
    lo, sep, hi = value.partition(":")
    if not sep:
        raise ValueError(f"expected lo:hi, got {value!r}")
    return item(lo), item(hi)


def load_experiment_config(
    path: str | Path, seed: int | None = None, out_dir: str | Path | None = None
) -> ExperimentConfig:
    """Flat ``key = value`` config file whose keys are ``ExperimentConfig``
    field names; CLI seed/out_dir take precedence.

    A value is read as its field's type: a pair is written ``lo:hi``, a
    variable-length tuple as a comma list (empty for none).  Relative
    lexicon/corpus paths resolve against the config file location, out_dir
    against the working directory; an empty path keeps its default.  A value
    that does not convert, or a key given twice, raises ``ExperimentError``
    naming file, line and key.
    """
    path = Path(path)
    kinds = {f.name: f.type for f in fields(ExperimentConfig)}
    values: dict = {"out_dir": Path(".")}
    seen: dict[str, int] = {}  # key -> the line that set it
    with open_text(path, ExperimentError) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep:
                raise ExperimentError(f"{path}:{lineno}: expected 'key = value'")
            if key not in kinds:
                raise ExperimentError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in seen:
                raise ExperimentError(
                    f"{path}:{lineno}: config key {key!r} repeated (first on line {seen[key]})"
                )
            seen[key] = lineno
            if kinds[key] is Path and not value:
                continue
            try:
                values[key] = convert(kinds[key], value)
            except ValueError as exc:
                raise ExperimentError(f"{path}:{lineno}: {key}: {exc}") from exc
            # out_dir, like --out, stays relative to the working directory
            if kinds[key] is Path and key != "out_dir":
                values[key] = (path.parent / value).resolve()
    if seed is not None:
        values["seed"] = seed
    if out_dir is not None:
        values["out_dir"] = Path(out_dir)
    if "seed" not in values:
        raise ExperimentError("a seed is mandatory (config key or --seed)")
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def _merge_unit(inv, scheme: str, nucleus: str, coda: str | None) -> Phone:
    """The unit a coda merge acts on: the final's last phone under ``scheme``, at tone 1."""
    return to_phones(Syllable(None, nucleus, coda, 1), scheme, inv)[-1]


def _confused_units(inv, scheme: str, rules: MergeRuleSet) -> dict[tuple[Phone, Phone], list]:
    """(merged final's unit, final's unit) -> the rule (``rules.rule_for``) of each
    final whose rewrite confuses them, in the order of the first rule; a final's
    unit is its last phone under ``scheme`` (``_merge_unit``)."""
    units: dict[tuple[Phone, Phone], list] = {}
    for rule in rules.rules:
        for _, (nucleus, coda) in sorted(inv.finals.items()):
            if rules.rule_for(nucleus, coda) is not rule:
                continue
            try:
                pair = tuple(_merge_unit(inv, scheme, nucleus, c) for c in (rule.to_coda, coda))
            except JyutpingError:  # the merged final is not in the inventory
                continue
            units.setdefault(pair, []).append(rule)
    return units


def _check_one_blend_per_unit(inv, rules: MergeRuleSet) -> None:
    """Raise ``ExperimentError`` when, under either scheme, ``rules`` blend a unit
    twice (toward two targets, or as a blended target): a blend table holds
    one row per pdf, so a second blend would replace the first."""
    for scheme in SCHEMES:
        units = _confused_units(inv, scheme, rules)
        for _, unit in units:
            naming = [hits[0] for pair, hits in units.items() if unit in pair]
            if len(naming) > 1:
                raise ExperimentError(
                    f"merge rules {str(naming[0])!r} and {str(naming[1])!r} blend the "
                    f"{scheme.upper()} {unit.kind} {unit.base!r} twice"
                )


def _confusable_pairs(inv, scheme: str, rules: MergeRuleSet):
    """(target label, merging label, exposure) per tone of each confused pair of
    units, once each; the exposure is the share of the finals whose last phone
    under ``scheme`` is the merging unit that confuse it (1 for an IF final)."""
    finals_per_unit = Counter(_merge_unit(inv, scheme, n, c) for n, c in inv.finals.values())
    pairs = []
    for (target, source), hits in _confused_units(inv, scheme, rules).items():
        exposure = len(hits) / finals_per_unit[source]
        for tone in TONES:
            a, b = (Phone(u.kind, u.base, tone).label for u in (target, source))
            pairs.append((a, b, exposure))
    return pairs


def derive_confusions(inv, scheme: str, generator: StateModel, cfg: ExperimentConfig):
    """The ``mix_models`` table of ``cfg``'s coda merge of strength p for ``scheme``.

    Each confused pair whose six pdfs the separated ``generator`` holds has the
    nominal blend ``b + (1-b) * p * exposure`` (``_confusable_pairs``), rescaled
    from its distance in ``generator`` (the mean over its pdf pairs
    ``(pa, pb)``) so that the row ``pb -> ((blend, pa), (1 - blend, pb))``
    leaves it ``(1 - nominal)`` times the expected distance of two independent
    means apart, which keeps flip rates comparable across model seeds.
    """
    p, base, rules = cfg.confusion_p, cfg.base_similarity, MergeRuleSet.parse(cfg.merge_rules)
    reference_distance = cfg.mean_scale * math.sqrt(2.0 * cfg.feature_dim)
    row, means = generator.index, generator.means
    table = {}
    for a, b, exposure in _confusable_pairs(inv, scheme, rules):
        pdfs = list(zip(pdf_labels_for(a), pdf_labels_for(b)))
        if not all(pa in row and pb in row for pa, pb in pdfs):
            continue
        blend = base + (1.0 - base) * p * exposure
        target_margin = (1.0 - blend) * reference_distance
        gaps = [float(np.linalg.norm(means[row[pa]] - means[row[pb]])) for pa, pb in pdfs]
        actual = left_sum(gaps) / len(gaps)
        if actual > 0:
            blend = min(max(1.0 - target_margin / actual, 0.0), 1.0)
        table |= {pb: ((blend, pa), (1.0 - blend, pb)) for pa, pb in pdfs}
    return table


@dataclass
class SchemeSystem:
    lex: object
    graph: object
    models: StateModel


def _build_systems(entries, inv, cfg: ExperimentConfig) -> dict[str, SchemeSystem]:
    """Both schemes' systems under the Witten-Bell bigram trained on ``cfg.corpus``.

    The graphs share one word-level LM table (``WordLM``), and one read-only
    pronunciation table (``pron_lm``) when they map their pronunciations to
    the same words.  Set-up holds one LM table at a time: the corpus and the
    bigram live only while that table is built, and the table only until
    both graphs are, so neither is alive while the state models are drawn or
    in the seed loop.  Each scheme's state models are a separated generator
    over its graph's pdf labels, mixed by the blend table derived from it.
    """
    lm = train_ngram(read_corpus(cfg.corpus), order=2, smoothing="witten_bell")
    word_lm = WordLM((e.word for e in entries), lm)
    del lm
    graphs = {}
    for scheme in SCHEMES:
        lex = compile_lexicon(entries, scheme, inv)
        graphs[scheme] = lex, build_graph(lex, word_lm)
    del word_lm
    systems = {}
    for scheme, (lex, graph) in graphs.items():
        generator = build_state_models(set(graph.pdf_labels), cfg.sim_config())
        table = derive_confusions(inv, scheme, generator, cfg)
        systems[scheme] = SchemeSystem(lex, graph, mix_models(generator, table))
    return systems


def _draw_texts(words: list[str], cfg: ExperimentConfig, *stream: int) -> list[tuple[str, ...]]:
    """``num_utterances`` word sequences drawn from the RNG stream ``(cfg.seed, *stream)``."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, *stream)))
    return [
        tuple(words[int(k)] for k in rng.integers(0, len(words), cfg.words_per_utterance))
        for _ in range(cfg.num_utterances)
    ]


def _simulate(
    system: SchemeSystem, texts: list[tuple[str, ...]], sim_cfg: SimConfig, first_salt: int
) -> Iterator[MatrixScorer]:
    """Yield one simulated scorer per text; text ``i`` is salted ``first_salt + i``.

    Each scorer is made only when it is asked for, and the generator keeps
    no reference to one it has yielded, so a consumer that lets go of each
    one before asking for the next, as ``batch_decode`` does, holds one
    utterance's scores at a time.
    """
    for i, text in enumerate(texts):
        yield simulate_utterance(
            [p.label for w in text for p in system.lex.entries[w][0]],
            system.models,
            sim_cfg,
            first_salt + i,
        )


def _report_path(path: Path) -> str:
    """``path`` relative to the package directory when it lies inside it, else
    as given, so the bundled data files read the same from every checkout."""
    package = Path(__file__).resolve().parent
    resolved = Path(path).resolve()
    if resolved.is_relative_to(package):
        return resolved.relative_to(package).as_posix()
    return str(path)


def _relative_improvement(wer_if, wer_onc) -> float:
    """ONC's error-rate reduction as a fraction of IF's rate; 0 when IF has no errors."""
    return (wer_if.rate - wer_onc.rate) / wer_if.rate if wer_if.rate > 0 else 0.0


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run the paired scheme comparison and write report files.

    Writes ``report.json`` (deterministic for a fixed seed), ``timing.json``
    (wall-clock dependent), and ``report.txt`` (human-readable tables) into
    the output directory, and returns the report dictionary.  A config with
    sweep grids also writes ``sweep.json`` (deterministic too: each cell's
    WER and ``tokens_expanded``; its RTF goes to ``timing.json``).
    """
    cfg.validate()
    t_start = time.perf_counter()
    inv = default_inventory()
    entries = read_lexicon(cfg.lexicon)
    systems = _build_systems(entries, inv, cfg)
    sim_cfg, params = cfg.sim_config(), cfg.decode_params()
    words = [e.word for e in entries]

    # the table: each utterance's reference and hypotheses, in seed order
    refs: list[str] = []
    hyps: dict[str, list[str]] = {s: [] for s in systems}
    timing = {s: BatchResult() for s in systems}
    failures = {s: 0 for s in systems}

    for seed_idx in range(cfg.num_seeds):
        texts = _draw_texts(words, cfg, 2, seed_idx)
        refs.extend("".join(t) for t in texts)
        for scheme, system in systems.items():
            # streamed: batch_decode asks for each scorer when it is ready to
            # decode it, so a seed holds one utterance's scores at a time
            batch = batch_decode(
                system.graph, _simulate(system, texts, sim_cfg, seed_idx * 1_000_000), params
            )
            hyps[scheme].extend(hypothesis_texts(batch))
            failures[scheme] += len(batch.failures)
            timing[scheme].wall_seconds += batch.wall_seconds
            timing[scheme].audio_seconds += batch.audio_seconds

    # every reported number comes from the table; seed k is its k-th slice of n
    n = cfg.num_utterances
    seed_wers = {
        s: [corpus_wer(list(zip(refs[i : i + n], h[i : i + n]))) for i in range(0, len(refs), n)]
        for s, h in hyps.items()
    }
    pooled = {s: sum(rows, WerResult(0, 0, 0, 0)) for s, rows in seed_wers.items()}
    pairs = list(zip(seed_wers[SCHEME_IF], seed_wers[SCHEME_ONC]))
    per_seed = []
    for seed_idx, (wer_if, wer_onc) in enumerate(pairs):
        per_seed.append(
            {
                "seed_index": seed_idx,
                "wer_if": wer_if.to_json(),
                "wer_onc": wer_onc.to_json(),
                "relative_improvement": _relative_improvement(wer_if, wer_onc),
            }
        )
        log.info("seed %d: if %s onc %s", seed_idx, wer_if.percent, wer_onc.percent)
    onc_better = sum(wer_onc.rate < wer_if.rate for wer_if, wer_onc in pairs)
    classification = classify_errors(refs, hyps[SCHEME_IF], hyps[SCHEME_ONC])
    mean_rel = left_sum(r["relative_improvement"] for r in per_seed) / len(per_seed)

    report = {
        # left out: out_dir, so that reports written to two places compare equal,
        # and the sweep grids, whose results go to sweep.json
        "params": {
            k: _report_path(v) if isinstance(v, Path) else v
            for k, v in vars(cfg).items()
            if k not in ("out_dir", "sweep_beams", "sweep_max_actives")
        },
        "lexicon_stats": {
            s: vars(lexicon_stats(systems[s].lex)) for s in systems
        },
        "per_seed": per_seed,
        "aggregate": {
            "wer_if": pooled[SCHEME_IF].to_json(),
            "wer_onc": pooled[SCHEME_ONC].to_json(),
            "onc_better_seeds": onc_better,
            "num_seeds": cfg.num_seeds,
            "onc_better_fraction": onc_better / cfg.num_seeds,
            "mean_relative_improvement": mean_rel,
            "relative_improvement_pooled": _relative_improvement(
                pooled[SCHEME_IF], pooled[SCHEME_ONC]
            ),
            "decode_failures": failures,
        },
        "classification": classification.to_json(),
    }

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(json_text(report, indent=2) + "\n", encoding="utf-8")

    timing_out = {
        s: {"wall_seconds": t.wall_seconds, "audio_seconds": t.audio_seconds, "rtf": t.rtf}
        for s, t in timing.items()
    }
    timing_out["total_wall_seconds"] = time.perf_counter() - t_start

    # a failed decode adds no wall time, so the mean is over the decoded utterances
    decoded = {s: cfg.num_seeds * cfg.num_utterances - failures[s] for s in systems}
    text_rows = [
        (name, pooled[s], timing[s].rtf, 1000.0 * timing[s].wall_seconds / max(decoded[s], 1))
        for name, s in (("IF (simulated)", SCHEME_IF), ("ONC (simulated)", SCHEME_ONC))
    ]
    lines = [
        "Scheme comparison (pooled over seeds)",
        format_wer_table(text_rows),
        "Each scheme's RTF is over its own simulated audio; for the same texts ONC's",
        "is longer (more HMM states per syllable).  wall ms/utt is over the same texts.",
        "",
        f"ONC better in {onc_better}/{cfg.num_seeds} seeds; "
        f"mean relative improvement {100 * mean_rel:.2f}%",
        f"relative improvement (pooled) "
        f"{100 * report['aggregate']['relative_improvement_pooled']:.2f}%",
        "",
        "Sentence-level error classification (pooled)",
        format_classification(classification, "IF", "ONC"),
    ]

    if cfg.sweep_beams or cfg.sweep_max_actives:
        beams = list(cfg.sweep_beams) or [cfg.beam]
        actives = list(cfg.sweep_max_actives) or [cfg.max_active]
        texts = _draw_texts(words, cfg, 3)
        # the wall-clock RTF of each cell goes to timing.json, so that
        # sweep.json is deterministic for a fixed seed
        sweep_report, sweep_timing = {}, {}
        for scheme, system in systems.items():
            cells = sweep(
                system.graph,
                # a list: the sweep decodes each scorer once per grid cell
                list(_simulate(system, texts, sim_cfg, 9_000_000)),
                beams,
                actives,
                ["".join(t) for t in texts],
                params,
            )
            sweep_report[scheme] = [
                {k: v for k, v in c.to_json().items() if k != "rtf"} for c in cells
            ]
            sweep_timing[scheme] = [
                {"beam": c.beam, "max_active": c.max_active, "rtf": c.rtf} for c in cells
            ]
            lines += ["", f"Sweep ({scheme})", format_sweep_table(cells)]
        (out_dir / "sweep.json").write_text(
            json_text(sweep_report, indent=2) + "\n", encoding="utf-8"
        )
        timing_out["sweep"] = sweep_timing

    (out_dir / "timing.json").write_text(json_text(timing_out, indent=2) + "\n", encoding="utf-8")

    (out_dir / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return report
