"""Command-line entry point for every pipeline stage.

Exit codes: 0 success; 1 a usage error, including an option value that
does not parse; 2 a data error, which is a ``DataError`` (malformed or
out-of-range input, a file that is not UTF-8 among them) or an ``OSError``.
Any other exception is a bug and ends in a traceback.  Machine-readable
output goes to stdout as JSON when ``--json`` is given (the ``parse``
subcommand always prints JSON), written by ``json_text``: a non-finite
number is the string ``"inf"``, ``"-inf"`` or ``"nan"``.  Logs go to
stderr only.

Frame scoring runs one BLAS thread: before this module first imports
numpy, it sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to ``1`` where the environment does not set them, so
a value given there wins.  The decoder's products are small, so a second
thread mostly spins: on a 2-core Intel Xeon the demo ``experiment
onc-vs-if`` run took 9.7 s wall either way, with 17.9 s user CPU on two
threads and 9.3 s on one, and the same ``report.json``.
"""

import argparse
import logging
import os
import sys
from dataclasses import fields

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from . import DataError, __version__, json_text, open_text
from .decoder import (
    DecodeParams,
    build_graph,
    decode,
    pdf_labels_for,
    read_scores,
    write_scores,
)
from .evaluate import (
    classify_errors,
    corpus_wer,
    format_classification,
    format_sweep_table,
    sweep,
)
from .experiment import convert, load_experiment_config, run_experiment
from .lattice import (
    DEFAULT_LM_WEIGHT,
    DEFAULT_NBEST,
    best_path,
    nbest,
    read_external_scores,
    read_lattice,
    rescore_external,
    rescore_ngram,
    write_lattice,
)
from .lexicon import (
    LexiconError,
    compile_lexicon,
    demo_lexicon_path,
    lexicon_stats,
    read_lexicon,
    write_phone_lexicon,
)
from .ngram import (
    DEFAULT_SMOOTHING,
    interpolate,
    perplexity,
    read_arpa,
    read_corpus,
    train_ngram,
    tune_lambda,
    write_arpa,
)
from .phonology import (
    SCHEME_ONC,
    SCHEMES,
    MergeRuleSet,
    default_inventory_path,
    load_inventory,
    parse_jyutping,
)
from .simulate import SimConfig, build_state_models, simulate_utterance

log = logging.getLogger("cantoasr")

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _setting(kind):
    """An option type that reads a value as the config file reads a ``kind`` setting."""

    def read(value: str):
        try:
            return convert(kind, value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return read


def _emit(payload, as_json: bool, text: str):
    print(json_text(payload) if as_json else text)


def _load_lexicon(args):
    inv = load_inventory(args.inventory)
    entries = read_lexicon(args.lexicon)
    merges = MergeRuleSet.parse(args.merge) if args.merge else None
    return compile_lexicon(entries, args.scheme, inv, merges)


def _read_lines(path) -> list[str]:
    """Each line of ``path``, stripped; read as hypotheses, an empty line is
    the empty hypothesis of a failed decode (``hypothesis_texts``'s rule)."""
    with open_text(path) as fh:
        return [line.strip() for line in fh.read().splitlines()]


def _read_references(path) -> list[str]:
    """One reference per line; an empty line raises ``DataError`` naming it."""
    refs = _read_lines(path)
    if "" in refs:
        raise DataError(f"{path}:{refs.index('') + 1}: empty reference line")
    return refs


def cmd_parse(args):
    inv = load_inventory(args.inventory)
    syl = parse_jyutping(args.syllable, inv)
    payload = {
        "onset": syl.onset,
        "nucleus": syl.nucleus,
        "coda": syl.coda,
        "tone": syl.tone,
    }
    print(json_text(payload))
    return 0


def cmd_lexicon_compile(args):
    lex = _load_lexicon(args)
    paths = write_phone_lexicon(lex, args.out)
    _emit(
        {"files": [str(p) for p in paths], "stats": vars(lexicon_stats(lex))},
        args.json,
        f"wrote {paths[0]} and {paths[1]}",
    )
    return 0


def cmd_lexicon_stats(args):
    lex = _load_lexicon(args)
    stats = lexicon_stats(lex)
    _emit(vars(stats), args.json, str(stats))
    return 0


def cmd_lm_train(args):
    corpus = read_corpus(args.corpus)
    model = train_ngram(corpus, args.order, args.smoothing)
    write_arpa(model, args.out)
    _emit(
        {"order": args.order, "out": str(args.out), "vocab": len(model.vocab)},
        args.json,
        f"wrote order-{args.order} model to {args.out}",
    )
    return 0


def cmd_lm_interpolate(args):
    a, b = read_arpa(args.model_a), read_arpa(args.model_b)
    lam = args.lam if args.tune is None else tune_lambda(a, b, read_corpus(args.tune))
    mixed = interpolate(a, b, lam)
    write_arpa(mixed, args.out)
    _emit(
        {"lambda": lam, "out": str(args.out)},
        args.json,
        f"lambda={lam:.6f} -> {args.out}",
    )
    return 0


def cmd_lm_perplexity(args):
    model = read_arpa(args.model)
    ppl = perplexity(model, read_corpus(args.text))
    _emit({"perplexity": ppl}, args.json, f"perplexity {ppl:.4f}")
    return 0


def cmd_graph_build(args):
    lex = _load_lexicon(args)
    graph = build_graph(lex, read_arpa(args.lm))
    payload = {
        "states": graph.num_states,
        "pdf_labels": len(graph.pdf_labels),
        "words": len(graph.words),
        "pronunciations": graph.num_prons,
        **graph.arc_counts(),
    }
    _emit(payload, args.json, json_text(payload, indent=2))
    return 0


def cmd_decode(args):
    params = DecodeParams(**{f.name: getattr(args, f.name) for f in fields(DecodeParams)})
    lex = _load_lexicon(args)
    graph = build_graph(lex, read_arpa(args.lm))
    scorer = read_scores(args.scores)
    hyp, lattice, stats = decode(graph, scorer, params)
    if args.lattice_out:
        write_lattice(lattice, args.lattice_out)
    payload = {
        "text": hyp.text,
        "words": list(hyp.words),
        "am_total": hyp.am_total,
        "lm_total": hyp.lm_total,
        "combined": hyp.combined,
        "stats": stats.to_json(),
    }
    _emit(payload, args.json, hyp.text)
    return 0


def cmd_rescore(args):
    lat = read_lattice(args.lattice)
    if args.lm is not None:
        rescored = rescore_ngram(lat, read_arpa(args.lm))
        if args.out:
            write_lattice(rescored, args.out)
        hyp = best_path(rescored, args.lm_weight)
        _emit(
            {"text": hyp.text, "combined": hyp.combined, "out": args.out and str(args.out)},
            args.json,
            hyp.text,
        )
        return 0
    scores = read_external_scores(args.external)
    hyps = nbest(lat, args.n, args.lm_weight)
    rescored_hyps = rescore_external(hyps, scores, args.interpolation)
    payload = [{"text": h.text, "combined": h.combined} for h in rescored_hyps]
    _emit(payload, args.json, "\n".join(h.text for h in rescored_hyps))
    return 0


def cmd_nbest(args):
    lat = read_lattice(args.lattice)
    hyps = nbest(lat, args.n, args.lm_weight)
    payload = [
        {
            "text": h.text,
            "words": list(h.words),
            "am_total": h.am_total,
            "lm_total": h.lm_total,
            "combined": h.combined,
            "nodes": "-".join(str(n) for n in h.nodes) if h.nodes else None,
        }
        for h in hyps
    ]
    text = "\n".join(f"{p['combined']:.6f}\t{p['nodes']}\t{p['text']}" for p in payload)
    _emit(payload, args.json, text)
    return 0


def cmd_score_wer(args):
    refs = _read_references(args.ref)
    hyps = _read_lines(args.hyp)
    if len(refs) != len(hyps):
        raise DataError(f"{len(refs)} references but {len(hyps)} hypotheses")
    result = corpus_wer(list(zip(refs, hyps)))
    _emit(
        result.to_json(),
        args.json,
        f"rate {result.rate:.4f} ({result.percent}) "
        f"S={result.substitutions} I={result.insertions} D={result.deletions} "
        f"N={result.ref_length}",
    )
    return 0


def cmd_score_classify(args):
    refs = _read_references(args.ref)
    cls = classify_errors(refs, _read_lines(args.hyp_a), _read_lines(args.hyp_b))
    _emit(cls.to_json(), args.json, format_classification(cls))
    return 0


def cmd_sweep(args):
    params = DecodeParams(lm_weight=args.lm_weight)
    lex = _load_lexicon(args)
    graph = build_graph(lex, read_arpa(args.lm))
    scorers = [read_scores(p) for p in args.scores]
    refs = _read_references(args.refs)
    cells = sweep(graph, scorers, args.beams, args.max_actives, refs, params)
    _emit([c.to_json() for c in cells], args.json, format_sweep_table(cells))
    return 0


def cmd_simulate(args):
    lex = _load_lexicon(args)
    cfg = SimConfig(
        seed=args.seed if args.seed is not None else 0,
        noise_sigma=args.noise_sigma,
        frames_per_state=args.frames_per_state,
    )
    words = args.text.split()
    unknown = [w for w in words if w not in lex.entries]
    if unknown:
        raise LexiconError(f"words not in lexicon: {' '.join(unknown)}")
    labels = {p for lab in lex.labels for p in pdf_labels_for(lab)}
    models = build_state_models(labels, cfg)
    phones = [p.label for w in words for p in lex.entries[w][0]]
    scorer = simulate_utterance(phones, models, cfg, salt=args.salt)
    write_scores(args.out, scorer)
    _emit(
        {
            "out": str(args.out),
            "frames": scorer.num_frames(),
            "audio_seconds": scorer.audio_seconds,
        },
        args.json,
        f"wrote {scorer.num_frames()} frames to {args.out}",
    )
    return 0


def cmd_experiment(args):
    cfg = load_experiment_config(args.config, seed=args.seed, out_dir=args.out)
    report = run_experiment(cfg)
    agg = report["aggregate"]
    _emit(
        report,
        args.json,
        (
            f"IF  {100 * agg['wer_if']['rate']:.2f}%  "
            f"ONC {100 * agg['wer_onc']['rate']:.2f}%  "
            f"ONC better in {agg['onc_better_seeds']}/{agg['num_seeds']} seeds\n"
            f"reports in {cfg.out_dir}"
        ),
    )
    return 0


def _add_lexicon_args(parser):
    parser.add_argument("--lexicon", default=str(demo_lexicon_path()))
    parser.add_argument("--scheme", choices=SCHEMES, default=SCHEME_ONC)
    parser.add_argument("--merge", default="", help="coda merge rules, e.g. 't>k@aa,a,o'")


def _add_decode_args(parser):
    """One option per ``DecodeParams`` field, with the field's type and default."""
    for f in fields(DecodeParams):
        parser.add_argument(f"--{f.name.replace('_', '-')}", type=f.type, default=f.default)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cantoasr", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--json", action="store_true", help="JSON on stdout")
    parser.add_argument("--seed", type=int, default=None, help="seed for all randomness")
    parser.add_argument(
        "--inventory", default=str(default_inventory_path()), help="inventory TSV"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse one Jyutping syllable")
    p.add_argument("syllable")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("lexicon", help="compile or inspect a lexicon")
    lex_sub = p.add_subparsers(dest="subcommand", required=True)
    pc = lex_sub.add_parser("compile")
    _add_lexicon_args(pc)
    pc.add_argument("--out", required=True)
    pc.set_defaults(func=cmd_lexicon_compile)
    ps = lex_sub.add_parser("stats")
    _add_lexicon_args(ps)
    ps.set_defaults(func=cmd_lexicon_stats)

    p = sub.add_parser("lm", help="train, interpolate or evaluate n-gram LMs")
    lm_sub = p.add_subparsers(dest="subcommand", required=True)
    pt = lm_sub.add_parser("train")
    pt.add_argument("--corpus", required=True)
    pt.add_argument("--order", type=int, default=2)
    pt.add_argument("--smoothing", choices=["none", "witten_bell"], default=DEFAULT_SMOOTHING)
    pt.add_argument("--out", required=True)
    pt.set_defaults(func=cmd_lm_train)
    pi = lm_sub.add_parser("interpolate")
    pi.add_argument("--model-a", required=True)
    pi.add_argument("--model-b", required=True)
    weight = pi.add_mutually_exclusive_group(required=True)
    weight.add_argument("--lambda", dest="lam", type=float, help="mixture weight of model A")
    weight.add_argument("--tune", help="held-out text for EM tuning")
    pi.add_argument("--out", required=True)
    pi.set_defaults(func=cmd_lm_interpolate)
    pp = lm_sub.add_parser("perplexity")
    pp.add_argument("--model", required=True)
    pp.add_argument("--text", required=True)
    pp.set_defaults(func=cmd_lm_perplexity)

    p = sub.add_parser("graph", help="build the decoding graph")
    g_sub = p.add_subparsers(dest="subcommand", required=True)
    pg = g_sub.add_parser("build")
    _add_lexicon_args(pg)
    pg.add_argument("--lm", required=True, help="bigram ARPA file")
    pg.set_defaults(func=cmd_graph_build)

    p = sub.add_parser("decode", help="decode one score matrix")
    _add_lexicon_args(p)
    p.add_argument("--lm", required=True)
    p.add_argument("--scores", required=True, help="FSCR score matrix")
    p.add_argument("--lattice-out", default=None)
    _add_decode_args(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("rescore", help="second-pass rescoring")
    p.add_argument("--lattice", required=True)
    second = p.add_mutually_exclusive_group(required=True)
    second.add_argument("--lm", help="higher-order ARPA model")
    second.add_argument("--external", help="TSV of 'words<TAB>logprob'")
    p.add_argument("--interpolation", type=float, default=0.0)
    p.add_argument("--n", type=int, default=DEFAULT_NBEST)
    p.add_argument("--lm-weight", type=float, default=DEFAULT_LM_WEIGHT)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rescore)

    p = sub.add_parser("nbest", help="n best lattice hypotheses")
    p.add_argument("--lattice", required=True)
    p.add_argument("--n", type=int, default=DEFAULT_NBEST)
    p.add_argument("--lm-weight", type=float, default=DEFAULT_LM_WEIGHT)
    p.set_defaults(func=cmd_nbest)

    p = sub.add_parser("score", help="error rates and error classification")
    s_sub = p.add_subparsers(dest="subcommand", required=True)
    pw = s_sub.add_parser("wer")
    pw.add_argument("--ref", required=True)
    pw.add_argument("--hyp", required=True)
    pw.set_defaults(func=cmd_score_wer)
    pc = s_sub.add_parser("classify")
    pc.add_argument("--ref", required=True)
    pc.add_argument("--hyp-a", required=True)
    pc.add_argument("--hyp-b", required=True)
    pc.set_defaults(func=cmd_score_classify)

    p = sub.add_parser("sweep", help="beam / max-active grid sweep")
    _add_lexicon_args(p)
    p.add_argument("--lm", required=True)
    p.add_argument("--scores", nargs="+", required=True)
    p.add_argument("--refs", required=True)
    p.add_argument("--beams", type=_setting(tuple[float, ...]), default=(DecodeParams.beam,))
    p.add_argument(
        "--max-actives", type=_setting(tuple[int, ...]), default=(DecodeParams.max_active,)
    )
    p.add_argument("--lm-weight", type=float, default=DecodeParams.lm_weight)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="synthesize a score matrix for words")
    _add_lexicon_args(p)
    p.add_argument("--text", required=True, help="space-separated lexicon words")
    p.add_argument("--out", required=True)
    p.add_argument("--noise-sigma", type=float, default=SimConfig.noise_sigma)
    p.add_argument(
        "--frames-per-state", type=_setting(tuple[int, int]), default=SimConfig.frames_per_state
    )
    p.add_argument("--salt", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", help="run the scheme-comparison experiment")
    e_sub = p.add_subparsers(dest="subcommand", required=True)
    pe = e_sub.add_parser("onc-vs-if")
    pe.add_argument("--config", required=True)
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
