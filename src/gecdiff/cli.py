"""Command-line entry point: the pipeline as file-to-file subcommands.

Every run writes a manifest (subcommand, resolved config, paths, seed,
version) next to its primary output, or next to its first input when it
writes no file, so experiments can be replayed.  Each subcommand declares
the file arguments it reads and writes where the parser adds it, and
``main`` alone lists the ones given in the manifest.  Handlers read and
write files only through the library, whose writers are all atomic
(``corpus_io.atomic_write``): a failed run leaves no partial file behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import __version__
from .analysis import (
    FreqTable,
    build_freq_table,
    bucket_report,
    format_bucket_report,
    format_kind_report,
    format_table,
    kind_report,
    pct,
)
from .corpus_io import (
    PRESETS,
    _check_paired,
    corpus_stats,
    filter_lang8,
    length_filter,
    load_m2_gold,
    load_parallel,
    read_lines,
    read_token_lines,
    write_parallel,
    write_text,
    write_token_lines,
)
from .decode_bias import (
    BiasVector,
    DecodeConfig,
    beam_decode,
    grid_search_tune,
    read_kbest,
    record_from_hypothesis,
    rerank_kbest,
    write_kbest,
)
from .diff_codec import (
    MalformedTagsError,
    encode_diffs,
    prepend_domain,
    repair,
    split_domain,
    strip_to_source,
    strip_to_target,
    validate_tagged,
)
from .edit_extract import pair_edits
from .metrics import (
    GoldAnnotation,
    gleu,
    gleu_sentence_stats,
    m2_corpus,
    m2_maxmatch,
    paired_bootstrap,
)
from .reference_scorer import harvest, load_model, save_model, scorer, train_lm
from .text_norm import TokenSeq, find_reserved, tokenize

DEFAULT_SEED = 13


@dataclass(frozen=True)
class RunManifest:
    subcommand: str
    config: dict
    inputs: list[str]
    outputs: list[str]
    seed: int | None
    version: str


def _write_json(path: str, obj) -> None:
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _check_gold_count(hyp_path: str, hyps: list, gold_path: str, golds: list) -> None:
    """Raise unless each hypothesis line has a gold sentence; an M2 sentence is no line."""
    if len(hyps) != len(golds):
        n, m = len(hyps), len(golds)
        raise ValueError(f"{hyp_path} has {n} lines, {gold_path} has {m} sentences")


def _read_untagged(path: str, what: str, allow_empty: bool = True) -> list[TokenSeq]:
    """Token lines that hold no reserved token, such as sources and hypotheses."""
    lines = read_token_lines(path)
    for n, toks in enumerate(lines, 1):
        if not toks and not allow_empty:
            raise ValueError(f"{path}:{n}: empty {what} line")
        i = find_reserved(toks)
        if i >= 0:
            raise ValueError(f"{path}:{n}: reserved token in {what} at position {i}: {toks[i]!r}")
    return lines


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its --json report, or nothing


def _cmd_tokenize(args):
    lines = read_lines(args.infile)
    write_token_lines(args.out, [tokenize(line) for line in lines])


def _cmd_diff(args):
    pairs = load_parallel(args.src, args.tgt, args.domain)
    out: list[TokenSeq] = []
    for p in pairs:
        tagged = encode_diffs(list(p.source), list(p.target))
        if p.domain is not None:
            tagged = prepend_domain(tagged, p.domain)
        out.append(tagged)
    write_token_lines(args.out, out)


def _cmd_strip(args):
    strip = strip_to_source if args.side == "source" else strip_to_target
    out = []
    for n, tagged in enumerate(read_token_lines(args.infile), 1):
        _, body = split_domain(tagged)
        try:
            out.append(strip(body))
        except MalformedTagsError as exc:
            raise ValueError(f"{args.infile}:{n}: {exc}") from None
    write_token_lines(args.out, out)


def _cmd_repair(args):
    tagged_lines = read_token_lines(args.infile)
    sources = _read_untagged(args.src, "source")
    _check_paired(args.infile, tagged_lines, args.src, sources)
    write_token_lines(args.out, [repair(t, s) for t, s in zip(tagged_lines, sources)])


def _cmd_validate(args):
    tagged_lines = read_token_lines(args.infile)
    sources = _read_untagged(args.src, "source")
    _check_paired(args.infile, tagged_lines, args.src, sources)
    records = []
    valid = 0
    for n, (tagged, source) in enumerate(zip(tagged_lines, sources), 1):
        _, body = split_domain(tagged) if tagged else (None, tagged)
        report = validate_tagged(body, source)
        valid += report.valid
        records.append(
            {
                "line": n,
                "valid": report.valid,
                "violations": [dataclasses.asdict(v) for v in report.violations],
            }
        )
    print(f"{valid}/{len(records)} lines valid")
    if args.out:
        write_text(args.out, "".join(json.dumps(r) + "\n" for r in records))


def _cmd_filter(args):
    pairs = load_parallel(args.src, args.tgt, args.domain)
    if args.preset == "lang8":
        enabled = tuple(args.rules.split(",")) if args.rules else None
        kept, report = filter_lang8(pairs, enabled=enabled)
    else:
        if args.rules:
            raise ValueError("--rules only applies to the lang8 preset")
        src_max, tgt_max, view = PRESETS[args.preset]
        kept, report = length_filter(pairs, src_max, tgt_max, view)
    write_parallel(args.out_src, args.out_tgt, kept, args.out_domain or None)
    print(f"kept {report.retained}/{report.input}")
    for rule, count in report.drops.items():
        if count:
            print(f"  dropped {count}  {rule}")
    if args.report:
        _write_json(args.report, dataclasses.asdict(report))


def _cmd_stats(args):
    pairs = load_parallel(args.src, args.tgt, args.domain)
    st = corpus_stats(pairs)
    print(f"pairs                {st.pairs}")
    print(f"edited pairs         {st.edited_pairs}")
    print(f"edit fraction        {st.edit_fraction:.4f}")
    print(f"mean words in change {st.mean_words_in_change:.4f}")
    print(f"unique deletions     {st.unique_deletions}")
    print(f"unique insertions    {st.unique_insertions}")
    print(f"unique replacements  {st.unique_replacements}")
    return dataclasses.asdict(st)


def _cmd_train_ref(args):
    pairs = load_parallel(args.src, args.tgt)
    corpus = [(list(p.source), list(p.target)) for p in pairs]
    lexicon = harvest(corpus)
    lm = train_lm(
        [t for _, t in corpus], args.order, args.interp, args.unk_mass
    )
    save_model(args.model, lexicon, lm)
    print(
        f"lexicon: {len(lexicon.replacements)} replacement keys, "
        f"{len(lexicon.deletions)} deletion keys, "
        f"{len(lexicon.insertions)} insertion keys"
    )
    print(f"lm: order {lm.order}, vocab {len(lm.vocab)}")


_WORKER: dict = {}


def _decode_init(model_path: str, cfg: DecodeConfig) -> None:
    lexicon, lm = load_model(model_path)
    _WORKER["scorer"] = scorer(lexicon, lm)
    _WORKER["cfg"] = cfg


def _decode_one(item: tuple[int, TokenSeq]):
    sid, source = item
    return sid, beam_decode(_WORKER["scorer"], source, _WORKER["cfg"])


def _cmd_decode(args):
    if args.kbest_size is not None and args.kbest_size < 1:
        raise ValueError("--kbest-size must be >= 1")
    sources = _read_untagged(args.src, "source", allow_empty=False)
    bias = BiasVector.parse(args.bias) if args.bias else BiasVector()
    cfg = DecodeConfig(
        beam=args.beam, max_len=args.max_len, constrained=args.constrained, bias=bias
    )
    items = list(enumerate(sources))
    if args.threads > 1:
        with ProcessPoolExecutor(
            max_workers=args.threads,
            initializer=_decode_init,
            initargs=(args.model, cfg),
        ) as pool:
            results = list(pool.map(_decode_one, items, chunksize=16))
    else:
        _decode_init(args.model, cfg)
        results = [_decode_one(item) for item in items]
    all_hyps = [hyps for _, hyps in sorted(results)]
    write_token_lines(args.out, [list(hyps[0].tagged) for hyps in all_hyps])
    if args.target_out:
        write_token_lines(
            args.target_out, [strip_to_target(list(h[0].tagged)) for h in all_hyps]
        )
    if args.kbest:
        k = args.kbest_size or args.beam
        records = [
            record_from_hypothesis(sid, hyp)
            for sid, hyps in enumerate(all_hyps)
            for hyp in hyps[:k]
        ]
        write_kbest(records, args.kbest)


def _dev_pairs(src_path: str, tgt_path: str) -> list[tuple[TokenSeq, GoldAnnotation]]:
    pairs = load_parallel(src_path, tgt_path)
    dev = []
    for p in pairs:
        source = list(p.source)
        dev.append((source, GoldAnnotation(source, {0: pair_edits(source, p.target)})))
    return dev


def _cmd_tune(args):
    lexicon, lm = load_model(args.model)
    sc = scorer(lexicon, lm)
    dev = _dev_pairs(args.src, args.tgt)
    cfg = DecodeConfig(beam=args.beam, constrained=args.constrained)
    result = grid_search_tune(
        sc,
        dev,
        grid_step=args.grid_step,
        tied=not args.untied,
        cfg=cfg,
        max_unchanged=args.max_unchanged,
        beta=args.beta,
    )
    header = ("del_open", "del_close", "ins_open", "ins_close", "P", "R", "F")
    body = [
        (
            *(f"{v:.2f}" for v in dataclasses.astuple(bias)),
            pct(prf.precision), pct(prf.recall), pct(prf.f_beta),
        )
        for bias, prf in result.curve
    ]
    print(format_table(header, body))
    b = result.best
    print(
        f"best: {b.del_open:.2f},{b.del_close:.2f},{b.ins_open:.2f},{b.ins_close:.2f}"
    )
    return {
        "best": dataclasses.asdict(result.best),
        "curve": [
            {"bias": dataclasses.asdict(bias), "prf": dataclasses.asdict(prf)}
            for bias, prf in result.curve
        ],
    }


def _cmd_gleu(args):
    hyps = _read_untagged(args.hyp, "hypothesis")
    srcs = _read_untagged(args.src, "source")
    refs = _read_untagged(args.ref, "reference")
    _check_paired(args.hyp, hyps, args.src, srcs)
    _check_paired(args.hyp, hyps, args.ref, refs)
    report = gleu(hyps, srcs, refs, order=args.order)
    print(f"GLEU {pct(report.corpus)}")
    if args.sentence_out:
        write_text(args.sentence_out, "".join(f"{s:.6f}\n" for s in report.sentences))
    return {"corpus": report.corpus, "order": report.order, "sentences": list(report.sentences)}


def _cmd_m2(args):
    hyps = _read_untagged(args.hyp, "hypothesis")
    golds = load_m2_gold(args.gold)
    _check_gold_count(args.hyp, hyps, args.gold, golds)
    report = m2_corpus(hyps, golds, args.max_unchanged, args.beta)
    o = report.overall
    print(f"P {pct(o.precision)}  R {pct(o.recall)}  F{args.beta} {pct(o.f_beta)}")
    return {
        "overall": dataclasses.asdict(o),
        "sentences": [dataclasses.asdict(s) for s in report.sentences],
    }


def _cmd_bootstrap(args):
    hyps_a = _read_untagged(args.hyp_a, "hypothesis")
    hyps_b = _read_untagged(args.hyp_b, "hypothesis")
    _check_paired(args.hyp_a, hyps_a, args.hyp_b, hyps_b)
    if args.metric == "gleu":
        if args.gold:
            raise ValueError("--gold only applies to the m2 metric")
        if not (args.src and args.ref):
            raise ValueError("gleu bootstrap needs --src and --ref")
        srcs = _read_untagged(args.src, "source")
        refs = _read_untagged(args.ref, "reference")
        _check_paired(args.hyp_a, hyps_a, args.src, srcs)
        _check_paired(args.hyp_a, hyps_a, args.ref, refs)

        def stats(hyps):
            return [gleu_sentence_stats(h, s, r) for h, s, r in zip(hyps, srcs, refs)]
    else:
        if args.src or args.ref:
            raise ValueError("--src and --ref only apply to the gleu metric")
        if not args.gold:
            raise ValueError("m2 bootstrap needs --gold")
        golds = load_m2_gold(args.gold)
        _check_gold_count(args.hyp_a, hyps_a, args.gold, golds)

        def stats(hyps):
            return [m2_maxmatch(h, g, args.max_unchanged, args.beta) for h, g in zip(hyps, golds)]

    report = paired_bootstrap(
        stats(hyps_a), stats(hyps_b), metric=args.metric, resamples=args.resamples,
        level=args.level, seed=args.seed, beta=args.beta,
    )
    print(f"{args.metric} A {pct(report.score_a)}  B {pct(report.score_b)}")
    print(
        f"wins A {report.wins_a}  wins B {report.wins_b}  ties {report.ties}  "
        f"win fraction A {report.win_fraction_a:.3f}"
    )
    if report.significant:
        print(f"significant at level {report.level}: system {report.better} better")
    else:
        print(f"not significant at level {report.level}")
    return dataclasses.asdict(report)


def _cmd_analyze(args):
    if bool(args.train_src) != bool(args.train_tgt):
        raise ValueError("--train-src and --train-tgt go together")
    hyps = _read_untagged(args.hyp, "hypothesis")
    golds = load_m2_gold(args.gold)
    _check_gold_count(args.hyp, hyps, args.gold, golds)
    system = []
    gold_sets = []
    for hyp, ann in zip(hyps, golds):
        system.append(pair_edits(ann.source, hyp))
        if args.annotator not in ann.annotators:
            raise ValueError(
                f"annotator {args.annotator} missing for source {ann.source!r}"
            )
        gold_sets.append(ann.annotators[args.annotator])
    if args.train_src:
        train = load_parallel(args.train_src, args.train_tgt)
        freq = build_freq_table([(list(p.source), list(p.target)) for p in train])
    else:
        freq = FreqTable({})
    buckets = bucket_report(system, gold_sets, freq, beta=args.beta)
    kinds = kind_report(system, gold_sets, beta=args.beta)
    print(format_bucket_report(buckets))
    print()
    print(format_kind_report(kinds))
    return {
        "buckets": {
            name: {
                "gold_count": row.gold_count,
                "unique_instances": row.unique_instances,
                "prf": dataclasses.asdict(row.prf),
            }
            for name, row in buckets.rows.items()
        },
        "kinds": {k: dataclasses.asdict(v) for k, v in kinds.items()},
    }


def _cmd_rerank(args):
    records = read_kbest(args.kbest)
    bias = BiasVector.parse(args.bias) if args.bias else BiasVector()
    reranked = rerank_kbest(records, bias)
    best: dict[int, TokenSeq] = {}
    for rec in reranked:
        if rec.sid not in best:
            best[rec.sid] = list(rec.tokens)
    lines = list(best.values())
    if args.src:
        sources = _read_untagged(args.src, "source")
        expected = set(range(len(sources)))
        if best.keys() != expected:
            missing = sorted(expected - best.keys())
            extra = sorted(best.keys() - expected)
            raise ValueError(
                f"{args.kbest}: ids must be 0..{len(sources) - 1}, one per line of "
                f"{args.src}; missing {missing[:5]}, unexpected {extra[:5]}"
            )
        lines = [repair(best[sid], s) for sid, s in enumerate(sources)]
    write_token_lines(args.out, lines)
    if args.kbest_out:
        write_kbest(reranked, args.kbest_out)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gecdiff", description="Diff-tagged grammatical error correction toolkit."
    )
    parser.add_argument("--version", action="version", version=f"gecdiff {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name: str, func, help_text: str, reads: str, writes: str) -> argparse.ArgumentParser:
        """``reads`` and ``writes`` name the file arguments in manifest order."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, reads=reads.split(), writes=writes.split())
        p.add_argument("--manifest", help="manifest path (default: next to output or first input)")
        return p

    p = add("tokenize", _cmd_tokenize, "tokenize raw text lines", reads="infile", writes="out")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = add("diff", _cmd_diff, "encode parallel text as tagged diffs",
            reads="src tgt domain", writes="out")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--domain", help="sidecar domain-label file")
    p.add_argument("--out", required=True)

    p = add("strip", _cmd_strip, "project tagged lines to one side", reads="infile", writes="out")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--side", choices=["target", "source"], default="target")
    p.add_argument("--out", required=True)

    p = add("repair", _cmd_repair, "project tagged lines onto their sources",
            reads="infile src", writes="out")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)

    p = add("validate", _cmd_validate, "check tagged lines against sources",
            reads="infile src", writes="out")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--out", help="per-line JSONL report")

    p = add("filter", _cmd_filter, "length or cleanup filtering",
            reads="src tgt domain", writes="out_src out_tgt out_domain report")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--domain")
    p.add_argument("--preset", required=True, choices=[*PRESETS, "lang8"])
    p.add_argument("--rules", help="comma list of lang8 rules to enable")
    p.add_argument("--out-src", required=True)
    p.add_argument("--out-tgt", required=True)
    p.add_argument("--out-domain")
    p.add_argument("--report", help="JSON filter report")

    p = add("stats", _cmd_stats, "corpus edit statistics", reads="src tgt domain", writes="json")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--domain")
    p.add_argument("--json")

    p = add("train-ref", _cmd_train_ref, "train the reference corrector",
            reads="src tgt", writes="model")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--interp", type=float, default=0.5)
    p.add_argument("--unk-mass", type=float, default=0.1)

    p = add("decode", _cmd_decode, "beam-decode tagged corrections",
            reads="model src", writes="out target_out kbest")
    p.add_argument("--model", required=True)
    p.add_argument("--src", required=True, help="tokenized source lines")
    p.add_argument("--out", required=True, help="1-best tagged lines")
    p.add_argument("--bias", help="tied value or four comma-separated values (default 0)")
    p.add_argument("--beam", type=int, default=10)
    p.add_argument("--max-len", type=int)
    p.add_argument("--constrained", action="store_true")
    p.add_argument("--target-out", help="also write stripped targets")
    p.add_argument("--kbest", help="k-best JSONL dump")
    p.add_argument("--kbest-size", type=int)
    p.add_argument("--threads", type=int, default=1)

    p = add("tune", _cmd_tune, "grid-search the bias on dev data",
            reads="model src tgt", writes="json")
    p.add_argument("--model", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--grid-step", type=float, default=0.1)
    p.add_argument("--untied", action="store_true")
    p.add_argument("--beam", type=int, default=1)
    p.add_argument("--constrained", action="store_true")
    p.add_argument("--max-unchanged", type=int, default=2)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--json")

    p = add("gleu", _cmd_gleu, "corpus GLEU with source penalty",
            reads="hyp src ref", writes="sentence_out json")
    p.add_argument("--hyp", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--sentence-out")
    p.add_argument("--json")

    p = add("m2", _cmd_m2, "MaxMatch F-score against gold edits", reads="hyp gold", writes="json")
    p.add_argument("--hyp", required=True)
    p.add_argument("--gold", required=True, help="gold edit file")
    p.add_argument("--max-unchanged", type=int, default=2)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--json")

    p = add("bootstrap", _cmd_bootstrap, "paired significance test",
            reads="hyp_a hyp_b src ref gold", writes="json")
    p.add_argument("--hyp-a", required=True)
    p.add_argument("--hyp-b", required=True)
    p.add_argument("--metric", choices=["gleu", "m2"], default="gleu")
    p.add_argument("--src")
    p.add_argument("--ref")
    p.add_argument("--gold")
    p.add_argument("--resamples", type=int, default=50)
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-unchanged", type=int, default=2)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--json")

    p = add("analyze", _cmd_analyze, "bucket and kind error reports",
            reads="hyp gold train_src train_tgt", writes="json")
    p.add_argument("--hyp", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--train-src", help="training pairs for the frequency table")
    p.add_argument("--train-tgt")
    p.add_argument("--annotator", type=int, default=0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--json")

    p = add("rerank", _cmd_rerank, "re-rank a k-best dump under a bias",
            reads="kbest src", writes="out kbest_out")
    p.add_argument("--kbest", required=True)
    p.add_argument("--bias", help="as for decode (default 0)")
    p.add_argument("--out", required=True, help="best sequence per id")
    p.add_argument("--src", help="repair best sequences against these sources")
    p.add_argument("--kbest-out", help="write the re-ranked dump")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    given = vars(args)
    try:
        report = args.func(args)
        if given.get("json"):
            _write_json(args.json, report)
        inputs = [given[k] for k in args.reads if given[k]]
        outputs = [given[k] for k in args.writes if given[k]]
        manifest_path = args.manifest
        if manifest_path is None:
            base = outputs[0] if outputs else f"{inputs[0]}.{args.cmd}"
            manifest_path = base + ".manifest.json"
        manifest = RunManifest(
            subcommand=args.cmd,
            config={
                k: v
                for k, v in given.items()
                if k not in ("func", "reads", "writes", "manifest", "cmd")
            },
            inputs=inputs,
            outputs=outputs,
            seed=given.get("seed"),
            version=__version__,
        )
        _write_json(manifest_path, dataclasses.asdict(manifest))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
