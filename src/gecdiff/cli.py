"""Command-line entry point: the pipeline as file-to-file subcommands.

Every run writes a manifest (subcommand, resolved config, paths, seed,
version) next to its primary output, or next to its first input when it
writes no file, so experiments can be replayed.  Handlers read and write
files only through the library, whose writers are all atomic
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
    kind_report,
)
from .corpus_io import (
    PRESETS,
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
from .edit_extract import edits_from_tagged
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


def _pct(x: float) -> str:
    return f"{x * 100:.2f}"


def _prf_dict(prf) -> dict:
    return dataclasses.asdict(prf)


def _check_same_length(name_a: str, a: list, name_b: str, b: list) -> None:
    if len(a) != len(b):
        raise ValueError(f"{name_a} has {len(a)} lines, {name_b} has {len(b)}")


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
# subcommand handlers: each returns (inputs, outputs, seed)


def _cmd_tokenize(args):
    lines = read_lines(args.infile)
    write_token_lines(args.out, [tokenize(line) for line in lines])
    return [args.infile], [args.out], None


def _cmd_diff(args):
    pairs = load_parallel(args.src, args.tgt, args.domain)
    out: list[TokenSeq] = []
    for p in pairs:
        tagged = encode_diffs(list(p.source), list(p.target))
        if p.domain is not None:
            tagged = prepend_domain(tagged, p.domain)
        out.append(tagged)
    write_token_lines(args.out, out)
    inputs = [args.src, args.tgt] + ([args.domain] if args.domain else [])
    return inputs, [args.out], None


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
    return [args.infile], [args.out], None


def _cmd_repair(args):
    tagged_lines = read_token_lines(args.infile)
    sources = _read_untagged(args.src, "source")
    _check_same_length(args.infile, tagged_lines, args.src, sources)
    write_token_lines(args.out, [repair(t, s) for t, s in zip(tagged_lines, sources)])
    return [args.infile, args.src], [args.out], None


def _cmd_validate(args):
    tagged_lines = read_token_lines(args.infile)
    sources = _read_untagged(args.src, "source")
    _check_same_length(args.infile, tagged_lines, args.src, sources)
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
    outputs = []
    if args.out:
        write_text(args.out, "".join(json.dumps(r) + "\n" for r in records))
        outputs.append(args.out)
    return [args.infile, args.src], outputs, None


def _cmd_filter(args):
    pairs = load_parallel(args.src, args.tgt, args.domain)
    if args.preset == "lang8":
        enabled = tuple(args.rules.split(",")) if args.rules else None
        kept, report = filter_lang8(pairs, enabled=enabled)
    else:
        if args.rules:
            raise ValueError("--rules only applies to the lang8 preset")
        src_max, tgt_max, tagged, view = PRESETS[args.preset]
        kept, report = length_filter(pairs, src_max, tgt_max, tagged, view)
    write_parallel(args.out_src, args.out_tgt, kept, args.out_domain or None)
    print(f"kept {report.retained}/{report.input}")
    for rule, count in report.drops.items():
        if count:
            print(f"  dropped {count}  {rule}")
    outputs = [args.out_src, args.out_tgt] + (
        [args.out_domain] if args.out_domain else []
    )
    if args.report:
        _write_json(args.report, dataclasses.asdict(report))
        outputs.append(args.report)
    inputs = [args.src, args.tgt] + ([args.domain] if args.domain else [])
    return inputs, outputs, None


def _cmd_stats(args):
    from .corpus_io import corpus_stats

    pairs = load_parallel(args.src, args.tgt, args.domain)
    st = corpus_stats(pairs)
    print(f"pairs                {st.pairs}")
    print(f"edited pairs         {st.edited_pairs}")
    print(f"edit fraction        {st.edit_fraction:.4f}")
    print(f"mean words in change {st.mean_words_in_change:.4f}")
    print(f"unique deletions     {st.unique_deletions}")
    print(f"unique insertions    {st.unique_insertions}")
    print(f"unique replacements  {st.unique_replacements}")
    outputs = []
    if args.json:
        _write_json(args.json, dataclasses.asdict(st))
        outputs.append(args.json)
    inputs = [args.src, args.tgt] + ([args.domain] if args.domain else [])
    return inputs, outputs, None


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
    return [args.src, args.tgt], [args.model], None


_WORKER: dict = {}


def _decode_init(model_path: str, cfg: DecodeConfig) -> None:
    lexicon, lm = load_model(model_path)
    _WORKER["scorer"] = scorer(lexicon, lm)
    _WORKER["cfg"] = cfg


def _decode_one(item: tuple[int, TokenSeq]):
    sid, source = item
    return sid, beam_decode(_WORKER["scorer"], source, _WORKER["cfg"])


def _cmd_decode(args):
    sources = _read_untagged(args.src, "source", allow_empty=False)
    bias = BiasVector.parse(args.bias) if args.bias else None
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
    outputs = [args.out]
    if args.target_out:
        write_token_lines(
            args.target_out, [strip_to_target(list(h[0].tagged)) for h in all_hyps]
        )
        outputs.append(args.target_out)
    if args.kbest:
        k = args.kbest_size or args.beam
        records = [
            record_from_hypothesis(sid, hyp)
            for sid, hyps in enumerate(all_hyps)
            for hyp in hyps[:k]
        ]
        write_kbest(records, args.kbest)
        outputs.append(args.kbest)
    return [args.model, args.src], outputs, None


def _dev_pairs(src_path: str, tgt_path: str) -> list[tuple[TokenSeq, GoldAnnotation]]:
    pairs = load_parallel(src_path, tgt_path)
    dev = []
    for p in pairs:
        source, target = list(p.source), list(p.target)
        edits = edits_from_tagged(encode_diffs(source, target))
        dev.append((source, GoldAnnotation(source, {0: edits})))
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
    print("del_open  del_close  ins_open  ins_close  P       R       F")
    for bias, prf in result.curve:
        print(
            f"{bias.del_open:<8.2f}  {bias.del_close:<9.2f}  {bias.ins_open:<8.2f}  "
            f"{bias.ins_close:<9.2f}  {_pct(prf.precision):>6}  {_pct(prf.recall):>6}  "
            f"{_pct(prf.f_beta):>6}"
        )
    b = result.best
    print(
        f"best: {b.del_open:.2f},{b.del_close:.2f},{b.ins_open:.2f},{b.ins_close:.2f}"
    )
    outputs = []
    if args.json:
        _write_json(
            args.json,
            {
                "best": dataclasses.asdict(result.best),
                "curve": [
                    {"bias": dataclasses.asdict(bias), "prf": _prf_dict(prf)}
                    for bias, prf in result.curve
                ],
            },
        )
        outputs.append(args.json)
    return [args.model, args.src, args.tgt], outputs, None


def _cmd_gleu(args):
    hyps = _read_untagged(args.hyp, "hypothesis")
    srcs = _read_untagged(args.src, "source")
    refs = _read_untagged(args.ref, "reference")
    report = gleu(hyps, srcs, refs, order=args.order)
    print(f"GLEU {_pct(report.corpus)}")
    outputs = []
    if args.sentence_out:
        write_text(args.sentence_out, "".join(f"{s:.6f}\n" for s in report.sentences))
        outputs.append(args.sentence_out)
    if args.json:
        _write_json(
            args.json,
            {
                "corpus": report.corpus,
                "order": report.order,
                "sentences": list(report.sentences),
            },
        )
        outputs.append(args.json)
    return [args.hyp, args.src, args.ref], outputs, None


def _cmd_m2(args):
    hyps = _read_untagged(args.hyp, "hypothesis")
    golds = load_m2_gold(args.gold)
    _check_same_length(args.hyp, hyps, args.gold, golds)
    report = m2_corpus(hyps, golds, args.max_unchanged, args.beta)
    o = report.overall
    print(f"P {_pct(o.precision)}  R {_pct(o.recall)}  F{args.beta} {_pct(o.f_beta)}")
    outputs = []
    if args.json:
        _write_json(
            args.json,
            {
                "overall": _prf_dict(o),
                "sentences": [_prf_dict(s) for s in report.sentences],
            },
        )
        outputs.append(args.json)
    return [args.hyp, args.gold], outputs, None


def _cmd_bootstrap(args):
    hyps_a = _read_untagged(args.hyp_a, "hypothesis")
    hyps_b = _read_untagged(args.hyp_b, "hypothesis")
    _check_same_length(args.hyp_a, hyps_a, args.hyp_b, hyps_b)
    inputs = [args.hyp_a, args.hyp_b]
    if args.metric == "gleu":
        if not (args.src and args.ref):
            raise ValueError("gleu bootstrap needs --src and --ref")
        srcs = _read_untagged(args.src, "source")
        refs = _read_untagged(args.ref, "reference")
        _check_same_length(args.hyp_a, hyps_a, args.src, srcs)
        _check_same_length(args.hyp_a, hyps_a, args.ref, refs)
        stats_a = [
            gleu_sentence_stats(h, s, r) for h, s, r in zip(hyps_a, srcs, refs)
        ]
        stats_b = [
            gleu_sentence_stats(h, s, r) for h, s, r in zip(hyps_b, srcs, refs)
        ]
        inputs += [args.src, args.ref]
    else:
        if not args.gold:
            raise ValueError("m2 bootstrap needs --gold")
        golds = load_m2_gold(args.gold)
        _check_same_length(args.hyp_a, hyps_a, args.gold, golds)
        stats_a = [
            m2_maxmatch(h, g, args.max_unchanged, args.beta)
            for h, g in zip(hyps_a, golds)
        ]
        stats_b = [
            m2_maxmatch(h, g, args.max_unchanged, args.beta)
            for h, g in zip(hyps_b, golds)
        ]
        inputs.append(args.gold)
    report = paired_bootstrap(
        stats_a,
        stats_b,
        metric=args.metric,
        resamples=args.resamples,
        level=args.level,
        seed=args.seed,
        beta=args.beta,
    )
    print(f"{args.metric} A {_pct(report.score_a)}  B {_pct(report.score_b)}")
    print(
        f"wins A {report.wins_a}  wins B {report.wins_b}  ties {report.ties}  "
        f"win fraction A {report.win_fraction_a:.3f}"
    )
    if report.significant:
        print(f"significant at level {report.level}: system {report.better} better")
    else:
        print(f"not significant at level {report.level}")
    outputs = []
    if args.json:
        _write_json(args.json, dataclasses.asdict(report))
        outputs.append(args.json)
    return inputs, outputs, args.seed


def _cmd_analyze(args):
    hyps = _read_untagged(args.hyp, "hypothesis")
    golds = load_m2_gold(args.gold)
    _check_same_length(args.hyp, hyps, args.gold, golds)
    system = []
    gold_sets = []
    for hyp, ann in zip(hyps, golds):
        system.append(edits_from_tagged(encode_diffs(ann.source, hyp)))
        if args.annotator not in ann.annotators:
            raise ValueError(
                f"annotator {args.annotator} missing for source {ann.source!r}"
            )
        gold_sets.append(ann.annotators[args.annotator])
    if args.train_src and args.train_tgt:
        train = load_parallel(args.train_src, args.train_tgt)
        freq = build_freq_table([(list(p.source), list(p.target)) for p in train])
    else:
        freq = FreqTable({})
    buckets = bucket_report(system, gold_sets, freq, beta=args.beta)
    kinds = kind_report(system, gold_sets, beta=args.beta)
    print(format_bucket_report(buckets))
    print()
    print(format_kind_report(kinds))
    outputs = []
    if args.json:
        _write_json(
            args.json,
            {
                "buckets": {
                    name: {
                        "gold_count": row.gold_count,
                        "unique_instances": row.unique_instances,
                        "prf": _prf_dict(row.prf),
                    }
                    for name, row in buckets.rows.items()
                },
                "kinds": {k: _prf_dict(v) for k, v in kinds.items()},
            },
        )
        outputs.append(args.json)
    inputs = [args.hyp, args.gold] + (
        [args.train_src, args.train_tgt] if args.train_src and args.train_tgt else []
    )
    return inputs, outputs, None


def _cmd_rerank(args):
    records = read_kbest(args.kbest)
    bias = BiasVector.parse(args.bias) if args.bias else None
    reranked = rerank_kbest(records, bias)
    best: dict[int, TokenSeq] = {}
    for rec in reranked:
        best.setdefault(rec.sid, list(rec.tokens))
    lines = list(best.values())
    inputs = [args.kbest]
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
        inputs.append(args.src)
    write_token_lines(args.out, lines)
    outputs = [args.out]
    if args.kbest_out:
        write_kbest(reranked, args.kbest_out)
        outputs.append(args.kbest_out)
    return inputs, outputs, None


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gecdiff", description="Diff-tagged grammatical error correction toolkit."
    )
    parser.add_argument("--version", action="version", version=f"gecdiff {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--manifest", help="manifest path (default: next to output or first input)")
        return p

    p = add("tokenize", _cmd_tokenize, "tokenize raw text lines")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = add("diff", _cmd_diff, "encode parallel text as tagged diffs")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--domain", help="sidecar domain-label file")
    p.add_argument("--out", required=True)

    p = add("strip", _cmd_strip, "project tagged lines to one side")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--side", choices=["target", "source"], default="target")
    p.add_argument("--out", required=True)

    p = add("repair", _cmd_repair, "project tagged lines onto their sources")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)

    p = add("validate", _cmd_validate, "check tagged lines against sources")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--out", help="per-line JSONL report")

    p = add("filter", _cmd_filter, "length or cleanup filtering")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--domain")
    p.add_argument("--preset", required=True, choices=[*PRESETS, "lang8"])
    p.add_argument("--rules", help="comma list of lang8 rules to enable")
    p.add_argument("--out-src", required=True)
    p.add_argument("--out-tgt", required=True)
    p.add_argument("--out-domain")
    p.add_argument("--report", help="JSON filter report")

    p = add("stats", _cmd_stats, "corpus edit statistics")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--domain")
    p.add_argument("--json")

    p = add("train-ref", _cmd_train_ref, "train the reference corrector")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--interp", type=float, default=0.5)
    p.add_argument("--unk-mass", type=float, default=0.1)

    p = add("decode", _cmd_decode, "beam-decode tagged corrections")
    p.add_argument("--model", required=True)
    p.add_argument("--src", required=True, help="tokenized source lines")
    p.add_argument("--out", required=True, help="1-best tagged lines")
    p.add_argument("--bias", help="tied value or four comma-separated values")
    p.add_argument("--beam", type=int, default=10)
    p.add_argument("--max-len", type=int)
    p.add_argument("--constrained", action="store_true")
    p.add_argument("--target-out", help="also write stripped targets")
    p.add_argument("--kbest", help="k-best JSONL dump")
    p.add_argument("--kbest-size", type=int)
    p.add_argument("--threads", type=int, default=1)

    p = add("tune", _cmd_tune, "grid-search the bias on dev data")
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

    p = add("gleu", _cmd_gleu, "corpus GLEU with source penalty")
    p.add_argument("--hyp", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--sentence-out")
    p.add_argument("--json")

    p = add("m2", _cmd_m2, "MaxMatch F-score against gold edits")
    p.add_argument("--hyp", required=True)
    p.add_argument("--gold", required=True, help="gold edit file")
    p.add_argument("--max-unchanged", type=int, default=2)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--json")

    p = add("bootstrap", _cmd_bootstrap, "paired significance test")
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

    p = add("analyze", _cmd_analyze, "bucket and kind error reports")
    p.add_argument("--hyp", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--train-src", help="training pairs for the frequency table")
    p.add_argument("--train-tgt")
    p.add_argument("--annotator", type=int, default=0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--json")

    p = add("rerank", _cmd_rerank, "re-rank a k-best dump under a bias")
    p.add_argument("--kbest", required=True)
    p.add_argument("--bias")
    p.add_argument("--out", required=True, help="best sequence per id")
    p.add_argument("--src", help="repair best sequences against these sources")
    p.add_argument("--kbest-out", help="write the re-ranked dump")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        inputs, outputs, seed = args.func(args)
        manifest_path = args.manifest
        if manifest_path is None:
            base = outputs[0] if outputs else f"{inputs[0]}.{args.cmd}"
            manifest_path = base + ".manifest.json"
        config = {
            k: v
            for k, v in vars(args).items()
            if k not in ("func", "manifest", "cmd") and not callable(v)
        }
        manifest = RunManifest(
            subcommand=args.cmd,
            config=config,
            inputs=inputs,
            outputs=outputs,
            seed=seed,
            version=__version__,
        )
        _write_json(manifest_path, dataclasses.asdict(manifest))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
