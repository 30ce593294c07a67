"""The three workloads: the same public calls, in the same order, as the CLI handlers.

The workloads call the library rather than the CLI because the CLI always
builds the reference scorer with its default weights.  On a corpus with
insertion edits those weights send greedy hypotheses into ``<ins> , </ins>``
loops that run to ``max_len``, so a CLI-driven benchmark would time little
but the truncation path.  The scorer is built here as
``scorer(lexicon, lm, edit_weight=EDIT_WEIGHT)``.

Each workload has a set-up (``setup``), a timed pass (``run``) that returns
its outputs and the number of sentences it processed, and output checks
(``check``) that do not rely on the package to judge the package.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from gecdiff import (
    analysis,
    corpus_io,
    decode_bias,
    diff_codec,
    edit_extract,
    metrics,
    reference_scorer,
)

EDIT_WEIGHT = 0.003
GRID = [round(i * 0.1, 10) for i in range(11)]
BETA = 0.5
MAX_UNCHANGED = 2
TAGS = ("<del>", "</del>", "<ins>", "</ins>")


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def source_side(tagged) -> list[str]:
    """Drop ``<ins>`` spans and every tag: what remains must be the source."""
    out, inside = [], False
    for tok in tagged:
        if tok == "<ins>":
            inside = True
        elif tok == "</ins>":
            inside = False
        elif tok not in TAGS and not inside:
            out.append(tok)
    return out


def f_beta(p: float, r: float, beta: float) -> float:
    b2 = beta * beta
    return 0.0 if b2 * p + r == 0 else (1 + b2) * p * r / (b2 * p + r)


def prf_obj(prf) -> list[float]:
    return [prf.tp, prf.fp, prf.fn, prf.precision, prf.recall, prf.f_beta]


class Checks:
    """Counts output checks and keeps the first few failure messages for the record."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)


def train_ref(paths: dict, model_path: str):
    """The ``train-ref`` handler's calls, then the model load every decoding handler does."""
    pairs = corpus_io.load_parallel(paths["train.src"], paths["train.tgt"])
    corpus = [(list(p.source), list(p.target)) for p in pairs]
    lexicon = reference_scorer.harvest(corpus)
    lm = reference_scorer.train_lm([t for _, t in corpus], 3, 0.5, 0.1)
    reference_scorer.save_model(model_path, lexicon, lm)
    lexicon, lm = reference_scorer.load_model(model_path)
    return reference_scorer.scorer(lexicon, lm, edit_weight=EDIT_WEIGHT)


# ---------------------------------------------------------------------------


class TuneGreedy:
    """``tune``: tied 11-point grid at step 0.1, beam 1, default ``max_len``."""

    sentence_fn = ("decode_bias", "beam_decode")

    def __init__(self, paths: dict, tmp: str):
        self.paths = paths
        self.model = os.path.join(tmp, "ref.json")

    def setup(self):
        self.scorer = train_ref(self.paths, self.model)

    def run(self):
        pairs = corpus_io.load_parallel(self.paths["dev.src"], self.paths["dev.tgt"])
        dev = []
        for p in pairs:
            source, target = list(p.source), list(p.target)
            edits = edit_extract.edits_from_tagged(diff_codec.encode_diffs(source, target))
            dev.append((source, metrics.GoldAnnotation(source, {0: edits})))
        result = decode_bias.grid_search_tune(
            self.scorer,
            dev,
            grid_step=0.1,
            tied=True,
            cfg=decode_bias.DecodeConfig(beam=1, constrained=False),
            max_unchanged=MAX_UNCHANGED,
            beta=BETA,
        )
        return result, len(dev) * len(result.curve)

    def check(self, result, checks: Checks) -> dict:
        curve = result.curve
        checks.expect(len(curve) == len(GRID), f"curve has {len(curve)} points")
        for (bias, prf), v in zip(curve, GRID):
            checks.expect(bias.as_map() == {t: v for t in TAGS}, f"grid point {bias}")
            want = f_beta(prf.precision, prf.recall, BETA)
            checks.expect(
                math.isclose(prf.f_beta, want, rel_tol=1e-12, abs_tol=1e-15),
                f"F {prf.f_beta} at {v} is not f_beta(P, R) = {want}",
            )
        fs = [prf.f_beta for _, prf in curve]
        first = curve[fs.index(max(fs))][0] if fs else None
        checks.expect(result.best == first, f"best {result.best} is not the first argmax")
        return {
            "tune_curve": sha256_json(
                [[list(b.as_map().values()), prf_obj(p)] for b, p in curve]
            )
        }


class DecodeKbest:
    """``decode`` at beam 10, constrained, tied bias 0.3, then k-best IO and ``rerank --src``."""

    sentence_fn = ("decode_bias", "beam_decode")

    def __init__(self, paths: dict, tmp: str):
        self.paths = paths
        self.model = os.path.join(tmp, "ref.json")
        self.kbest = os.path.join(tmp, "test.kbest.jsonl")

    def setup(self):
        self.scorer = train_ref(self.paths, self.model)

    def run(self):
        sources = corpus_io.read_token_lines(self.paths["test.src"])
        cfg = decode_bias.DecodeConfig(
            beam=10, constrained=True, bias=decode_bias.BiasVector.tied(0.3)
        )
        all_hyps = [decode_bias.beam_decode(self.scorer, s, cfg) for s in sources]
        records = [
            decode_bias.record_from_hypothesis(sid, hyp)
            for sid, hyps in enumerate(all_hyps)
            for hyp in hyps
        ]
        decode_bias.write_kbest(records, self.kbest)
        back = decode_bias.read_kbest(self.kbest)
        reranked = []
        for v in GRID:
            best, seen = [], set()
            for rec in decode_bias.rerank_kbest(back, decode_bias.BiasVector.tied(v)):
                if rec.sid not in seen:
                    seen.add(rec.sid)
                    best.append(list(rec.tokens))
            reranked.append([diff_codec.repair(t, s) for t, s in zip(best, sources)])
        return (sources, all_hyps, records, back, reranked), len(sources)

    def check(self, out, checks: Checks) -> dict:
        sources, all_hyps, records, back, reranked = out
        with open(self.kbest, "rb") as fh:
            dump = hashlib.sha256(fh.read()).hexdigest()
        for sid, (src, hyps) in enumerate(zip(sources, all_hyps)):
            checks.expect(1 <= len(hyps) <= 10, f"sentence {sid}: {len(hyps)} hypotheses")
            for hyp in hyps:
                checks.expect(source_side(hyp.tagged) == src, f"sentence {sid}: {hyp.tagged}")
        checks.expect(back == records, "k-best read back differs from what was written")
        for v, lines in zip(GRID, reranked):
            checks.expect(len(lines) == len(sources), f"rerank {v}: {len(lines)} lines")
            for sid, (line, src) in enumerate(zip(lines, sources)):
                checks.expect(source_side(line) == src, f"rerank {v} sentence {sid}: {line}")
        return {"kbest_dump": dump, "rerank": sha256_json(reranked)}


class ScoreLongtail:
    """``validate``, ``repair``, ``m2``, ``gleu``, two ``bootstrap`` runs and ``analyze``."""

    sentence_fn = ("metrics", "m2_maxmatch")

    def __init__(self, paths: dict, tmp: str):
        self.paths = paths

    def setup(self):
        """``analyze --train-src --train-tgt``: the frequency table of training edits."""
        train = corpus_io.load_parallel(self.paths["train.src"], self.paths["train.tgt"])
        self.freq = analysis.build_freq_table(
            [(list(p.source), list(p.target)) for p in train]
        )

    def run(self):
        p = self.paths
        read = corpus_io.read_token_lines
        out = {}
        lines = 0

        tagged_lines, sources = read(p["score.tagged"]), read(p["score.src"])
        reports = []
        for tagged, source in zip(tagged_lines, sources):
            _, body = diff_codec.split_domain(tagged) if tagged else (None, tagged)
            reports.append(diff_codec.validate_tagged(body, source))
        out["validate"] = reports
        lines += len(reports)

        tagged_lines, sources = read(p["score.tagged"]), read(p["score.src"])
        out["repair"] = [diff_codec.repair(t, s) for t, s in zip(tagged_lines, sources)]
        lines += len(out["repair"])

        hyps, golds = read(p["score.hyp_a"]), corpus_io.load_m2_gold(p["score.m2"])
        out["m2"] = metrics.m2_corpus(hyps, golds, MAX_UNCHANGED, BETA)
        lines += len(hyps)

        hyps, srcs, refs = read(p["score.hyp_a"]), read(p["score.src"]), read(p["score.ref"])
        out["gleu"] = metrics.gleu(hyps, srcs, refs, order=4)
        lines += len(hyps)

        hyps_a, hyps_b = read(p["score.hyp_a"]), read(p["score.hyp_b"])
        golds = corpus_io.load_m2_gold(p["score.m2"])
        m2_a = [metrics.m2_maxmatch(h, g, MAX_UNCHANGED, BETA) for h, g in zip(hyps_a, golds)]
        m2_b = [metrics.m2_maxmatch(h, g, MAX_UNCHANGED, BETA) for h, g in zip(hyps_b, golds)]
        out["bootstrap_m2"] = metrics.paired_bootstrap(m2_a, m2_b, metric="m2", beta=BETA)
        lines += len(hyps_a)

        hyps_a, hyps_b = read(p["score.hyp_a"]), read(p["score.hyp_b"])
        srcs, refs = read(p["score.src"]), read(p["score.ref"])
        gleu_a = [metrics.gleu_sentence_stats(h, s, r) for h, s, r in zip(hyps_a, srcs, refs)]
        gleu_b = [metrics.gleu_sentence_stats(h, s, r) for h, s, r in zip(hyps_b, srcs, refs)]
        out["bootstrap_gleu"] = metrics.paired_bootstrap(gleu_a, gleu_b, metric="gleu")
        lines += len(hyps_a)

        hyps, golds = read(p["score.hyp_a"]), corpus_io.load_m2_gold(p["score.m2"])
        system = [
            edit_extract.edits_from_tagged(diff_codec.encode_diffs(ann.source, hyp))
            for hyp, ann in zip(hyps, golds)
        ]
        gold_sets = [ann.annotators[0] for ann in golds]
        buckets = analysis.bucket_report(system, gold_sets, self.freq, beta=BETA)
        kinds = analysis.kind_report(system, gold_sets, beta=BETA)
        out["analyze"] = (
            analysis.format_bucket_report(buckets),
            analysis.format_kind_report(kinds),
        )
        lines += len(hyps)

        # kept for the self-against-self bootstrap check, outside the timed pass
        out["stats"] = (m2_a, gleu_a)
        return out, lines

    def check(self, out, checks: Checks) -> dict:
        with open(self.paths["score.corrupted"], encoding="utf-8") as fh:
            corrupted = [line.strip() == "1" for line in fh]
        sources = corpus_io.read_token_lines(self.paths["score.src"])
        for n, (report, bad) in enumerate(zip(out["validate"], corrupted)):
            checks.expect(report.valid != bad, f"line {n}: valid={report.valid}, corrupted={bad}")
        for n, (line, src) in enumerate(zip(out["repair"], sources)):
            checks.expect(source_side(line) == src, f"repaired line {n}: {line}")

        def unit(x: float) -> bool:
            return 0.0 <= x <= 1.0

        m2 = out["m2"]
        for prf in (m2.overall, *m2.sentences):
            checks.expect(
                all(map(unit, (prf.precision, prf.recall, prf.f_beta))), f"M2 {prf}"
            )
        g = out["gleu"]
        checks.expect(all(map(unit, (g.corpus, *g.sentences))), "GLEU outside [0, 1]")
        for name in ("bootstrap_m2", "bootstrap_gleu"):
            b = out[name]
            checks.expect(
                all(map(unit, (b.score_a, b.score_b, b.win_fraction_a))), f"{name} {b}"
            )
        m2_a, gleu_a = out["stats"]
        for metric, stats in (("m2", m2_a), ("gleu", gleu_a)):
            same = metrics.paired_bootstrap(stats, stats, metric=metric, beta=BETA)
            checks.expect(not same.significant, f"{metric}: a system beats itself")

        return {
            "score_reports": sha256_json(
                {
                    "validate": [[r.valid, [[v.position, v.kind] for v in r.violations]]
                                 for r in out["validate"]],
                    "repair": out["repair"],
                    "m2": [prf_obj(m2.overall)] + [prf_obj(s) for s in m2.sentences],
                    "gleu": [g.corpus, list(g.sentences)],
                    "bootstrap": [
                        [b.score_a, b.score_b, b.wins_a, b.wins_b, b.ties, b.better]
                        for b in (out["bootstrap_m2"], out["bootstrap_gleu"])
                    ],
                    "analyze": list(out["analyze"]),
                }
            )
        }


WORKLOADS = {
    "tune-greedy": TuneGreedy,
    "decode-kbest": DecodeKbest,
    "score-longtail": ScoreLongtail,
}
