from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from gecdiff.edit_extract import Edit, lattice_arcs, levenshtein_align
from gecdiff.metrics import (
    BootstrapReport,
    GleuStats,
    GoldAnnotation,
    PRF,
    corpus_gleu_from_stats,
    f_beta,
    gleu,
    gleu_sentence_stats,
    m2_corpus,
    m2_maxmatch,
    micro_prf,
    paired_bootstrap,
    sentence_gleu_from_stats,
)
from gecdiff.text_norm import DEL_OPEN, is_reserved_token
from test_edit_extract import apply_edits


class TestFBeta:
    def test_balanced_beta_one(self):
        assert f_beta(0.5, 0.5, beta=1.0) == pytest.approx(0.5)

    def test_precision_weighted_default(self):
        # 1.25 * (1 * (1/22)) / (0.25 * 1 + 1/22) == 125/650
        assert f_beta(1.0, 1 / 22) == pytest.approx(0.1923076923, abs=1e-9)

    def test_published_style_rows(self):
        assert round(f_beta(0.4666, 0.1535) * 100, 2) == pytest.approx(33.14, abs=0.01)
        assert round(f_beta(0.7234, 0.0097) * 100, 2) == pytest.approx(4.60, abs=0.01)
        assert round(f_beta(0.3017, 0.2490) * 100, 2) == pytest.approx(28.94, abs=0.01)

    def test_zero_denominator(self):
        assert f_beta(0.0, 0.0) == 0.0


class TestPRF:
    def test_from_counts(self):
        prf = PRF.from_counts(3, 1, 2)
        assert prf.precision == pytest.approx(0.75)
        assert prf.recall == pytest.approx(0.6)

    def test_empty_conventions(self):
        prf = PRF.from_counts(0, 0, 0)
        assert (prf.precision, prf.recall, prf.f_beta) == (1.0, 1.0, 1.0)

    def test_no_output_against_gold(self):
        prf = PRF.from_counts(0, 0, 5)
        assert prf.precision == 1.0 and prf.recall == 0.0 and prf.f_beta == 0.0


def test_micro_prf_buckets():
    decisions = [("x", "tp"), ("x", "fp"), ("y", "fn"), ("x", "tp")]
    out = micro_prf(decisions)
    assert out["x"].precision == pytest.approx(2 / 3)
    assert out["y"].recall == 0.0
    with pytest.raises(ValueError):
        micro_prf([("x", "??")])


class TestGleuSentence:
    # hand-enumerated n-gram cases; arithmetic in comments

    def test_perfect_copy_no_errors(self):
        st_ = gleu_sentence_stats(["the", "cat", "sat"], ["the", "cat", "sat"], ["the", "cat", "sat"])
        assert st_.matches == (3, 2, 1, 0)
        assert st_.totals == (3, 2, 1, 0)
        assert sentence_gleu_from_stats(st_) == pytest.approx(1.0)

    def test_empty_hypothesis(self):
        assert sentence_gleu_from_stats(gleu_sentence_stats([], [], [])) == 1.0
        assert sentence_gleu_from_stats(gleu_sentence_stats([], ["a"], ["a"])) == 0.0

    def test_disjoint_hypothesis(self):
        st_ = gleu_sentence_stats(["x", "y"], ["a", "b"], ["a", "b"])
        assert sentence_gleu_from_stats(st_) == 0.0

    def test_uncorrected_source_penalized(self):
        # hyp==src, ref fixes cat->dog:
        # 1-gram: |hyp∩ref|=2 (the,sat), |hyp∩(src-ref)|=1 (cat) -> 1/3
        # 2-gram: 0 matches, penalty 2 -> floored 0 -> score 0
        st_ = gleu_sentence_stats(
            ["the", "cat", "sat"], ["the", "cat", "sat"], ["the", "dog", "sat"]
        )
        assert st_.matches == (1, 0, 0, 0)
        assert sentence_gleu_from_stats(st_) == 0.0

    def test_partial_correction_order2(self):
        # hyp he/goes/house vs ref he/goes/home, src he/go/home
        # 1-gram: ∩ref {he,goes}=2, src-ref={go}, no overlap -> 2/3
        # 2-gram: ∩ref {(he,goes)}=1 -> 1/2; sqrt(2/3 * 1/2)=sqrt(1/3)
        st_ = gleu_sentence_stats(
            ["he", "goes", "house"], ["he", "go", "home"], ["he", "goes", "home"], order=2
        )
        assert st_.matches == (2, 1)
        assert st_.totals == (3, 2)
        assert sentence_gleu_from_stats(st_) == pytest.approx(
            math.sqrt(1 / 3), abs=1e-9
        )

    def test_clipping_repeated_token(self):
        # hyp the/cat/sat/sat: 1-grams clip sat to 1 -> 3/4; 2-grams 2/3
        # sqrt(3/4 * 2/3) = sqrt(1/2); len 4 > ref 3 so no brevity penalty
        st_ = gleu_sentence_stats(
            ["the", "cat", "sat", "sat"],
            ["the", "cat", "sat"],
            ["the", "cat", "sat"],
            order=2,
        )
        assert st_.matches == (3, 2)
        assert sentence_gleu_from_stats(st_) == pytest.approx(
            math.sqrt(0.5), abs=1e-9
        )

    def test_brevity_penalty(self):
        # perfect prefix, c=2 r=3: BP=exp(1-3/2)
        st_ = gleu_sentence_stats(
            ["the", "cat"], ["the", "cat", "sat"], ["the", "cat", "sat"], order=2
        )
        assert sentence_gleu_from_stats(st_) == pytest.approx(
            math.exp(-0.5), abs=1e-9
        )

    def test_short_hyp_smoothing(self):
        # single token, orders 2..4 have no denominator: smoothed to 1/1
        st_ = gleu_sentence_stats(["hi"], ["hi", "there"], ["hi", "there"])
        assert st_.totals == (1, 0, 0, 0)
        # BP=exp(1-2/1)=exp(-1)
        assert sentence_gleu_from_stats(st_) == pytest.approx(math.exp(-1), abs=1e-9)

    def test_penalty_cancels_in_reference(self):
        # src token also in ref: src-ref empty, no penalty
        st_ = gleu_sentence_stats(["a"], ["b"], ["a"])
        assert st_.matches[0] == 1
        assert sentence_gleu_from_stats(st_) == pytest.approx(1.0)

    def test_floor_is_per_sentence(self):
        # penalty exceeds matches: floored at 0, not negative
        st_ = gleu_sentence_stats(["b", "b"], ["b", "b", "b"], ["a"])
        assert st_.matches[0] == 0


class TestGleuCorpus:
    def test_pooled_counts_not_score_mean(self):
        a = gleu_sentence_stats(["a", "b", "c"], ["a", "b", "c"], ["a", "b", "c"], order=2)
        b = gleu_sentence_stats(["a", "x"], ["a", "y"], ["a", "y"], order=2)
        # pooled: 1-gram (3+1)/(3+2), 2-gram (2+0)/(2+1); sqrt(4/5 * 2/3)
        corpus = corpus_gleu_from_stats([a, b])
        assert corpus == pytest.approx(math.sqrt(8 / 15), abs=1e-9)
        # while sentence b alone is 0
        assert sentence_gleu_from_stats(b) == 0.0

    def test_zero_total_orders_skipped(self):
        st_ = gleu_sentence_stats(["a"], ["b"], ["a"])
        assert corpus_gleu_from_stats([st_]) == pytest.approx(1.0)

    def test_gleu_end_to_end(self):
        report = gleu([["a", "b"]], [["a", "b"]], [["a", "b"]])
        assert report.corpus == pytest.approx(1.0)
        assert report.sentences == (pytest.approx(1.0),)
        with pytest.raises(ValueError):
            gleu([["a"]], [], [["a"]])
        with pytest.raises(ValueError):
            gleu([], [], [])

    @pytest.mark.parametrize("order", [0, -2])
    def test_order_below_one_rejected(self, order):
        # an order of 0 used to end in ZeroDivisionError per sentence
        with pytest.raises(ValueError, match=r"^order must be >= 1$"):
            gleu([["a", "b"]], [["a", "b"]], [["a", "b"]], order=order)


def ann(source, *edit_lists):
    annotators = {i: list(edits) for i, edits in enumerate(edit_lists)}
    return GoldAnnotation(source, annotators or {0: []})


class TestM2:
    def test_perfect_single_edit(self):
        gold = ann(["a", "b", "c"], [Edit(1, 2, ("b",), ("x",))])
        prf = m2_maxmatch(["a", "x", "c"], gold)
        assert (prf.tp, prf.fp, prf.fn) == (1, 0, 0)
        assert prf.f_beta == 1.0

    def test_unchanged_hypothesis(self):
        gold = ann(["a", "b"], [Edit(0, 1, ("a",), ("x",))])
        prf = m2_maxmatch(["a", "b"], gold)
        assert (prf.tp, prf.fp, prf.fn) == (0, 0, 1)
        assert prf.precision == 1.0 and prf.recall == 0.0 and prf.f_beta == 0.0

    def test_wrong_edit_counts_fp(self):
        gold = ann(["a", "b"], [])
        prf = m2_maxmatch(["a", "x"], gold)
        assert (prf.tp, prf.fp, prf.fn) == (0, 1, 0)

    def test_rejects_tagged_hypothesis(self):
        gold = ann(["a"], [])
        with pytest.raises(ValueError):
            m2_maxmatch([DEL_OPEN, "a"], gold)

    def test_gap_matching_respects_max_unchanged(self):
        # gold merges a change across two unchanged tokens
        src = ["a", "b", "c", "d", "e"]
        gold_edit = Edit(1, 4, ("b", "c", "d"), ("X", "c", "Y"))
        gold = ann(src, [gold_edit])
        hyp = ["a", "X", "c", "Y", "e"]
        assert m2_maxmatch(hyp, gold, max_unchanged=1).tp == 1
        # budget 0 cannot form the wide arc: two small edits, neither matches
        prf0 = m2_maxmatch(hyp, gold, max_unchanged=0)
        assert prf0.tp == 0 and prf0.fp == 2 and prf0.fn == 1

    def test_best_annotator_chosen(self):
        src = ["a", "b"]
        good = [Edit(1, 2, ("b",), ("x",))]
        gold = ann(src, [], good)  # annotator 0 empty, annotator 1 matches
        prf = m2_maxmatch(["a", "x"], gold)
        assert (prf.tp, prf.fp, prf.fn) == (1, 0, 0)

    def test_tie_goes_to_first_annotator(self):
        # both annotators yield F=0; annotator 0's counts (fn=0) are charged
        src = ["a", "b"]
        gold = ann(src, [], [Edit(0, 1, ("a",), ("z",))])
        prf = m2_maxmatch(["a", "x"], gold)
        assert (prf.tp, prf.fp, prf.fn) == (0, 1, 0)

    def test_insert_run_single_count(self):
        # two identical inserts cover the run; the one gold insert matches once
        gold = ann(["a"], [Edit(0, 0, (), ("x",))])
        prf = m2_maxmatch(["x", "x", "a"], gold)
        assert prf.tp == 1 and prf.fn == 0
        assert prf.tp + prf.fp == 2  # two system edits charged

    def test_prefers_fewer_edits_at_equal_tp(self):
        gold = ann(["a", "b", "c"], [])
        prf = m2_maxmatch(["x", "y", "c"], gold)
        # one merged replacement, not two
        assert prf.fp == 1

    def test_corpus_pools_counts(self):
        g1 = ann(["a", "b"], [Edit(1, 2, ("b",), ("x",))])
        g2 = ann(["c"], [Edit(0, 1, ("c",), ("y",))])
        report = m2_corpus([["a", "x"], ["c"]], [g1, g2])
        assert (report.overall.tp, report.overall.fp, report.overall.fn) == (1, 0, 1)
        # pooled, not averaged: P=1, R=1/2
        assert report.overall.precision == 1.0
        assert report.overall.recall == pytest.approx(0.5)
        with pytest.raises(ValueError):
            m2_corpus([["a"]], [])


class TestGoldAnnotation:
    def test_check_rejects_overlap(self):
        bad = GoldAnnotation(
            ["a", "b"],
            {0: [Edit(0, 2, ("a", "b"), ("x",)), Edit(1, 2, ("b",), ())]},
        )
        with pytest.raises(ValueError):
            bad.check()

    def test_check_accepts_empty(self):
        ann(["a"]).check()


class TestBootstrap:
    def perfect_vs_noisy(self):
        srcs = [["a", "b"], ["c", "d"], ["e", "f"]]
        refs = [["a", "x"], ["c", "y"], ["e", "z"]]
        hyp_a = refs
        hyp_b = srcs
        sa = [gleu_sentence_stats(h, s, r) for h, s, r in zip(hyp_a, srcs, refs)]
        sb = [gleu_sentence_stats(h, s, r) for h, s, r in zip(hyp_b, srcs, refs)]
        return sa, sb

    def test_deterministic_for_seed(self):
        sa, sb = self.perfect_vs_noisy()
        r1 = paired_bootstrap(sa, sb, seed=13)
        r2 = paired_bootstrap(sa, sb, seed=13)
        assert r1 == r2
        assert isinstance(r1, BootstrapReport)

    def test_identical_systems_never_significant(self):
        sa, _ = self.perfect_vs_noisy()
        report = paired_bootstrap(sa, list(sa))
        assert report.ties == report.resamples
        assert report.win_fraction_a == pytest.approx(0.5)
        assert not report.significant and report.better is None

    def test_dominant_system_significant(self):
        sa, sb = self.perfect_vs_noisy()
        report = paired_bootstrap(sa, sb)
        assert report.wins_a == report.resamples
        assert report.significant and report.better == "A"
        flipped = paired_bootstrap(sb, sa)
        assert flipped.significant and flipped.better == "B"

    def test_m2_metric_path(self):
        stats_a = [PRF.from_counts(1, 0, 0), PRF.from_counts(1, 0, 0)]
        stats_b = [PRF.from_counts(0, 1, 1), PRF.from_counts(0, 1, 1)]
        report = paired_bootstrap(stats_a, stats_b, metric="m2")
        assert report.score_a == 1.0 and report.score_b == 0.0
        assert report.significant and report.better == "A"

    def test_argument_errors(self):
        sa, sb = self.perfect_vs_noisy()
        with pytest.raises(ValueError):
            paired_bootstrap(sa, sb[:-1])
        with pytest.raises(ValueError):
            paired_bootstrap([], [])
        with pytest.raises(ValueError):
            paired_bootstrap(sa, sb, metric="bleu")

    @pytest.mark.parametrize("level", [0.0, -0.05, 0.5, 1.5, float("nan")])
    def test_level_outside_open_interval_rejected(self, level):
        # at 1.5, a B that wins every resample used to be reported as A better
        sa, sb = self.perfect_vs_noisy()
        with pytest.raises(ValueError, match=r"^level must be in \(0, 0\.5\), got "):
            paired_bootstrap(sb, sa, level=level)

    def test_level_just_inside_interval_accepted(self):
        sa, sb = self.perfect_vs_noisy()
        for level in (1e-9, 0.49):
            assert paired_bootstrap(sb, sa, level=level).better == "B"


@given(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
)
def test_prf_counts_bounds(tp, fp, fn):
    prf = PRF.from_counts(tp, fp, fn)
    assert 0.0 <= prf.precision <= 1.0
    assert 0.0 <= prf.recall <= 1.0
    assert 0.0 <= prf.f_beta <= 1.0
    # betweenness holds in exact arithmetic; allow round-off (P == R can
    # put the computed mean one ulp outside the pair)
    lo = min(prf.precision, prf.recall) - 1e-12
    hi = max(prf.precision, prf.recall) + 1e-12
    assert lo <= prf.f_beta <= hi or prf.f_beta == 0.0


# ---------------------------------------------------------------------------
# the integer scorers against the versions they replaced, kept verbatim


def oracle_best_selection(align, arcs, gold_edits):
    """The lattice-based selection DP, verbatim."""
    ops = align.ops
    n = len(ops)
    gold_keys = {(e.start, e.end, e.replacement) for e in gold_edits}
    arcs_from: dict[int, list] = {}
    for arc in arcs:
        arcs_from.setdefault(arc.lo, []).append(arc)
    # best[p] = {flag: (tp, -arc count)}, maximized lexicographically
    best: list[dict[bool, tuple[int, int]]] = [{} for _ in range(n + 1)]
    best[n] = {False: (0, 0), True: (0, 0)}
    for p in range(n - 1, -1, -1):
        if ops[p].kind == "equal":
            sub = best[p + 1][False]
            best[p] = {False: sub, True: sub}
            continue
        for flag in (False, True):
            value = None
            for arc in arcs_from[p]:
                e = arc.edit
                pure_insert = e.start == e.end
                matched = (e.start, e.end, e.replacement) in gold_keys and not (
                    pure_insert and flag
                )
                run_continues = (
                    pure_insert
                    and arc.hi < n
                    and ops[arc.hi].kind == "insert"
                    and ops[arc.hi].i == e.start
                )
                nflag = (flag or matched) if run_continues else False
                sub_tp, neg = best[arc.hi][nflag]
                cand = (sub_tp + (1 if matched else 0), neg - 1)
                if value is None or cand > value:
                    value = cand
            best[p][flag] = value

    tp, neg = best[0][False]
    return tp, -neg


def oracle_m2_maxmatch(hyp, gold, max_unchanged=2, beta=0.5):
    """MaxMatch over the lattice of ``lattice_arcs``, verbatim."""
    for i, tok in enumerate(hyp):
        if is_reserved_token(tok):
            raise ValueError(f"reserved token in hypothesis at position {i}: {tok!r}")
    align = levenshtein_align(gold.source, hyp)
    arcs = lattice_arcs(align, max_unchanged)
    best = None
    for aid in sorted(gold.annotators):
        gold_edits = gold.annotators[aid]
        tp, nedits = oracle_best_selection(align, arcs, gold_edits)
        prf = PRF.from_counts(tp, nedits - tp, len(gold_edits) - tp, beta)
        if best is None or prf.f_beta > best.f_beta:
            best = prf
    assert best is not None
    return best


def oracle_gleu_sentence_stats(hyp, src, ref, order=4):
    """GLEU statistics by Counter arithmetic, verbatim."""

    def ngrams(seq, n):
        return Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))

    matches: list[int] = []
    totals: list[int] = []
    for n in range(1, order + 1):
        hyp_n = ngrams(hyp, n)
        ref_n = ngrams(ref, n)
        src_only = ngrams(src, n) - ref_n
        match = sum((hyp_n & ref_n).values())
        penalty = sum((hyp_n & src_only).values())
        matches.append(max(match - penalty, 0))
        totals.append(max(len(hyp) + 1 - n, 0))
    return GleuStats(len(hyp), len(ref), tuple(matches), tuple(totals))


def _random_gold_edits(rng, source, vocab):
    """Sorted, non-overlapping inserts, deletes and replacements over ``source``."""
    edits: list[Edit] = []
    pos = 0
    while pos <= len(source):
        if rng.random() < 0.4:
            width = rng.choice((0, 0, 1, 1, 2, 3))
            end = min(pos + width, len(source))
            repl = tuple(rng.choice(vocab) for _ in range(rng.randrange(3)))
            if end > pos or repl:
                edits.append(Edit(pos, end, tuple(source[pos:end]), repl))
                pos = end + 1  # leave a gap so no two insertions share a point
                continue
        pos += 1
    return edits


def _mutate(rng, source, vocab):
    out: list[str] = []
    for tok in source:
        r = rng.random()
        if r < 0.15:
            continue  # delete
        if r < 0.35:
            out.append(rng.choice(vocab))  # replace
        else:
            out.append(tok)
        while rng.random() < 0.15:
            out.append(rng.choice(vocab))  # insert, sometimes a run
    return out


def test_m2_maxmatch_matches_lattice_oracle_on_random_cases():
    rng = random.Random(2012)
    vocab = ["a", "b", "c", "d"]
    for case in range(3000):
        source = [rng.choice(vocab) for _ in range(rng.randrange(9))]
        golds = [_random_gold_edits(rng, source, vocab) for _ in range(rng.choice((1, 2)))]
        shape = case % 10
        if shape == 0:
            hyp: list[str] = []
        elif shape == 1:
            hyp = list(source)
        elif shape == 2:  # one annotator's correction, applied exactly
            hyp = apply_edits(source, golds[0])
        else:
            hyp = _mutate(rng, source, vocab)
        gold = ann(source, *golds)
        max_unchanged = rng.randrange(4)
        got = m2_maxmatch(hyp, gold, max_unchanged)
        assert got == oracle_m2_maxmatch(hyp, gold, max_unchanged), (source, hyp, golds)


def _long_rewrite(rng, length, keep):
    # every token changed in target and hypothesis, as in the long tail of
    # the benchmark's scoring workload
    src = [f"w{rng.randrange(300):03d}" for _ in range(length)]
    tgt = ["r" + w for w in src]
    hyp = [t if rng.random() < keep else "x" + s for s, t in zip(src, tgt)]
    return src, tgt, hyp


def test_m2_maxmatch_matches_lattice_oracle_on_long_rewrites():
    rng = random.Random(160)
    for length in (80, 100, 120, 140, 160):
        src, tgt, hyp = _long_rewrite(rng, length, keep=0.85)
        whole = [Edit(0, length, tuple(src), tuple(tgt))]  # difflib's single replace
        per_token = [Edit(i, i + 1, (s,), (t,)) for i, (s, t) in enumerate(zip(src, tgt))]
        gold = ann(src, whole, per_token)
        got = m2_maxmatch(hyp, gold)
        assert got == oracle_m2_maxmatch(hyp, gold)
        assert got.tp == sum(h == t for h, t in zip(hyp, tgt))


def test_m2_maxmatch_rejects_negative_max_unchanged():
    gold = ann(["a", "b"], [Edit(0, 1, ("a",), ("x",))])
    with pytest.raises(ValueError, match="max_unchanged must be >= 0"):
        m2_maxmatch(["x", "b"], gold, max_unchanged=-1)


def test_m2_corpus_rejects_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        m2_corpus([], [])


def test_gleu_sentence_stats_matches_counter_oracle():
    rng = random.Random(2015)
    for _ in range(3000):
        vocab = ["a", "b", "c"][: rng.choice((1, 2, 3))]
        src = [rng.choice(vocab) for _ in range(rng.randrange(12))]
        ref = [rng.choice(vocab) for _ in range(rng.randrange(12))]
        hyp = rng.choice((src, ref, [rng.choice(vocab) for _ in range(rng.randrange(12))]))
        order = rng.choice((1, 2, 4, 5))
        assert gleu_sentence_stats(hyp, src, ref, order) == oracle_gleu_sentence_stats(
            hyp, src, ref, order
        ), (hyp, src, ref, order)


def test_gleu_sentence_stats_matches_counter_oracle_on_unchanged_sides():
    # hyp == src, src == ref and all three equal take the counting shortcuts;
    # a list and a tuple of the same tokens count as equal
    rng = random.Random(2016)
    for case in range(2000):
        vocab = ["a", "b", "c"][: rng.choice((1, 2, 3))]
        src = [rng.choice(vocab) for _ in range(rng.randrange(12))]
        other = [rng.choice(vocab) for _ in range(rng.randrange(12))]
        shape = case % 4
        if shape == 0:
            hyp, ref = list(src), other
        elif shape == 1:
            hyp, ref = other, list(src)
        elif shape == 2:
            hyp, ref = list(src), list(src)
        else:
            hyp, ref = tuple(src), tuple(src) if rng.random() < 0.5 else other
        order = rng.choice((1, 2, 4, 5))
        assert gleu_sentence_stats(hyp, src, ref, order) == oracle_gleu_sentence_stats(
            list(hyp), src, list(ref), order
        ), (hyp, src, ref, order)


def test_m2_maxmatch_matches_lattice_oracle_on_unchanged_hypotheses():
    # several annotators, some of them with no edits; the counts stay ints
    rng = random.Random(2013)
    vocab = ["a", "b", "c", "d"]
    for case in range(1000):
        source = [rng.choice(vocab) for _ in range(rng.randrange(9))]
        golds = [_random_gold_edits(rng, source, vocab) for _ in range(rng.randrange(1, 4))]
        golds.insert(rng.randrange(len(golds) + 1), [])
        gold = ann(source, *golds)
        hyp = tuple(source) if case % 2 else list(source)
        max_unchanged = rng.randrange(4)
        got = m2_maxmatch(hyp, gold, max_unchanged)
        assert got == oracle_m2_maxmatch(list(hyp), gold, max_unchanged), (source, golds)
        assert (type(got.tp), type(got.fp), type(got.fn)) == (int, int, int)
    only_edits = ann(["a", "b"], [Edit(0, 1, ("a",), ("x",))], [Edit(1, 2, ("b",), ())])
    assert m2_maxmatch(["a", "b"], only_edits) == oracle_m2_maxmatch(["a", "b"], only_edits)


def oracle_corpus_gleu_from_stats(stats):
    """Corpus GLEU summing GleuStats fields per order, as before columns."""
    hyp_len = sum(s.hyp_len for s in stats)
    ref_len = sum(s.ref_len for s in stats)
    if hyp_len == 0:
        return 1.0 if ref_len == 0 else 0.0
    order = max((len(s.matches) for s in stats), default=0)
    logs: list[float] = []
    for n in range(order):
        match = sum(s.matches[n] for s in stats)
        total = sum(s.totals[n] for s in stats)
        if total == 0:
            continue
        if match == 0:
            return 0.0
        logs.append(math.log(match / total))
    if not logs:
        return 0.0
    b = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return b * math.exp(sum(logs) / len(logs))


def oracle_paired_bootstrap(
    stats_a, stats_b, metric="gleu", resamples=50, level=0.05, seed=13, beta=0.5
):
    """Paired bootstrap that rescores a list of resampled statistics, as before columns."""

    def corpus_metric(stats):
        if metric == "gleu":
            return oracle_corpus_gleu_from_stats(stats)
        tp = sum(s.tp for s in stats)
        fp = sum(s.fp for s in stats)
        fn = sum(s.fn for s in stats)
        return PRF.from_counts(tp, fp, fn, beta).f_beta

    n = len(stats_a)
    rng = random.Random(seed)
    wins_a = wins_b = ties = 0
    for _ in range(resamples):
        idx = [rng.randrange(n) for _ in range(n)]
        a = corpus_metric([stats_a[i] for i in idx])
        b = corpus_metric([stats_b[i] for i in idx])
        if a > b:
            wins_a += 1
        elif b > a:
            wins_b += 1
        else:
            ties += 1
    frac = (wins_a + 0.5 * ties) / resamples
    better = None
    if frac >= 1.0 - level:
        better = "A"
    elif frac <= level:
        better = "B"
    return BootstrapReport(
        metric, resamples, level, seed, corpus_metric(stats_a), corpus_metric(stats_b),
        wins_a, wins_b, ties, frac, better is not None, better,
    )


def _random_gleu_stats(rng, order, floats):
    hyp_len = rng.choice((0, 0, 1, 2, rng.randrange(30)))
    totals = tuple(max(hyp_len + 1 - n, 0) for n in range(1, order + 1))
    matches = tuple(rng.randrange(t + 1) for t in totals)
    if floats:  # fractional counts, as from weighted or averaged statistics
        totals = tuple(t * rng.choice((1.0, 0.3, 1.7)) for t in totals)
        matches = tuple(m * rng.random() for m in matches)
    return GleuStats(hyp_len, rng.randrange(30), matches, totals)


def _random_prf(rng, floats):
    scale = rng.random() * 3 if floats else 1
    return PRF.from_counts(*(rng.randrange(4) * scale for _ in range(3)))


def test_paired_bootstrap_matches_list_oracle():
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.choice((1, 2, 7, 40))
        floats = seed % 3 == 2
        order = rng.choice((1, 2, 4))
        gleu_a = [_random_gleu_stats(rng, order, floats) for _ in range(n)]
        gleu_b = [_random_gleu_stats(rng, order, floats) for _ in range(n)]
        m2_a = [_random_prf(rng, floats) for _ in range(n)]
        m2_b = [_random_prf(rng, floats) for _ in range(n)]
        cases = (("gleu", gleu_a, gleu_b), ("gleu", gleu_a, gleu_a), ("m2", m2_a, m2_b))
        for metric, sa, sb in cases:
            for boot_seed in (13, seed):
                kwargs = dict(metric=metric, resamples=20, seed=boot_seed)
                got = paired_bootstrap(sa, sb, **kwargs)
                assert got == oracle_paired_bootstrap(sa, sb, **kwargs), (seed, metric)
                assert repr(got) == repr(oracle_paired_bootstrap(sa, sb, **kwargs))


def test_paired_bootstrap_matches_list_oracle_on_degenerate_corpora():
    empty = GleuStats(0, 0, (0, 0, 0, 0), (0, 0, 0, 0))
    short = GleuStats(1, 3, (1, 0, 0, 0), (1, 0, 0, 0))  # orders 2..4 have no total
    missed = GleuStats(0, 2, (0, 0, 0, 0), (0, 0, 0, 0))
    for sa, sb in (
        ([empty] * 3, [missed] * 3),
        ([short, empty], [empty, short]),
        ([short, missed, empty], [missed, missed, short]),
    ):
        for seed in (1, 2, 3):
            got = paired_bootstrap(sa, sb, resamples=30, seed=seed)
            assert got == oracle_paired_bootstrap(sa, sb, resamples=30, seed=seed)
        assert corpus_gleu_from_stats(sa) == oracle_corpus_gleu_from_stats(sa)


def test_mixed_gleu_orders_raise_value_error():
    two = gleu_sentence_stats(["a", "b"], ["a", "b"], ["a", "b"], order=2)
    four = gleu_sentence_stats(["a", "b"], ["a", "b"], ["a", "b"], order=4)
    with pytest.raises(ValueError, match="mixed GLEU orders"):
        corpus_gleu_from_stats([two, four])
    with pytest.raises(ValueError, match="mixed GLEU orders"):
        paired_bootstrap([four, four], [two, four])
    # each system may use its own order
    report = paired_bootstrap([two, two], [four, four])
    assert report.score_a == report.score_b == 1.0
