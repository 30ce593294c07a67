"""Acceptance suite: the shipped guarantees, one test and one printed line each.

Every test prints a [PASS]/[FAIL] line; ``tests/conftest.py`` collects the
lines from pytest's capture and prints them in the terminal summary.  The
assertion enforces the same condition.
Fuzz loops use frozen seeds, so failures reproduce exactly.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter

from gecdiff.corpus_io import SentencePair, corpus_stats, filter_lang8, load_parallel
from gecdiff.decode_bias import (
    EOS,
    BiasVector,
    DecodeConfig,
    beam_decode,
    grid_search_tune,
)
from gecdiff.diff_codec import (
    encode_diffs,
    repair,
    strip_to_source,
    strip_to_target,
    validate_tagged,
)
from gecdiff.edit_extract import (
    Edit,
    apply_edits,
    check_edits,
    edits_from_tagged,
    lattice_arcs,
    levenshtein_align,
)
from gecdiff.metrics import PRF, GoldAnnotation, f_beta, gleu, m2_maxmatch, paired_bootstrap
from gecdiff.reference_scorer import harvest, scorer, train_lm
from gecdiff.text_norm import TAG_TOKENS
from test_decode_bias import oracle_beam_decode


def _report(num: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {num:02d} {text}")


# Tied-sweep fixture: (bias, precision%, recall%, F0.5%).  The F column is
# redundant given P and R; the first test re-derives it.
TUNING_CURVE = (
    (0.0, 72.34, 0.97, 4.60),
    (0.1, 69.74, 1.51, 6.96),
    (0.2, 72.00, 2.57, 11.23),
    (0.3, 69.05, 4.14, 16.68),
    (0.4, 67.19, 6.08, 22.31),
    (0.5, 61.03, 8.76, 27.82),
    (0.6, 51.75, 11.41, 30.31),
    (0.7, 46.66, 15.35, 33.14),
    (0.8, 40.01, 18.68, 32.57),
    (0.9, 34.49, 22.08, 31.00),
    (1.0, 30.17, 24.90, 28.94),
)


def _curve_row_margin(row, fb=f_beta) -> float:
    """Distance of a row's F from the edge of what rounding allows; < 0 is outside.

    P, R and F were each rounded to two decimals, so the true P and R lie in
    [P-h, P+h] x [R-h, R+h] with h = 0.005, and a correct F lies within h of
    ``fb`` over that box.  ``fb`` is nondecreasing in both arguments, so the
    box's low and high corners bound it.
    """
    h = 0.005
    _, p, r, f = row
    lo = 100.0 * fb((p - h) / 100.0, (r - h) / 100.0) - h
    hi = 100.0 * fb((p + h) / 100.0, (r + h) / 100.0) + h
    return min(f - lo, hi - f)


def test_f_beta_recomputes_curve_rows():
    # The F column came from unrounded precision/recall, so F rebuilt from the
    # two-decimal P/R columns carries their rounding: at low recall F0.5 moves
    # about 4 points per point of R, so R's +-0.005 alone moves F by up to
    # 0.021 (bias 0.1).  Each row's F must therefore lie in the interval of
    # f_beta over its P/R rounding box, widened by F's own rounding; the clean
    # rows (bias 0.0, 0.7, 1.0) must also match the rounded inputs to 0.005.
    spot = max(
        abs(100.0 * f_beta(p / 100.0, r / 100.0) - f)
        for b, p, r, f in TUNING_CURVE if b in (0.0, 0.7, 1.0)
    )
    assert spot <= 0.005, "formula drift, not rounding noise"
    # The interval check must still reject wrong F-measures on every row.
    wrong = {
        "F1": lambda p, r: f_beta(p, r, beta=1.0),
        "unsquared beta": lambda p, r: 1.5 * p * r / (0.5 * p + r),
        "P/R swapped": lambda p, r: f_beta(r, p),
    }
    for name, fb in wrong.items():
        passed = [row[0] for row in TUNING_CURVE if _curve_row_margin(row, fb) >= 0]
        assert not passed, f"{name} passes the interval check on rows {passed}"
    margins = {row[0]: _curve_row_margin(row) for row in TUNING_CURVE}
    outside = [b for b, m in margins.items() if m < 0]
    worst = min(margins, key=margins.get)
    ok = not outside
    _report(1, ok, f"f_beta rebuilds all {len(TUNING_CURVE)} curve rows within "
                   f"two-decimal rounding, smallest margin {margins[worst]:.4f} "
                   f"(bias {worst}); rows outside: {outside or 'none'}, "
                   f"spot-check rows within {spot:.4f} (tol 0.005)")
    assert ok


def test_tuner_argmax_on_frozen_curve():
    rows = {
        b: PRF(0, 0, 0, p / 100.0, r / 100.0, f_beta(p / 100.0, r / 100.0), 0.5)
        for b, p, r, _ in TUNING_CURVE
    }

    class Idle:
        def start(self, source):
            raise AssertionError("stub evaluate must bypass decoding")

        step = dist = start

    result = grid_search_tune(
        Idle(), [(["x"], None)], grid_step=0.1, tied=True,
        evaluate=lambda bias: rows[round(bias.del_open, 1)],
    )
    ok = result.best == BiasVector.tied(0.7) and len(result.curve) == 11
    _report(2, ok, f"tuner argmax on the frozen curve is {result.best.del_open} (want 0.7)")
    assert ok


# ---------------------------------------------------------------------------
# MaxMatch vs an exhaustive oracle

M2_ALPHA = ["a", "b", "c", "d", "e", "f"]


def _oracle_counts(source, hyp, gold_edits, max_unchanged):
    """Enumerate every arc tiling of the alignment and keep the best.

    A selection's matches are capped per gold edit (duplicate pure-insert
    arcs can repeat a key); ties prefer fewer selected edits.
    """
    align = levenshtein_align(source, hyp)
    arcs = lattice_arcs(align, max_unchanged)
    ops = align.ops
    n = len(ops)
    arcs_from: dict[int, list] = {}
    for arc in arcs:
        arcs_from.setdefault(arc.lo, []).append(arc)
    gold_keys = Counter((e.start, e.end, e.replacement) for e in gold_edits)
    best: tuple[int, int] | None = None

    def walk(p: int, chosen: list) -> None:
        nonlocal best
        while p < n and ops[p].kind == "equal":
            p += 1
        if p == n:
            got = Counter(chosen)
            tp = sum(min(c, gold_keys[k]) for k, c in got.items())
            cand = (tp, -len(chosen))
            if best is None or cand > best:
                best = cand
            return
        for arc in arcs_from[p]:
            chosen.append((arc.edit.start, arc.edit.end, arc.edit.replacement))
            walk(arc.hi, chosen)
            chosen.pop()

    walk(0, [])
    assert best is not None
    tp, neg = best
    return tp, -neg - tp, len(gold_edits) - tp


def _oracle_prf(hyp, gold: GoldAnnotation, max_unchanged: int) -> PRF:
    best: PRF | None = None
    for aid in sorted(gold.annotators):
        tp, fp, fn = _oracle_counts(gold.source, hyp, gold.annotators[aid], max_unchanged)
        prf = PRF.from_counts(tp, fp, fn)
        if best is None or prf.f_beta > best.f_beta:
            best = prf
    assert best is not None
    return best


def _random_gold(rng: random.Random, src: list) -> list:
    edits = []
    pos = 0
    n = len(src)
    for _ in range(rng.randint(0, 3)):
        if pos > n:
            break
        start = rng.randint(pos, n)
        kind = "insert" if start == n else rng.choice(["insert", "delete", "replace", "replace"])
        if kind == "insert":
            repl = tuple(rng.choice(M2_ALPHA) for _ in range(rng.randint(1, 2)))
            edits.append(Edit(start, start, (), repl))
            pos = start + 1
        else:
            end = rng.randint(start + 1, min(n, start + 2))
            deleted = tuple(src[start:end])
            if kind == "delete":
                repl = ()
            else:
                repl = tuple(rng.choice(M2_ALPHA) for _ in range(rng.randint(1, 2)))
                if repl == deleted:
                    repl = repl + (rng.choice(M2_ALPHA),)
            edits.append(Edit(start, end, deleted, repl))
            pos = end
    check_edits(edits, src)
    return edits


def test_maxmatch_matches_exhaustive_oracle():
    rng = random.Random(30303)
    cases = 1000
    start = time.perf_counter()
    mismatches = 0
    for _ in range(cases):
        src = [rng.choice(M2_ALPHA) for _ in range(rng.randint(0, 8))]
        annotators = {0: _random_gold(rng, src)}
        if rng.random() < 0.25:
            annotators[1] = _random_gold(rng, src)
        gold = GoldAnnotation(src, annotators)
        gold.check()
        roll = rng.random()
        if roll < 0.25:
            hyp = apply_edits(src, annotators[0])
        elif roll < 0.45:
            hyp = list(src)
        elif roll < 0.55:
            hyp = [rng.choice(M2_ALPHA) for _ in range(rng.randint(0, 10))]
        else:
            hyp = apply_edits(src, _random_gold(rng, src))
        mu = rng.choice([0, 1, 2])
        got = m2_maxmatch(hyp, gold, max_unchanged=mu)
        want = _oracle_prf(hyp, gold, mu)
        if (got.tp, got.fp, got.fn) != (want.tp, want.fp, want.fn):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 120.0
    _report(3, ok, f"MaxMatch equals the exhaustive oracle on {cases} cases, "
                   f"{mismatches} mismatches, {elapsed:.1f}s (cap 120s)")
    assert ok


# ---------------------------------------------------------------------------
# codec and repair fuzz


def _mutate(rng: random.Random, seq: list, alpha: list) -> list:
    out = list(seq)
    for _ in range(rng.randint(0, 4)):
        op = rng.randrange(3)
        if op == 0 and out:
            del out[rng.randrange(len(out))]
        elif op == 1:
            out.insert(rng.randint(0, len(out)), rng.choice(alpha))
        elif op == 2 and out:
            out[rng.randrange(len(out))] = rng.choice(alpha)
    return out


def test_codec_round_trip_fuzz():
    rng = random.Random(40404)
    alpha = [f"t{i}" for i in range(20)]
    cases = 100_000
    start = time.perf_counter()
    failures = 0
    for _ in range(cases):
        s = [rng.choice(alpha) for _ in range(rng.randint(0, 30))]
        if rng.random() < 0.5:
            t = _mutate(rng, s, alpha)
        else:
            t = [rng.choice(alpha) for _ in range(rng.randint(0, 30))]
        tagged = encode_diffs(s, t)
        if strip_to_target(tagged) != t or strip_to_source(tagged) != s:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    _report(4, ok, f"codec round-trips {cases} pairs, {failures} failures, "
                   f"{elapsed:.1f}s (cap 60s)")
    assert ok


def test_repair_soundness_fuzz():
    rng = random.Random(50505)
    alpha = ["a", "b", "c", "d", "e", "f"]
    junk = alpha + list(TAG_TOKENS) * 2 + ["<dom:news>", "<dom:x>", "zzz"]
    cases = 100_000
    start = time.perf_counter()
    failures = 0
    for _ in range(cases):
        src = [rng.choice(alpha) for _ in range(rng.randint(0, 12))]
        if rng.random() < 0.55:
            stream = [rng.choice(junk) for _ in range(rng.randint(0, 40))]
        else:
            stream = encode_diffs(src, _mutate(rng, src, alpha))
            for _ in range(rng.randint(1, 4)):
                op = rng.randrange(3)
                if op == 0 and stream:
                    del stream[rng.randrange(len(stream))]
                elif op == 1:
                    stream.insert(rng.randint(0, len(stream)), rng.choice(junk))
                elif op == 2 and len(stream) >= 2:
                    i, j = rng.randrange(len(stream)), rng.randrange(len(stream))
                    stream[i], stream[j] = stream[j], stream[i]
        fixed = repair(stream, src)
        if not validate_tagged(fixed, src).valid or repair(fixed, src) != fixed:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    _report(5, ok, f"repair validates and is idempotent on {cases} corrupted streams, "
                   f"{failures} failures, {elapsed:.1f}s (cap 60s)")
    assert ok


# ---------------------------------------------------------------------------
# end-to-end tuning-curve shape


def _confusion_corpus(seed: int, n_sent: int):
    """Chain-generated sentences with one planted confusion per ~30% of pairs.

    Tokens are distinct within a sentence and the planted word never occurs
    elsewhere in it, so every plant diffs as a clean one-token replacement.
    """
    rng = random.Random(seed)
    vocab = [f"v{i:02d}" for i in range(40)]
    rights = vocab[1:16:2]
    fix = dict(zip(rights, vocab[0:16:2]))  # right word -> its confusable
    succ = {w: rng.sample(vocab, 4) for w in vocab}
    weights = [0.4, 0.3, 0.2, 0.1]

    def sentence():
        length = rng.randint(8, 14)
        toks = [rng.choice(vocab)]
        used = set(toks)
        while len(toks) < length:
            options = [w for w in succ[toks[-1]] if w not in used]
            if options:
                nxt = rng.choices(options, weights[: len(options)])[0]
            else:
                nxt = rng.choice([w for w in vocab if w not in used])
            toks.append(nxt)
            used.add(nxt)
        return toks

    pairs = []
    for _ in range(n_sent):
        tgt = sentence()
        src = list(tgt)
        if rng.random() < 0.3:
            present = set(tgt)
            sites = [i for i, t in enumerate(tgt) if t in fix and fix[t] not in present]
            if sites:
                i = rng.choice(sites)
                src[i] = fix[tgt[i]]
        pairs.append((src, tgt))
    return pairs


def test_tuning_curve_shape_end_to_end():
    start = time.perf_counter()
    pairs = _confusion_corpus(60601, 2000)
    half = len(pairs) // 2
    train, held = pairs[:half], pairs[half:]

    lexicon = harvest(train)
    # distinct-token sentences keep the harvest pure: replacements only
    assert lexicon.replacements and not lexicon.deletions and not lexicon.insertions
    lm = train_lm([tgt for _, tgt in train], order=3)
    # a small edit weight spreads the flip thresholds across the bias grid
    sc = scorer(lexicon, lm, edit_weight=0.003)

    dev = [
        (src, GoldAnnotation(src, {0: edits_from_tagged(encode_diffs(src, tgt))}))
        for src, tgt in held
    ]
    # max_len far above the worst tag-inflated hypothesis: no truncation
    result = grid_search_tune(
        sc, dev, grid_step=0.1, tied=True, cfg=DecodeConfig(beam=1, max_len=80)
    )
    elapsed = time.perf_counter() - start

    recalls = [prf.recall for _, prf in result.curve]
    monotone = all(b >= a for a, b in zip(recalls, recalls[1:]))
    p_drop = result.curve[-1][1].precision <= result.curve[0][1].precision
    interior = 0.0 < result.best.del_open < 1.0
    ok = monotone and p_drop and interior and len(result.curve) == 11 and elapsed < 600.0
    _report(6, ok, f"tuning curve on {len(pairs)} synthetic pairs: recall non-decreasing "
                   f"{monotone}, precision {result.curve[0][1].precision:.2f}->"
                   f"{result.curve[-1][1].precision:.2f}, argmax {result.best.del_open} "
                   f"interior, {elapsed:.1f}s (cap 600s)")
    assert ok


# ---------------------------------------------------------------------------
# zero-bias neutrality


class FuzzScorer:
    """Seeded random distributions over words, tags, and EOS; some exact zeros."""

    def __init__(self, seed: int):
        self.seed = seed

    def start(self, source):
        return (tuple(source), ())

    def step(self, state, token):
        src, hist = state
        return (src, hist + (token,))

    def dist(self, state):
        src, hist = state
        rng = random.Random(f"{self.seed}|{src!r}|{hist!r}")
        toks = ["a", "b", "c"] + list(TAG_TOKENS) + [EOS]
        ws = [rng.random() for _ in toks]
        for i in range(len(ws)):
            if rng.random() < 0.3:
                ws[i] = 0.0
        ws[-1] = max(ws[-1], 0.05) + 0.4 * len(hist)  # push termination
        total = sum(ws)
        return {t: w / total for t, w in zip(toks, ws)}


def test_zero_bias_is_neutral():
    sources = (["a"], ["b", "a"], ["c", "a", "b"], ["a", "b", "c", "a"])
    decodes = 0
    diffs = 0
    for seed in range(250):
        sc = FuzzScorer(seed)
        for src in sources:
            plain = oracle_beam_decode(sc, src, DecodeConfig(beam=2), unbiased=True)
            zeroed = beam_decode(sc, src, DecodeConfig(beam=2, bias=BiasVector()))
            decodes += 1
            if [h.raw for h in plain] != [h.raw for h in zeroed]:
                diffs += 1
            elif [h.tagged for h in plain] != [h.tagged for h in zeroed]:
                diffs += 1
            elif [h.probs for h in plain] != [h.probs for h in zeroed]:
                diffs += 1
    ok = diffs == 0 and decodes == 1000
    _report(7, ok, f"zero bias decodes as raw probabilities do across {decodes} fuzzed decodes")
    assert ok


# ---------------------------------------------------------------------------
# GLEU hand oracle

# 12 distinct tokens with one bad word mid-sentence; per order n the bad word
# touches n hypothesis n-grams, each both unmatched and penalized:
# 10/12 * 7/11 * 4/10 * 1/9 = 7/297
_SRC12 = "e0 e1 e2 e3 e4 bad e6 e7 e8 e9 e10 e11".split()
_REF12 = "e0 e1 e2 e3 e4 good e6 e7 e8 e9 e10 e11".split()

GLEU_CASES = [
    # perfect correction, no source leftovers in the hypothesis: 1.0
    ("the cat sat", "the cats sat", "the cats sat", 1.0),
    # uncorrected middle word: matches minus penalty per order
    (" ".join(_SRC12), " ".join(_REF12), " ".join(_SRC12), (7 / 297) ** 0.25),
    # empty hypothesis against a nonempty reference
    ("a b", "a b", "", 0.0),
    # everything empty
    ("", "", "", 1.0),
    # perfect 4-token prefix of a 5-token reference: brevity penalty only
    ("x y", "a b c d e", "a b c d", math.exp(1 - 5 / 4)),
    # long hypothesis, clipped repeat: (4/5 * 3/4 * 2/3 * 1/2)^(1/4)
    ("z", "a b c d", "a b c d d", (1 / 5) ** 0.25),
    # zero unigram overlap with the reference
    ("x y z", "a b c", "x y z", 0.0),
    # one-token sentence: orders 2..4 have no n-grams and smooth to 1/1
    ("ho", "hi", "hi", 1.0),
    # duplicated source word survives correctly, still penalized once at n=1:
    # (5/6 * 5/5 * 4/4 * 3/3)^(1/4)
    ("the the cat sat down here now", "the cat sat down here now",
     "the cat sat down here now", (5 / 6) ** 0.25),
]


def test_gleu_hand_cases():
    worst = 0.0
    for src, ref, hyp, want in GLEU_CASES:
        got = gleu([hyp.split()], [src.split()], [ref.split()]).sentences[0]
        worst = max(worst, abs(got - want))
    # corpus pooling over a perfect 5-token sentence and the uncorrected case:
    # (15/17 * 11/15 * 7/13 * 3/11)^(1/4) = (21/221)^(1/4)
    perfect = "d0 d1 d2 d3 d4".split()
    rep = gleu([perfect, _SRC12], [["q"], _SRC12], [perfect, _REF12])
    worst = max(worst, abs(rep.corpus - (21 / 221) ** 0.25))
    cases = len(GLEU_CASES) + 1
    ok = worst <= 1e-9
    _report(8, ok, f"GLEU matches {cases} hand-computed cases, max dev {worst:.2e} (tol 1e-9)")
    assert ok


# ---------------------------------------------------------------------------
# bootstrap determinism and symmetry


def test_bootstrap_determinism_and_identity():
    rng = random.Random(70707)
    alpha = ["w1", "w2", "w3", "w4"]
    srcs, refs, hyp_a, hyp_b = [], [], [], []
    for _ in range(30):
        ref = [rng.choice(alpha) for _ in range(rng.randint(3, 7))]
        src = _mutate(rng, ref, alpha)
        srcs.append(src)
        refs.append(ref)
        hyp_a.append(list(ref) if rng.random() < 0.7 else list(src))
        hyp_b.append(list(ref) if rng.random() < 0.3 else list(src))
    stats_a = list(gleu(hyp_a, srcs, refs).stats)
    stats_b = list(gleu(hyp_b, srcs, refs).stats)

    first = paired_bootstrap(stats_a, stats_b, metric="gleu", resamples=50, level=0.05, seed=13)
    second = paired_bootstrap(stats_a, stats_b, metric="gleu", resamples=50, level=0.05, seed=13)
    deterministic = first == second

    identical_never = True
    for seed in range(20):
        rep = paired_bootstrap(stats_a, stats_a, metric="gleu", resamples=50, level=0.05, seed=seed)
        if rep.significant or rep.better is not None or rep.ties != 50:
            identical_never = False
    prfs = [PRF.from_counts(rng.randint(0, 4), rng.randint(0, 3), rng.randint(0, 3)) for _ in range(30)]
    for seed in range(5):
        rep = paired_bootstrap(prfs, prfs, metric="m2", resamples=50, level=0.05, seed=seed)
        if rep.significant or rep.better is not None:
            identical_never = False

    ok = deterministic and identical_never
    _report(9, ok, f"bootstrap reports reproduce bit-for-bit {deterministic}; identical "
                   f"systems never significant {identical_never} (level 0.05, 50 resamples)")
    assert ok


# ---------------------------------------------------------------------------
# words-in-change statistic


def _pair(src: str, tgt: str) -> SentencePair:
    return SentencePair(tuple(src.split()), tuple(tgt.split()))


def test_words_in_change_mean_exact():
    # every edited pair holds exactly 3 tokens inside diff spans
    uniform = [
        _pair("a b c", "a x y c"),        # 1 deleted + 2 inserted
        _pair("p q r s t", "p t"),        # 3 deleted
        _pair("m n", "m x y z n"),        # 3 inserted
        _pair("u v", "u v"),
        _pair("k l", "k l"),
    ]
    st_uniform = corpus_stats(uniform)
    # span totals 2, 2, 2, 3, 3 over five edited pairs: mean 12/5
    mixed = [
        _pair("a b c", "a x c"),
        _pair("d e", "d p q e"),
        _pair("f g h i", "f i"),
        _pair("j k l", "j u v l"),
        _pair("m n o p q", "m q"),
        _pair("r s", "r s"),
    ]
    st_mixed = corpus_stats(mixed)
    ok = (
        st_uniform.edited_pairs == 3
        and st_uniform.mean_words_in_change == 3.0
        and st_mixed.edited_pairs == 5
        and st_mixed.mean_words_in_change == 12 / 5
    )
    _report(10, ok, f"words-in-change means are exact: {st_uniform.mean_words_in_change} "
                    f"(want 3.0) and {st_mixed.mean_words_in_change} (want 2.4)")
    assert ok


# ---------------------------------------------------------------------------
# filter conservation

FILTER_LINES = [
    ("I like this game .", None),
    ("I like this game .", "duplicate"),
    ("Nice ^_^ .", "emoticon"),
    ("That was lol .", "colloquial"),
    ("Café is nice .", "non-ascii"),
    ("this line is plain .", "lowercase-start"),
    ("Waving ( bye )", "ends-in-paren"),
    ("This line just stops", "no-terminal-punct"),
]


def test_filter_drops_reconcile(tmp_path):
    src = tmp_path / "noisy.src"
    tgt = tmp_path / "noisy.tgt"
    text = "".join(line + "\n" for line, _ in FILTER_LINES)
    src.write_text(text, encoding="utf-8")
    tgt.write_text(text, encoding="utf-8")

    pairs = load_parallel(str(src), str(tgt))
    kept, rep = filter_lang8(pairs)
    rep.check()
    expected = Counter(rule for _, rule in FILTER_LINES if rule)
    ok = (
        rep.input == len(FILTER_LINES)
        and rep.retained == 1
        and rep.drops == dict(expected)
        and kept[0].target == ("I", "like", "this", "game", ".")
    )
    _report(11, ok, f"filter drops reconcile: {rep.input} in, {rep.retained} kept, "
                    f"each of {len(expected)} rules fired once")
    assert ok
