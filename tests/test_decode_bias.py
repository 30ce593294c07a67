from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

import pytest

from gecdiff.decode_bias import (
    EOS,
    BiasVector,
    DecodeConfig,
    Hypothesis,
    KBestRecord,
    _Auto,
    _check_dist,
    _safe_log,
    apply_bias,
    beam_decode,
    grid_search_tune,
    read_kbest,
    record_from_hypothesis,
    rerank_kbest,
    write_kbest,
)
from gecdiff.diff_codec import parse_spans, repair, validate_tagged
from gecdiff.metrics import PRF, f_beta
from gecdiff.reference_scorer import harvest, scorer, train_lm
from gecdiff.text_norm import DEL_CLOSE, DEL_OPEN, INS_CLOSE, INS_OPEN, TAG_TOKENS


class CopyScorer:
    """Copies the source then stops; tags are structurally impossible."""

    def start(self, source):
        return (tuple(source), 0)

    def step(self, state, token):
        src, i = state
        return (src, i + 1)

    def dist(self, state):
        src, i = state
        d = {tok: 0.0 for tok in TAG_TOKENS}
        if i < len(src):
            d[src[i]] = 1.0
            d[EOS] = 0.0
        else:
            d[EOS] = 1.0
        return d


class FuzzScorer:
    """Seeded random distributions; some entries are exact zeros."""

    def __init__(self, seed, vocab=("a", "b", "c"), zero_tags=()):
        self.seed = seed
        self.vocab = vocab
        self.zero_tags = set(zero_tags)

    def start(self, source):
        return (tuple(source), ())

    def step(self, state, token):
        src, hist = state
        return (src, hist + (token,))

    def dist(self, state):
        src, hist = state
        rng = random.Random(f"{self.seed}|{hist!r}")
        toks = list(self.vocab) + list(TAG_TOKENS) + [EOS]
        ws = [rng.random() for _ in toks]
        for i, tok in enumerate(toks):
            if tok in self.zero_tags or rng.random() < 0.3:
                ws[i] = 0.0
        ws[-1] = max(ws[-1], 0.05) + 0.4 * len(hist)  # push termination
        total = sum(ws)
        return {t: w / total for t, w in zip(toks, ws)}


SRC = ["u", "v", "w"]


class TestBiasVector:
    def test_parse_tied_and_full(self):
        assert BiasVector.parse("0.3") == BiasVector.tied(0.3)
        assert BiasVector.parse("0.1,0.2,0.3,0.4") == BiasVector(0.1, 0.2, 0.3, 0.4)
        with pytest.raises(ValueError):
            BiasVector.parse("0.1,0.2")

    def test_range_check(self):
        with pytest.raises(ValueError):
            BiasVector(del_open=1.5)
        with pytest.raises(ValueError):
            BiasVector.tied(-0.1)

    def test_apply_bias_only_touches_tags(self):
        dist = {"x": 0.5, DEL_OPEN: 0.1, DEL_CLOSE: 0.0, INS_OPEN: 0.2, INS_CLOSE: 0.0, EOS: 0.2}
        out = apply_bias(dist, BiasVector(0.4, 0.0, 0.0, 0.0))
        assert out["x"] == 0.5 and out[EOS] == 0.2
        assert out[DEL_OPEN] == pytest.approx(0.5)


class TestBeamDecode:
    def test_copy_scorer_copies(self):
        hyps = beam_decode(CopyScorer(), SRC, DecodeConfig(beam=3))
        assert hyps[0].raw == tuple(SRC)
        assert hyps[0].tagged == tuple(SRC)
        assert hyps[0].terminated
        assert hyps[0].score == pytest.approx(0.0)

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            beam_decode(CopyScorer(), [], DecodeConfig())

    def test_deterministic(self):
        sc = FuzzScorer(7)
        a = beam_decode(sc, SRC, DecodeConfig(beam=4))
        b = beam_decode(sc, SRC, DecodeConfig(beam=4))
        assert [h.raw for h in a] == [h.raw for h in b]
        assert [h.selection_score for h in a] == [h.selection_score for h in b]

    def test_hypotheses_sorted_by_selection(self):
        hyps = beam_decode(FuzzScorer(11), SRC, DecodeConfig(beam=5))
        sels = [h.selection_score for h in hyps]
        assert sels == sorted(sels, reverse=True)

    def test_output_always_repaired_valid(self):
        for seed in range(6):
            for h in beam_decode(FuzzScorer(seed), SRC, DecodeConfig(beam=3)):
                assert validate_tagged(list(h.tagged), SRC).valid

    def test_zero_bias_matches_no_bias(self):
        for seed in range(10):
            sc = FuzzScorer(seed)
            plain = beam_decode(sc, SRC, DecodeConfig(beam=4, bias=None))
            zero = beam_decode(sc, SRC, DecodeConfig(beam=4, bias=BiasVector.zero()))
            assert [h.raw for h in plain] == [h.raw for h in zero]
            assert [h.score for h in plain] == [h.score for h in zero]

    def test_structural_zero_immune_to_bias(self):
        sc = FuzzScorer(3, zero_tags=TAG_TOKENS)
        hyps = beam_decode(sc, SRC, DecodeConfig(beam=5, bias=BiasVector.tied(1.0)))
        for h in hyps:
            assert not any(tok in TAG_TOKENS for tok in h.raw)

    def test_bias_changes_ranking_not_score(self):
        # same candidate set, selection shifts while model score stays the
        # path's own log-probability
        sc = FuzzScorer(5)
        plain = beam_decode(sc, SRC, DecodeConfig(beam=6))
        biased = beam_decode(sc, SRC, DecodeConfig(beam=6, bias=BiasVector.tied(0.9)))
        by_key = {(h.raw, h.terminated): h for h in plain}
        for h in biased:
            match = by_key.get((h.raw, h.terminated))
            if match is not None:
                assert h.score == pytest.approx(match.score)

    def test_token_logprob_bookkeeping(self):
        h = beam_decode(CopyScorer(), SRC, DecodeConfig(beam=1))[0]
        # terminated: one entry per token plus the end step
        assert len(h.token_logprobs) == len(h.raw) + 1
        assert len(h.tag_probs) == len(h.token_logprobs)
        assert h.score == pytest.approx(sum(h.token_logprobs))


class TestConstrained:
    def test_raw_output_valid_without_repair(self):
        for seed in range(8):
            sc = FuzzScorer(seed)
            hyps = beam_decode(
                sc, SRC, DecodeConfig(beam=4, constrained=True, max_len=10)
            )
            for h in hyps:
                assert h.terminated
                assert validate_tagged(list(h.raw), SRC).valid
                assert h.tagged == h.raw  # repair is identity on valid input

    def test_no_empty_spans(self):
        for seed in range(8):
            hyps = beam_decode(
                FuzzScorer(seed), SRC, DecodeConfig(beam=4, constrained=True, max_len=12)
            )
            for h in hyps:
                for kind, toks in parse_spans(list(h.raw)):
                    if kind in ("del", "ins"):
                        assert toks

    def test_max_len_too_small_rejected(self):
        with pytest.raises(ValueError):
            beam_decode(
                CopyScorer(), SRC, DecodeConfig(constrained=True, max_len=len(SRC))
            )

    def test_budget_bound_respected(self):
        hyps = beam_decode(
            FuzzScorer(2), SRC, DecodeConfig(beam=3, constrained=True, max_len=9)
        )
        for h in hyps:
            assert len(h.raw) <= 8  # end token consumes the last step


def curve_prf(p, r):
    return PRF(0, 0, 0, p, r, f_beta(p, r), 0.5)


class TestGridSearch:
    def test_grid_step_must_divide(self):
        with pytest.raises(ValueError):
            grid_search_tune(
                CopyScorer(), [(["a"], None)], grid_step=0.3, evaluate=lambda b: curve_prf(1, 1)
            )

    def test_tied_argmax_from_injected_curve(self):
        # precision holds at 0.5 while recall ramps, then both collapse:
        # the f-argmax sits at 0.7 for beta 0.5
        table = {
            0.0: (0.5, 0.10),
            0.1: (0.5, 0.15),
            0.2: (0.5, 0.20),
            0.3: (0.5, 0.25),
            0.4: (0.5, 0.30),
            0.5: (0.5, 0.35),
            0.6: (0.5, 0.40),
            0.7: (0.5, 0.50),
            0.8: (0.4, 0.52),
            0.9: (0.3, 0.55),
            1.0: (0.2, 0.60),
        }
        seen = []

        def ev(bias):
            seen.append(bias)
            return curve_prf(*table[round(bias.del_open, 1)])

        result = grid_search_tune(CopyScorer(), [(["a"], None)], evaluate=ev)
        assert result.best == BiasVector.tied(0.7)
        assert len(result.curve) == 11 and len(seen) == 11
        fs = [prf.f_beta for _, prf in result.curve]
        assert max(fs) == pytest.approx(f_beta(0.5, 0.5))

    def test_tie_breaks_toward_smaller_bias(self):
        result = grid_search_tune(
            CopyScorer(), [(["a"], None)], evaluate=lambda b: curve_prf(0.5, 0.5)
        )
        assert result.best == BiasVector.zero()

    def test_untied_sweeps_components_in_order(self):
        def ev(bias):
            # separable objective: each factor peaks at its own component
            score = (
                (1.0 - abs(bias.del_open - 0.2))
                * (1.0 - abs(bias.del_close - 0.4))
                * (1.0 - abs(bias.ins_open - 0.6))
                * (1.0 - abs(bias.ins_close - 0.8))
            )
            return curve_prf(score, score)

        result = grid_search_tune(CopyScorer(), [(["a"], None)], tied=False, evaluate=ev)
        assert result.best == BiasVector(0.2, 0.4, 0.6, 0.8)
        assert len(result.curve) == 44

    def test_default_evaluate_runs_decoder(self):
        from gecdiff.metrics import GoldAnnotation

        dev = [(["a", "b"], GoldAnnotation(["a", "b"], {0: []}))]
        result = grid_search_tune(
            CopyScorer(), dev, grid_step=0.5, cfg=DecodeConfig(beam=1)
        )
        # copy scorer never edits: perfect against empty gold everywhere
        assert all(prf.f_beta == 1.0 for _, prf in result.curve)
        assert result.best == BiasVector.zero()


class TestKBest:
    def make_records(self):
        hyps = beam_decode(FuzzScorer(4), SRC, DecodeConfig(beam=3))
        return [record_from_hypothesis(0, h) for h in hyps] + [
            record_from_hypothesis(1, h)
            for h in beam_decode(FuzzScorer(9), SRC, DecodeConfig(beam=2))
        ]

    def test_record_shapes(self):
        h = beam_decode(CopyScorer(), SRC, DecodeConfig(beam=1))[0]
        rec = record_from_hypothesis(0, h)
        assert rec.eos
        assert len(rec.probs) == len(rec.tokens) + 1
        assert len(rec.tag_probs) == len(rec.probs)
        assert all(0.0 <= p <= 1.0 for p in rec.probs)

    def test_round_trip(self, tmp_path):
        records = self.make_records()
        path = str(tmp_path / "kb.jsonl")
        write_kbest(records, path)
        assert read_kbest(path) == records

    def test_read_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 0, "tokens": ["a"], "probs": [0.5, 0.5], "tag_probs": [[0,0,0,0]], "eos": true}\n')
        with pytest.raises(ValueError) as err:
            read_kbest(str(path))
        assert "1" in str(err.value)

    def test_selection_score_recomputed(self):
        rec = KBestRecord(0, ("a", DEL_OPEN), (0.5, 0.25, 0.9), ((0.0,) * 4, (0.25, 0.0, 0.0, 0.0), (0.0,) * 4), True)
        base = rec.selection_score(None)
        assert base == pytest.approx(math.log(0.5) + math.log(0.25) + math.log(0.9))
        lifted = rec.selection_score(BiasVector(del_open=0.5))
        assert lifted == pytest.approx(
            math.log(0.5) + math.log(0.75) + math.log(0.9)
        )

    def test_rerank_changes_order_under_bias(self):
        plain = KBestRecord(0, ("x",), (0.6, 0.9), ((0.0,) * 4, (0.0,) * 4), True)
        tagged = KBestRecord(
            0, (DEL_OPEN,), (0.3, 0.9), ((0.3, 0.0, 0.0, 0.0), (0.0,) * 4), True
        )
        assert rerank_kbest([plain, tagged], None)[0] == plain
        assert rerank_kbest([plain, tagged], BiasVector(del_open=1.0))[0] == tagged

    def test_rerank_preserves_id_blocks(self):
        records = self.make_records()
        out = rerank_kbest(records, BiasVector.tied(0.5))
        ids = [r.sid for r in out]
        k0 = ids.count(0)
        assert ids == [0] * k0 + [1] * (len(ids) - k0)
        assert sorted(r.tokens for r in out) == sorted(r.tokens for r in records)


# ---------------------------------------------------------------------------
# equivalence with the reference decoder


@dataclass(frozen=True)
class _Beam:
    raw: tuple[str, ...]
    state: object
    auto: _Auto
    selection: float
    score: float
    logps: tuple[float, ...]
    tagps: tuple[tuple[float, float, float, float], ...]


def oracle_beam_decode(scorer, source, cfg):
    """Reference decoder: scores every live item and copies every candidate.

    ``beam_decode`` must return exactly what this returns, float for float.
    """
    if not source:
        raise ValueError("source must be nonempty")
    max_len = cfg.max_len if cfg.max_len is not None else 2 * len(source) + 10
    if cfg.constrained and max_len < len(source) + 1:
        raise ValueError(
            f"constrained decode needs max_len >= {len(source) + 1} to emit the source"
        )
    offsets = cfg.bias.as_map() if cfg.bias is not None else None

    live = [_Beam((), scorer.start(source), _Auto(), 0.0, 0.0, (), ())]
    done: list[_Beam] = []
    for step_no in range(max_len):
        budget = max_len - step_no
        pool: list[tuple[float, tuple[str, ...], _Beam, str, float, tuple]] = []
        for item in live:
            dist = scorer.dist(item.state)
            _check_dist(dist)
            tagp = (
                dist.get(DEL_OPEN, 0.0),
                dist.get(DEL_CLOSE, 0.0),
                dist.get(INS_OPEN, 0.0),
                dist.get(INS_CLOSE, 0.0),
            )
            if cfg.constrained:
                mask = item.auto.allowed(source, dist, budget)
                candidates = [(t, dist.get(t, 0.0)) for t in sorted(mask)]
                if any(p > 0.0 for _, p in candidates):
                    candidates = [(t, p) for t, p in candidates if p > 0.0]
            else:
                candidates = [(t, p) for t, p in dist.items() if p > 0.0]
            if not candidates:
                continue
            if offsets is not None:
                ranked = [(p + offsets.get(t, 0.0), t, p) for t, p in candidates]
            else:
                ranked = [(p, t, p) for t, p in candidates]
            ranked.sort(key=lambda x: (-x[0], x[1]))
            for rank, tok, p in ranked[: cfg.beam]:
                sel = item.selection + _safe_log(rank)
                pool.append((sel, item.raw + (tok,), item, tok, p, tagp))
        if not pool:
            break
        pool.sort(key=lambda x: (-x[0], x[1]))
        live = []
        for sel, raw, item, tok, p, tagp in pool[: cfg.beam]:
            logps = item.logps + (_safe_log(p),)
            tagps = item.tagps + (tagp,)
            score = item.score + _safe_log(p)
            if tok == EOS:
                done.append(_Beam(item.raw, None, item.auto, sel, score, logps, tagps))
            else:
                live.append(
                    _Beam(
                        raw,
                        scorer.step(item.state, tok),
                        item.auto.advance(source, tok),
                        sel,
                        score,
                        logps,
                        tagps,
                    )
                )
        if len(done) >= cfg.beam or not live:
            break
    for item in live:  # ran out of budget without EOS
        done.append(item)
    done.sort(key=lambda b: (-b.selection, b.raw))
    out = []
    for b in done[: cfg.beam]:
        out.append(
            Hypothesis(
                tagged=tuple(repair(list(b.raw), source)),
                raw=b.raw,
                score=b.score,
                token_logprobs=b.logps,
                tag_probs=b.tagps,
                selection_score=b.selection,
                terminated=b.state is None,
            )
        )
    return out


class TieScorer(FuzzScorer):
    """Weights from a few levels, so probabilities and path scores tie exactly."""

    def dist(self, state):
        src, hist = state
        rng = random.Random(f"{self.seed}|{hist!r}")
        toks = list(self.vocab) + list(TAG_TOKENS) + [EOS]
        ws = [rng.choice((0, 1, 1, 2)) for _ in toks]
        ws[-1] = 1 + len(hist)  # push termination
        total = sum(ws)
        return {t: w / total for t, w in zip(toks, ws)}


def synthetic_ref_scorer(seed, **weights):
    """A reference scorer trained on seeded pairs carrying all three edit kinds."""
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(12)]
    confusable = {w: f"x{i}" for i, w in enumerate(words[:4])}
    pairs, sources = [], []
    for _ in range(60):
        target = [rng.choice(words) for _ in range(rng.randint(3, 7))]
        source = []
        for w in target:
            r = rng.random()
            if r < 0.1 and w in confusable:
                source.append(confusable[w])
            elif r < 0.15:
                continue  # missing word: an insertion edit
            else:
                source.append(w)
            if rng.random() < 0.05:
                source.append("the")  # spurious word: a deletion edit
        if source:
            pairs.append((source, target))
            sources.append(source)
    sc = scorer(harvest(pairs), train_lm([t for _, t in pairs]), **weights)
    return sc, sources[:6]


def equivalence_cases():
    biases = {
        "none": None,
        "zero": BiasVector.zero(),
        "tied": BiasVector.tied(0.3),
        "untied": BiasVector(0.7, 0.1, 0.5, 0.0),
    }
    ref_default, ref_sources = synthetic_ref_scorer(3)
    ref_light, _ = synthetic_ref_scorer(3, edit_weight=0.003)
    scorers = [
        ("fuzz", [FuzzScorer(seed) for seed in range(3)], [SRC, ["a", "b", "c", "a"]]),
        ("ties", [TieScorer(seed) for seed in range(3)], [SRC, ["a", "b", "c", "a"]]),
        ("ref-default", [ref_default], ref_sources),
        ("ref-light", [ref_light], ref_sources),
    ]
    for name, scs, sources in scorers:
        for constrained in (False, True):
            for bias_name, bias in biases.items():
                # "tight": the shortest budget a constrained decode accepts
                for beam, tight in ((1, False), (3, False), (10, False), (3, True)):
                    yield pytest.param(
                        scs, sources, constrained, bias, beam, tight,
                        id=f"{name}-{'con' if constrained else 'free'}-{bias_name}-beam{beam}"
                        + ("-tight" if tight else ""),
                    )


@pytest.mark.parametrize(
    "scs,sources,constrained,bias,beam,tight", list(equivalence_cases())
)
def test_matches_reference_decoder(scs, sources, constrained, bias, beam, tight):
    for sc in scs:
        for src in sources:
            limit = len(src) + 1 if tight else None
            cfg = DecodeConfig(beam=beam, constrained=constrained, bias=bias, max_len=limit)
            assert beam_decode(sc, src, cfg) == oracle_beam_decode(sc, src, cfg)


class CountingScorer:
    """Wraps a scorer and counts ``dist`` calls per state."""

    def __init__(self, inner, bad_state=None):
        self.inner = inner
        self.calls = Counter()
        self.bad_state = bad_state

    def start(self, source):
        return self.inner.start(source)

    def step(self, state, token):
        return self.inner.step(state, token)

    def dist(self, state):
        self.calls[state] += 1
        d = self.inner.dist(state)
        if state == self.bad_state:
            return {t: p / 2 for t, p in d.items()}  # sums to 0.5
        return d


class TestScoredOncePerDecode:
    @pytest.mark.parametrize("constrained", [False, True])
    def test_one_dist_call_per_distinct_state(self, constrained):
        ref, sources = synthetic_ref_scorer(5)
        for inner in (FuzzScorer(1), ref):
            for src in (SRC, *sources):
                cfg = DecodeConfig(beam=10, constrained=constrained, bias=BiasVector.tied(0.3))
                oracle = CountingScorer(inner)
                oracle_beam_decode(oracle, src, cfg)
                counting = CountingScorer(inner)
                beam_decode(counting, src, cfg)
                assert set(counting.calls) == set(oracle.calls)
                assert set(counting.calls.values()) == {1}
                # a second decode scores afresh: nothing is kept between calls
                beam_decode(counting, src, cfg)
                assert set(counting.calls.values()) == {2}

    def test_malformed_distribution_raises_when_first_seen(self):
        inner = FuzzScorer(2)
        for constrained in (False, True):
            cfg = DecodeConfig(beam=10, constrained=constrained)
            probe = CountingScorer(inner)
            beam_decode(probe, SRC, cfg)
            bad = list(probe.calls)[1]  # a state first reached after the start
            counting = CountingScorer(inner, bad_state=bad)
            with pytest.raises(ValueError, match="sums to"):
                beam_decode(counting, SRC, cfg)
            assert counting.calls[bad] == 1
