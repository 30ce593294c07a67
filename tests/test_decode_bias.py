from __future__ import annotations

import json
import math
import operator
import random
import re
from collections import Counter
from dataclasses import dataclass, replace
from functools import reduce
from typing import NamedTuple

import pytest

from gecdiff import decode_bias
from gecdiff.decode_bias import (
    EOS,
    BiasVector,
    DecodeConfig,
    Hypothesis,
    KBestRecord,
    TuneResult,
    _Auto,
    _check_dist,
    _grid_values,
    _ranked,
    _safe_log,
    beam_decode,
    grid_search_tune,
    read_kbest,
    record_from_hypothesis,
    rerank_kbest,
    write_kbest,
)
from gecdiff.diff_codec import (
    NEXT_MODE,
    encode_diffs,
    parse_spans,
    repair,
    strip_to_target,
    validate_tagged,
)
from gecdiff.edit_extract import edits_from_tagged
from gecdiff.metrics import PRF, DEFAULT_BETA, GoldAnnotation, f_beta, m2_maxmatch
from gecdiff.reference_scorer import harvest, scorer, train_lm
from gecdiff.text_norm import (
    DEL_CLOSE,
    DEL_OPEN,
    INS_CLOSE,
    INS_OPEN,
    TAG_TOKENS,
    is_reserved_token,
)


def in_order(logs) -> float:
    """The logs added left to right from 0.0, as the decoder adds its steps.

    Not ``sum``: that is compensated from CPython 3.12 on, so it can differ
    from the decoder's total in the last bit.
    """
    return reduce(operator.add, logs, 0.0)


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


def oracle_ranked_moves(candidates, offsets):
    """``(log of ranking value, token, p)`` in move order, as one list.

    The move-order oracle: a row's two halves merged under ``offsets`` must
    read the same.  A ranking value is ``p`` plus the token's offset; moves
    go from the highest value down, ties to the smaller token, and a value
    of 0.0 logs as -60.0.
    """
    moves = sorted((-(p + offsets.get(t, 0.0)), t, p) for t, p in candidates)
    return [(math.log(-r) if r < 0.0 else -60.0, t, p) for r, t, p in moves]


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
        offsets = BiasVector(0.4, 0.3, 0.2, 0.1).as_map()
        ranks = {t: -r for r, t, _, _ in _ranked(dist.items(), offsets)}
        assert ranks["x"] == 0.5 and ranks[EOS] == 0.2
        assert ranks[DEL_OPEN] == pytest.approx(0.5)
        assert ranks[DEL_CLOSE] == pytest.approx(0.3)
        assert ranks[INS_OPEN] == pytest.approx(0.4)
        assert ranks[INS_CLOSE] == pytest.approx(0.1)
        # ties go to the smaller token; the probability itself is kept
        order = [(t, p) for _, t, p in oracle_ranked_moves(dist.items(), offsets)]
        assert order == [
            (DEL_OPEN, 0.1), ("x", 0.5), (INS_OPEN, 0.2),
            (DEL_CLOSE, 0.0), (EOS, 0.2), (INS_CLOSE, 0.0),
        ]


class TenthScorer:
    """Gives each of five words, the four tags and the end 0.1 at every step."""

    def start(self, source):
        return 0

    def step(self, state, token):
        return state + 1

    def dist(self, state):
        return dict.fromkeys(("u", "v", "w", "x", "y", *TAG_TOKENS, EOS), 0.1)


class TestBeamDecode:
    def test_copy_scorer_copies(self):
        hyps = beam_decode(CopyScorer(), SRC, DecodeConfig(beam=3))
        assert hyps[0].raw == tuple(SRC)
        assert hyps[0].tagged == tuple(SRC)
        assert hyps[0].terminated
        assert hyps[0].probs == (1.0,) * (len(SRC) + 1)

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
            plain = oracle_beam_decode(sc, SRC, DecodeConfig(beam=4), unbiased=True)
            zero = beam_decode(sc, SRC, DecodeConfig(beam=4, bias=BiasVector()))
            assert [h.raw for h in plain] == [h.raw for h in zero]
            assert [h.probs for h in plain] == [h.probs for h in zero]

    @pytest.mark.parametrize("bias", [None, 0.0, "0", {}], ids=["none", "float", "str", "dict"])
    def test_bias_must_be_a_bias_vector(self, bias):
        with pytest.raises(ValueError, match="bias must be a BiasVector"):
            DecodeConfig(bias=bias)

    def test_structural_zero_immune_to_bias(self):
        sc = FuzzScorer(3, zero_tags=TAG_TOKENS)
        hyps = beam_decode(sc, SRC, DecodeConfig(beam=5, bias=BiasVector.tied(1.0)))
        for h in hyps:
            assert not any(tok in TAG_TOKENS for tok in h.raw)

    def test_bias_changes_ranking_not_score(self):
        # same candidate set, selection shifts while each step keeps the
        # path's own probability
        sc = FuzzScorer(5)
        plain = beam_decode(sc, SRC, DecodeConfig(beam=6))
        biased = beam_decode(sc, SRC, DecodeConfig(beam=6, bias=BiasVector.tied(0.9)))
        by_key = {(h.raw, h.terminated): h for h in plain}
        for h in biased:
            match = by_key.get((h.raw, h.terminated))
            if match is not None:
                assert h.probs == match.probs

    def test_token_logprob_bookkeeping(self):
        h = beam_decode(CopyScorer(), SRC, DecodeConfig(beam=1))[0]
        # terminated: one entry per token plus the end step
        assert len(h.probs) == len(h.raw) + 1
        # the unbiased score rebuilt from the record is the reference
        # decoder's in-order sum of the steps' logs, bit for bit
        for beam in (1, 4):
            cfg = DecodeConfig(beam=beam)
            want = oracle_beam_decode(FuzzScorer(3), SRC, cfg, unbiased=True, scores=True)
            got = beam_decode(FuzzScorer(3), SRC, cfg)
            assert [h for h, _ in want] == got
            for h, score in want:
                assert len(h.probs) == len(h.raw) + h.terminated
                assert record_from_hypothesis(0, h).selection_score(BiasVector()) == score


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
        assert result.best == BiasVector()

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
        assert result.best == BiasVector()


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
        assert all(0.0 <= p <= 1.0 for p in rec.probs)

    @pytest.mark.parametrize("constrained", [False, True], ids=["free", "con"])
    @pytest.mark.parametrize("beam", [3, 10])
    def test_dump_holds_the_decoders_p(self, tmp_path, beam, constrained):
        # every step has p = 0.1, which exp(log p) does not give back
        assert math.exp(math.log(0.1)) != 0.1
        cfg = DecodeConfig(beam=beam, constrained=constrained, bias=BiasVector.tied(0.3))
        hyps = beam_decode(TenthScorer(), SRC, cfg)
        assert any(t in TAG_TOKENS for h in hyps for t in h.raw)
        records = [record_from_hypothesis(0, h) for h in hyps]
        assert all(rec.probs and set(rec.probs) == {0.1} for rec in records)
        path = str(tmp_path / "kb.jsonl")
        write_kbest(records, path)
        back = read_kbest(path)
        assert back == records
        assert [rec.selection_score(cfg.bias) for rec in back] == [h.selection_score for h in hyps]

    @pytest.mark.parametrize("constrained", [False, True], ids=["free", "con"])
    def test_rerank_at_the_decode_bias_reproduces_the_decoder(self, tmp_path, constrained):
        ref, sources = synthetic_ref_scorer(3, edit_weight=0.003)
        for bias in (BiasVector(), BiasVector.tied(0.3), BiasVector(0.7, 0.1, 0.5, 0.0)):
            cfg = DecodeConfig(beam=10, constrained=constrained, bias=bias)
            hyps = [(sid, h) for sid, src in enumerate(sources) for h in beam_decode(ref, src, cfg)]
            path = str(tmp_path / "kb.jsonl")
            write_kbest([record_from_hypothesis(sid, h) for sid, h in hyps], path)
            back = read_kbest(path)
            want = [h.selection_score for _, h in hyps]
            assert [rec.selection_score(bias) for rec in back] == want
            # the decoder's order is the rerank's: by score, ties to the tokens
            assert rerank_kbest(back, bias) == back

    def test_round_trip(self, tmp_path):
        records = self.make_records()
        path = str(tmp_path / "kb.jsonl")
        write_kbest(records, path)
        assert read_kbest(path) == records

    def test_read_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 0, "tokens": ["a"], "probs": [0.5, 0.5, 0.5], "eos": true}\n')
        with pytest.raises(ValueError) as err:
            read_kbest(str(path))
        assert "1" in str(err.value)

    @pytest.mark.parametrize(
        "where, value",
        [
            pytest.param(("eos",), "false", id="eos-string"),
            pytest.param(("eos",), 0, id="eos-int"),
            pytest.param(("id",), 1.9, id="id-float"),
            pytest.param(("id",), True, id="id-bool"),
            pytest.param(("id",), "0", id="id-string"),
            pytest.param(("probs", 0), "nan", id="prob-nan-string"),
            pytest.param(("probs", 0), float("nan"), id="prob-nan"),
            pytest.param(("probs", 0), -0.25, id="prob-negative"),
            pytest.param(("probs", 0), 1.5, id="prob-above-one"),
        ],
    )
    def test_read_rejects_bad_field(self, tmp_path, where, value):
        # the old reader took "false" as True, truncated 1.9 and parsed "nan"
        path = tmp_path / "kb.jsonl"
        write_kbest(self.make_records(), str(path))
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        parent = obj
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
        lines[1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: bad k-best record: "):
            read_kbest(str(path))

    @pytest.mark.parametrize(
        "spoil",
        [
            pytest.param(lambda toks: "x" * len(toks), id="string"),
            pytest.param(lambda toks: [1] + toks[1:], id="number-item"),
            pytest.param(lambda toks: toks[:-1] + [None], id="null-item"),
            pytest.param(lambda toks: toks[:-1] + [["a"]], id="list-item"),
            pytest.param(lambda toks: {f"t{i}": 0 for i in range(len(toks))}, id="object"),
        ],
    )
    def test_read_rejects_tokens_not_a_list_of_strings(self, tmp_path, spoil):
        # the old reader took "xx" as ("x", "x") and kept non-string items;
        # each spoiled value has as many items as the probabilities expect
        path = tmp_path / "kb.jsonl"
        write_kbest(self.make_records(), str(path))
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        assert obj["tokens"]
        obj["tokens"] = spoil(obj["tokens"])
        lines[1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        want = f"^{re.escape(str(path))}:2: bad k-best record: tokens must be a list of strings"
        with pytest.raises(ValueError, match=want):
            read_kbest(str(path))

    def test_read_names_line_of_bad_utf8(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        write_kbest(self.make_records(), str(path))
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"id"', b'"i\xffd"')
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: not valid UTF-8$"):
            read_kbest(str(path))

    def test_selection_score_recomputed(self):
        rec = KBestRecord(0, ("a", DEL_OPEN), (0.5, 0.25, 0.9), True)
        base = rec.selection_score(BiasVector())
        assert base == pytest.approx(math.log(0.5) + math.log(0.25) + math.log(0.9))
        lifted = rec.selection_score(BiasVector(del_open=0.5))
        assert lifted == pytest.approx(
            math.log(0.5) + math.log(0.75) + math.log(0.9)
        )

    def test_rerank_changes_order_under_bias(self):
        plain = KBestRecord(0, ("x",), (0.6, 0.9), True)
        tagged = KBestRecord(0, (DEL_OPEN,), (0.3, 0.9), True)
        assert rerank_kbest([plain, tagged], BiasVector())[0] == plain
        assert rerank_kbest([plain, tagged], BiasVector(del_open=1.0))[0] == tagged

    def test_rerank_preserves_id_blocks(self):
        records = self.make_records()
        out = rerank_kbest(records, BiasVector.tied(0.5))
        ids = [r.sid for r in out]
        k0 = ids.count(0)
        assert ids == [0] * k0 + [1] * (len(ids) - k0)
        assert sorted(r.tokens for r in out) == sorted(r.tokens for r in records)


# ---------------------------------------------------------------------------
# k-best reading and re-ranking against the code they replaced


def oracle_selection_score(rec: KBestRecord, bias: BiasVector | None) -> float:
    """``KBestRecord.selection_score`` as it was before its logs were cached."""
    offsets = bias.as_map() if bias is not None else {}
    toks = rec.tokens + ((EOS,) if rec.eos else ())
    return in_order(
        _safe_log(p + offsets.get(t, 0.0)) for t, p in zip(toks, rec.probs)
    )


def oracle_rerank_kbest(records, bias):
    groups: dict[int, list[KBestRecord]] = {}
    for rec in records:
        groups.setdefault(rec.sid, []).append(rec)
    out = []
    for recs in groups.values():
        out.extend(sorted(recs, key=lambda r: (-oracle_selection_score(r, bias), r.tokens)))
    return out


def oracle_read_kbest(path):
    """``read_kbest`` as it was before it shared values."""
    from gecdiff.corpus_io import iter_lines

    out = []
    for lineno, line in enumerate(iter_lines(path), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            sid, eos, tokens = obj["id"], obj["eos"], obj["tokens"]
            probs = tuple(map(float, obj["probs"]))
            if type(sid) is not int:
                raise ValueError(f"id must be an integer, got {sid!r}")
            if type(eos) is not bool:
                raise ValueError(f"eos must be true or false, got {eos!r}")
            if type(tokens) is not list or not all(type(t) is str for t in tokens):
                raise ValueError(f"tokens must be a list of strings, got {tokens!r}")
            if not all(0.0 <= p <= 1.0 for p in probs):
                raise ValueError("probabilities must be numbers in [0, 1]")
            expect = len(tokens) + (1 if eos else 0)
            if len(probs) != expect:
                raise ValueError(f"expected {expect} probability entries, got {len(probs)}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: bad k-best record: {exc}") from exc
        out.append(KBestRecord(sid, tuple(tokens), probs, eos))
    return out


def read_or_error(read, path):
    """What ``read(path)`` returns, or the message of the ValueError it raises."""
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


_BAD_PROBS = "bad k-best record: probabilities must be numbers in [0, 1]"


def random_records(seed: int, n: int = 60) -> list[KBestRecord]:
    """Records over a small vocabulary with every tag, zeros, ones and tiny values."""
    rng = random.Random(seed)
    vocab = ["a", "b", "the", "e-mail", *TAG_TOKENS]

    def prob() -> float:
        r = rng.random()
        if r < 0.15:
            return 0.0
        if r < 0.2:
            return 1.0
        if r < 0.3:
            return rng.random() ** 40  # written with a negative exponent
        return round(rng.random(), rng.choice((1, 2, 17)))

    out = []
    for sid in range(n // 4):
        for _ in range(rng.randint(1, 6)):
            tokens = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 9)))
            eos = rng.random() < 0.6
            steps = len(tokens) + eos
            probs = tuple(prob() for _ in range(steps))
            out.append(KBestRecord(sid, tokens, probs, eos))
    return out


def random_biases(seed: int) -> list[BiasVector]:
    rng = random.Random(seed)
    return (
        [BiasVector(), BiasVector.tied(1.0)]
        + [BiasVector.tied(rng.random()) for _ in range(3)]
        + [BiasVector(*(rng.choice((0.0, rng.random())) for _ in range(4))) for _ in range(6)]
    )


class TestRerankFromCachedLogs:
    @pytest.mark.parametrize("seed", range(4))
    def test_selection_score_equals_oracle(self, seed):
        records = random_records(seed)
        for bias in random_biases(seed):
            for _ in range(2):  # computes the cached logs, then uses them
                got = [rec.selection_score(bias) for rec in records]
                assert got == [oracle_selection_score(rec, bias) for rec in records]
        # zero bias scores as no offsets at all
        got = [rec.selection_score(BiasVector()) for rec in records]
        assert got == [oracle_selection_score(rec, None) for rec in records]

    @pytest.mark.parametrize("seed", range(4))
    def test_rerank_equals_oracle(self, seed, tmp_path):
        records = random_records(seed)
        path = str(tmp_path / "kb.jsonl")
        write_kbest(records, path)
        back = read_kbest(path)
        for bias in random_biases(seed):
            want = oracle_rerank_kbest(records, bias)
            assert rerank_kbest(records, bias) == want
            assert rerank_kbest(back, bias) == want
        assert rerank_kbest(back, BiasVector()) == oracle_rerank_kbest(records, None)

    @pytest.mark.parametrize(
        "tokens, probs, eos",
        [
            pytest.param(("a", DEL_OPEN, "b"), 2, True, id="probs-short"),
            pytest.param((DEL_OPEN,), 3, False, id="probs-long"),
            pytest.param((), 0, True, id="eos-without-step"),
        ],
    )
    def test_mismatched_lengths_do_not_construct(self, tokens, probs, eos):
        # a record built by hand used to score the shorter of tokens and probs
        with pytest.raises(ValueError, match="probability entries"):
            KBestRecord(0, tokens, (0.5,) * probs, eos)

    @pytest.mark.parametrize("bias", [BiasVector(), BiasVector.tied(0.4), BiasVector(0.4, 0, 0, 0)])
    def test_edge_records_score_and_rank_as_the_oracle(self, bias):
        records = [
            KBestRecord(0, ("a", "b"), (0.5, 0.25, 0.9), True),  # no tag step
            KBestRecord(0, (DEL_OPEN, "a", DEL_CLOSE), (0.1, 0.7, 0.3), False),  # tag first
            KBestRecord(0, (DEL_OPEN, "a", DEL_CLOSE), (0.0, 0.7, 0.3, 0.9), True),  # tag with p = 0
            KBestRecord(1, (), (), False),
            # the same id and tokens, and equal scores: input order decides
            KBestRecord(2, ("x", INS_OPEN), (0.5, 0.2), False),
            KBestRecord(2, ("x", INS_OPEN), (0.2, 0.5), False),
            KBestRecord(2, ("x", INS_OPEN), (0.5, 0.2), False),
        ]
        for recs in (records, records[::-1]):
            fresh = [replace(r) for r in recs]  # no logs kept yet
            for rec, twin in zip(recs, fresh):
                want = oracle_selection_score(rec, bias).hex()
                assert rec.selection_score(bias).hex() == want
                assert twin._score(decode_bias._StepLogs(bias.as_map())).hex() == want
            for rs in (recs, fresh):
                got, want = rerank_kbest(rs, bias), oracle_rerank_kbest(rs, bias)
                assert [id(r) for r in got] == [id(r) for r in want]

    def test_integer_probabilities_rank_as_the_oracle(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        lines = [
            {"id": 0, "tokens": ["a", DEL_OPEN, "b", DEL_CLOSE], "probs": [1, 0, 1, 1, 0], "eos": True},
            {"id": 0, "tokens": [INS_OPEN, "c", INS_CLOSE], "probs": [0, 1, 1], "eos": False},
            {"id": 0, "tokens": ["a"], "probs": [1, 0.5], "eos": True},
        ]
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
        back = read_kbest(str(path))
        assert {type(p) for rec in back for p in rec.probs} == {float}
        for bias in (BiasVector(), BiasVector.tied(0.4), BiasVector(0.0, 0.0, 1.0, 0.0)):
            assert [r.selection_score(bias) for r in back] == [
                oracle_selection_score(r, bias) for r in back
            ]
            got, want = rerank_kbest(back, bias), oracle_rerank_kbest(back, bias)
            assert [id(r) for r in got] == [id(r) for r in want]

    def test_cache_is_not_a_field(self):
        rec = random_records(0)[0]
        twin = replace(rec)
        rec.selection_score(BiasVector.tied(0.5))
        assert rec == twin and hash(rec) == hash(twin)
        assert "_unbiased" not in repr(rec)


class TestReadSharesValues:
    def test_one_object_per_distinct_value(self, tmp_path):
        path = str(tmp_path / "kb.jsonl")
        write_kbest(random_records(5) * 3, path)  # every value comes again
        back = read_kbest(path)
        for values in (
            [t for r in back for t in r.tokens],
            [p for r in back for p in r.probs],
        ):
            assert len({id(v) for v in values}) == len(set(values)) < len(values)

    def test_calls_share_nothing(self, tmp_path):
        path = str(tmp_path / "kb.jsonl")
        write_kbest(random_records(5), path)
        first, second = read_kbest(path), read_kbest(path)
        assert first == second
        pairs = [(p, q) for a, b in zip(first, second) for p, q in zip(a.probs, b.probs)]
        assert pairs and not any(p is q for p, q in pairs)

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["positive-first", "negative-first"])
    def test_negative_zero_rewrites_byte_identically(self, tmp_path, zero):
        # -0.0 == 0.0 and they hash alike, so a table keyed on values would
        # hand one line's zero to the other line
        other = -zero
        records = [
            KBestRecord(0, ("a",), (zero, 1e-05), True),
            KBestRecord(0, ("a",), (other, 1e-05), True),
            KBestRecord(1, ("e-mail",), (zero,), False),
            KBestRecord(1, ("b",), (other,), False),
        ]
        path, again = tmp_path / "kb.jsonl", tmp_path / "again.jsonl"
        write_kbest(records, str(path))
        assert "-0.0" in path.read_text(encoding="utf-8")
        write_kbest(read_kbest(str(path)), str(again))
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "entries",
        [
            pytest.param("[0, 0, 0, 0]", id="ints"),
            pytest.param("[1, 0, 0, 1]", id="int-ones"),
            pytest.param("[-0, 0.0, 0e0, 0]", id="zero-spellings"),
            pytest.param("[-0e0, 0.0, 0, 0]", id="negative-zero-exponent"),
            pytest.param("[-1e-400, 0.0, 0, 0]", id="negative-underflow"),
        ],
    )
    def test_odd_spellings_read_and_rewrite_as_before(self, tmp_path, entries):
        # the probabilities follow an earlier line's that equal them in value
        path = tmp_path / "kb.jsonl"
        path.write_text(
            '{"id": 0, "tokens": ["a", "b", "c"], "probs": [0.0, 0.0, 0.0, 0.0], "eos": true}\n'
            '{"id": 0, "tokens": ["a", "b", "c"], "probs": ' + entries + ', "eos": true}\n',
            encoding="utf-8",
        )
        got, want = read_kbest(str(path)), oracle_read_kbest(str(path))
        assert got == want
        write_kbest(got, str(tmp_path / "got.jsonl"))
        write_kbest(want, str(tmp_path / "want.jsonl"))
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "number, spelling",
        [
            pytest.param("[0.5, 0, 0, 0]", '["0.5", 0, 0, 0]', id="number-strings"),
            pytest.param("[0.0, 0, 0, 0]", '["-0.0", 0, 0, 0]', id="negative-zero-string"),
            pytest.param(
                "[0.0, 0, 0, 0]", '["\\u002d0.0", 0, 0, 0]', id="escaped-negative-zero-string"
            ),
            pytest.param("[1.0, 0.0, 0, 0]", "[true, false, 0, 0]", id="booleans"),
            pytest.param("[1, 0, 0, 0]", "[true, 0, 0, 0]", id="boolean-after-int"),
            pytest.param("[0.5]", '["0.5"]', id="prob-number-string"),
            pytest.param("[1.0]", "[true]", id="prob-boolean"),
            pytest.param("[0]", "[false]", id="prob-boolean-after-int"),
        ],
    )
    def test_numbers_only(self, tmp_path, number, spelling):
        # line 1 holds the same values as numbers, so line 2 would share
        # them if a string or a boolean were taken for the number it equals
        tokens = json.dumps(["a"] * number.count(","))  # a token per step but the end
        lines = [f'{{"id": 0, "tokens": {tokens}, "probs": {v}, "eos": true}}'
                 for v in (number, spelling)]
        path = tmp_path / "kb.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert len(oracle_read_kbest(str(path))) == 2  # the old reader took both
        with pytest.raises(ValueError) as got:
            read_kbest(str(path))
        assert str(got.value) == (
            f"{path}:2: bad k-best record: probabilities must be numbers in [0, 1]"
        )

    def test_words_true_and_false_read_as_before(self, tmp_path):
        # a line naming true or false besides eos has every value checked
        records = [
            KBestRecord(0, ("true",), (1.0,), False),
            KBestRecord(0, ("false", "a"), (1.0, 0.0, 0.5), True),
        ]
        path = str(tmp_path / "kb.jsonl")
        write_kbest(records, path)
        assert read_kbest(path) == oracle_read_kbest(path) == records

    @pytest.mark.parametrize(
        "field, value, error",
        [
            pytest.param("tag_probs", "5", None, id="tag-probs-number"),
            pytest.param("tag_probs", "null", None, id="tag-probs-null"),
            pytest.param("tag_probs", '"abcd"', None, id="tag-probs-string"),
            pytest.param("tag_probs", "[5]", None, id="tag-entry-number"),
            pytest.param("tag_probs", "[null]", None, id="tag-entry-null"),
            pytest.param("tag_probs", "[[[0.5], 0, 0, 0]]", None, id="tag-value-list"),
            pytest.param("tag_probs", '[[{"a": 1}, 0, 0, 0]]', None, id="tag-value-object"),
            pytest.param("tag_probs", '[[null, 0, 0, 0]]', None, id="tag-value-null"),
            pytest.param("tag_probs", '[["x", 0, 0, 0]]', None, id="tag-value-word"),
            pytest.param("tag_probs", "[[0.5, 0, 0, 0], [0.5, 0, 0]]", None, id="tag-entry-3-values"),
            pytest.param("tag_probs", "[[0.0, 0.0, 0.0, 0.0, 0.0]]", None, id="tag-entry-5-values"),
            pytest.param("tag_probs", "[[0.0, 0.0, 0.0, NaN]]", None, id="tag-value-nan"),
            pytest.param("tag_probs", "[[0.0, 0.0, -0.5, 0.0]]", None, id="tag-value-negative"),
            pytest.param("tag_probs", "[[0.0, 0.0, 1e-05, 1.5]]", None, id="tag-value-above-one"),
            pytest.param("probs", "[Infinity]", _BAD_PROBS, id="prob-inf"),
            pytest.param("probs", "[-Infinity]", _BAD_PROBS, id="prob-minus-inf"),
            pytest.param("probs", '["nan"]', _BAD_PROBS, id="prob-nan-string"),
            pytest.param(
                "probs", "[0.5, 0.5]", "bad k-best record: expected 1 probability entries, got 2",
                id="probs-too-many",
            ),
            pytest.param(
                "id", '"0"', "bad k-best record: id must be an integer, got '0'",
                id="id-string-and-bad-tag",
            ),
            pytest.param(
                "eos", "1", "bad k-best record: eos must be true or false, got 1",
                id="eos-int-and-bad-tag",
            ),
        ],
    )
    def test_rejections_match_oracle(self, tmp_path, field, value, error):
        # Line 1 is valid and shares its values with line 2, so line 2 reads
        # through the shared tables.  Both carry the tag_probs field of older
        # dumps.  Line 2 is spoiled in one field: with no error given, that
        # field is tag_probs, which the reader ignores whatever it holds, and
        # line 2 reads as line 1; otherwise line 2 fails with that error.  The
        # id and eos cases spoil tag_probs too; their own error is reported.
        fields = {"id": "0", "tokens": '["e-mail"]', "probs": "[0.5]",
                  "tag_probs": "[[0.0, 0.0, 0.0, 0.0]]", "eos": "false"}
        good = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
        spoiled = dict(fields, **{field: value})
        if field in ("id", "eos"):
            spoiled["tag_probs"] = "[[0.0, 0.0, 0.0]]"
        bad = "{" + ", ".join(f'"{k}": {v}' for k, v in spoiled.items()) + "}"
        path = str(tmp_path / "kb.jsonl")
        (tmp_path / "kb.jsonl").write_text(good + "\n" + bad + "\n", encoding="utf-8")
        want = f"{path}:2: {error}" if error else [KBestRecord(0, ("e-mail",), (0.5,), False)] * 2
        assert read_or_error(read_kbest, path) == read_or_error(oracle_read_kbest, path) == want

    def test_legacy_tag_probs_field_is_ignored(self, tmp_path):
        # a dump as older versions wrote it: each step's four tag
        # probabilities besides the chosen token's
        legacy = tmp_path / "legacy.jsonl"
        legacy.write_text(
            '{"id": 0, "tokens": ["a", "<del>", "b", "</del>"], '
            '"probs": [0.5, 0.25, 0.875, 0.75, 0.5], "tag_probs": [[0.25, 0.0, 0.0625, 0.0], '
            '[0.0, 0.0, 0.0, 0.0], [0.0, 0.125, 0.0, 0.0], [0.0, 0.75, 0.0, 0.0], '
            '[0.0, 0.0, 0.125, 0.0]], "eos": true}\n'
            '{"id": 0, "tokens": ["a", "b"], "probs": [0.5, 0.0625], '
            '"tag_probs": [[0.25, 0.0, 0.0625, 0.0], [0.0, 0.0, 0.0, 0.0]], "eos": false}\n',
            encoding="utf-8",
        )
        current = tmp_path / "current.jsonl"
        current.write_text(
            "".join(
                json.dumps({k: v for k, v in json.loads(line).items() if k != "tag_probs"}) + "\n"
                for line in legacy.read_text(encoding="utf-8").splitlines()
            ),
            encoding="utf-8",
        )
        got = read_kbest(str(legacy))
        assert got == read_kbest(str(current)) == oracle_read_kbest(str(legacy))
        tokens = ("a", DEL_OPEN, "b", DEL_CLOSE)
        assert got[0] == KBestRecord(0, tokens, (0.5, 0.25, 0.875, 0.75, 0.5), True)
        rewritten = tmp_path / "rewritten.jsonl"
        write_kbest(got, str(rewritten))
        assert rewritten.read_bytes() == current.read_bytes()


# ---------------------------------------------------------------------------
# equivalence with the reference decoder

_OUT, _DEL, _INS = 0, 1, 2


class OracleAuto(NamedTuple):
    """``_Auto`` as it was before the span grammar table, kept verbatim."""

    mode: int = _OUT
    consumed: int = 0
    span_len: int = 0

    def needed(self, source_len: int) -> int:
        # steps still required to reach a valid end: close + copies + EOS
        return (1 if self.mode != _OUT else 0) + (source_len - self.consumed) + 1

    def advance(self, token: str) -> "OracleAuto":
        if token == DEL_OPEN:
            return OracleAuto(_DEL, self.consumed, 0)
        if token == INS_OPEN:
            return OracleAuto(_INS, self.consumed, 0)
        if token in (DEL_CLOSE, INS_CLOSE):
            return OracleAuto(_OUT, self.consumed, 0)
        if self.mode == _INS:
            return OracleAuto(_INS, self.consumed, self.span_len + 1)
        return OracleAuto(self.mode, self.consumed + 1, self.span_len + 1)

    def allowed(self, source, dist: dict[str, float], budget: int) -> set[str]:
        """Grammar-legal tokens that keep a valid completion reachable.

        ``budget`` is the number of steps remaining including this one.
        """
        need = self.needed(len(source))
        moves: set[str] = set()
        remaining = len(source) - self.consumed
        if self.mode == _OUT:
            if remaining:
                if budget - 1 >= need - 1:
                    moves.add(source[self.consumed])
                if budget - 1 >= need + 1:
                    moves.add(DEL_OPEN)
            if budget - 1 >= need + 2:
                moves.add(INS_OPEN)
            if remaining == 0:
                moves.add(EOS)
        elif self.mode == _DEL:
            if remaining and budget - 1 >= need - 1:
                moves.add(source[self.consumed])
            if self.span_len and budget - 1 >= need - 1:
                moves.add(DEL_CLOSE)
        else:  # _INS
            if self.span_len and budget - 1 >= need - 1:
                moves.add(INS_CLOSE)
            if budget - 1 >= need:
                for tok in dist:
                    if tok != EOS and not is_reserved_token(tok):
                        moves.add(tok)
        return moves


def canon_auto(oracle: OracleAuto) -> _Auto:
    """The ``_Auto`` an ``OracleAuto`` stands for: its int mode as a grammar mode."""
    return _Auto(("plain", "del", "ins")[oracle.mode], oracle.consumed, oracle.span_len)


def test_auto_matches_oracle_on_walks_over_its_mask():
    # Seeded walks over the mask, from the start state with every budget a
    # constrained decode accepts: the masks agree at every state, and so
    # does every advance except on a tag the grammar rejects in that mode,
    # which leaves the automaton as it is (the oracle moved to the tag's
    # mode).  The mask never offers such a tag, so decodes are unchanged.
    rng = random.Random(4)
    extra = ("zz", "<dom:x>", EOS, *TAG_TOKENS)
    for n in range(400):
        source = [rng.choice("abc") for _ in range(rng.randint(1, 5))]
        if n % 2:
            source = tuple(source)
        dist = dict.fromkeys((*source, "zz", "yy", *TAG_TOKENS, EOS), 0.1)
        max_len = rng.randint(len(source) + 1, 2 * len(source) + 10)
        auto, oracle = _Auto(), OracleAuto()
        for step_no in range(max_len):
            assert auto == canon_auto(oracle)
            mask = auto.allowed(source, dist, max_len - step_no)
            assert mask == oracle.allowed(source, dist, max_len - step_no)
            for tok in (*source, *extra):
                if tok in TAG_TOKENS and (auto.mode, tok) not in NEXT_MODE:
                    assert tok not in mask
                    assert auto.advance(tok) is auto
                else:
                    assert auto.advance(tok) == canon_auto(oracle.advance(tok))
            if not mask:
                break
            tok = rng.choice(sorted(mask))
            if tok == EOS:
                break
            auto, oracle = auto.advance(tok), oracle.advance(tok)


@dataclass(frozen=True)
class _Beam:
    raw: tuple[str, ...]
    state: object
    auto: OracleAuto
    selection: float
    score: float
    probs: tuple[float, ...]


def oracle_beam_decode(scorer, source, cfg, unbiased=False, scores=False):
    """Reference decoder: scores every live item and copies every candidate.

    ``beam_decode`` must return exactly what this returns, float for float.
    ``unbiased`` ranks on the raw probabilities, with no offsets at all,
    whatever ``cfg.bias`` holds.  ``scores`` pairs each hypothesis with the
    sum of its steps' unbiased logs, added as each step is taken.
    """
    if not source:
        raise ValueError("source must be nonempty")
    max_len = cfg.max_len if cfg.max_len is not None else 2 * len(source) + 10
    if cfg.constrained and max_len < len(source) + 1:
        raise ValueError(
            f"constrained decode needs max_len >= {len(source) + 1} to emit the source"
        )
    offsets = None if unbiased else cfg.bias.as_map()

    live = [_Beam((), scorer.start(source), OracleAuto(), 0.0, 0.0, ())]
    done: list[_Beam] = []
    for step_no in range(max_len):
        budget = max_len - step_no
        pool: list[tuple[float, tuple[str, ...], _Beam, str, float]] = []
        for item in live:
            dist = scorer.dist(item.state)
            _check_dist(dist)
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
                pool.append((sel, item.raw + (tok,), item, tok, p))
        if not pool:
            break
        pool.sort(key=lambda x: (-x[0], x[1]))
        live = []
        for sel, raw, item, tok, p in pool[: cfg.beam]:
            probs = item.probs + (p,)
            score = item.score + _safe_log(p)
            if tok == EOS:
                done.append(_Beam(item.raw, None, item.auto, sel, score, probs))
            else:
                live.append(
                    _Beam(
                        raw,
                        scorer.step(item.state, tok),
                        item.auto.advance(tok),
                        sel,
                        score,
                        probs,
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
                probs=b.probs,
                selection_score=b.selection,
                terminated=b.state is None,
            )
        )
    return [(h, b.score) for h, b in zip(out, done)] if scores else out


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
        "none": None,  # no bias given: the default, against raw probabilities
        "zero": BiasVector(),
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
                for beam, tight in ((1, False), (3, False), (10, False), (3, True), (1, True)):
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
            cfg = DecodeConfig(beam=beam, constrained=constrained, max_len=limit)
            if bias is not None:
                cfg = replace(cfg, bias=bias)
            want = oracle_beam_decode(sc, src, cfg, unbiased=bias is None)
            assert beam_decode(sc, src, cfg) == want


@pytest.mark.parametrize(
    "drop, scale, error",
    [
        *((tok, 1.0, f"missing entry for {tok}") for tok in (*TAG_TOKENS, EOS)),
        (None, 0.5, "sums to 0.5, not 1"),
        (None, math.nan, "sums to nan, not 1"),
        (None, 1.0 + 1e-7, None),  # within the tolerance
    ],
)
def test_check_dist_names_what_is_wrong(drop, scale, error):
    dist = {"a": 0.5, DEL_OPEN: 0.25, DEL_CLOSE: 0.0, INS_OPEN: 0.25, INS_CLOSE: 0.0, EOS: 0.0}
    dist = {t: p * scale for t, p in dist.items() if t != drop}
    if error is None:
        _check_dist(dist)
    else:
        with pytest.raises(ValueError, match=re.escape(f"scorer distribution {error}")):
            _check_dist(dist)


def test_check_dist_sum_tolerance_is_math_isclose():
    near = [1.0 + k * 1e-6 for k in (-1, 1)] + [math.nextafter(1.0 + 1e-6, math.inf)]
    near += [math.nextafter(1.0 - 1e-6, -math.inf), 1e3, 1e300, math.inf, -math.inf, math.nan]
    for total in near + [1.0, 0.0, -1.0]:
        dist = {"a": total, **dict.fromkeys((*TAG_TOKENS, EOS), 0.0)}
        try:
            _check_dist(dist)
            passed = True
        except ValueError:
            passed = False
        assert passed == math.isclose(total, 1.0, abs_tol=1e-6), total


class LastToken:
    """A state keeps only the last token, so one row meets many automata and budgets."""

    def step(self, state, token):
        return (state[0], (token,))


class LastTokenFuzz(LastToken, FuzzScorer):
    pass


class LastTokenTies(LastToken, TieScorer):
    pass


class OneRow:
    """A state that never changes: its one row meets every automaton of a decode."""

    def step(self, state, token):
        return state


class OneRowFuzz(OneRow, FuzzScorer):
    pass


class OneRowTies(OneRow, TieScorer):
    pass


def cache_cases():
    ref, ref_sources = synthetic_ref_scorer(3, edit_weight=0.003)
    rng = random.Random(8)
    toy = [SRC, ["a", "b", "c", "a"]] + [
        [rng.choice("abc") for _ in range(rng.randint(1, 5))] for _ in range(4)
    ]
    scorers = [  # name, scorers, sources, whether a state can be reached twice
        ("fuzz", [FuzzScorer(seed) for seed in range(2)], toy, False),
        ("fuzz-last", [LastTokenFuzz(seed) for seed in range(3)], toy, True),
        ("ties-last", [LastTokenTies(seed) for seed in range(3)], toy, True),
        ("fuzz-one-row", [OneRowFuzz(seed) for seed in range(6)], toy, True),
        ("ties-one-row", [OneRowTies(seed) for seed in range(6)], toy, True),
        ("ref", [ref], ref_sources, True),
    ]
    for name, scs, sources, revisits in scorers:
        for beam in (2, 3, 10):
            yield pytest.param(scs, sources, beam, revisits, id=f"{name}-beam{beam}")


@pytest.mark.parametrize("scs,sources,beam,revisits", list(cache_cases()))
def test_moves_cached_per_row_and_legality_class(monkeypatch, scs, sources, beam, revisits):
    # The beam loop ranks a row's legal moves once per call and legality
    # class.  Budgets from the shortest a constrained decode accepts to 5
    # steps more keep the spare steps near the thresholds the automaton
    # reads (-1 to 2), so one row meets several classes in one call.
    made = Counter()  # (decode, row) -> move lists made for it
    legal_moves = decode_bias._legal_moves

    def counting(row, *args):
        made[decode_no, id(row)] += 1
        return legal_moves(row, *args)

    monkeypatch.setattr(decode_bias, "_legal_moves", counting)
    decode_no = 0
    for sc in scs:
        for src in sources:
            for extra in range(1, 7):
                for bias in (BiasVector(), BiasVector.tied(0.3), BiasVector(0.7, 0.1, 0.5, 0.0)):
                    decode_no += 1
                    cfg = DecodeConfig(beam, len(src) + extra, True, bias)
                    assert beam_decode(sc, src, cfg) == oracle_beam_decode(sc, src, cfg)
    # a row met in two classes of one call gets a move list for each
    assert (max(made.values()) > 1) == revisits


@pytest.mark.parametrize("beam", [1, 3, 10])
def test_constrained_terminated_raw_is_valid_and_its_own_repair(monkeypatch, beam):
    # The beam loop and the greedy walk alike hand a terminated constrained
    # raw out as its repaired form without calling ``repair``: the automaton
    # offers EOS only where the raw validates.
    ref, ref_sources = synthetic_ref_scorer(3)
    light, _ = synthetic_ref_scorer(3, edit_weight=0.003)
    cases = [(sc, [SRC, ["a", "b", "c", "a"]]) for sc in (FuzzScorer(1), TieScorer(2))]
    cases += [(ref, ref_sources), (light, ref_sources)]
    repaired = []  # the raws the decoder passed through ``repair``

    def counting_repair(tagged, source):
        repaired.append(tuple(tagged))
        return repair(tagged, source)

    monkeypatch.setattr(decode_bias, "repair", counting_repair)
    terminated = 0
    for sc, sources in cases:
        for src in sources:
            for max_len in (len(src) + 1, len(src) + 3, None):
                for bias in (BiasVector(), BiasVector.tied(0.5)):
                    cfg = DecodeConfig(beam, max_len, True, bias)
                    repaired.clear()
                    hyps = beam_decode(sc, src, cfg)
                    assert repaired == [h.raw for h in hyps if not h.terminated]
                    for h in hyps:
                        if h.terminated:
                            terminated += 1
                            assert validate_tagged(list(h.raw), src).valid
                            assert tuple(repair(list(h.raw), src)) == h.raw == h.tagged
    assert terminated


class TwoMoveScorer:
    """Two best first moves whose probabilities differ but share a log, then the end."""

    def start(self, source):
        return 0

    def step(self, state, token):
        return state + 1

    def dist(self, state):
        d = dict.fromkeys(TAG_TOKENS, 0.0)
        if state == 0:
            d.update({"x": 0.3, "a": math.nextafter(0.3, 0.0), "b": 0.2, EOS: 0.2})
        else:
            d[EOS] = 1.0
        return d


class StuckScorer:
    """Opens an insertion, then offers no word to fill it."""

    def start(self, source):
        return 0

    def step(self, state, token):
        return state + 1

    def dist(self, state):
        d = dict.fromkeys((*TAG_TOKENS, EOS), 0.0)
        d[INS_OPEN if state == 0 else EOS] = 1.0
        return d


def test_constrained_decode_stops_when_nothing_is_legal():
    for beam in (1, 3):
        cfg = DecodeConfig(beam=beam, constrained=True)
        got = beam_decode(StuckScorer(), ["u"], cfg)
        assert got[0].raw == (INS_OPEN,) and not got[0].terminated
        assert got == oracle_beam_decode(StuckScorer(), ["u"], cfg)


def test_beam1_ranks_on_raw_value_not_its_log():
    assert math.log(math.nextafter(0.3, 0.0)) == math.log(0.3)
    for bias in (BiasVector(), BiasVector.tied(0.5)):
        cfg = DecodeConfig(beam=1, bias=bias)
        got = beam_decode(TwoMoveScorer(), ["u"], cfg)
        # a walk comparing logs would tie and take the smaller token "a"
        assert got[0].raw == ("x",)
        assert got == oracle_beam_decode(TwoMoveScorer(), ["u"], cfg)


class CountingScorer:
    """Wraps a scorer and counts ``dist`` calls per state.

    ``sentence_calls`` and ``sentence_steps`` count ``dist`` calls per
    ``(source, state)`` and ``step`` calls per ``(source, state, token)``,
    where source is the one last passed to ``start``.
    """

    def __init__(self, inner, bad_state=None):
        self.inner = inner
        self.calls = Counter()
        self.bad_state = bad_state
        self.source = None
        self.sentence_calls = Counter()
        self.sentence_steps = Counter()

    def start(self, source):
        self.source = tuple(source)
        return self.inner.start(source)

    def step(self, state, token):
        self.sentence_steps[(self.source, state, token)] += 1
        return self.inner.step(state, token)

    def dist(self, state):
        self.calls[state] += 1
        self.sentence_calls[(self.source, state)] += 1
        d = self.inner.dist(state)
        if state == self.bad_state:
            return {t: p / 2 for t, p in d.items()}  # sums to 0.5
        return d


class TestScoredOncePerDecode:
    @pytest.mark.parametrize(
        "constrained,beam",
        [
            pytest.param(False, 10, id="False"),
            pytest.param(True, 10, id="True"),
            pytest.param(False, 1, id="beam1-False"),
            pytest.param(True, 1, id="beam1-True"),
        ],
    )
    def test_one_dist_call_per_distinct_state(self, constrained, beam):
        ref, sources = synthetic_ref_scorer(5)
        revisited = False
        for inner in (FuzzScorer(1), ref):
            for src in (SRC, *sources):
                cfg = DecodeConfig(beam=beam, constrained=constrained, bias=BiasVector.tied(0.3))
                oracle = CountingScorer(inner)
                oracle_beam_decode(oracle, src, cfg)
                revisited |= max(oracle.calls.values()) > 1
                counting = CountingScorer(inner)
                beam_decode(counting, src, cfg)
                assert set(counting.calls) == set(oracle.calls)
                assert set(counting.calls.values()) == {1}
                # a second decode scores afresh: nothing is kept between calls
                beam_decode(counting, src, cfg)
                assert set(counting.calls.values()) == {2}
        if not constrained:
            # some paths reach a state twice, at beam 1 in the reference
            # scorer's repeated insertions
            assert revisited

    def test_malformed_distribution_raises_when_first_seen(self):
        inner = FuzzScorer(2)
        for beam in (1, 10):
            for constrained in (False, True):
                cfg = DecodeConfig(beam=beam, constrained=constrained)
                probe = CountingScorer(inner)
                beam_decode(probe, SRC, cfg)
                bad = list(probe.calls)[1]  # a state first reached after the start
                counting = CountingScorer(inner, bad_state=bad)
                with pytest.raises(ValueError, match="sums to"):
                    beam_decode(counting, SRC, cfg)
                assert counting.calls[bad] == 1


# ---------------------------------------------------------------------------
# equivalence with the grid-major tuner


def oracle_grid_search_tune(
    scorer,
    dev,
    grid_step=0.1,
    tied=True,
    cfg=DecodeConfig(),
    max_unchanged=2,
    beta=DEFAULT_BETA,
    evaluate=None,
):
    """Reference tuner: decodes all of dev at one grid point, then the next.

    ``grid_search_tune`` must return exactly what this returns, float for float.
    """
    if not dev:
        raise ValueError("dev set must be nonempty")
    values = _grid_values(grid_step)

    if evaluate is None:

        def evaluate(bias: BiasVector) -> PRF:
            tp = fp = fn = 0.0
            for src, gold in dev:
                hyp = beam_decode(scorer, src, replace(cfg, bias=bias))[0]
                stripped = strip_to_target(list(hyp.tagged))
                prf = m2_maxmatch(stripped, gold, max_unchanged, beta)
                tp += prf.tp
                fp += prf.fp
                fn += prf.fn
            return PRF.from_counts(tp, fp, fn, beta)

    curve: list[tuple[BiasVector, PRF]] = []
    if tied:
        best_bias, best_f = None, -1.0
        for v in values:
            bias = BiasVector.tied(v)
            prf = evaluate(bias)
            curve.append((bias, prf))
            if prf.f_beta > best_f:
                best_bias, best_f = bias, prf.f_beta
        assert best_bias is not None
        return TuneResult(best_bias, tuple(curve))

    current = [0.0, 0.0, 0.0, 0.0]
    for comp in range(4):
        best_v, best_f = None, -1.0
        for v in values:
            trial = list(current)
            trial[comp] = v
            bias = BiasVector(*trial)
            prf = evaluate(bias)
            curve.append((bias, prf))
            if prf.f_beta > best_f:
                best_v, best_f = v, prf.f_beta
        assert best_v is not None
        current[comp] = best_v
    return TuneResult(BiasVector(*current), tuple(curve))


def tune_dev(sc, sources, seed):
    """Dev pairs: each source with gold edits towards a seeded target.

    Most targets are the scorer's own 1-best at a random tied bias, so some
    grid points score true positives; the rest are noisy rewrites.
    """
    rng = random.Random(seed)
    dev = []
    for src in sources:
        if rng.random() < 0.7:
            cfg = DecodeConfig(beam=1, bias=BiasVector.tied(rng.choice(_grid_values(0.1))))
            tgt = strip_to_target(list(beam_decode(sc, src, cfg)[0].tagged))
        else:
            tgt = [w if rng.random() < 0.7 else rng.choice(("a", "b", "the")) for w in src]
        edits = edits_from_tagged(encode_diffs(list(src), tgt))
        dev.append((list(src), GoldAnnotation(list(src), {0: edits})))
    return dev


def tune_cases():
    ref_default, ref_sources = synthetic_ref_scorer(3)
    ref_light, _ = synthetic_ref_scorer(3, edit_weight=0.003)
    toy_sources = [SRC, ["a", "b", "c", "a"], ["c", "a"]]
    scorers = [
        ("fuzz", FuzzScorer(4), toy_sources),
        ("ties", TieScorer(5), toy_sources),
        ("ref-default", ref_default, ref_sources),
        ("ref-light", ref_light, ref_sources),
    ]
    for name, sc, sources in scorers:
        for tied in (True, False):
            for constrained in (False, True):
                # "tight": the shortest budget a constrained decode of dev accepts
                for beam, tight in ((1, False), (3, False), (3, True)):
                    yield pytest.param(
                        sc, sources, tied, constrained, beam, tight,
                        id=f"{name}-{'tied' if tied else 'untied'}-"
                        f"{'con' if constrained else 'free'}-beam{beam}" + ("-tight" if tight else ""),
                    )


@pytest.mark.parametrize("sc,sources,tied,constrained,beam,tight", list(tune_cases()))
def test_tune_matches_grid_major_tuner(sc, sources, tied, constrained, beam, tight):
    dev = tune_dev(sc, sources, seed=beam)
    limit = max(len(src) for src in sources) + 1 if tight else None
    cfg = DecodeConfig(beam=beam, constrained=constrained, max_len=limit)
    step = 0.1 if tied else 0.25
    got = grid_search_tune(sc, dev, grid_step=step, tied=tied, cfg=cfg)
    assert got == oracle_grid_search_tune(sc, dev, grid_step=step, tied=tied, cfg=cfg)


class TestTuneReuse:
    @pytest.mark.parametrize("constrained", [False, True])
    def test_scorer_called_once_per_distinct_state_per_sentence(self, constrained):
        ref, sources = synthetic_ref_scorer(5)
        cfg = DecodeConfig(beam=3, constrained=constrained)
        for inner, srcs in ((FuzzScorer(1), [SRC, ["a", "b"]]), (ref, sources)):
            # the first source comes again last: its memos must not survive in between
            dev = tune_dev(inner, srcs + srcs[:1], seed=7)
            oracle = CountingScorer(inner)
            want = oracle_grid_search_tune(oracle, dev, cfg=cfg)
            counting = CountingScorer(inner)
            assert grid_search_tune(counting, dev, cfg=cfg) == want
            assert set(counting.sentence_calls) == set(oracle.sentence_calls)
            assert set(counting.sentence_steps) == set(oracle.sentence_steps)
            again = tuple(srcs[0])
            for counts in (counting.sentence_calls, counting.sentence_steps):
                for key, n in counts.items():
                    assert n == (2 if key[0] == again else 1), key
            # the grid-major tuner repeats both
            assert max(oracle.sentence_calls.values()) > 2
            assert max(oracle.sentence_steps.values()) > 2

    @pytest.mark.parametrize("beam", [1, 3])
    @pytest.mark.parametrize("constrained", [False, True])
    def test_each_state_checked_once_per_sentence(self, monkeypatch, constrained, beam):
        ref, sources = synthetic_ref_scorer(5, edit_weight=0.003)
        cfg = DecodeConfig(beam=beam, constrained=constrained)
        for inner, srcs in ((FuzzScorer(1), [SRC, ["a", "b"]]), (ref, sources)):
            dev = tune_dev(inner, srcs + srcs[:1], seed=7)  # the first source comes again
            want_result = oracle_grid_search_tune(inner, dev, cfg=cfg)
            counting = CountingScorer(inner)
            checks = Counter()

            def counting_check(dist):
                checks[counting.source] += 1
                return _check_dist(dist)

            with monkeypatch.context() as patched:
                patched.setattr(decode_bias, "_check_dist", counting_check)
                assert grid_search_tune(counting, dev, cfg=cfg) == want_result
            # one check per distinct state per sentence, whatever the bias
            want = Counter(source for source, _ in counting.sentence_calls)
            want[tuple(srcs[0])] *= 2
            assert checks == want
            assert sum(checks.values()) == sum(counting.calls.values())

    @pytest.mark.parametrize("beam", [1, 3])
    @pytest.mark.parametrize("constrained", [False, True])
    def test_malformed_distribution_raises_at_a_later_grid_point(self, constrained, beam):
        ref, sources = synthetic_ref_scorer(5, edit_weight=0.003)
        cfg = DecodeConfig(beam=beam, constrained=constrained)
        dev = tune_dev(ref, sources, seed=7)
        values = _grid_values(0.1)
        for src, gold in dev:
            seen = [CountingScorer(ref) for _ in values]
            for probe, v in zip(seen, values):
                beam_decode(probe, src, replace(cfg, bias=BiasVector.tied(v)))
            later = [s for probe in seen[1:] for s in probe.calls if s not in seen[0].calls]
            if later:
                break
        else:
            pytest.fail("no state is first reached after the first grid point")
        # a state the first grid point never reaches: a table that skipped
        # checks on later grid points would let its bad distribution through
        counting = CountingScorer(ref, bad_state=later[0])
        with pytest.raises(ValueError, match="sums to"):
            grid_search_tune(counting, [(src, gold)], cfg=cfg)
        assert counting.calls[later[0]] == 1

    def test_untied_scores_each_state_once_per_sweep(self):
        ref, sources = synthetic_ref_scorer(5)
        dev = tune_dev(ref, sources, seed=8)
        counting = CountingScorer(ref)
        grid_search_tune(counting, dev, grid_step=0.25, tied=False, cfg=DecodeConfig(beam=3))
        assert max(counting.sentence_calls.values()) <= 4
        assert max(counting.sentence_steps.values()) <= 4

    def test_m2_once_per_distinct_stripped_best(self, monkeypatch):
        ref, sources = synthetic_ref_scorer(3, edit_weight=0.003)
        dev = tune_dev(ref, sources + sources[:1], seed=9)  # the first source comes again
        cfg = DecodeConfig(beam=1)
        calls = Counter()

        def counting_m2(hyp, gold, *args):
            calls[(tuple(gold.source), tuple(hyp))] += 1
            return m2_maxmatch(hyp, gold, *args)

        monkeypatch.setattr(decode_bias, "m2_maxmatch", counting_m2)
        assert grid_search_tune(ref, dev, cfg=cfg) == oracle_grid_search_tune(ref, dev, cfg=cfg)
        want = {
            (tuple(src), tuple(strip_to_target(list(
                beam_decode(ref, src, replace(cfg, bias=BiasVector.tied(v)))[0].tagged
            ))))
            for src, _ in dev
            for v in _grid_values(0.1)
        }
        assert set(calls) == want
        again = tuple(sources[0])
        assert all(n == (2 if key[0] == again else 1) for key, n in calls.items())
        assert len(calls) < 11 * len(dev)  # the grid repeats 1-bests

    def test_strip_once_per_distinct_repaired_best(self, monkeypatch):
        ref, sources = synthetic_ref_scorer(3, edit_weight=0.003)
        dev = tune_dev(ref, sources + sources[:1], seed=9)  # the first source comes again
        cfg = DecodeConfig(beam=1)
        calls = []

        def counting_strip(tagged):
            calls.append(tuple(tagged))
            return strip_to_target(tagged)

        monkeypatch.setattr(decode_bias, "strip_to_target", counting_strip)
        assert grid_search_tune(ref, dev, cfg=cfg) == oracle_grid_search_tune(ref, dev, cfg=cfg)
        want = []
        for src, _ in dev:
            bests = [
                beam_decode(ref, src, replace(cfg, bias=BiasVector.tied(v)))[0].tagged
                for v in _grid_values(0.1)
            ]
            want.extend(dict.fromkeys(bests))  # distinct, in grid order
        assert calls == want
        assert len(calls) < 11 * len(dev)  # the grid repeats 1-bests


# ---------------------------------------------------------------------------
# split rows: the bias-free half is ranked and logged once per row


class DyadicScorer(FuzzScorer):
    """Probabilities in sixteenths, so ties under quarter offsets are exact.

    A tag's probability plus an offset in quarters can equal a word's
    probability, or another tag's plus its own offset, as the same float;
    then the token alone decides.  ``","`` sorts before every tag and the
    vocabulary after, so either side can win such a tie.  About a third of
    the rows have no positive tag move.
    """

    def dist(self, state):
        src, hist = state
        rng = random.Random(f"{self.seed}|{hist!r}")
        toks = [",", *self.vocab, *TAG_TOKENS, EOS]
        units = dict.fromkeys(toks, 0)
        units[EOS] = min(len(hist), 12)  # push termination
        drawable = toks if rng.random() < 0.7 else [t for t in toks if t not in TAG_TOKENS]
        for _ in range(16 - units[EOS]):
            units[rng.choice(drawable)] += 1
        return {t: u / 16 for t, u in units.items()}


def row_kinds(dist, offsets):
    """The adversarial kinds of one row under ``offsets``."""
    plain = [p for t, p in dist.items() if p > 0.0 and t not in TAG_TOKENS]
    tags = [(t, p) for t, p in dist.items() if p > 0.0 and t in TAG_TOKENS]
    kinds = set()
    if not tags:
        kinds.add("no positive tag")
    biased = [(p + offsets[t], p) for t, p in tags]
    if plain and any(v == max(plain) for v, _ in biased):
        kinds.add("a tag ties the best word")
    if any(v == w and p != q for i, (v, p) in enumerate(biased) for w, q in biased[:i]):
        kinds.add("two tags tie after the offset")
    return kinds


def split_cases():
    grid = [0.25, 0.5, 1.0]
    biases = [
        BiasVector.tied(0.0),
        *(BiasVector.tied(v) for v in grid),
        BiasVector(0.25, 0.0, 0.5, 0.75),
        BiasVector(0.5, 0.25, 0.0, 0.25),
        BiasVector(0.7, 0.1, 0.5, 0.0),
    ]
    ref, ref_sources = synthetic_ref_scorer(3, edit_weight=0.003)
    toy = [SRC, ["a", "b", "c", "a"]]
    scorers = [
        ("dyadic", [DyadicScorer(seed) for seed in range(4)], toy),
        ("ties", [TieScorer(seed) for seed in range(2)], toy),
        ("fuzz", [FuzzScorer(seed) for seed in range(2)], toy),
        ("ref", [ref], ref_sources[:3]),
    ]
    for name, scs, sources in scorers:
        for constrained in (False, True):
            for beam in (1, 3, 10):
                yield pytest.param(
                    scs, sources, biases, constrained, beam,
                    id=f"{name}-{'con' if constrained else 'free'}-beam{beam}",
                )


@pytest.mark.parametrize("scs,sources,biases,constrained,beam", list(split_cases()))
def test_split_rows_decode_as_the_reference(scs, sources, biases, constrained, beam):
    kinds = set()
    for sc in scs:
        for src in sources:
            for bias in biases:
                cfg = DecodeConfig(beam=beam, constrained=constrained, bias=bias)
                table = decode_bias._Table(sc)
                assert beam_decode(table, src, cfg) == oracle_beam_decode(sc, src, cfg)
                offsets = bias.as_map()
                for dist, plain, tags, _ in table.rows.values():
                    kinds |= row_kinds(dist, offsets)
                    # the halves merged under the offsets are every positive
                    # move in move order, each with the log of its ranking value
                    merged = sorted([*plain, *_ranked(tags, offsets)])
                    positive = [(t, p) for t, p in dist.items() if p > 0.0]
                    want = oracle_ranked_moves(positive, offsets)
                    assert [(lr, t, p) for _, t, p, lr in merged] == want
                    # a plain move is ranked on its own p, so its log is log p
                    assert all(lr == _safe_log(p) for _, _, p, lr in plain)
    if isinstance(scs[0], DyadicScorer):
        assert kinds == {
            "no positive tag", "a tag ties the best word", "two tags tie after the offset"
        }


@pytest.mark.parametrize("beam", [1, 3])
@pytest.mark.parametrize("grid_step", [0.5, 0.1, 0.05])
def test_each_move_logged_once_per_row_whatever_the_grid(monkeypatch, grid_step, beam):
    # Every log of a sentence's tune sweep: one per positive non-tag move of
    # each distinct state, taken when its row is made, and at beam 1 one per
    # tag step of a 1-best, for the offset that ranked it.  No tag move is
    # logged when its row is made, and no other move is logged again,
    # however many biases the grid holds.
    ref, ref_sources = synthetic_ref_scorer(3, edit_weight=0.003)
    tagless = FuzzScorer(6, zero_tags=TAG_TOKENS)  # every positive move is a word
    cases = [(tagless, [SRC, ["a", "b"], ["c", "a", "b", "c"]]), (ref, ref_sources)]
    cfg = DecodeConfig(beam=beam)
    for inner, sources in cases:
        if beam > 1 and inner is ref:
            continue  # the beam loop logs each tag move it ranks
        dev = tune_dev(inner, sources, seed=3)
        want = Counter()
        for src, _ in dev:
            for v in _grid_values(grid_step):
                hyp = beam_decode(inner, src, replace(cfg, bias=BiasVector.tied(v)))[0]
                want[tuple(src)] += sum(t in TAG_TOKENS for t in hyp.raw)
        counting = CountingScorer(inner)
        logs = Counter()

        def counting_log(p):
            logs[counting.source] += 1
            return _safe_log(p)

        with monkeypatch.context() as patched:
            patched.setattr(decode_bias, "_safe_log", counting_log)
            grid_search_tune(counting, dev, grid_step=grid_step, cfg=cfg)
        for source, state in counting.sentence_calls:
            want[source] += sum(
                p > 0.0 and t not in TAG_TOKENS for t, p in inner.dist(state).items()
            )
        assert logs == want
        if inner is tagless:
            assert len(counting.sentence_calls) < sum(logs.values())  # a row logs each move
