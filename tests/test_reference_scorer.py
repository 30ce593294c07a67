from __future__ import annotations

import math
import random
import re
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest

from gecdiff.corpus_io import read_text
from gecdiff.decode_bias import EOS, BiasVector, DecodeConfig, beam_decode
from gecdiff.diff_codec import NEXT_MODE, strip_to_target
from gecdiff.reference_scorer import (
    BOS,
    MAX_PHRASE,
    UNK,
    ConfusionLexicon,
    NGramLM,
    MODEL_FORMAT,
    MODEL_VERSION,
    RefScorer,
    RefState,
    _check_schema,
    harvest,
    load_model,
    save_model,
    scorer,
    train_lm,
)
from gecdiff.text_norm import DEL_CLOSE, DEL_OPEN, INS_CLOSE, INS_OPEN, TAG_TOKENS

TEH_PAIRS = [
    (["teh", "cat", "sat"], ["the", "cat", "sat"]),
    (["teh", "dog", "ran"], ["the", "dog", "ran"]),
    (["see", "teh", "bird"], ["see", "the", "bird"]),
]


class TestHarvest:
    def test_replacement_counts(self):
        lex = harvest(TEH_PAIRS)
        assert lex.replacements[("teh",)] == Counter({("the",): 3})
        assert not lex.deletions and not lex.insertions

    def test_deletion_and_insertion_keys(self):
        lex = harvest(
            [
                (["it", "is", "very", "good"], ["it", "is", "good"]),
                (["a", "c"], ["a", "b", "c"]),
                (["x"], ["y", "x"]),
            ]
        )
        assert lex.deletions == Counter({("very",): 1})
        assert lex.insertions["a"] == Counter({("b",): 1})
        assert lex.insertions[BOS] == Counter({("y",): 1})

    def test_long_edits_skipped(self):
        lex = harvest([(["a"], ["p", "q", "r", "s", "a"])])
        assert lex.is_empty()

    def test_identity_corpus_is_empty(self):
        assert harvest([(["a", "b"], ["a", "b"])]).is_empty()


class TestLexiconCheck:
    def test_reserved_token_rejected(self):
        lex = ConfusionLexicon({("a",): Counter({(DEL_OPEN,): 1})}, Counter(), {})
        with pytest.raises(ValueError):
            lex.check()

    def test_nonpositive_count_rejected(self):
        lex = ConfusionLexicon({}, Counter({("a",): 0}), {})
        with pytest.raises(ValueError):
            lex.check()

    def test_overlong_phrase_rejected(self):
        lex = ConfusionLexicon({}, Counter({("a", "b", "c", "d"): 1}), {})
        with pytest.raises(ValueError):
            lex.check()


class TestNGramLM:
    def test_ml_prob_ratios(self):
        lm = train_lm([["a", "b"], ["a", "c"]], order=2)
        # unigram stream: a b </s> a c </s>
        assert lm.ml_prob("a", ()) == pytest.approx(2 / 6)
        assert lm.ml_prob("b", ("a",)) == pytest.approx(1 / 2)
        assert lm.ml_prob("a", (BOS,)) == pytest.approx(1.0)
        assert lm.ml_prob("a", ("zzz",)) == 0.0

    def test_unigram_exact(self):
        lm = train_lm([["a"]], order=1)
        # (1 - 0.1) * 1/2 + 0.1 / 3 = 29/60
        assert lm.prob("a", ()) == pytest.approx(29 / 60)
        assert lm.prob("never-seen", ()) == pytest.approx(1 / 30)
        assert lm.logprob(["a"]) == pytest.approx(2 * math.log(29 / 60))
        assert lm.perplexity([["a"]]) == pytest.approx(60 / 29)

    def test_conditionals_sum_to_one(self):
        lm = train_lm([t for _, t in TEH_PAIRS], order=3)
        support = list(lm.vocab) + [UNK]
        for ctx in [(), ("the",), (BOS,), (BOS, BOS), ("the", "cat"), ("zzz",)]:
            assert sum(lm.prob(w, ctx) for w in support) == pytest.approx(1.0)

    def test_unseen_context_defers_to_lower_level(self):
        lm = train_lm([["a", "b"], ["a", "c"]], order=2)
        assert lm.prob("b", ("zzz",)) == lm.prob("b", ())

    def test_seen_context_shifts_mass(self):
        lm = train_lm([["a", "b"], ["a", "c"]], order=2)
        assert lm.prob("b", ("a",)) > lm.prob("b", ())

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_lm([])

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            NGramLM(0, {})
        with pytest.raises(ValueError):
            train_lm([["a"]], interp=1.0)
        with pytest.raises(ValueError):
            train_lm([["a"]], unk_mass=0.0)

    def test_perplexity_empty_corpus(self):
        lm = train_lm([["a"]])
        with pytest.raises(ValueError):
            lm.perplexity([])


def teh_scorer(**kw):
    return scorer(harvest(TEH_PAIRS), train_lm([t for _, t in TEH_PAIRS]), **kw)


class TestRefScorer:
    def test_distributions_well_formed_along_random_walks(self):
        sc = teh_scorer()
        rng = random.Random(5)
        for _ in range(20):
            state = sc.start(["teh", "cat", "sat"])
            for _ in range(15):
                dist = sc.dist(state)
                assert sum(dist.values()) == pytest.approx(1.0)
                for tok in TAG_TOKENS:
                    assert tok in dist
                assert EOS in dist
                choices = [t for t, p in dist.items() if p > 0.0]
                tok = rng.choice(choices)
                if tok == EOS:
                    break
                state = sc.step(state, tok)

    def test_empty_lexicon_copies_even_at_full_bias(self):
        sc = scorer(ConfusionLexicon.empty(), train_lm([["a", "b"]]))
        hyps = beam_decode(
            sc, ["a", "b"], DecodeConfig(beam=4, bias=BiasVector.tied(1.0))
        )
        assert hyps[0].raw == ("a", "b")
        assert not any(t in TAG_TOKENS for h in hyps for t in h.raw)

    def test_corrects_planted_replacement(self):
        hyp = beam_decode(teh_scorer(), ["teh", "mouse", "sat"], DecodeConfig(beam=1))[0]
        assert strip_to_target(list(hyp.tagged)) == ["the", "mouse", "sat"]
        assert hyp.raw == (
            DEL_OPEN, "teh", "</del>", INS_OPEN, "the", "</ins>", "mouse", "sat",
        )

    @pytest.mark.parametrize("beam", [1, 3])
    @pytest.mark.parametrize("constrained", [False, True])
    def test_reserved_token_in_source_is_rejected(self, beam, constrained):
        # Decoding it would emit "he <del> </del> <del> go home", which does
        # not validate against its own source.
        cfg = DecodeConfig(beam=beam, constrained=constrained)
        with pytest.raises(ValueError, match="^reserved token in source at position 1: '<del>'$"):
            beam_decode(teh_scorer(), ["he", "<del>", "go", "home"], cfg)

    def test_applies_learned_deletion(self):
        pairs = [
            (["it", "is", "very", "good"], ["it", "is", "good"]),
            (["was", "very", "nice"], ["was", "nice"]),
            (["very", "cold", "day"], ["cold", "day"]),
        ]
        sc = scorer(harvest(pairs), train_lm([t for _, t in pairs]))
        hyp = beam_decode(sc, ["it", "is", "very", "good"], DecodeConfig(beam=2))[0]
        assert strip_to_target(list(hyp.tagged)) == ["it", "is", "good"]

    def test_keyed_insertion_fires_after_its_trigger(self):
        pairs = [
            (["went", "school"], ["went", "to", "school"]),
            (["went", "bed"], ["went", "to", "bed"]),
            (["went", "town"], ["went", "to", "town"]),
        ]
        sc = scorer(harvest(pairs), train_lm([t for _, t in pairs]))
        hyp = beam_decode(sc, ["went", "school"], DecodeConfig(beam=2))[0]
        assert strip_to_target(list(hyp.tagged)) == ["went", "to", "school"]
        # the trigger word gates the proposal: no insertion elsewhere
        state = sc.start(["bed", "went"])
        assert sc.dist(state)[INS_OPEN] == 0.0

    def test_weight_knobs_pass_through(self):
        sc = teh_scorer(edit_weight=0.5)
        assert sc.edit_weight == 0.5

    def test_invalid_lexicon_rejected_at_build(self):
        bad = ConfusionLexicon({}, Counter({("a",): -1}), {})
        with pytest.raises(ValueError):
            RefScorer(bad, train_lm([["a"]]))

    def test_del_open_needs_lexicon_mass(self):
        sc = teh_scorer()
        state = sc.start(["clean", "words"])
        dist = sc.dist(state)
        assert dist[DEL_OPEN] == 0.0 and dist[INS_OPEN] == 0.0


class TestModelFiles:
    def test_round_trip_scores_identically(self, tmp_path):
        lex = harvest(TEH_PAIRS)
        lm = train_lm([t for _, t in TEH_PAIRS])
        path = str(tmp_path / "model.json")
        save_model(path, lex, lm)
        lex2, lm2 = load_model(path)
        assert lex2.replacements == lex.replacements
        assert lex2.deletions == lex.deletions
        assert lex2.insertions == lex.insertions
        sent = ["the", "cat", "sat"]
        assert lm2.logprob(sent) == lm.logprob(sent)
        a = beam_decode(scorer(lex, lm), ["teh", "cat"], DecodeConfig(beam=3))
        b = beam_decode(scorer(lex2, lm2), ["teh", "cat"], DecodeConfig(beam=3))
        assert [(h.raw, h.score) for h in a] == [(h.raw, h.score) for h in b]

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(ValueError) as err:
            load_model(str(path))
        assert "not a reference model" in str(err.value)

    def test_rejects_unknown_version(self, tmp_path):
        lex = ConfusionLexicon.empty()
        lm = train_lm([["a"]])
        path = str(tmp_path / "model.json")
        save_model(path, lex, lm)
        import json

        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        obj["version"] = 99
        Path(path).write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert "version" in str(err.value)

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda obj: obj.pop("lm"), id="no-lm"),
            pytest.param(lambda obj: obj.pop("lexicon"), id="no-lexicon"),
            pytest.param(lambda obj: obj["lm"].pop("counts"), id="no-lm-counts"),
            pytest.param(lambda obj: obj["lm"].pop("order"), id="no-lm-order"),
            pytest.param(lambda obj: obj["lexicon"].pop("deletions"), id="no-deletions"),
            pytest.param(
                lambda obj: obj["lexicon"].__setitem__("replacements", {"teh": 3}),
                id="replacements-object",
            ),
            pytest.param(
                lambda obj: obj["lexicon"].__setitem__("insertions", "teh"),
                id="insertions-string",
            ),
            pytest.param(
                lambda obj: obj["lexicon"]["replacements"][0].__setitem__(0, 5),
                id="phrase-number",
            ),
            pytest.param(
                lambda obj: obj["lexicon"]["replacements"][0][1][0].__setitem__(1, "3"),
                id="count-string",
            ),
            pytest.param(lambda obj: obj["lm"].__setitem__("order", "3"), id="order-string"),
            pytest.param(lambda obj: obj["lm"].__setitem__("interp", None), id="interp-null"),
            pytest.param(
                lambda obj: obj["lm"]["counts"][0][1][0].__setitem__(1, 2.5),
                id="lm-count-float",
            ),
            pytest.param(lambda obj: obj["lm"]["counts"].append(["a b"]), id="short-pair"),
            pytest.param(lambda obj: obj.__setitem__("lm", [1, 2]), id="lm-list"),
        ],
    )
    def test_rejects_broken_schema(self, tmp_path, corrupt):
        import json

        path = str(tmp_path / "model.json")
        save_model(path, harvest(TEH_PAIRS), train_lm([t for _, t in TEH_PAIRS]))
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        corrupt(obj)
        Path(path).write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: ")
        with pytest.raises(ValueError) as want:
            oracle_load_model(path)
        assert str(err.value) == str(want.value)


# ---------------------------------------------------------------------------
# RefScorer.dist and RefScorer.step as they were before the span grammar
# table, kept verbatim as oracles (``self`` is a RefScorer).  Their modes are
# out, del, postdel and ins; the scorer's are the grammar's plain, del and
# ins, with postdel a plain state that remembers the deleted phrase.  Their
# state type is RefState as it was then, span fields carried across modes.


class OldState(NamedTuple):
    src: tuple[str, ...]
    i: int
    mode: str
    ctx: tuple[str, ...]
    del_start: int = 0
    del_phrase: tuple[str, ...] | None = None
    ins_prefix: tuple[str, ...] = ()
    repl_src: tuple[str, ...] | None = None
    ins_key: str | None = None
    done: bool = False


def oracle_dist(self, state):
    w = {}
    if state.done:
        w[EOS] = 1.0
    elif state.mode in ("out", "postdel"):
        src, i = state.src, state.i
        if i < len(src):
            w[src[i]] = self.copy_weight * self.lm.prob(src[i], state.ctx)
            mass = 0.0
            for k in range(1, MAX_PHRASE + 1):
                if i + k > len(src):
                    break
                mass += self.del_mass.get(tuple(src[i : i + k]), 0.0)
            if mass > 0.0:
                w[DEL_OPEN] = self.edit_weight * self._saturate(mass)
        else:
            w[EOS] = self.copy_weight * self.lm.prob(EOS, state.ctx)
        key = src[i - 1] if i > 0 else BOS
        ins_tab = self.lexicon.insertions.get(key)
        if ins_tab:
            mass = sum(ins_tab.values())
            w[INS_OPEN] = self.edit_weight * self._saturate(mass)
        if state.mode == "postdel" and state.del_phrase in self.lexicon.replacements:
            mass = sum(self.lexicon.replacements[state.del_phrase].values())
            w[INS_OPEN] = w.get(INS_OPEN, 0.0) + self.repl_open_weight * self._saturate(mass)
    elif state.mode == "del":
        src, i = state.src, state.i
        cur = tuple(src[state.del_start : i])
        if i < len(src) and len(cur) < MAX_PHRASE:
            ext = self.prefix_mass.get(cur + (src[i],), 0.0)
            if ext > 0.0:
                w[src[i]] = ext
        close = self.del_mass.get(cur, 0.0)
        if close > 0.0:
            w[DEL_CLOSE] = self.close_weight * close
        if not w:  # off-lexicon state: only closing remains
            w[DEL_CLOSE] = 1.0
    else:  # ins
        table = self._ins_table(state)
        prefix = state.ins_prefix
        if table:
            for phrase, count in table.items():
                if len(phrase) > len(prefix) and phrase[: len(prefix)] == prefix:
                    tok = phrase[len(prefix)]
                    w[tok] = w.get(tok, 0.0) + count * self.lm.prob(tok, state.ctx)
            if prefix and table.get(prefix):
                w[INS_CLOSE] = self.close_weight * table[prefix]
        if not w:
            w[INS_CLOSE] = 1.0
    total = 0.0  # left to right, as dist adds on every CPython version
    for v in w.values():
        total += v
    assert total > 0.0, "scorer state with no positive continuation"
    dist = {tok: v / total for tok, v in sorted(w.items())}
    for tok in TAG_TOKENS:
        dist.setdefault(tok, 0.0)
    dist.setdefault(EOS, 0.0)
    return dist


def oracle_step(self, state, token):
    # states are built positionally: this runs once per beam survivor
    src, i, mode, ctx, del_start, del_phrase, ins_prefix, repl_src, ins_key, done = state
    if done:
        return state
    if token == EOS:
        return OldState(
            src, i, mode, ctx, del_start, del_phrase, ins_prefix, repl_src, ins_key, True
        )
    if mode in ("out", "postdel"):
        if token == DEL_OPEN:
            return OldState(src, i, "del", ctx, i, None, ins_prefix, repl_src, ins_key)
        if token == INS_OPEN:
            repl = None
            if mode == "postdel" and del_phrase in self.lexicon.replacements:
                repl = del_phrase
            key = src[i - 1] if i > 0 else BOS
            return OldState(src, i, "ins", ctx, del_start, None, (), repl, key)
        if token in (DEL_CLOSE, INS_CLOSE):
            return OldState(src, i, "out", ctx, del_start, None, ins_prefix, repl_src, ins_key)
        if i < len(src):
            i += 1
        ctx = self._push_ctx(ctx, token)
        return OldState(src, i, "out", ctx, del_start, None, ins_prefix, repl_src, ins_key)
    if mode == "del":
        if token == DEL_CLOSE:
            phrase = tuple(src[del_start:i])
            return OldState(
                src, i, "postdel", ctx, del_start, phrase, ins_prefix, repl_src, ins_key
            )
        if token in (DEL_OPEN, INS_OPEN, INS_CLOSE):
            return state
        if i < len(src):
            i += 1
        return OldState(
            src, i, mode, ctx, del_start, del_phrase, ins_prefix, repl_src, ins_key
        )
    # ins
    if token == INS_CLOSE:
        return OldState(src, i, "out", ctx, del_start, del_phrase, (), None, None)
    if token in (DEL_OPEN, DEL_CLOSE, INS_OPEN):
        return state
    ctx = self._push_ctx(ctx, token)
    return OldState(
        src, i, mode, ctx, del_start, del_phrase, ins_prefix + (token,), repl_src, ins_key
    )


def canon_state(self, old):
    """The scorer state an oracle state stands for: its mode's fields alone.

    A plain state keeps the deleted phrase only when it is a replacement
    source, the one use ``dist`` and ``step`` make of it.
    """
    src, i, mode, ctx, del_start, del_phrase, ins_prefix, repl_src, _, done = old
    if mode == "del":
        return RefState(src, i, mode, ctx, del_start, done=done)
    if mode == "ins":
        return RefState(src, i, mode, ctx, ins_prefix=ins_prefix, repl_src=repl_src, done=done)
    if del_phrase not in self.lexicon.replacements:
        del_phrase = None
    return RefState(src, i, "plain", ctx, del_phrase=del_phrase, done=done)


def edit_corpus(rng: random.Random) -> list:
    """Seeded pairs with one- to four-word replacements, deletions and insertions."""
    words = [f"w{i}" for i in range(8)]
    pairs = []
    for _ in range(80):
        target = [rng.choice(words) for _ in range(rng.randint(2, 7))]
        source = list(target)
        for _ in range(rng.randint(1, 2)):
            at = rng.randint(0, len(source))
            cut = rng.randint(0, min(4, len(source) - at))
            new = [rng.choice(["x", "y", "the"]) for _ in range(rng.randint(0, 4))]
            source[at : at + cut] = new
        if source:
            pairs.append((source, target))
    return pairs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dist_and_step_match_oracle_on_random_walks(seed):
    # Walks over positive-probability moves, and now and then a legal move
    # of probability 0 as a constrained decode may force.  At every state
    # both give the same distribution, and every move but one agrees.  A tag
    # the grammar rejects in the current mode has probability 0 and leaves
    # the state as it is; the oracle did the same except in its out and
    # postdel modes, where it returned an out state.
    rng = random.Random(seed)
    pairs = edit_corpus(rng)
    sc = scorer(harvest(pairs), train_lm([t for _, t in pairs]))
    words = sorted({w for s, t in pairs for w in s + t})
    for n in range(150):
        source = rng.choice(pairs)[0]
        new = sc.start(source if n % 2 else tuple(source))
        old = OldState(src=tuple(source), i=0, mode="out", ctx=(BOS,) * (sc.lm.order - 1))
        for _ in range(3 * len(source) + 10):
            assert canon_state(sc, old) == new
            dist = sc.dist(new)
            assert list(dist.items()) == list(oracle_dist(sc, old).items())
            legal = []
            for tok in (*TAG_TOKENS, EOS, *source, *rng.sample(words, 3)):
                if tok in TAG_TOKENS and (new.mode, tok) not in NEXT_MODE:
                    assert dist[tok] == 0.0
                    assert sc.step(new, tok) is new
                    want = new._replace(del_phrase=None) if new.mode == "plain" else new
                    assert canon_state(sc, oracle_step(sc, old, tok)) == want
                else:
                    assert sc.step(new, tok) == canon_state(sc, oracle_step(sc, old, tok))
                    legal.append(tok)
            positive = [t for t, p in dist.items() if p > 0.0]
            tok = rng.choice(legal if rng.random() < 0.1 else positive)
            new, old = sc.step(new, tok), oracle_step(sc, old, tok)
            if tok == EOS:
                assert new.done and sc.step(new, "w0") is new
                break


MODE_FIELDS = {"plain": {"del_phrase"}, "del": {"del_start"}, "ins": {"ins_prefix", "repl_src"}}


def assert_mode_fields_only(state):
    """Every span field outside the state's mode holds its default."""
    for field, default in RefState._field_defaults.items():
        if field != "done" and field not in MODE_FIELDS[state.mode]:
            assert getattr(state, field) == default, (field, state)


class RecordingScorer:
    """A scorer that keeps every state it scores or steps to."""

    def __init__(self, sc):
        self.sc, self.states = sc, []

    def start(self, source):
        return self.sc.start(source)

    def dist(self, state):
        self.states.append(state)
        return self.sc.dist(state)

    def step(self, state, token):
        self.states.append(self.sc.step(state, token))
        return self.states[-1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reached_states_hold_only_their_modes_fields(seed):
    # Random walks as in the oracle test above, then beam-10 constrained
    # decodes: one decoding position is one state, whatever the history.
    rng = random.Random(seed)
    pairs = edit_corpus(rng)
    sc = RecordingScorer(scorer(harvest(pairs), train_lm([t for _, t in pairs])))
    words = sorted({w for s, t in pairs for w in s + t})
    for _ in range(100):
        source = rng.choice(pairs)[0]
        state = sc.start(source)
        for _ in range(3 * len(source) + 10):
            dist = sc.dist(state)
            for tok in (*TAG_TOKENS, EOS, *rng.sample(words, 3)):
                sc.step(state, tok)
            positive = [t for t, p in dist.items() if p > 0.0]
            tok = rng.choice([*TAG_TOKENS, *source] if rng.random() < 0.1 else positive)
            state = sc.step(state, tok)
            if state.done:
                break
    for n, (source, _) in enumerate(pairs[:40]):
        bias = BiasVector.tied(n % 4 / 4)
        beam_decode(sc, source, DecodeConfig(beam=10, constrained=True, bias=bias))
    assert {s.mode for s in sc.states} == {"plain", "del", "ins"}
    assert any(s.repl_src for s in sc.states) and any(s.del_phrase for s in sc.states)
    replacements = sc.sc.lexicon.replacements
    for state in sc.states:
        assert_mode_fields_only(state)
        # a deleted phrase is kept only for the replacement it may open
        assert state.del_phrase is None or state.del_phrase in replacements, state


# train_lm as it was before it counted n-grams per order (one setdefault per
# token per order), kept verbatim as the oracle.


def oracle_train_lm(targets, order=3, interp=0.5, unk_mass=0.1):
    if not targets:
        raise ValueError("empty corpus")
    counts = {}
    for sent in targets:
        toks = list(sent) + [EOS]
        history = [BOS] * (order - 1)
        for tok in toks:
            for k in range(order):
                ctx = tuple(history[len(history) - k :])
                counts.setdefault(ctx, Counter())[tok] += 1
            history.append(tok)
            history = history[-(order - 1) :] if order > 1 else []
    return NGramLM(order, counts, interp, unk_mass)


def fuzz_corpus(rng: random.Random, n: int) -> list:
    # a small vocabulary makes contexts repeat; BOS and EOS as words, empty
    # sentences, and tuple sentences too
    vocab = ["a", "b", "c", "d", "the", BOS, EOS, "a b"]
    corpus = []
    for i in range(n):
        sent = [rng.choice(vocab) for _ in range(rng.randint(0, 9))]
        corpus.append(tuple(sent) if i % 3 == 0 else sent)
    return corpus


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_train_lm_matches_oracle(tmp_path, order, seed):
    rng = random.Random(seed * 10 + order)
    corpus = fuzz_corpus(rng, rng.randint(1, 60))
    got, want = train_lm(corpus, order), oracle_train_lm(corpus, order)
    assert got.counts == want.counts
    # each context's words in first-seen order, as the old loop added them
    for ctx, words in want.counts.items():
        assert list(got.counts[ctx].items()) == list(words.items())
    assert got.totals == want.totals and got.vocab == want.vocab
    lex = harvest(TEH_PAIRS)
    save_model(str(tmp_path / "got.json"), lex, got)
    save_model(str(tmp_path / "want.json"), lex, want)
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


def test_save_model_bytes_match_streaming_encoder(tmp_path):
    # the C encoder writes what json.dump streamed, non-ASCII text included
    import json

    pairs = TEH_PAIRS + [(["naïve", "café"], ["naive", "café", "—"])]
    lex, lm = harvest(pairs), train_lm([t for _, t in pairs])
    path = tmp_path / "model.json"
    save_model(str(path), lex, lm)
    text = path.read_text(encoding="utf-8")
    obj = json.loads(text)
    with open(tmp_path / "streamed.json", "w", encoding="utf-8") as fh:
        json.dump(obj, fh, ensure_ascii=False)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "streamed.json").read_bytes()
    assert "café" in text and "\\u" not in text


class TestModelFileErrors:
    def saved(self, tmp_path) -> str:
        path = str(tmp_path / "model.json")
        save_model(path, harvest(TEH_PAIRS), train_lm([t for _, t in TEH_PAIRS]))
        return path

    def test_not_utf8_names_file_and_line(self, tmp_path):
        path = self.saved(tmp_path)
        data = Path(path).read_bytes().replace(b'"lm"', b'"l\xffm"')
        Path(path).write_bytes(b"\n" + data)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}:2: not valid UTF-8$"):
            load_model(path)

    @pytest.mark.parametrize(
        "spoil, line",
        [
            pytest.param(lambda text: text[: len(text) // 2], 1, id="truncated"),
            pytest.param(lambda text: text.replace(", ", ",\n\n", 1)[:-9], 3, id="truncated-3-lines"),
            pytest.param(lambda text: "", 1, id="empty"),
            pytest.param(lambda text: text + "{}", 2, id="trailing-data"),
        ],
    )
    def test_not_json_names_file_and_line(self, tmp_path, spoil, line):
        path = self.saved(tmp_path)
        text = Path(path).read_text(encoding="utf-8")
        Path(path).write_text(spoil(text), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(path)}:{line}: not valid JSON: ") as err:
            load_model(path)
        with pytest.raises(ValueError) as want:
            oracle_load_model(path)
        assert str(err.value) == str(want.value)


# ---------------------------------------------------------------------------
# load_model as it was before it shared one string per distinct word, kept
# verbatim as an oracle


def _oracle_split(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def oracle_load_model(path: str) -> tuple[ConfusionLexicon, NGramLM]:
    import json

    try:
        obj = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}:{exc.lineno}: not valid JSON: {exc.msg} at column {exc.colno}"
        ) from None
    if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a reference model file")
    if obj.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {obj.get('version')!r}")
    _check_schema(obj, path)
    lex_obj = obj["lexicon"]
    lexicon = ConfusionLexicon(
        replacements={
            _oracle_split(src): Counter({_oracle_split(r): c for r, c in repls})
            for src, repls in lex_obj["replacements"]
        },
        deletions=Counter({_oracle_split(p): c for p, c in lex_obj["deletions"]}),
        insertions={
            key: Counter({_oracle_split(p): c for p, c in phrases})
            for key, phrases in lex_obj["insertions"]
        },
    )
    lexicon.check()
    lm_obj = obj["lm"]
    counts = {
        _oracle_split(ctx): Counter({w: c for w, c in counter})
        for ctx, counter in lm_obj["counts"]
    }
    for ctx, counter in counts.items():
        for w, c in counter.items():
            if c <= 0:
                raise ValueError(f"{path}: nonpositive LM count for {w!r}")
    lm = NGramLM(lm_obj["order"], counts, lm_obj["interp"], lm_obj["unk_mass"])
    return lexicon, lm


def random_model_pairs(seed: int, n: int = 120) -> list[tuple[list[str], list[str]]]:
    """Pairs with replacements, deletions and insertions over a small vocabulary."""
    rng = random.Random(seed)
    vocab = ["the", "teh", "cat", "sat", "a", "an", "on", "mat", ".", ",", "naïve", "café"]
    pairs = []
    for _ in range(n):
        src = [rng.choice(vocab) for _ in range(rng.randint(1, 9))]
        tgt = list(src)
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(len(tgt) + 1)
            op = rng.random()
            if op < 0.4 and i < len(tgt):
                tgt[i] = rng.choice(vocab)
            elif op < 0.7 and i < len(tgt) and len(tgt) > 1:
                del tgt[i]
            else:
                tgt[i:i] = rng.choices(vocab, k=rng.randint(1, 2))
        pairs.append((src, tgt))
    return pairs


def model_words(lexicon: ConfusionLexicon, lm: NGramLM) -> list[str]:
    words: list[str] = [*lexicon.insertions]
    for table in (lexicon.replacements, lexicon.deletions, *lexicon.insertions.values()):
        for phrase in table:
            words.extend(phrase)
    for counter in lexicon.replacements.values():
        for phrase in counter:
            words.extend(phrase)
    for ctx, counter in lm.counts.items():
        words.extend(ctx)
        words.extend(counter)
    return words


class TestLoadModelSharesWords:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_oracle(self, tmp_path, seed):
        pairs = random_model_pairs(seed)
        path = str(tmp_path / "model.json")
        save_model(path, harvest(pairs), train_lm([t for _, t in pairs], order=3))
        (lex, lm), (want_lex, want_lm) = load_model(path), oracle_load_model(path)
        assert lex == want_lex and lex.insertions and lex.replacements and lex.deletions
        assert (lm.order, lm.counts, lm.interp, lm.unk_mass) == (
            want_lm.order, want_lm.counts, want_lm.interp, want_lm.unk_mass
        )
        save_model(str(tmp_path / "again.json"), lex, lm)
        assert (tmp_path / "again.json").read_bytes() == Path(path).read_bytes()

    def test_one_string_per_word_within_a_call_only(self, tmp_path):
        pairs = random_model_pairs(0)
        path = str(tmp_path / "model.json")
        save_model(path, harvest(pairs), train_lm([t for _, t in pairs], order=3))
        words = model_words(*load_model(path))
        assert len({id(w) for w in words}) == len(set(words)) < len(words)
        again = {id(w) for w in model_words(*load_model(path)) if len(w) > 1}
        # CPython keeps one object per single-character string anyway
        assert not any(id(w) in again for w in words if len(w) > 1)

    def test_nonpositive_count_error_unchanged(self, tmp_path):
        import json

        path = str(tmp_path / "model.json")
        save_model(path, harvest(TEH_PAIRS), train_lm([t for _, t in TEH_PAIRS]))
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        obj["lm"]["counts"][0][1][0][1] = 0
        Path(path).write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_model(path)
        with pytest.raises(ValueError) as want:
            oracle_load_model(path)
        assert str(err.value) == str(want.value) and "nonpositive LM count" in str(err.value)
