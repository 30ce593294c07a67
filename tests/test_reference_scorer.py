from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from gecdiff.decode_bias import EOS, BiasVector, DecodeConfig, beam_decode
from gecdiff.diff_codec import strip_to_target
from gecdiff.reference_scorer import (
    BOS,
    UNK,
    ConfusionLexicon,
    NGramLM,
    RefScorer,
    harvest,
    load_model,
    save_model,
    scorer,
    train_lm,
)
from gecdiff.text_norm import DEL_OPEN, INS_OPEN, TAG_TOKENS

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
        sc = teh_scorer(edit_weight=0.5, close_weight=3.0)
        assert sc.edit_weight == 0.5 and sc.close_weight == 3.0

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

        obj = json.loads(open(path).read())
        obj["version"] = 99
        open(path, "w").write(json.dumps(obj))
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
        obj = json.loads(open(path).read())
        corrupt(obj)
        open(path, "w").write(json.dumps(obj))
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: ")
