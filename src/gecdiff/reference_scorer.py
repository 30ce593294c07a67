"""A self-contained statistical corrector that drives the decode pipeline.

Noisy-channel model: a confusion lexicon harvested from training diffs
proposes deletions, insertions, and replacements over a short source window,
and an interpolated n-gram language model trained on corrected text scores
continuations.  The scorer implements the decoding session contract
(start/step/dist), emits well-formed tag sequences by construction, and
assigns probability exactly 0.0 to structurally impossible moves, so the
beam decoder never expands them regardless of bias.

This replaces no neural model's quality; it exists so tuning, decoding, and
evaluation can run end to end without external dependencies.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .corpus_io import _Shared, read_text, write_text
from .decode_bias import EOS
from .diff_codec import NEXT_MODE, encode_diffs
from .edit_extract import edits_from_tagged
from .text_norm import (
    DEL_CLOSE,
    DEL_OPEN,
    INS_CLOSE,
    INS_OPEN,
    TAG_TOKENS,
    TokenSeq,
    is_reserved_token,
)

BOS = "<s>"
UNK = "<unk>"

MAX_PHRASE = 3  # source-window cap for lexicon entries


@dataclass
class ConfusionLexicon:
    """Counted edit phrases: replacements, deletions, insertions.

    Insertions are keyed by the preceding source token (``BOS`` at the
    sentence start).  All phrases are 1 to MAX_PHRASE tokens.
    """

    replacements: dict[tuple[str, ...], Counter]
    deletions: Counter
    insertions: dict[str, Counter]

    @classmethod
    def empty(cls) -> "ConfusionLexicon":
        return cls({}, Counter(), {})

    def is_empty(self) -> bool:
        return not self.replacements and not self.deletions and not self.insertions

    def check(self) -> None:
        def check_phrase(phrase: tuple[str, ...]) -> None:
            if not 1 <= len(phrase) <= MAX_PHRASE:
                raise ValueError(f"phrase length out of range: {phrase!r}")
            for tok in phrase:
                if is_reserved_token(tok):
                    raise ValueError(f"reserved token in lexicon phrase: {tok!r}")

        for src, repls in self.replacements.items():
            check_phrase(src)
            for repl, count in repls.items():
                check_phrase(repl)
                if count <= 0:
                    raise ValueError(f"nonpositive count for {src!r} -> {repl!r}")
        for phrase, count in self.deletions.items():
            check_phrase(phrase)
            if count <= 0:
                raise ValueError(f"nonpositive count for deletion {phrase!r}")
        for key, phrases in self.insertions.items():
            for phrase, count in phrases.items():
                check_phrase(phrase)
                if count <= 0:
                    raise ValueError(f"nonpositive count for insertion {phrase!r}")


def _ins_key(source: TokenSeq, i: int) -> str:
    """The insertion-lexicon key of an insertion before ``source[i]``."""
    return source[i - 1] if i > 0 else BOS


def harvest(corpus: list[tuple[TokenSeq, TokenSeq]]) -> ConfusionLexicon:
    """Collect edit phrases from (source, target) pairs.

    Edits longer than MAX_PHRASE tokens on either side are skipped; they are
    outside the proposal window anyway.
    """
    lex = ConfusionLexicon.empty()
    for source, target in corpus:
        for e in edits_from_tagged(encode_diffs(source, target)):
            if len(e.deleted) > MAX_PHRASE or len(e.replacement) > MAX_PHRASE:
                continue
            if e.kind == "replace":
                lex.replacements.setdefault(e.deleted, Counter())[e.replacement] += 1
            elif e.kind == "delete":
                lex.deletions[e.deleted] += 1
            else:
                lex.insertions.setdefault(_ins_key(source, e.start), Counter())[e.replacement] += 1
    return lex


# ---------------------------------------------------------------------------
# language model


class NGramLM:
    """Interpolated maximum-likelihood n-gram model with an unknown class.

    Each context level contributes ``interp`` of its ML estimate and defers
    the rest to the level below; unseen contexts defer entirely.  The
    unigram level reserves ``unk_mass`` for a uniform distribution over the
    vocabulary plus the unknown class, so every token has positive
    probability and conditionals sum to 1 exactly.
    """

    def __init__(
        self,
        order: int,
        counts: dict[tuple[str, ...], Counter],
        interp: float = 0.5,
        unk_mass: float = 0.1,
    ):
        if order < 1:
            raise ValueError("order must be >= 1")
        if not 0.0 < interp < 1.0 or not 0.0 < unk_mass < 1.0:
            raise ValueError("interpolation weights must be in (0, 1)")
        self.order = order
        self.counts = counts
        self.totals = {ctx: sum(c.values()) for ctx, c in counts.items()}
        self.vocab = frozenset(counts.get((), Counter()))
        self.interp = interp
        self.unk_mass = unk_mass

    def ml_prob(self, word: str, context: tuple[str, ...]) -> float:
        """Raw count ratio at exactly this context; 0 for unseen contexts."""
        ctx = tuple(context)
        total = self.totals.get(ctx)
        if not total:
            return 0.0
        return self.counts[ctx][word] / total

    def prob(self, word: str, context: tuple[str, ...]) -> float:
        w = word if word in self.vocab else UNK
        extended = len(self.vocab) + 1  # vocabulary plus the unknown class
        p = (1.0 - self.unk_mass) * self.ml_prob(w, ()) + self.unk_mass / extended
        for k in range(1, self.order):
            if k > len(context):
                break
            ctx = tuple(context[-k:])
            if ctx in self.totals:
                p = self.interp * self.ml_prob(w, ctx) + (1.0 - self.interp) * p
        return p

    def logprob(self, tokens: TokenSeq) -> float:
        """Sentence log-probability including the end token."""
        ctx = (BOS,) * (self.order - 1)
        total = 0.0
        for tok in list(tokens) + [EOS]:
            total += math.log(self.prob(tok, ctx))
            if self.order > 1:
                ctx = (ctx + (tok,))[-(self.order - 1) :]
        return total

    def perplexity(self, corpus: list[TokenSeq]) -> float:
        tokens = sum(len(s) + 1 for s in corpus)
        if tokens == 0:
            raise ValueError("empty corpus")
        log_total = sum(self.logprob(s) for s in corpus)
        return math.exp(-log_total / tokens)


def train_lm(
    targets: list[TokenSeq],
    order: int = 3,
    interp: float = 0.5,
    unk_mass: float = 0.1,
) -> NGramLM:
    if not targets:
        raise ValueError("empty corpus")
    # Count each order's n-grams with Counter.update, then group them by
    # context.  An n-gram ends at a token or EOS, its context padded with BOS.
    pad = (BOS,) * (order - 1)
    grams = [Counter() for _ in range(order)]
    for sent in targets:
        toks = (*pad, *sent, EOS)
        for k, ngrams in enumerate(grams):
            ngrams.update(zip(*[toks[order - 1 - k + j :] for j in range(k + 1)]))
    counts: dict[tuple[str, ...], Counter] = {}
    for ngrams in grams:
        for gram, c in ngrams.items():
            ctx = gram[:-1]
            words = counts.get(ctx)
            if words is None:
                words = counts[ctx] = Counter()
            words[gram[-1]] = c
    return NGramLM(order, counts, interp, unk_mass)


# ---------------------------------------------------------------------------
# decoding session


class RefState(NamedTuple):
    """A decoding position; a field its mode does not read holds its default."""

    src: tuple[str, ...]
    i: int  # next unconsumed source position
    mode: str  # plain | del | ins, as in diff_codec.NEXT_MODE
    ctx: tuple[str, ...]  # recent target-side tokens for the LM
    del_start: int = 0  # del: where the open deletion began
    del_phrase: tuple[str, ...] | None = None  # plain: the deletion just closed, if replaceable
    ins_prefix: tuple[str, ...] = ()  # ins: the words inserted so far
    repl_src: tuple[str, ...] | None = None  # ins: the phrase being replaced
    done: bool = False


class RefScorer:
    """Decoding session over a lexicon and LM; see the module docstring.

    ``edit_weight`` scales span-opening mass against the copy probability
    (saturating in the evidence count), ``repl_open_weight`` pushes the
    insertion that completes a replacement, and ``close_weight`` favors
    closing a span at a complete lexicon phrase over extending it.  Only
    ``edit_weight`` is a parameter; the other weights are fixed.
    """

    copy_weight = 1.0
    repl_open_weight = 2.0
    close_weight = 2.0
    saturation = 2.0

    def __init__(self, lexicon: ConfusionLexicon, lm: NGramLM, edit_weight: float = 0.25):
        lexicon.check()
        self.lexicon = lexicon
        self.lm = lm
        self.edit_weight = edit_weight
        # merged deletion evidence: pure deletions plus replacement sources
        self.del_mass: dict[tuple[str, ...], float] = Counter()
        for phrase, count in lexicon.deletions.items():
            self.del_mass[phrase] += count
        for phrase, repls in lexicon.replacements.items():
            self.del_mass[phrase] += sum(repls.values())
        # prefix -> total mass of deletable phrases extending it
        self.prefix_mass: dict[tuple[str, ...], float] = Counter()
        for phrase, mass in self.del_mass.items():
            for k in range(1, len(phrase) + 1):
                self.prefix_mass[phrase[:k]] += mass

    def _saturate(self, mass: float) -> float:
        return mass / (mass + self.saturation)

    def start(self, source: TokenSeq) -> RefState:
        ctx = (BOS,) * (self.lm.order - 1)
        return RefState(src=tuple(source), i=0, mode="plain", ctx=ctx)

    def _push_ctx(self, ctx: tuple[str, ...], token: str) -> tuple[str, ...]:
        if self.lm.order <= 1:
            return ()
        return (ctx + (token,))[-(self.lm.order - 1) :]

    def _ins_table(self, state: RefState) -> Counter | None:
        # a word inside an insertion never moves ``i``: the key is where it opened
        if state.repl_src is not None:
            return self.lexicon.replacements.get(state.repl_src)
        return self.lexicon.insertions.get(_ins_key(state.src, state.i))

    def dist(self, state: RefState) -> dict[str, float]:
        w: dict[str, float] = {}
        if state.done:
            w[EOS] = 1.0
        elif state.mode == "plain":
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
            ins_tab = self.lexicon.insertions.get(_ins_key(src, i))
            if ins_tab:
                mass = sum(ins_tab.values())
                w[INS_OPEN] = self.edit_weight * self._saturate(mass)
            if state.del_phrase in self.lexicon.replacements:
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
        # added left to right: CPython 3.12 made sum() of floats compensated,
        # which would move the last bit and change the dumps across versions
        total = 0.0
        for v in w.values():
            total += v
        assert total > 0.0, "scorer state with no positive continuation"
        dist = {tok: v / total for tok, v in sorted(w.items())}
        for tok in TAG_TOKENS:
            dist.setdefault(tok, 0.0)
        dist.setdefault(EOS, 0.0)
        return dist

    def step(self, state: RefState, token: str) -> RefState:
        # states are built positionally, each from its mode's fields alone:
        # this runs once per beam survivor
        src, i, mode, ctx, del_start, del_phrase, ins_prefix, repl_src, done = state
        if done:
            return state
        if token == EOS:
            return RefState(src, i, mode, ctx, del_start, del_phrase, ins_prefix, repl_src, True)
        if token in TAG_TOKENS:
            nxt = NEXT_MODE.get((mode, token))
            if nxt is None:  # illegal here, and ``dist`` gives it probability 0
                return state
            if nxt == "del":
                return RefState(src, i, nxt, ctx, i)
            if nxt == "ins":  # right after a replaceable deletion: a replacement
                return RefState(src, i, nxt, ctx, 0, None, (), del_phrase)
            if mode == "del":
                # only a phrase with replacement evidence is remembered: any
                # other one would split a plain state that reads the same
                phrase = tuple(src[del_start:i])
                if phrase in self.lexicon.replacements:
                    return RefState(src, i, nxt, ctx, 0, phrase)
            return RefState(src, i, nxt, ctx)
        if mode == "ins":
            ctx = self._push_ctx(ctx, token)
            return RefState(src, i, mode, ctx, 0, None, ins_prefix + (token,), repl_src)
        # outside an insertion a word replays the next source token
        if i < len(src):
            i += 1
        if mode == "del":
            return RefState(src, i, mode, ctx, del_start)
        return RefState(src, i, mode, self._push_ctx(ctx, token))


def scorer(lexicon: ConfusionLexicon, lm: NGramLM, **weights: float) -> RefScorer:
    """Build a decoding session factory from trained components."""
    return RefScorer(lexicon, lm, **weights)


# ---------------------------------------------------------------------------
# model files

MODEL_FORMAT = "gecdiff-ref-model"
MODEL_VERSION = 1


def _join(phrase: tuple[str, ...]) -> str:
    return " ".join(phrase)


def save_model(path: str, lexicon: ConfusionLexicon, lm: NGramLM) -> None:
    obj = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "lexicon": {
            "replacements": [
                [_join(src), sorted([[_join(r), c] for r, c in repls.items()])]
                for src, repls in sorted(lexicon.replacements.items())
            ],
            "deletions": sorted([[_join(p), c] for p, c in lexicon.deletions.items()]),
            "insertions": [
                [key, sorted([[_join(p), c] for p, c in phrases.items()])]
                for key, phrases in sorted(lexicon.insertions.items())
            ],
        },
        "lm": {
            "order": lm.order,
            "interp": lm.interp,
            "unk_mass": lm.unk_mass,
            "counts": [
                [_join(ctx), sorted([[w, c] for w, c in counter.items()])]
                for ctx, counter in sorted(lm.counts.items())
            ],
        },
    }
    write_text(path, json.dumps(obj, ensure_ascii=False) + "\n")  # C encoder, same bytes


def _check_schema(obj, path: str) -> None:
    """Raise ``ValueError(f"{path}: …")`` unless ``obj`` has the saved model's shape."""

    def field(parent: dict, key: str, where: str):
        if not isinstance(parent, dict):
            raise ValueError(f"{path}: {where} must be an object")
        if key not in parent:
            raise ValueError(f"{path}: {where} is missing {key!r}")
        return parent[key]

    def number(value, where: str, kinds: tuple) -> None:
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(f"{path}: {where} has the wrong type: {value!r}")

    def pairs(value, where: str, check_second) -> None:
        # a list of [text, value] pairs, as save_model writes them
        if not isinstance(value, list):
            raise ValueError(f"{path}: {where} must be a list")
        for item in value:
            if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], str)):
                raise ValueError(f"{path}: {where} entry is not a [text, value] pair: {item!r}")
            check_second(item[1], where)

    def count(value, where: str) -> None:
        number(value, f"{where} count", (int,))

    def counted(value, where: str) -> None:
        pairs(value, where, count)

    lex = field(obj, "lexicon", "model")
    counted(field(lex, "deletions", "lexicon"), "lexicon.deletions")
    for key in ("replacements", "insertions"):
        pairs(field(lex, key, "lexicon"), f"lexicon.{key}", counted)
    lm = field(obj, "lm", "model")
    number(field(lm, "order", "lm"), "lm.order", (int,))
    for key in ("interp", "unk_mass"):
        number(field(lm, key, "lm"), f"lm.{key}", (int, float))
    pairs(field(lm, "counts", "lm"), "lm.counts", counted)


def load_model(path: str) -> tuple[ConfusionLexicon, NGramLM]:
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
    # one string per distinct word across the lexicon and the LM
    word = _Shared(str).__getitem__

    def split(text: str) -> tuple[str, ...]:
        return tuple(map(word, text.split()))

    lex_obj = obj["lexicon"]
    lexicon = ConfusionLexicon(
        replacements={
            split(src): Counter({split(r): c for r, c in repls})
            for src, repls in lex_obj["replacements"]
        },
        deletions=Counter({split(p): c for p, c in lex_obj["deletions"]}),
        insertions={
            word(key): Counter({split(p): c for p, c in phrases})
            for key, phrases in lex_obj["insertions"]
        },
    )
    lexicon.check()
    lm_obj = obj["lm"]
    counts = {
        split(ctx): Counter({word(w): c for w, c in counter})
        for ctx, counter in lm_obj["counts"]
    }
    for ctx, counter in counts.items():
        for w, c in counter.items():
            if c <= 0:
                raise ValueError(f"{path}: nonpositive LM count for {w!r}")
    lm = NGramLM(lm_obj["order"], counts, lm_obj["interp"], lm_obj["unk_mass"])
    return lexicon, lm
