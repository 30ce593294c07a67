"""Beam decoding with additive tag bias, plus the grid-search tuner.

The decoder is scorer-agnostic: anything exposing ``start``/``step``/``dist``
can drive it.  A BiasVector adds an offset in [0,1] to the probability of
each diff-tag token, used for candidate ranking only; accumulated hypothesis
scores stay unbiased log-probabilities, which makes zero bias exactly neutral.

Tokens whose probability is exactly 0.0 are treated as structurally
impossible and are never expanded, bias or not.  Scorers use this to rule
moves out (for example closing an empty span); bias only reorders the
possible.

``constrained=True`` additionally masks candidates through a tag automaton
so that even the raw, pre-repair output validates against the source.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, islice
from typing import Callable, Iterable, NamedTuple, Protocol

from .corpus_io import _Shared, atomic_write, iter_lines
from .diff_codec import NEXT_MODE, TAG_MOVES, repair, strip_to_target
from .metrics import PRF, DEFAULT_BETA, GoldAnnotation, m2_maxmatch
from .text_norm import (
    DEL_CLOSE,
    DEL_OPEN,
    INS_CLOSE,
    INS_OPEN,
    TAG_TOKENS,
    TokenSeq,
    find_reserved,
    is_reserved_token,
)

EOS = "</s>"

_LOG_FLOOR = -60.0  # stands in for log(0) when a masked path must be taken


def _safe_log(p: float) -> float:
    return math.log(p) if p > 0.0 else _LOG_FLOOR


@dataclass(frozen=True)
class BiasVector:
    """Additive offsets for the four tag tokens, each in [0, 1]."""

    del_open: float = 0.0
    del_close: float = 0.0
    ins_open: float = 0.0
    ins_close: float = 0.0

    def __post_init__(self) -> None:
        for name, v in self.as_map().items():
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"bias for {name} out of [0,1]: {v}")

    @classmethod
    def tied(cls, v: float) -> "BiasVector":
        return cls(v, v, v, v)

    @classmethod
    def zero(cls) -> "BiasVector":
        return cls()

    @classmethod
    def parse(cls, text: str) -> "BiasVector":
        """Parse a single tied value or four comma-separated components."""
        parts = [float(p) for p in text.split(",")]
        if len(parts) == 1:
            return cls.tied(parts[0])
        if len(parts) == 4:
            return cls(*parts)
        raise ValueError(f"expected 1 or 4 bias values, got {len(parts)}")

    def as_map(self) -> dict[str, float]:
        return {
            DEL_OPEN: self.del_open,
            DEL_CLOSE: self.del_close,
            INS_OPEN: self.ins_open,
            INS_CLOSE: self.ins_close,
        }


class ScorerContract(Protocol):
    """A stateful decoding session over the extended vocabulary.

    States must be hashable, ``dist(state)`` must depend on the state alone,
    and ``step(state, token)`` must be a pure function of its arguments.
    The decoder keeps both results in a table (``_Table``) and calls each
    once per distinct argument: ``dist`` once per state, ``step`` once per
    state and token.  The table lasts for one ``beam_decode`` call, or for
    every grid point of one dev sentence inside ``grid_search_tune``.  A
    state's row holds its positive moves in two halves: the non-tag moves,
    ranked and logged once, and the tag moves, the only ones a bias ranks
    again per call.  Each distinct state costs a row, so a state should
    hold only what ``dist`` and ``step`` read: one position reached by two
    histories is then one state.
    """

    def start(self, source: TokenSeq): ...

    def step(self, state, token: str): ...

    def dist(self, state) -> dict[str, float]: ...


@dataclass(frozen=True)
class DecodeConfig:
    beam: int = 10
    max_len: int | None = None  # None: 2*len(source)+10
    constrained: bool = False
    bias: BiasVector | None = None  # None skips the bias stage entirely

    def __post_init__(self) -> None:
        if self.beam < 1:
            raise ValueError("beam must be >= 1")
        if self.max_len is not None and self.max_len < 1:
            raise ValueError("max_len must be >= 1")


@dataclass(frozen=True)
class Hypothesis:
    """One decoded candidate; ``tagged`` is the repaired sequence."""

    tagged: tuple[str, ...]
    raw: tuple[str, ...]
    score: float  # sum of unbiased log-probabilities
    token_logprobs: tuple[float, ...]
    tag_probs: tuple[tuple[float, float, float, float], ...]
    selection_score: float
    terminated: bool


def _check_dist(dist: dict[str, float]) -> None:
    for tok in TAG_TOKENS:
        if tok not in dist:
            raise ValueError(f"scorer distribution missing entry for {tok}")
    if EOS not in dist:
        raise ValueError(f"scorer distribution missing entry for {EOS}")
    total = sum(dist.values())
    if not math.isclose(total, 1.0, abs_tol=1e-6):
        raise ValueError(f"scorer distribution sums to {total!r}, not 1")


# ---------------------------------------------------------------------------
# constrained-mode tag automaton


class _Auto(NamedTuple):
    mode: str = "plain"  # a mode of diff_codec.NEXT_MODE
    consumed: int = 0
    span_len: int = 0

    def advance(self, source: TokenSeq, token: str) -> "_Auto":
        if token in TAG_TOKENS:
            nxt = NEXT_MODE.get((self.mode, token))
            # a tag illegal here leaves the automaton as it is; ``allowed``
            # never offers one
            return self if nxt is None else _Auto(nxt, self.consumed, 0)
        if self.mode == "ins":
            return _Auto("ins", self.consumed, self.span_len + 1)
        return _Auto(self.mode, self.consumed + 1, self.span_len + 1)

    def allowed(self, source: TokenSeq, dist: dict[str, float], budget: int) -> set[str]:
        """Grammar-legal tokens that keep a valid completion reachable.

        ``budget`` is the number of steps remaining including this one.
        """
        mode = self.mode
        remaining = len(source) - self.consumed
        # steps to spare past the shortest valid end: close + copies + EOS
        spare = budget - 2 - remaining - (mode != "plain")
        moves: set[str] = set()
        if mode == "ins":
            if spare >= 0:
                moves.update(t for t in dist if t != EOS and not is_reserved_token(t))
        elif remaining:
            if spare >= -1:
                moves.add(source[self.consumed])
        elif mode == "plain":
            moves.add(EOS)
        for tag, nxt in TAG_MOVES[mode]:
            if nxt == "plain":  # a closer; no span closes empty
                if self.span_len and spare >= -1:
                    moves.add(tag)
            # an opener: room for its closer and a word to fill the span, an
            # inserted one or a source token to delete
            elif spare >= 2 if nxt == "ins" else remaining and spare >= 1:
                moves.add(tag)
        return moves


# ---------------------------------------------------------------------------
# beam search


class _Beam(NamedTuple):
    raw: tuple[str, ...]
    state: object
    auto: _Auto
    selection: float
    score: float
    logps: tuple[float, ...]
    tagps: tuple[tuple[float, float, float, float], ...]


def _biased(p: float, token: str, offsets: dict[str, float]) -> float:
    """``p`` plus the offset of ``token``: its ranking value under ``offsets``.

    Only the tag tokens have an offset, and this is the one place one is
    applied.  The decoder ranks moves on this value and adds its
    ``_safe_log`` to a selection score; ``KBestRecord`` re-scores tag steps
    with that log.  The log is taken apart so the greedy walk takes it only
    for the move it keeps.
    """
    return p + offsets.get(token, 0.0)


def _moves(
    candidates: Iterable[tuple[str, float]], offsets: dict[str, float] | None
) -> list[tuple[float, str, float]]:
    """``(-ranking value, token, p)`` per candidate ``(token, p)``.

    The ranking value is ``p`` plus the token's offset; only the tag tokens
    have one.  The natural order of these tuples is the move order, best
    first: the highest raw ranking value, ties to the smaller token.  Ranking
    on the raw value, not its log, matters: two distinct probabilities can
    share a log.
    """
    if offsets is None:
        return [(-p, t, p) for t, p in candidates]
    return [(-_biased(p, t, offsets), t, p) for t, p in candidates]


def _ranked_moves(
    candidates: Iterable[tuple[str, float]], offsets: dict[str, float] | None
) -> list[tuple[float, str, float]]:
    """``(log of ranking value, token, p)`` in move order.

    The move order as one list: a row's two halves merged under
    ``offsets`` must read the same, which the tests check against this.
    """
    moves = _moves(candidates, offsets)
    moves.sort()
    return [(_safe_log(-r), t, p) for r, t, p in moves]


# A move as the decoder reads it: ``(-ranking value, token, p, log p, log of
# ranking value)``.  Moves order as ``_moves`` does; the token decides a tie,
# so the last three fields are never compared.
_Move = tuple[float, str, float, float, float]
_NO_MOVE: _Move = (math.inf, "", 0.0, 0.0, 0.0)  # ranks below every move


def _tag_moves(tags: tuple[_Move, ...], offsets: dict[str, float] | None) -> Iterable[_Move]:
    """A row's tag half under ``offsets``: each move ranked on ``p`` plus its offset."""
    if offsets is None:
        return tags
    moves = []
    for _, t, p, log_p, _ in tags:
        value = _biased(p, t, offsets)
        moves.append((-value, t, p, log_p, _safe_log(value)))
    return moves


def _zero_moves(
    dist: dict[str, float], mask: set[str], offsets: dict[str, float] | None
) -> list[_Move]:
    """The moves ``mask`` permits, in move order, when none has a positive probability."""
    moves = _moves(((t, dist.get(t, 0.0)) for t in mask), offsets)
    moves.sort()
    return [(r, t, p, _safe_log(p), _safe_log(-r)) for r, t, p in moves]


class _Table:
    """Every scored state of one source, and every step taken from one.

    A row holds what the decoder reads of a state, as the tuple
    ``(dist, tagp, plain, tags, nexts)``: its distribution, checked once;
    its tag probabilities in ``TAG_TOKENS`` order; its positive moves,
    split in two halves; and the states its steps reach, by token.  The
    bias-free half ``plain`` is the non-tag moves, ranked once with their
    logs: an offset never touches them, since ``p + 0.0 == p``.  The tag
    half ``tags`` is the tag moves, each with its log; only this half is
    ranked again per call, under that call's offsets (``_tag_moves``).  A
    row with no positive tag move needs no sort and no log after it is
    made.  Rows are plain tuples that never point at each other.  The
    halves are tuples too: kept as lists, they made the cyclic garbage
    collector run about three times as often in a beam decode.
    """

    def __init__(self, scorer: ScorerContract) -> None:
        self.scorer = scorer
        self.rows: dict = {}  # state -> (dist, tagp, plain, tags, nexts)

    def row(self, state) -> tuple:
        row = self.rows.get(state)
        if row is None:
            dist = self.scorer.dist(state)
            _check_dist(dist)
            plain, tags = [], []
            for t, p in dist.items():
                if p > 0.0:
                    log_p = _safe_log(p)
                    (tags if t in TAG_TOKENS else plain).append((-p, t, p, log_p, log_p))
            plain.sort()
            tagp = tuple(map(dist.__getitem__, TAG_TOKENS))
            row = self.rows[state] = (dist, tagp, tuple(plain), tuple(tags), {})
        return row

    def step(self, state, nexts: dict, token: str):
        """The state ``token`` steps to from ``state``, whose row's ``nexts`` is given."""
        if token not in nexts:
            nexts[token] = self.scorer.step(state, token)
        return nexts[token]


def beam_decode(scorer: ScorerContract, source: TokenSeq, cfg: DecodeConfig) -> list[Hypothesis]:
    """K-best beam search; every hypothesis is repaired before being returned.

    Candidates rank on their probability plus the tag offset of cfg.bias
    (see ``_moves``).  Ties break on the token string per step and on the
    token tuple in the final order, so decoding is fully deterministic for a
    deterministic scorer.

    Each distinct scorer state is scored and checked once, and each step
    taken once, in a ``_Table`` made for this call; ``scorer`` may itself
    be a table, which ``grid_search_tune`` hands in to share one across a
    dev sentence's grid.  A row's non-tag moves come ranked and logged, so
    an item's moves are the head of that half merged with its tag moves
    under the offsets; only those are ranked per item.  At beam 1 the
    search is a greedy walk (``_greedy_decode``) that returns exactly what
    the beam loop would.  A source holding a tag or domain token raises
    ``ValueError``.
    """
    if not source:
        raise ValueError("source must be nonempty")
    i = find_reserved(source)
    if i >= 0:
        raise ValueError(f"reserved token in source at position {i}: {source[i]!r}")
    max_len = cfg.max_len if cfg.max_len is not None else 2 * len(source) + 10
    constrained = cfg.constrained
    if constrained and max_len < len(source) + 1:
        raise ValueError(
            f"constrained decode needs max_len >= {len(source) + 1} to emit the source"
        )
    beam = cfg.beam
    offsets = cfg.bias.as_map() if cfg.bias is not None else None
    table = scorer if isinstance(scorer, _Table) else _Table(scorer)
    if beam == 1:
        return [_greedy_decode(table, source, max_len, constrained, offsets)]

    live = [_Beam((), table.scorer.start(source), _Auto(), 0.0, 0.0, (), ())]
    done: list[_Beam] = []
    for step_no in range(max_len):
        budget = max_len - step_no
        # (selection, token, parent, p, log p, the parent's row)
        pool: list[tuple[float, str, _Beam, float, float, tuple]] = []
        for item in live:
            row = table.row(item.state)
            dist, _, plain, tags, _ = row
            if constrained:
                mask = item.auto.allowed(source, dist, budget)
                plain = [m for m in plain if m[1] in mask]
                tags = [m for m in tags if m[1] in mask]
                if not (plain or tags):
                    # only zero-probability moves are legal when no positive one is
                    plain = _zero_moves(dist, mask, offsets)
            if tags:
                plain = sorted(chain(plain[:beam], _tag_moves(tags, offsets)))
            selection = item.selection
            for _, tok, p, log_p, log_rank in plain[:beam]:
                pool.append((selection + log_rank, tok, item, p, log_p, row))
        if not pool:
            break
        # every live raw has length step_no, so (raw, tok) orders as raw + (tok,)
        pool.sort(key=lambda x: (-x[0], x[2].raw, x[1]))
        live = []
        for sel, tok, item, p, log_p, row in pool[:beam]:
            _, tagp, _, _, nexts = row
            logps = item.logps + (log_p,)
            tagps = item.tagps + (tagp,)
            score = item.score + log_p
            if tok == EOS:
                done.append(_Beam(item.raw, None, item.auto, sel, score, logps, tagps))
            else:
                auto = item.auto.advance(source, tok) if constrained else item.auto
                state = table.step(item.state, nexts, tok)
                live.append(_Beam(item.raw + (tok,), state, auto, sel, score, logps, tagps))
        if len(done) >= beam or not live:
            break
    # Unfinished items join the ranking: those out of budget, and also those
    # still live when ``beam`` items had finished, which can then outrank a
    # finished one.
    done.extend(live)
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


def _greedy_decode(
    table: _Table,
    source: TokenSeq,
    max_len: int,
    constrained: bool,
    offsets: dict[str, float] | None,
) -> Hypothesis:
    """``beam_decode`` at beam 1, as a greedy walk.

    At beam 1 the beam loop keeps only the head of one item's ranked moves,
    so it walks this same path.  Here each step's move is the better of the
    row's best plain move and its tag moves under ``offsets``: no list,
    sort or log is made for a plain move, as the row holds them ranked and
    logged.  Under ``constrained`` the walk takes the best move the mask
    permits: a positive one if any, else the best zero-probability one; it
    stops when the mask is empty.
    """
    state = table.scorer.start(source)
    auto = _Auto()
    raw: list[str] = []
    logps: list[float] = []
    tagps: list[tuple[float, float, float, float]] = []
    selection = score = 0.0
    terminated = False
    rows = table.rows
    for step_no in range(max_len):
        # a hit skips the method call: this line runs once per step
        dist, tagp, plain, tags, nexts = rows.get(state) or table.row(state)
        if constrained:
            mask = auto.allowed(source, dist, max_len - step_no)
            plain = [m for m in plain if m[1] in mask]
            tags = [m for m in tags if m[1] in mask]
            if not (plain or tags):
                plain = _zero_moves(dist, mask, offsets)
                if not plain:
                    break
        # the head of the bias-free half against each tag move, in move order
        neg_rank, tok, p, log_p, log_rank = plain[0] if plain else _NO_MOVE
        for tag_rank, tag, tag_p, tag_log_p, tag_log_rank in tags:
            if offsets is not None:
                tag_rank, tag_log_rank = -_biased(tag_p, tag, offsets), None
            if tag_rank < neg_rank or (tag_rank == neg_rank and tag < tok):
                neg_rank, tok, p, log_p, log_rank = tag_rank, tag, tag_p, tag_log_p, tag_log_rank
        if log_rank is None:  # a tag won on its offset: log only its ranking value
            log_rank = _safe_log(-neg_rank)
        selection += log_rank
        score += log_p
        logps.append(log_p)
        tagps.append(tagp)
        if tok == EOS:
            terminated = True
            break
        raw.append(tok)
        if constrained:
            auto = auto.advance(source, tok)
        state = nexts[tok] if tok in nexts else table.step(state, nexts, tok)
    return Hypothesis(
        tagged=tuple(repair(raw, source)),
        raw=tuple(raw),
        score=score,
        token_logprobs=tuple(logps),
        tag_probs=tuple(tagps),
        selection_score=selection,
        terminated=terminated,
    )


# ---------------------------------------------------------------------------
# grid-search tuning


@dataclass(frozen=True)
class TuneResult:
    best: BiasVector
    curve: tuple[tuple[BiasVector, PRF], ...]


def _grid_values(grid_step: float) -> list[float]:
    if not 0.0 < grid_step <= 1.0:
        raise ValueError("grid_step must be in (0, 1]")
    k = round(1.0 / grid_step)
    if abs(k * grid_step - 1.0) > 1e-9:
        raise ValueError(f"grid_step {grid_step} does not divide 1.0")
    return [round(i * grid_step, 10) for i in range(k + 1)]


def _first_argmax(prfs: list[PRF]) -> int:
    best, best_f = None, -1.0
    for i, prf in enumerate(prfs):
        if prf.f_beta > best_f:
            best, best_f = i, prf.f_beta
    assert best is not None
    return best


def grid_search_tune(
    scorer: ScorerContract,
    dev: list[tuple[TokenSeq, GoldAnnotation]],
    grid_step: float = 0.1,
    tied: bool = True,
    cfg: DecodeConfig = DecodeConfig(),
    max_unchanged: int = 2,
    beta: float = DEFAULT_BETA,
    evaluate: Callable[[BiasVector], PRF] | None = None,
) -> TuneResult:
    """Sweep the bias grid and return the F-argmax plus the full curve.

    Tied mode replicates one scalar to all four components (11 points at
    step 0.1); untied mode sweeps each component in turn, holding the others
    at their current best.  Ties go to the smaller bias.  ``evaluate`` may
    replace the decode-and-score step (same signature) for curve injection
    or caching; it is called once per grid point, in grid order.  By
    default each dev sentence is 1-best-decoded at every bias of a sweep,
    stripped, and MaxMatch-scored against gold.  All of a sentence's
    decodes share one ``_Table``, so each of its states is scored and
    checked once per sweep whatever the bias; the offsets touch only the
    ranking of tag moves.  Each distinct repaired 1-best is stripped once
    and each distinct stripped one scored once.  Counts are pooled per bias
    in dev order.
    """
    if not dev:
        raise ValueError("dev set must be nonempty")
    values = _grid_values(grid_step)

    def sweep(biases: list[BiasVector]) -> list[PRF]:
        if evaluate is not None:
            return [evaluate(bias) for bias in biases]
        cfgs = [replace(cfg, bias=bias) for bias in biases]
        counts = [[0.0, 0.0, 0.0] for _ in biases]
        for src, gold in dev:
            table = _Table(scorer)
            scores: dict[tuple[str, ...], PRF] = {}  # stripped 1-best -> M2
            by_tagged: dict[tuple[str, ...], PRF] = {}  # repaired 1-best -> M2
            for bias_cfg, count in zip(cfgs, counts):
                tagged = beam_decode(table, src, bias_cfg)[0].tagged
                prf = by_tagged.get(tagged)
                if prf is None:
                    stripped = strip_to_target(list(tagged))
                    key = tuple(stripped)
                    prf = scores.get(key)
                    if prf is None:
                        prf = scores[key] = m2_maxmatch(stripped, gold, max_unchanged, beta)
                    by_tagged[tagged] = prf
                count[0] += prf.tp
                count[1] += prf.fp
                count[2] += prf.fn
        return [PRF.from_counts(tp, fp, fn, beta) for tp, fp, fn in counts]

    if tied:
        biases = [BiasVector.tied(v) for v in values]
        prfs = sweep(biases)
        return TuneResult(biases[_first_argmax(prfs)], tuple(zip(biases, prfs)))

    current = [0.0, 0.0, 0.0, 0.0]
    curve: list[tuple[BiasVector, PRF]] = []
    for comp in range(4):
        biases = [BiasVector(*current[:comp], v, *current[comp + 1 :]) for v in values]
        prfs = sweep(biases)
        curve.extend(zip(biases, prfs))
        current[comp] = values[_first_argmax(prfs)]
    return TuneResult(BiasVector(*current), tuple(curve))


# ---------------------------------------------------------------------------
# k-best exchange format

@dataclass(frozen=True)
class KBestRecord:
    """One hypothesis in the line-delimited exchange format.

    ``probs`` holds the chosen token's probability per step; when ``eos`` is
    true a final entry for the end-of-sequence step is included, so
    ``len(probs) == len(tokens) + 1``.  ``tag_probs`` carries the four tag
    probabilities (del-open, del-close, ins-open, ins-close) at each step,
    aligned with ``probs``.
    """

    sid: int
    tokens: tuple[str, ...]
    probs: tuple[float, ...]
    tag_probs: tuple[tuple[float, float, float, float], ...]
    eos: bool

    def __post_init__(self) -> None:
        steps = len(self.tokens) + (1 if self.eos else 0)
        if len(self.probs) != steps or len(self.tag_probs) != steps:
            raise ValueError(
                f"expected {steps} probability entries, got {len(self.probs)} probs "
                f"and {len(self.tag_probs)} tag_probs"
            )

    @cached_property
    def _unbiased(self) -> tuple[array, tuple[int, ...]]:
        """Each step's unbiased log, and the steps whose token is a tag.

        Made on first use and kept for the record's life; it is not a field,
        so equality ignores it.  An ``array`` holds a log in 8 bytes, where a
        tuple of floats takes 32.
        """
        tags = tuple(i for i, t in enumerate(self.tokens) if t in TAG_TOKENS)
        return array("d", map(_safe_log, self.probs)), tags

    def _score(self, offsets: dict[str, float]) -> float:
        """The selection score under tag ``offsets`` (``BiasVector.as_map``).

        Only the tag steps are scored again: any other step adds 0.0 to its
        probability, which leaves its log as cached.  ``sum`` adds the steps
        in order, as it always has, so the score is the same float.
        """
        logs, tags = self._unbiased
        if offsets and tags:
            logs = logs[:]
            for i in tags:
                logs[i] = _safe_log(_biased(self.probs[i], self.tokens[i], offsets))
        return sum(logs)

    def selection_score(self, bias: BiasVector | None) -> float:
        return self._score(bias.as_map() if bias is not None else {})


def record_from_hypothesis(sid: int, hyp: Hypothesis) -> KBestRecord:
    return KBestRecord(
        sid=sid,
        tokens=hyp.raw,
        probs=tuple(math.exp(lp) if lp > _LOG_FLOOR else 0.0 for lp in hyp.token_logprobs),
        tag_probs=hyp.tag_probs,
        eos=hyp.terminated,
    )


def write_kbest(records: Iterable[KBestRecord], path: str) -> None:
    with atomic_write(path) as (fh,):
        for rec in records:
            obj = {
                "id": rec.sid,
                "tokens": list(rec.tokens),
                "probs": list(rec.probs),
                "tag_probs": [list(t) for t in rec.tag_probs],
                "eos": rec.eos,
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def read_kbest(path: str) -> list[KBestRecord]:
    """Read a dump written by ``write_kbest``; a malformed record raises ValueError.

    ``id`` must be a JSON integer, ``eos`` a JSON boolean, ``tokens`` a list
    of strings, each ``tag_probs`` entry four values, and every probability a
    number in [0, 1].

    The records of one call share their values: one object per distinct
    token, number text and ``tag_probs`` entry, each made and checked once.
    A dump of beam-10 decodes repeats these heavily (about 300 tokens, 4,300
    numbers and 3,000 tag tuples in 100,000 steps), so its records take a
    seventh of the memory that fresh objects would.
    """
    reader = _KBestReader(path)
    lines = enumerate(iter_lines(path), 1)
    return [reader.record(line, n) for n, line in lines if line.strip()]


def _float_tuple(entry) -> tuple[float, ...]:
    return tuple(map(float, entry))


_NUMBER_TYPES = frozenset({int, float})  # JSON numbers; bool and str are not


class _KBestReader:
    """Parses the lines of one dump into records that share their values."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.decode = json.JSONDecoder(parse_float=_Shared(float).__getitem__).decode
        self.words = _Shared(str)
        self.tag_tuples = _Shared(_float_tuple)  # a parsed entry -> its floats
        self.checked: set[int | float] = set()  # the numbers already found in [0, 1]

    def tag_probs(self, entries, line: str, shareable: bool) -> tuple[tuple, list]:
        """``entries`` as tuples of floats, and the parsed entries not read before."""
        table = self.tag_tuples
        # -0.0 == 0.0, so an entry holding -0.0 must not share the tuple of
        # one holding 0.0.  Share only where every minus sign on the line is
        # an exponent's; a negative number starts with one that is not.
        if shareable and (
            "-" not in line or line.count("-") == line.count("e-") + line.count("E-")
        ):
            known = len(table)
            try:
                shared = tuple(map(table.__getitem__, map(tuple, entries)))
            except TypeError:  # an entry float() rejects; the loop below raises
                pass
            else:
                return shared, list(islice(reversed(table), len(table) - known))
        return tuple(map(_float_tuple, entries)), entries

    def record(self, line: str, lineno: int) -> KBestRecord:
        # True == 1 and both hash alike, so a boolean would pass as a number
        # already checked, or take the tag tuple made for one; a line with a
        # boolean besides eos shares nothing and has every value checked.
        shareable = line.count("true") + line.count("false") == 1
        try:
            obj = self.decode(line)
            sid, eos, tokens, numbers = obj["id"], obj["eos"], obj["tokens"], obj["probs"]
            probs = tuple(map(float, numbers))
            tag_probs, fresh = self.tag_probs(obj["tag_probs"], line, shareable)
            if type(sid) is not int:
                raise ValueError(f"id must be an integer, got {sid!r}")
            if type(eos) is not bool:
                raise ValueError(f"eos must be true or false, got {eos!r}")
            if type(tokens) is not list or not all(type(t) is str for t in tokens):
                raise ValueError(f"tokens must be a list of strings, got {tokens!r}")
            if any(len(t) != 4 for t in fresh):
                raise ValueError("each tag_probs entry needs 4 values")
            if fresh or not (shareable and self.checked.issuperset(numbers)):
                values = [*numbers, *chain.from_iterable(fresh)]
                if not all(type(p) in _NUMBER_TYPES and 0.0 <= p <= 1.0 for p in values):
                    raise ValueError("probabilities must be numbers in [0, 1]")
                self.checked.update(values)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{self.path}:{lineno}: bad k-best record: {exc}") from exc
        expect = len(tokens) + (1 if eos else 0)
        if len(probs) != expect or len(tag_probs) != expect:
            raise ValueError(f"{self.path}:{lineno}: expected {expect} probability entries")
        return KBestRecord(sid, tuple(map(self.words.__getitem__, tokens)), probs, tag_probs, eos)


def rerank_kbest(records: list[KBestRecord], bias: BiasVector | None) -> list[KBestRecord]:
    """Reorder each source id's hypotheses by biased selection score."""
    offsets = bias.as_map() if bias is not None else {}
    groups: dict[int, list[KBestRecord]] = {}
    order: list[int] = []
    for rec in records:
        if rec.sid not in groups:
            order.append(rec.sid)
        groups.setdefault(rec.sid, []).append(rec)
    out: list[KBestRecord] = []
    for sid in order:
        out.extend(
            sorted(
                groups[sid],
                key=lambda r: (-r._score(offsets), r.tokens),
            )
        )
    return out
