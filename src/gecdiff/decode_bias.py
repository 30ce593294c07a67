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
from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Protocol

from .corpus_io import atomic_write, iter_lines
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
    ``beam_decode`` calls ``dist`` once per distinct state and reuses the
    result for every beam item that reaches an equal state; that memo lasts
    for one ``beam_decode`` call.  ``grid_search_tune`` also reuses both
    results across the grid points of one dev sentence, and drops them when
    it moves to the next sentence.
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
    return [(-(p + offsets.get(t, 0.0)), t, p) for t, p in candidates]


def _ranked_moves(
    candidates: Iterable[tuple[str, float]], offsets: dict[str, float] | None
) -> list[tuple[float, str, float]]:
    """``(log of ranking value, token, p)`` in move order."""
    moves = _moves(candidates, offsets)
    moves.sort()
    return [(_safe_log(-r), t, p) for r, t, p in moves]


def _tag_probs(dist: dict[str, float]) -> tuple[float, float, float, float]:
    return (
        dist.get(DEL_OPEN, 0.0),
        dist.get(DEL_CLOSE, 0.0),
        dist.get(INS_OPEN, 0.0),
        dist.get(INS_CLOSE, 0.0),
    )


def beam_decode(scorer: ScorerContract, source: TokenSeq, cfg: DecodeConfig) -> list[Hypothesis]:
    """K-best beam search; every hypothesis is repaired before being returned.

    Candidates rank on their probability plus the tag offset of cfg.bias
    (see ``_moves``).  Ties break on the token string per step and on the
    token tuple in the final order, so decoding is fully deterministic for a
    deterministic scorer.

    Each distinct scorer state is scored and checked once per call: its
    distribution, tag probabilities and ranked positive-probability moves
    are kept in a dict that is dropped when the call returns.  At beam 1
    the search is a greedy walk (``_greedy_decode``) that keeps only each
    state's best move; it returns exactly what the beam loop would.  A
    source holding a tag or domain token raises ``ValueError``.
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
    if beam == 1:
        return [_greedy_decode(scorer, source, max_len, constrained, offsets)]

    # state -> (dist, tag probabilities, ranked positive-probability moves)
    scored: dict = {}
    live = [_Beam((), scorer.start(source), _Auto(), 0.0, 0.0, (), ())]
    done: list[_Beam] = []
    for step_no in range(max_len):
        budget = max_len - step_no
        # (selection, token, parent, p, tag probabilities of the parent's step)
        pool: list[tuple[float, str, _Beam, float, tuple]] = []
        for item in live:
            entry = scored.get(item.state)
            if entry is None:
                dist = scorer.dist(item.state)
                _check_dist(dist)
                positive = [(t, p) for t, p in dist.items() if p > 0.0]
                entry = scored[item.state] = (
                    dist, _tag_probs(dist), _ranked_moves(positive, offsets)
                )
            dist, tagp, moves = entry
            if constrained:
                mask = item.auto.allowed(source, dist, budget)
                moves = [m for m in moves if m[1] in mask]
                if not moves:  # only zero-probability moves are legal
                    moves = _ranked_moves([(t, dist.get(t, 0.0)) for t in mask], offsets)
            selection = item.selection
            for log_rank, tok, p in moves[:beam]:
                pool.append((selection + log_rank, tok, item, p, tagp))
        if not pool:
            break
        # every live raw has length step_no, so (raw, tok) orders as raw + (tok,)
        pool.sort(key=lambda x: (-x[0], x[2].raw, x[1]))
        live = []
        for sel, tok, item, p, tagp in pool[:beam]:
            logp = _safe_log(p)
            logps = item.logps + (logp,)
            tagps = item.tagps + (tagp,)
            score = item.score + logp
            if tok == EOS:
                done.append(_Beam(item.raw, None, item.auto, sel, score, logps, tagps))
            else:
                auto = item.auto.advance(source, tok) if constrained else item.auto
                state = scorer.step(item.state, tok)
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
    scorer: ScorerContract,
    source: TokenSeq,
    max_len: int,
    constrained: bool,
    offsets: dict[str, float] | None,
) -> Hypothesis:
    """``beam_decode`` at beam 1, as a greedy walk.

    At beam 1 the beam loop keeps only the head of one item's ranked moves,
    so it walks this same path.  Here each distinct state's best positive
    move is the min over ``_moves``, found once per call without a sort, and
    only the chosen move's log is taken.  Under ``constrained`` the walk
    takes the best move the mask permits: a positive one if any, else the
    best zero-probability one; it stops when the mask is empty.
    """
    # state -> (dist, tag probabilities, best positive-probability move)
    scored: dict = {}
    state = scorer.start(source)
    auto = _Auto()
    raw: list[str] = []
    logps: list[float] = []
    tagps: list[tuple[float, float, float, float]] = []
    selection = score = 0.0
    terminated = False
    for step_no in range(max_len):
        entry = scored.get(state)
        if entry is None:
            dist = scorer.dist(state)
            _check_dist(dist)
            best = min(_moves([(t, p) for t, p in dist.items() if p > 0.0], offsets))
            entry = scored[state] = (dist, _tag_probs(dist), best)
        dist, tagp, move = entry
        if constrained:
            mask = auto.allowed(source, dist, max_len - step_no)
            if move[1] not in mask:
                legal = [(t, dist.get(t, 0.0)) for t in mask]
                if not legal:
                    break
                positive = [(t, p) for t, p in legal if p > 0.0]
                move = min(_moves(positive or legal, offsets))
        neg_rank, tok, p = move
        selection += _safe_log(-neg_rank)
        logp = _safe_log(p)
        score += logp
        logps.append(logp)
        tagps.append(tagp)
        if tok == EOS:
            terminated = True
            break
        raw.append(tok)
        if constrained:
            auto = auto.advance(source, tok)
        state = scorer.step(state, tok)
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


class _MemoScorer:
    """Caches a scorer's ``dist`` and ``step`` results for one source.

    Sound because both are pure functions of their arguments (see
    ``ScorerContract``); it lasts for the decodes of one dev sentence.
    """

    def __init__(self, scorer: ScorerContract) -> None:
        self.scorer = scorer
        self.dists: dict = {}
        self.steps: dict = {}

    def start(self, source: TokenSeq):
        return self.scorer.start(source)

    def dist(self, state) -> dict[str, float]:
        dist = self.dists.get(state)
        if dist is None:
            dist = self.dists[state] = self.scorer.dist(state)
        return dist

    def step(self, state, token: str):
        key = (state, token)
        if key not in self.steps:
            self.steps[key] = self.scorer.step(state, token)
        return self.steps[key]


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
    stripped, and MaxMatch-scored against gold, reusing that sentence's
    scorer results; each distinct repaired 1-best is stripped once and each
    distinct stripped one scored once.  Counts are pooled per bias in dev
    order.
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
            memo = _MemoScorer(scorer)
            scores: dict[tuple[str, ...], PRF] = {}  # stripped 1-best -> M2
            by_tagged: dict[tuple[str, ...], PRF] = {}  # repaired 1-best -> M2
            for bias_cfg, count in zip(cfgs, counts):
                tagged = beam_decode(memo, src, bias_cfg)[0].tagged
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

KBEST_FIELDS = ("id", "tokens", "probs", "tag_probs", "eos")


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

    def selection_score(self, bias: BiasVector | None) -> float:
        offsets = bias.as_map() if bias is not None else {}
        toks = self.tokens + ((EOS,) if self.eos else ())
        return sum(
            _safe_log(p + offsets.get(t, 0.0)) for t, p in zip(toks, self.probs)
        )


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
    """
    lines = enumerate(iter_lines(path), 1)
    return [_kbest_record(line, path, n) for n, line in lines if line.strip()]


def _kbest_record(line: str, path: str, lineno: int) -> KBestRecord:
    try:
        obj = json.loads(line)
        sid, eos, tokens = obj["id"], obj["eos"], obj["tokens"]
        probs = tuple(map(float, obj["probs"]))
        tag_probs = tuple(tuple(map(float, t)) for t in obj["tag_probs"])
        if type(sid) is not int:
            raise ValueError(f"id must be an integer, got {sid!r}")
        if type(eos) is not bool:
            raise ValueError(f"eos must be true or false, got {eos!r}")
        if type(tokens) is not list or not all(type(t) is str for t in tokens):
            raise ValueError(f"tokens must be a list of strings, got {tokens!r}")
        if any(len(t) != 4 for t in tag_probs):
            raise ValueError("each tag_probs entry needs 4 values")
        if not all(0.0 <= p <= 1.0 for p in chain(probs, *tag_probs)):
            raise ValueError("probabilities must be numbers in [0, 1]")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}:{lineno}: bad k-best record: {exc}") from exc
    expect = len(tokens) + (1 if eos else 0)
    if len(probs) != expect or len(tag_probs) != expect:
        raise ValueError(f"{path}:{lineno}: expected {expect} probability entries")
    return KBestRecord(sid, tuple(tokens), probs, tag_probs, eos)


def rerank_kbest(records: list[KBestRecord], bias: BiasVector | None) -> list[KBestRecord]:
    """Reorder each source id's hypotheses by biased selection score."""
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
                key=lambda r: (-r.selection_score(bias), r.tokens),
            )
        )
    return out
