"""Beam decoding with additive tag bias, plus the grid-search tuner.

The decoder is scorer-agnostic: anything exposing ``start``/``step``/``dist``
can drive it.  A BiasVector adds an offset in [0,1] to the probability of
each diff-tag token, used for candidate ranking only; a hypothesis keeps
each step's probability as the scorer gave it, so zero bias is exactly neutral.

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
from typing import Callable, Iterable, NamedTuple, Protocol, Sequence

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
    histories is then one state.  Of a distribution a decode keeps only the
    chosen token's probability per step, as ``dist`` gave it.
    """

    def start(self, source: TokenSeq): ...

    def step(self, state, token: str): ...

    def dist(self, state) -> dict[str, float]: ...


@dataclass(frozen=True)
class DecodeConfig:
    """Beam width, length cap, automaton mask and tag bias of a decode.

    The default ``bias``, ``BiasVector()``, is 0 for all four tags: moves
    rank on their raw probabilities.
    """

    beam: int = 10
    max_len: int | None = None  # None: 2*len(source)+10
    constrained: bool = False
    bias: BiasVector = BiasVector()

    def __post_init__(self) -> None:
        if not isinstance(self.bias, BiasVector):
            raise ValueError(f"bias must be a BiasVector, got {self.bias!r}")
        if self.beam < 1:
            raise ValueError("beam must be >= 1")
        if self.max_len is not None and self.max_len < 1:
            raise ValueError("max_len must be >= 1")


@dataclass(frozen=True)
class Hypothesis:
    """One decoded candidate; ``tagged`` is the repaired sequence."""

    tagged: tuple[str, ...]
    raw: tuple[str, ...]
    # each step's probability, as the scorer gave it: the decode's one record
    # of its steps, which any score is rebuilt from (``KBestRecord``)
    probs: tuple[float, ...]
    selection_score: float
    terminated: bool


_REQUIRED = (*TAG_TOKENS, EOS)  # the entries every distribution holds


def _check_dist(dist: dict[str, float]) -> None:
    for tok in _REQUIRED:
        if tok not in dist:
            raise ValueError(f"scorer distribution missing entry for {tok}")
    total = sum(dist.values())
    # math.isclose(total, 1.0, abs_tol=1e-6): its relative tolerance only
    # matters far from 1, where both reject
    if not abs(total - 1.0) <= 1e-6:
        raise ValueError(f"scorer distribution sums to {total!r}, not 1")


# ---------------------------------------------------------------------------
# constrained-mode tag automaton


class _Auto(NamedTuple):
    mode: str = "plain"  # a mode of diff_codec.NEXT_MODE
    consumed: int = 0
    span_len: int = 0

    def advance(self, token: str) -> "_Auto":
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
        The set depends on the source, on ``dist`` only inside an insertion,
        and otherwise on the legality class ``(mode, consumed, span_len > 0,
        spare)``, with ``spare`` as computed below clamped to [-2, 2]: only
        the thresholds -1, 0, 1 and 2 are read.  The beam loop calls this once
        per row and legality class (``_legal_moves``), the greedy walk once
        per step.
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


# A beam item, as a plain tuple: (raw, state, automaton, selection, probs),
# with state None once the item has taken the end token.  A NamedTuple
# costs a Python-level constructor call per item.
_Beam = tuple[tuple[str, ...], object, _Auto, float, tuple[float, ...]]


def _biased(p: float, token: str, offsets: dict[str, float]) -> float:
    """``p`` plus the offset of ``token``: its ranking value under ``offsets``.

    Only the tag tokens have an offset, and this is the one place one is
    applied.  The decoder ranks moves on this value and adds its
    ``_safe_log`` to a selection score; ``KBestRecord`` re-scores tag steps
    with that log from the same ``p``, so a record re-scored at the bias it
    was decoded with gives the decoder's selection score.  The log is taken
    apart so the greedy walk takes it only for the move it keeps.
    """
    return p + offsets.get(token, 0.0)


# A move as the decoder reads it: ``(-ranking value, token, p, log of ranking
# value)``.  The token decides a tie, so the last two fields are never compared.
_Move = tuple[float, str, float, float]
_NO_MOVE: _Move = (math.inf, "", 0.0, 0.0)  # ranks below every move


def _ranked(pairs: Iterable[tuple[str, float]], offsets: dict[str, float]) -> list[_Move]:
    """Each ``(token, p)`` of ``pairs`` as a move under ``offsets``, in move order.

    Move order is the natural order of moves, best first: the highest raw
    ranking value, ties to the smaller token.  Ranking on the raw value, not
    its log, matters: two distinct probabilities can share a log.
    """
    moves = []
    for t, p in pairs:
        value = _biased(p, t, offsets)
        moves.append((-value, t, p, _safe_log(value)))
    moves.sort()
    return moves


class _Table:
    """Every scored state of one source, and every step taken from one.

    A row holds what the decoder reads of a state, as the tuple
    ``(dist, plain, tags, nexts)``: its distribution, checked once; its
    positive moves, split in two halves; and the states its steps reach,
    by token.  The bias-free half ``plain`` is the non-tag moves, ranked
    and logged once: an offset never touches them, since ``p + 0.0 == p``.
    The tag half ``tags`` is the tag moves as ``(token, p)``, neither
    ranked nor logged: a call ranks them under its own offsets, and logs
    each one (``_ranked``) or, at beam 1, only the one that wins.  A
    row with no positive tag move needs no sort and no log after it is
    made.  Rows are plain tuples that never point at each other.  The
    halves are tuples too: kept as lists, they made the cyclic garbage
    collector run about three times as often in a beam decode.  A beam
    decode merges and masks a row's halves once per legality class of the
    automaton (``_legal_moves``), not once per item, and keeps the result
    for that call only, since a shared table outlives it.
    """

    def __init__(self, scorer: ScorerContract) -> None:
        self.scorer = scorer
        self.rows: dict = {}  # state -> (dist, plain, tags, nexts)

    def row(self, state) -> tuple:
        row = self.rows.get(state)
        if row is None:
            dist = self.scorer.dist(state)
            _check_dist(dist)
            plain, tags = [], []
            for t, p in dist.items():
                if p > 0.0:
                    if t in TAG_TOKENS:
                        tags.append((t, p))
                    else:
                        plain.append((t, p))
            row = self.rows[state] = (dist, tuple(_ranked(plain, {})), tuple(tags), {})
        return row

    def step(self, state, nexts: dict, token: str):
        """The state ``token`` steps to from ``state``, whose row's ``nexts`` is given."""
        if token not in nexts:
            nexts[token] = self.scorer.step(state, token)
        return nexts[token]


def beam_decode(scorer: ScorerContract, source: TokenSeq, cfg: DecodeConfig) -> list[Hypothesis]:
    """K-best beam search; every hypothesis is repaired before being returned.

    Under ``constrained`` a terminated hypothesis is valid as decoded: the
    automaton offers the end token only where the raw sequence validates,
    so it is its own repair and is not passed through ``repair``.

    Candidates rank on their probability plus the tag offset of cfg.bias
    (see ``_ranked``).  Ties break on the token string per step and on the
    token tuple in the final order, so decoding is fully deterministic for a
    deterministic scorer.

    Each distinct scorer state is scored and checked once, and each step
    taken once, in a ``_Table`` made for this call; ``scorer`` may itself
    be a table, which ``grid_search_tune`` hands in to share one across a
    dev sentence's grid.  A row's non-tag moves come ranked and logged, so
    an item's moves are the head of that half merged with its tag moves
    under the offsets.  The beam loop makes that list once per row and,
    under ``constrained``, per legality class (see ``_Auto.allowed``), and
    keeps it for the call; items that share both share the list.  It also
    advances each automaton once per token.  At beam 1 the search is a
    greedy walk (``_greedy_decode``) that returns exactly what the beam loop
    would.  A source holding a tag or domain token raises ``ValueError``.
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
    offsets = cfg.bias.as_map()
    table = scorer if isinstance(scorer, _Table) else _Table(scorer)
    if beam == 1:
        return [_greedy_decode(table, source, max_len, constrained, offsets)]

    rows = table.rows
    # (row identity, legality class) -> the row's first ``beam`` legal moves;
    # the rows outlive the call, so an identity is never reused within it
    ranked: dict = {}
    advanced: dict[tuple[_Auto, str], _Auto] = {}  # (automaton, token) -> its advance
    live: list[_Beam] = [((), table.scorer.start(source), _Auto(), 0.0, ())]
    done: list[_Beam] = []
    for step_no in range(max_len):
        budget = max_len - step_no
        spare_base = budget - 2 - len(source)  # see ``_Auto.allowed``
        # (-selection, raw, token, parent, p, the parent's row's nexts)
        pool: list[tuple[float, tuple[str, ...], str, _Beam, float, dict]] = []
        for item in live:
            raw, state, auto, selection, _ = item
            # a hit skips the method call: this line runs once per item
            row = rows.get(state) or table.row(state)
            if constrained:
                mode, consumed, span_len = auto
                spare = spare_base + consumed - (mode != "plain")
                spare = -2 if spare < -2 else 2 if spare > 2 else spare
                key = (id(row), mode, consumed, span_len > 0, spare)
            else:
                key = id(row)
            moves = ranked.get(key)
            if moves is None:
                moves = ranked[key] = _legal_moves(
                    row, auto if constrained else None, source, budget, offsets, beam
                )
            nexts = row[3]
            for _, tok, p, log_rank in moves:
                pool.append((-(selection + log_rank), raw, tok, item, p, nexts))
        if not pool:
            break
        # Live raws are distinct and all of length step_no, so (raw, tok)
        # orders as raw + (tok,), and no comparison reaches the parent.
        pool.sort()
        live = []
        for neg_sel, raw, tok, item, p, nexts in pool[:beam]:
            _, state, auto, _, probs = item
            probs += (p,)
            if tok == EOS:
                done.append((raw, None, auto, -neg_sel, probs))
                continue
            if constrained:
                parent, auto = auto, advanced.get((auto, tok))
                if auto is None:
                    auto = advanced[parent, tok] = parent.advance(tok)
            state = nexts[tok] if tok in nexts else table.step(state, nexts, tok)
            live.append((raw + (tok,), state, auto, -neg_sel, probs))
        if len(done) >= beam or not live:
            break
    # Unfinished items join the ranking: those out of budget, and also those
    # still live when ``beam`` items had finished, which can then outrank a
    # finished one.
    done.extend(live)
    done.sort(key=lambda b: (-b[3], b[0]))  # by selection, ties to the raw
    return [_hypothesis(item, source, constrained) for item in done[:beam]]


def _hypothesis(item: _Beam, source: TokenSeq, constrained: bool) -> Hypothesis:
    """A final beam item as a candidate: repaired, unless a terminated constrained raw."""
    raw, state, _, selection, probs = item
    terminated = state is None
    tagged = raw if constrained and terminated else tuple(repair(list(raw), source))
    return Hypothesis(tagged, raw, probs, selection, terminated)


def _masked(
    row: tuple, auto: _Auto, source: TokenSeq, budget: int, offsets: dict[str, float]
) -> tuple[Sequence[_Move], Sequence[tuple[str, float]]]:
    """A row's two halves cut to the moves ``auto`` permits with ``budget`` steps left.

    When it permits no positive move, the plain half is its zero-probability
    ones, ranked under ``offsets``; both halves are empty only when it
    permits none.
    """
    dist, plain, tags, _ = row
    mask = auto.allowed(source, dist, budget)
    plain = [m for m in plain if m[1] in mask]
    tags = [m for m in tags if m[0] in mask]
    if not (plain or tags):
        plain = _ranked(((t, dist.get(t, 0.0)) for t in mask), offsets)
    return plain, tags


def _legal_moves(
    row: tuple,
    auto: _Auto | None,
    source: TokenSeq,
    budget: int,
    offsets: dict[str, float],
    beam: int,
) -> Sequence[_Move]:
    """A row's first ``beam`` moves in move order; those ``auto`` permits, unless it is None."""
    if auto is None:
        _, plain, tags, _ = row
    else:
        plain, tags = _masked(row, auto, source, budget, offsets)
    if tags:
        plain = sorted(chain(plain[:beam], _ranked(tags, offsets)))
    return plain[:beam]


def _greedy_decode(
    table: _Table,
    source: TokenSeq,
    max_len: int,
    constrained: bool,
    offsets: dict[str, float],
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
    probs: list[float] = []
    selection = 0.0
    rows = table.rows
    for step_no in range(max_len):
        # a hit skips the method call: this line runs once per step
        row = rows.get(state) or table.row(state)
        _, plain, tags, nexts = row
        if constrained:
            plain, tags = _masked(row, auto, source, max_len - step_no, offsets)
            if not (plain or tags):
                break
        # the head of the bias-free half against each tag move, in move order
        neg_rank, tok, p, log_rank = plain[0] if plain else _NO_MOVE
        for tag, tag_p in tags:
            tag_rank = -_biased(tag_p, tag, offsets)
            if tag_rank < neg_rank or (tag_rank == neg_rank and tag < tok):
                neg_rank, tok, p, log_rank = tag_rank, tag, tag_p, None
        if log_rank is None:  # a tag won: log only its ranking value
            log_rank = _safe_log(-neg_rank)
        selection += log_rank
        probs.append(p)
        if tok == EOS:
            state = None  # terminated, as a beam item marks it
            break
        raw.append(tok)
        if constrained:
            auto = auto.advance(tok)
        state = nexts[tok] if tok in nexts else table.step(state, nexts, tok)
    return _hypothesis((tuple(raw), state, auto, selection, tuple(probs)), source, constrained)


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
    return max(range(len(prfs)), key=lambda i: prfs[i].f_beta)  # ties: the first


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

    ``probs`` holds the chosen token's probability per step, as the scorer
    gave it; when ``eos`` is true a final entry for the end-of-sequence step
    is included, so ``len(probs) == len(tokens) + 1``.  These are all that
    re-scoring reads: a record re-scored at the bias it was decoded with
    gives the decoder's selection score, float for float.

    On its first re-scoring a record keeps each step's unbiased log, taken
    from that call's ``_StepLogs``, and the positions of its tag steps; the
    cache is not a field, so equality ignores it.  A later re-scoring
    overwrites only the tag steps: any other step adds 0.0 to its
    probability, which leaves its log as kept.
    """

    sid: int
    tokens: tuple[str, ...]
    probs: tuple[float, ...]
    eos: bool

    def __post_init__(self) -> None:
        steps = len(self.tokens) + (1 if self.eos else 0)
        if len(self.probs) != steps:
            raise ValueError(f"expected {steps} probability entries, got {len(self.probs)}")

    def _score(self, logs: "_StepLogs") -> float:
        """The selection score under the offsets ``logs`` was made for."""
        try:
            unbiased, tags = self.__dict__["_unbiased"]
        except KeyError:
            unbiased = tuple(map(logs.plain.__getitem__, self.probs))
            tags = tuple(i for i, t in enumerate(self.tokens) if t in TAG_TOKENS)
            self.__dict__["_unbiased"] = unbiased, tags
        if tags:
            unbiased = list(unbiased)
            tag_logs, tokens, probs = logs.tag, self.tokens, self.probs
            for i in tags:
                unbiased[i] = tag_logs[tokens[i], probs[i]]
        # added left to right, as the decoder adds them: CPython 3.12 made
        # sum() of floats compensated, which would move the last bit
        total = 0.0
        for v in unbiased:
            total += v
        return total

    def selection_score(self, bias: BiasVector) -> float:
        """The selection score under ``bias``.

        ``BiasVector()`` is 0 for all four tags: the sum of the raw steps' logs.
        """
        return self._score(_StepLogs(bias.as_map()))


class _StepLogs:
    """The log of each step one re-scoring call reads, made once per distinct step.

    ``plain`` maps a probability ``p`` to its log; ``tag`` maps a tag step
    ``(token, p)`` to the log of ``p`` plus the token's offset (``_biased``).
    A record keeps the floats of ``plain`` it was first scored with, so the
    records of a dump share one float per distinct probability: a fresh
    float per step would take 24 bytes more each.
    """

    def __init__(self, offsets: dict[str, float]) -> None:
        self.plain = _Shared(_safe_log)
        self.tag = _Shared(lambda step: _safe_log(_biased(step[1], step[0], offsets)))


def record_from_hypothesis(sid: int, hyp: Hypothesis) -> KBestRecord:
    return KBestRecord(sid=sid, tokens=hyp.raw, probs=hyp.probs, eos=hyp.terminated)


def write_kbest(records: Iterable[KBestRecord], path: str) -> None:
    encode = json.JSONEncoder(ensure_ascii=False).encode  # json.dumps makes one per call
    with atomic_write(path) as (fh,):
        for rec in records:
            obj = {
                "id": rec.sid,
                "tokens": list(rec.tokens),
                "probs": list(rec.probs),
                "eos": rec.eos,
            }
            fh.write(encode(obj) + "\n")


def read_kbest(path: str) -> list[KBestRecord]:
    """Read a dump written by ``write_kbest``; a malformed record raises ValueError.

    ``id`` must be a JSON integer, ``eos`` a JSON boolean, ``tokens`` a list
    of strings, and every probability a number in [0, 1].  Any other key is
    ignored, such as the per-step tag probabilities that older dumps carry.

    The records of one call share their values: one object per distinct
    token and number text, each made and checked once.  A dump of beam-10
    decodes repeats these heavily (about 300 tokens and 4,300 numbers in
    100,000 steps), so its records take a quarter of the memory that fresh
    objects would.
    """
    reader = _KBestReader(path)
    lines = enumerate(iter_lines(path), 1)
    return [reader.record(line, n) for n, line in lines if line.strip()]


_NUMBER_TYPES = frozenset({int, float})  # JSON numbers; bool and str are not


class _KBestReader:
    """Parses the lines of one dump into records that share their values."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.decode = json.JSONDecoder(parse_float=_Shared(float).__getitem__).decode
        self.words = _Shared(str)
        self.checked: set[int | float] = set()  # the numbers already found in [0, 1]

    def record(self, line: str, lineno: int) -> KBestRecord:
        # True == 1 and both hash alike, so a boolean would pass as a number
        # already checked; a line with a boolean besides eos has every value
        # checked.
        shareable = line.count("true") + line.count("false") == 1
        try:
            obj = self.decode(line)
            sid, eos, tokens, numbers = obj["id"], obj["eos"], obj["tokens"], obj["probs"]
            probs = tuple(map(float, numbers))
            if type(sid) is not int:
                raise ValueError(f"id must be an integer, got {sid!r}")
            if type(eos) is not bool:
                raise ValueError(f"eos must be true or false, got {eos!r}")
            if type(tokens) is not list or not all(type(t) is str for t in tokens):
                raise ValueError(f"tokens must be a list of strings, got {tokens!r}")
            if not (shareable and self.checked.issuperset(numbers)):
                if not all(type(p) in _NUMBER_TYPES and 0.0 <= p <= 1.0 for p in numbers):
                    raise ValueError("probabilities must be numbers in [0, 1]")
                self.checked.update(numbers)
            return KBestRecord(sid, tuple(map(self.words.__getitem__, tokens)), probs, eos)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{self.path}:{lineno}: bad k-best record: {exc}") from exc


def rerank_kbest(records: list[KBestRecord], bias: BiasVector) -> list[KBestRecord]:
    """Reorder each source id's hypotheses by selection score under ``bias``.

    Ids keep their first-seen order, and hypotheses of an id equal in
    score and tokens their input order.  ``BiasVector()``, 0 for all four
    tags, ranks on the raw probabilities.  The call takes each distinct
    step's log once (``_StepLogs``), for all its records.
    """
    logs = _StepLogs(bias.as_map())
    groups: dict[int, list[KBestRecord]] = {}
    for rec in records:
        groups.setdefault(rec.sid, []).append(rec)
    out: list[KBestRecord] = []
    for group in groups.values():
        out.extend(sorted(group, key=lambda r: (-r._score(logs), r.tokens)))
    return out
