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
from typing import Callable, Iterable, NamedTuple, Protocol

from .diff_codec import repair, strip_to_target
from .metrics import PRF, DEFAULT_BETA, GoldAnnotation, m2_maxmatch
from .text_norm import (
    DEL_CLOSE,
    DEL_OPEN,
    INS_CLOSE,
    INS_OPEN,
    TAG_TOKENS,
    TokenSeq,
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

    States must be hashable, and ``dist(state)`` must depend on the state
    alone: ``beam_decode`` calls ``dist`` once per distinct state and reuses
    the result for every beam item that reaches an equal state.  That memo
    lasts for one ``beam_decode`` call.
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


def apply_bias(dist: dict[str, float], bias: BiasVector) -> dict[str, float]:
    """Ranking map: probability plus the tag's offset; others unchanged."""
    offsets = bias.as_map()
    return {tok: p + offsets.get(tok, 0.0) for tok, p in dist.items()}


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

_OUT, _DEL, _INS = 0, 1, 2


class _Auto(NamedTuple):
    mode: int = _OUT
    consumed: int = 0
    span_len: int = 0

    def needed(self, source_len: int) -> int:
        # steps still required to reach a valid end: close + copies + EOS
        return (1 if self.mode != _OUT else 0) + (source_len - self.consumed) + 1

    def advance(self, source: TokenSeq, token: str) -> "_Auto":
        if token == DEL_OPEN:
            return _Auto(_DEL, self.consumed, 0)
        if token == INS_OPEN:
            return _Auto(_INS, self.consumed, 0)
        if token in (DEL_CLOSE, INS_CLOSE):
            return _Auto(_OUT, self.consumed, 0)
        if self.mode == _INS:
            return _Auto(_INS, self.consumed, self.span_len + 1)
        return _Auto(self.mode, self.consumed + 1, self.span_len + 1)

    def allowed(self, source: TokenSeq, dist: dict[str, float], budget: int) -> set[str]:
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


def _ranked_moves(
    candidates: list[tuple[str, float]], offsets: dict[str, float] | None
) -> list[tuple[float, str, float]]:
    """``(log of ranking value, token, p)`` best first; ties break on the token."""
    if offsets is not None:
        ranked = [(p + offsets.get(t, 0.0), t, p) for t, p in candidates]
    else:
        ranked = [(p, t, p) for t, p in candidates]
    ranked.sort(key=lambda x: (-x[0], x[1]))
    return [(_safe_log(r), t, p) for r, t, p in ranked]


def beam_decode(scorer: ScorerContract, source: TokenSeq, cfg: DecodeConfig) -> list[Hypothesis]:
    """K-best beam search; every hypothesis is repaired before being returned.

    Candidate ranking uses ``apply_bias`` when cfg.bias is set.  Ties break
    on the token string per step and on the token tuple in the final order,
    so decoding is fully deterministic for a deterministic scorer.

    Each distinct scorer state is scored and checked once per call: its
    distribution, tag probabilities and ranked positive-probability moves
    are kept in a dict that is dropped when the call returns.
    """
    if not source:
        raise ValueError("source must be nonempty")
    max_len = cfg.max_len if cfg.max_len is not None else 2 * len(source) + 10
    constrained = cfg.constrained
    if constrained and max_len < len(source) + 1:
        raise ValueError(
            f"constrained decode needs max_len >= {len(source) + 1} to emit the source"
        )
    beam = cfg.beam
    offsets = cfg.bias.as_map() if cfg.bias is not None else None

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
                tagp = (
                    dist.get(DEL_OPEN, 0.0),
                    dist.get(DEL_CLOSE, 0.0),
                    dist.get(INS_OPEN, 0.0),
                    dist.get(INS_CLOSE, 0.0),
                )
                positive = [(t, p) for t, p in dist.items() if p > 0.0]
                entry = scored[item.state] = (dist, tagp, _ranked_moves(positive, offsets))
            dist, tagp, moves = entry
            if constrained:
                mask = item.auto.allowed(source, dist, budget)
                moves = [m for m in moves if m[1] in mask]
                if not moves:  # only zero-probability moves are legal
                    moves = _ranked_moves([(t, dist.get(t, 0.0)) for t in sorted(mask)], offsets)
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
    or caching; by default each grid point 1-best-decodes dev, strips, and
    MaxMatch-scores against gold with pooled counts.
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
    with open(path, "w", encoding="utf-8") as fh:
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
    records: list[KBestRecord] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                rec = KBestRecord(
                    sid=int(obj["id"]),
                    tokens=tuple(obj["tokens"]),
                    probs=tuple(float(p) for p in obj["probs"]),
                    tag_probs=tuple(tuple(float(x) for x in t) for t in obj["tag_probs"]),
                    eos=bool(obj["eos"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad k-best record: {exc}") from exc
            expect = len(rec.tokens) + (1 if rec.eos else 0)
            if len(rec.probs) != expect or len(rec.tag_probs) != expect:
                raise ValueError(
                    f"{path}:{lineno}: expected {expect} probability entries"
                )
            records.append(rec)
    return records


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
