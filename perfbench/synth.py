"""Seeded input generator for the benchmark, standard library only.

Nothing here imports ``gecdiff``: two commits compared on one seed get
byte-identical inputs, whatever either commit changed in the package.

The language is chain structured.  About 300 content words each have four
weighted successors, so a trigram model predicts copies well.  Targets add
``the``/``a`` before some words and ``,`` after others.  Sources carry three
kinds of error: a planted one-token replacement (a word swapped for its
confusable), a missing ``the``/``a``/``,`` (an insertion edit), and a
duplicated or spurious word (a deletion edit).
"""

from __future__ import annotations

import difflib
import hashlib
import os
import random

N_WORDS = 300
N_CONFUSABLE = 40
SUCCESSOR_WEIGHTS = (0.4, 0.3, 0.2, 0.1)
SPURIOUS = ("the", "a", ",")
DUPLICATE_SHARE = 0.3
BOGUS = "zz-bogus"  # never in any source: injected to corrupt tagged lines

DEL_OPEN, DEL_CLOSE, INS_OPEN, INS_CLOSE = "<del>", "</del>", "<ins>", "</ins>"


class Language:
    """The word chain, the confusion pairs and the function-word sites."""

    def __init__(self, rng: random.Random):
        self.words = [f"w{i:03d}" for i in range(N_WORDS)]
        self.succ = {w: rng.sample(self.words, 4) for w in self.words}
        # target word -> the confusable a writer puts in its place
        self.confusion = {
            self.words[2 * k + 1]: self.words[2 * k] for k in range(N_CONFUSABLE)
        }
        self.article = {
            w: ("the" if rng.random() < 0.6 else "a")
            for i, w in enumerate(self.words)
            if i % 6 == 0
        }
        self.comma_after = frozenset(w for i, w in enumerate(self.words) if i % 9 == 4)
        # sentences open with one of a few words, as real sentences do
        self.starts = rng.sample(self.words, 12)

    def target(self, rng: random.Random) -> list[str]:
        """One clean sentence: a chain walk dressed with function words."""
        length = rng.randint(6, 16)
        chain = [rng.choice(self.starts)]
        while len(chain) < length:
            chain.append(rng.choices(self.succ[chain[-1]], SUCCESSOR_WEIGHTS)[0])
        out: list[str] = []
        for n, w in enumerate(chain):
            if w in self.article:
                out.append(self.article[w])
            out.append(w)
            if w in self.comma_after and n + 1 < len(chain):
                out.append(",")
        return out

    def corrupt(self, tgt: list[str], rng: random.Random) -> list[str]:
        """A source for ``tgt`` with zero to two planted errors."""
        src = list(tgt)
        r = rng.random()
        n_err = 0 if r < 0.45 else (1 if r < 0.9 else 2)
        for _ in range(n_err):
            kind = rng.random()
            if kind < 0.4:  # replacement
                sites = [i for i, w in enumerate(src) if w in self.confusion]
                if sites:
                    i = rng.choice(sites)
                    src[i] = self.confusion[src[i]]
            elif kind < 0.75:  # missing function word: an insertion edit
                sites = [i for i, w in enumerate(src) if w in ("the", "a", ",")]
                if sites:
                    del src[rng.choice(sites)]
            else:  # duplicated or spurious word: a deletion edit
                i = rng.randrange(len(src))
                if rng.random() < DUPLICATE_SHARE:
                    src.insert(i, src[i])
                else:
                    src.insert(i, rng.choice(SPURIOUS))
        return src

    def pairs(self, rng: random.Random, n: int) -> list[tuple[list[str], list[str]]]:
        out = []
        for _ in range(n):
            tgt = self.target(rng)
            out.append((self.corrupt(tgt, rng), tgt))
        return out


def opcodes(src: list[str], tgt: list[str]):
    return difflib.SequenceMatcher(a=src, b=tgt, autojunk=False).get_opcodes()


def tag(src: list[str], hyp: list[str]) -> list[str]:
    """Inline-tagged form of ``hyp`` over ``src``: del then ins per change."""
    out: list[str] = []
    for op, i1, i2, j1, j2 in opcodes(src, hyp):
        if op == "equal":
            out.extend(src[i1:i2])
            continue
        if i2 > i1:
            out += [DEL_OPEN, *src[i1:i2], DEL_CLOSE]
        if j2 > j1:
            out += [INS_OPEN, *hyp[j1:j2], INS_CLOSE]
    return out


def m2_block(src: list[str], tgt: list[str], extra: list[list[str]] = ()) -> str:
    """One M2 block: annotator 0 from ``tgt``, then one per ``extra`` target."""
    lines = ["S " + " ".join(src)]
    for annotator, ref in enumerate([tgt, *extra]):
        edits = [o for o in opcodes(src, ref) if o[0] != "equal"]
        if not edits:
            lines.append(f"A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||{annotator}")
        for op, i1, i2, j1, j2 in edits:
            repl = " ".join(ref[j1:j2]) or "-NONE-"
            kind = {"replace": "R", "delete": "U", "insert": "M"}[op]
            lines.append(f"A {i1} {i2}|||{kind}|||{repl}|||REQUIRED|||-NONE-|||{annotator}")
    return "\n".join(lines) + "\n\n"


def partial_correction(src, tgt, rng: random.Random, keep: float, noise: float):
    """Apply each gold change with probability ``keep``; add a wrong edit with ``noise``."""
    hyp: list[str] = []
    for op, i1, i2, j1, j2 in opcodes(src, tgt):
        if op == "equal" or rng.random() >= keep:
            hyp.extend(src[i1:i2])
        else:
            hyp.extend(tgt[j1:j2])
    if hyp and rng.random() < noise:
        i = rng.randrange(len(hyp))
        hyp[i] = f"w{rng.randrange(N_WORDS):03d}"
    return hyp


def corrupt_tagged(tagged: list[str], rng: random.Random) -> list[str]:
    """Break a valid tagged line so that it cannot validate, whatever its source."""
    out = list(tagged)
    plain = _plain_positions(out)
    kind = rng.randrange(4)
    closers = [i for i, t in enumerate(out) if t in (DEL_CLOSE, INS_CLOSE)]
    if kind == 0 and closers:  # drop a closer: a span runs on
        del out[rng.choice(closers)]
    elif kind == 1 and plain:  # drop a copied source token
        del out[rng.choice(plain)]
    elif kind == 2:  # a stray closer outside any span
        out.insert(rng.choice(plain + [len(out)]), INS_CLOSE)
    else:  # a token from no source, outside any span
        out.insert(rng.choice(plain + [len(out)]), BOGUS)
    return out


def _plain_positions(tagged: list[str]) -> list[int]:
    mode, out = None, []
    for i, t in enumerate(tagged):
        if t in (DEL_OPEN, INS_OPEN):
            mode = t
        elif t in (DEL_CLOSE, INS_CLOSE):
            mode = None
        elif mode is None:
            out.append(i)
    return out


def long_rewrite(rng: random.Random, length: int, keep: float):
    """A source, a target with every token changed, and a correction that
    changes every token too, rightly with probability ``keep``.

    No hypothesis token equals its source token, so every span of the
    alignment is a candidate M2 edit: the lattice has n(n+1)/2 arcs.
    """
    src = [f"w{rng.randrange(N_WORDS):03d}" for _ in range(length)]
    tgt = ["r" + w for w in src]  # no target token occurs in any source
    hyp = [t if rng.random() < keep else "x" + s for s, t in zip(src, tgt)]
    return src, tgt, hyp


# ---------------------------------------------------------------------------
# files


def _write(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(" ".join(toks) + "\n" for toks in lines))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


LANGUAGE_SEED = "gecdiff-chain-language"
N_TRAIN = 2000
N_DEV = 300
N_DECODE = 400
N_SCORE = 2000
TAIL_LENGTHS = (80, 100, 120, 140, 160)


def write_train(lang: Language, rng: random.Random, root: str) -> dict[str, str]:
    pairs = lang.pairs(rng, N_TRAIN)
    files = {"train.src": [s for s, _ in pairs], "train.tgt": [t for _, t in pairs]}
    for name, lines in files.items():
        _write(os.path.join(root, name), lines)
    return {name: os.path.join(root, name) for name in files}


def generate(workload: str, seed: int, root: str) -> dict[str, str]:
    """Write the inputs of ``workload`` for ``seed`` under ``root``; return name -> path."""
    # one fixed language; the seed draws the sentences
    lang = Language(random.Random(LANGUAGE_SEED))
    rng = random.Random(f"{workload}:{seed}")
    paths = write_train(lang, rng, root)

    def put(name: str, lines) -> None:
        paths[name] = os.path.join(root, name)
        _write(paths[name], lines)

    if workload == "tune-greedy":
        dev = lang.pairs(rng, N_DEV)
        put("dev.src", [s for s, _ in dev])
        put("dev.tgt", [t for _, t in dev])
    elif workload == "decode-kbest":
        put("test.src", [s for s, _ in lang.pairs(rng, N_DECODE)])
    elif workload == "score-longtail":
        srcs, refs, hyps, golds, tagged, corrupted = [], [], [], [], [], []
        for src, tgt in lang.pairs(rng, N_SCORE):
            hyp = partial_correction(src, tgt, rng, keep=0.7, noise=0.1)
            # a second annotator on one sentence in ten, who skips one change
            extra = []
            if rng.random() < 0.1:
                extra.append(partial_correction(src, tgt, rng, keep=0.5, noise=0.0))
            srcs.append(src)
            refs.append(tgt)
            hyps.append(hyp)
            golds.append(m2_block(src, tgt, extra))
        for length in TAIL_LENGTHS:
            src, tgt, hyp = long_rewrite(rng, length, keep=0.85)
            srcs.append(src)
            refs.append(tgt)
            hyps.append(hyp)
            golds.append(m2_block(src, tgt))
        for src, hyp in zip(srcs, hyps):
            line = tag(src, hyp)
            bad = rng.random() < 0.2
            tagged.append(corrupt_tagged(line, rng) if bad else line)
            corrupted.append(bad)
        put("score.src", srcs)
        put("score.ref", refs)
        put("score.hyp_a", hyps)
        put("score.hyp_b", srcs)  # the source copy: a system that changes nothing
        put("score.tagged", tagged)
        paths["score.m2"] = os.path.join(root, "score.m2")
        _write_text(paths["score.m2"], "".join(golds))
        paths["score.corrupted"] = os.path.join(root, "score.corrupted")
        _write_text(paths["score.corrupted"], "".join(f"{int(b)}\n" for b in corrupted))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return paths
