"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload tune-greedy --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/`` beside this directory, and nothing else is.  Inputs are generated
from the seed into a temporary directory under ``.bench_build/`` in the
checkout, which is removed at exit.

``--trace 0`` reports the end-to-end metrics: set-up and one timed pass
repeat, at least three times and then while one more fits in ``--seconds``,
and each time is reported as the median over the run.  ``--trace 1``
alternates untraced and traced iterations (set-up plus one pass) and
reports the per-layer metrics of the traced ones, writing every span to
``.bench_build/trace/<workload>.spans``.  Every pass's outputs
are checked and hashed; outputs that differ between passes are failures.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no caches in the checkout

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
MIN_PASSES = 3


def import_package():
    sys.path.insert(0, SRC)
    try:
        import gecdiff
    except ImportError as exc:
        raise SystemExit(f"error: cannot import gecdiff from {SRC}: {exc}")
    if not os.path.abspath(gecdiff.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: gecdiff imported from {gecdiff.__file__}, not {SRC}")


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def more_time(start: float, seconds: float, iterations: list[float], minimum: int) -> bool:
    """Run another iteration if the minimum is not reached or one more fits in ``seconds``."""
    if len(iterations) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(iterations) <= seconds


class Digests:
    """Output digests of the first pass; later passes must match them."""

    def __init__(self, checks):
        self.checks = checks
        self.first: dict | None = None

    def add(self, digests: dict) -> None:
        if self.first is None:
            self.first = digests
        else:
            self.checks.expect(digests == self.first, f"outputs changed: {digests}")


def timed_run(wl, seconds: float, checks, digests) -> tuple[dict, dict]:
    """Set-up then one pass, repeated: medians span the whole run, not its first seconds."""
    import gecdiff
    from tracer import LatencyProbe, patch, unpatch

    clock = time.perf_counter
    module, name = wl.sentence_fn
    original = getattr(getattr(gecdiff, module), name)
    probe = LatencyProbe()
    setup_s, rates, iterations = [], [], []
    undo = patch(original, probe.wrap(original))
    start = clock()
    try:
        while more_time(start, seconds, iterations, MIN_PASSES):
            t0 = clock()
            wl.setup()
            t1 = clock()
            out, sentences = wl.run()
            t2 = clock()
            setup_s.append(t1 - t0)
            rates.append(sentences / (t2 - t1))
            digests.add(wl.check(out, checks))
            iterations.append(clock() - t0)
    finally:
        unpatch(undo)

    ms = [s * 1000.0 for s in probe.samples]
    values = {
        "setup_s": (statistics.median(setup_s), "s"),
        "sent_per_s": (statistics.median(rates), "1/s"),
        "sent_ms_p50": (percentile(ms, 50), "ms"),
        "sent_ms_p99": (percentile(ms, 99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record = {
        "passes": len(rates),
        "latency_fn": f"{module}.{name}",
        "latency_samples": len(ms),
        "pass_sent_per_s": rates,
        "setup_s_each": setup_s,
    }
    return values, record


def traced_run(wl, workload: str, seconds: float, checks, digests) -> tuple[dict, dict]:
    from layers import LayerTrace

    clock = time.perf_counter
    lt = LayerTrace()
    plain, traced, iterations = [], [], []
    start = clock()
    while more_time(start, seconds, iterations, 1):
        t_iter = clock()
        wl.setup()
        out, _ = wl.run()
        plain.append(clock() - t_iter)
        digests.add(wl.check(out, checks))

        lt.install()
        try:
            t0 = clock()
            wl.setup()
            out, _ = wl.run()
            wall = clock() - t0
        finally:
            lt.uninstall()
        lt.end_iteration(wall)
        traced.append(wall)
        digests.add(wl.check(out, checks))
        iterations.append(clock() - t_iter)

    lt.check(checks)
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
    spans = os.path.join(BUILD, "trace", f"{workload}.spans")
    lt.tracer.dump(spans)
    record = {
        "iterations": len(traced),
        "spans": len(lt.tracer.span_start),
        "spans_file": os.path.relpath(spans, ROOT),
    }
    return lt.metrics(overhead), record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = declared_metrics(bool(args.trace))
    import_package()
    import synth
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(BUILD, "runs"))
    try:
        paths = synth.generate(args.workload, args.seed, tmp)
        inputs = {name: synth.sha256_file(path) for name, path in sorted(paths.items())}
        wl = WORKLOADS[args.workload](paths, tmp)
        checks = Checks()
        digests = Digests(checks)
        if args.trace:
            values, record = traced_run(wl, args.workload, args.seconds, checks, digests)
        else:
            values, record = timed_run(wl, args.seconds, checks, digests)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    reported = {name: unit for name, (_, unit) in values.items()}
    if reported != declared:
        missing = sorted(set(declared) - set(reported))
        extra = sorted(set(reported) - set(declared))
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}, or units differ")

    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        fail_frac=checks.failed / checks.attempted,
        failures=checks.messages,
        inputs_sha256=inputs,
        outputs_sha256=digests.first,
    )
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
