"""Wall-clock benchmark of the repository's layers, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 25 --trace 0

A run repeats rounds of one workload for ``--seconds`` seconds after one
untimed oracle round.  Each round sets up from the seed (dataset
generation, stream build, bulk load), runs the ops, then checks the
outputs outside both timings.  ``--trace 0`` reports the end-to-end
metrics over the rounds; ``--trace 1`` replays the workload's stream
through every layer (the layer ledger), then alternates untraced and
traced rounds in the time left, and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is
one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench_state"

#: A seed never used while the benchmark or a change was tuned; later
#: performance claims must also hold on it.
HELD_OUT_SEED = 9973
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2

#: Metric names and units, as declared in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Workload figures printed (not gated) next to the end-to-end metrics.
PRINTED = {
    "alex.lookup_ops_per_s": "1/s", "btree.lookup_ops_per_s": "1/s",
    "alex.insert_ops_per_s": "1/s", "btree.insert_ops_per_s": "1/s",
    "alex.balanced_ops_per_s": "1/s", "rebuild_s": "s",
}

clock = time.perf_counter


def parse_args(argv: List[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def code_hash() -> str:
    """Digest of the program and benchmark sources: deterministic
    counts are compared only between runs of identical code."""
    digest = hashlib.sha256()
    for base in (SRC, BENCH):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_determinism(workload: str, seed: int,
                      counts: Dict[str, float]) -> List[str]:
    """Compare ``counts`` with earlier runs of the same code and seed,
    then record them; returns the names that differ."""
    STATE.mkdir(exist_ok=True)
    path = STATE / f"counts-{code_hash()}-{workload}-{seed}.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    differ = [k for k, v in counts.items() if k in seen and seen[k] != v]
    seen.update(counts)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    tmp.replace(path)
    return differ


class Tally:
    """Attempted and failed ops, plus the first round's counts that
    every later round must repeat."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.counts: Dict[str, float] = {}
        self.notes: List[str] = []

    def add(self, rnd, failures: int) -> None:
        self.attempted += rnd.ops
        self.failed += failures
        if not self.counts:
            self.counts = dict(rnd.counts)
        elif rnd.counts != self.counts:
            self.failed += rnd.ops
            self.notes.append(f"round counts differ: {rnd.counts} "
                              f"!= {self.counts}")


class Deadline:
    """Round budget: another round starts only if one more round as long
    as the longest so far still ends within ``seconds``."""

    def __init__(self, seconds: float) -> None:
        self.last = clock()
        self.end = self.last + seconds
        self.longest = 0.0

    def lap(self) -> None:
        now = clock()
        self.longest = max(self.longest, now - self.last)
        self.last = now

    def room(self) -> bool:
        return clock() + self.longest <= self.end


def one_round(scenario, seed: int, tracer):
    # Collect the previous round's garbage outside both timings, so no
    # collection of it lands inside this round's set-up or ops.
    gc.collect()
    t0 = clock()
    state = scenario.setup(seed, tracer)
    setup_s = clock() - t0
    gc.collect()
    rnd = scenario.run(state)
    return state, rnd, setup_s


def throughput(rounds) -> float:
    """Ops per second over all rounds' timed ops phases together."""
    return sum(r.ops for r in rounds) / sum(r.seconds for r in rounds)


def best_throughput(rounds) -> float:
    """Ops per second with each stretch of ops timed at its fastest
    over the rounds: every round replays the same stretches, and a
    stretch is only ever slowed, never sped up, by other load on the
    host."""
    lengths = {len(r.chunks) for r in rounds}
    if len(lengths) != 1:
        raise RuntimeError(f"rounds timed different stretches: {lengths}")
    best = sum(min(times) for times in zip(*(r.chunks for r in rounds)))
    return rounds[0].ops / best


def pooled(rounds, kind: str) -> List[float]:
    return [x for rnd in rounds for x in rnd.samples.get(kind, ())]


def untraced(scenario, args, tally: Tally) -> Dict[str, float]:
    from tracer import NullTracer
    null = NullTracer()
    rounds, setups = [], []
    deadline = Deadline(args.seconds)
    while len(rounds) < MIN_ROUNDS or deadline.room():
        state, rnd, setup_s = one_round(scenario, args.seed, null)
        tally.add(rnd, scenario.verify(state, rnd))
        rounds.append(rnd)
        setups.append(setup_s)
        del state
        deadline.lap()
    metrics = {
        "ops_per_s": best_throughput(rounds),
        "setup_s": median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"  rounds={len(rounds)}, ops/s per round: "
          + " ".join(f"{r.ops_per_s:.0f}" for r in rounds)
          + f"; all rounds together {throughput(rounds):.0f}")
    printed = {name: median(r.figures[name] for r in rounds)
               for name in PRINTED if name in rounds[0].figures}
    lookups, writes = pooled(rounds, "lookup"), pooled(rounds, "write")
    if lookups:
        from ledger import quantile
        printed.update({
            "lookup_p50_us": quantile(lookups, 0.50) * 1e6,
            "lookup_p99_us": quantile(lookups, 0.99) * 1e6,
            "write_p50_us": quantile(writes, 0.50) * 1e6,
        })
        info = {"write_p99_us": quantile(writes, 0.99) * 1e6,
                "lookup_p999_us": quantile(lookups, 0.999) * 1e6,
                "lookup_samples": len(lookups),
                "write_samples": len(writes)}
        print("  info (not gated): " + ", ".join(
            f"{k}={v:.6g}" for k, v in info.items()))
    for name, value in printed.items():
        unit = PRINTED.get(name, "us")
        print(f"  {name:<36} {value:>14.6g} {unit}")
    return {name: metrics[name] for name in END_TO_END}


def traced(scenario, args, tally: Tally) -> Dict[str, float]:
    from ledger import (SEGMENT_OPS, Ledger, install_layer_spans,
                        pump_figures, server_figures)
    from tracer import NullTracer, Tracer

    # The ledger runs first, inside the run's ``--seconds``; the rounds
    # fill what is left (at least MIN_TRACED_ROUNDS pairs).
    started = clock()
    ledger = Ledger(scenario.segments(args.seed, SEGMENT_OPS), Tracer())
    ledger.run()
    tally.attempted += ledger.n_ops
    tally.failed += ledger.failures
    figures = {**ledger.figures, **ledger.counts}
    ledger_note = (f"ledger={ledger.n_ops} ops x {len(ledger.segments)} "
                   f"segment(s) in {clock() - started:.1f} s")
    del ledger
    deadline = Deadline(args.seconds - (clock() - started))

    null = NullTracer()
    tracer = Tracer()
    plain, spanned, setup_spans = [], [], []
    while len(spanned) < MIN_TRACED_ROUNDS or deadline.room():
        state, rnd, _ = one_round(scenario, args.seed, null)
        tally.add(rnd, scenario.verify(state, rnd))
        plain.append(rnd)
        del state
        mark = len(tracer.spans)
        install_layer_spans(tracer)
        try:
            state, rnd, _ = one_round(scenario, args.seed, tracer)
        finally:
            tracer.restore()
        tally.add(rnd, scenario.verify(state, rnd))
        spanned.append(rnd)
        setup_spans.append(tracer.totals(mark))
        del state
        deadline.lap()

    # Server and multiplexer figures exist only where the rounds host a
    # server or a rebuild; elsewhere they are 0, like the shard counts.
    metrics: Dict[str, float] = {name: 0 for name in PER_LAYER
                                 if name.startswith(("server.",
                                                     "multiplex.",
                                                     "shard."))}
    metrics["trace.overhead"] = (best_throughput(spanned)
                                 / best_throughput(plain))
    for name, span in (("datasets.generate_s", "datasets.generate"),
                       ("workloads.build_s", "workloads.build"),
                       ("indexes.bulk_load_s", "indexes.bulk_load")):
        metrics[name] = median(t.get(span, 0.0) for t in setup_spans)
    has = {s[1] for s in tracer.spans}
    if "multiplex.pump" in has:
        metrics.update(pump_figures(tracer.spans,
                                    sum(r.seconds for r in spanned),
                                    len(spanned)))
    if "server.apply" in has:
        metrics.update(server_figures(tracer.spans))
    metrics.update(figures)
    for name in PER_LAYER:
        if name in spanned[0].figures:
            metrics[name] = median(r.figures[name] for r in spanned)
        elif name in tally.counts:
            metrics[name] = tally.counts[name]
    print(f"  {ledger_note}; rounds={len(spanned)} untraced + "
          f"{len(spanned)} traced")
    for name in ("ledger.server_over_meter", "ledger.observed_over_engine"):
        print(f"  {name} = {metrics[name]:.3f}")
    print(f"    base: server apply {metrics['ledger.server_apply_us']:.2f} us"
          f" / CostMeter replay {metrics['ledger.meter_replay_us']:.2f} us;"
          f" full stack {metrics['ledger.observed_engine_us']:.2f} us"
          f" / default engine {metrics['ledger.default_engine_us']:.2f} us")
    return {name: metrics[name] for name in PER_LAYER}


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC.name}/repro; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    from scenarios import SCENARIOS

    if args.workload not in SCENARIOS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(SCENARIOS)}", file=sys.stderr)
        return 2
    started = clock()
    scenario = SCENARIOS[args.workload]()
    tally = Tally()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"(held-out seed for claims: {HELD_OUT_SEED})")
    if hasattr(scenario, "oracle_round"):
        from tracer import NullTracer
        ops, failures = scenario.oracle_round(args.seed, NullTracer())
        tally.attempted += ops
        tally.failed += failures

    if args.trace:
        values = traced(scenario, args, tally)
        units = PER_LAYER
        deterministic = {k: values[k] for k in values if units[k] == "count"
                         and k not in ("multiplex.pump_calls",)}
    else:
        values = untraced(scenario, args, tally)
        units = END_TO_END
        deterministic = {}
    deterministic.update(tally.counts)
    print(f"  wall {clock() - started:.1f} s")
    drift = check_determinism(args.workload, args.seed, deterministic)
    if drift:
        tally.notes.append("counts differ from an earlier run of the "
                           f"same code and seed: {sorted(drift)}")
    for note in tally.notes:
        print(f"  FAIL {note}")
    error_rate = tally.failed / max(tally.attempted, 1)
    print(f"  {'error_rate':<36} {error_rate:>14.6g} "
          f"({tally.failed} of {tally.attempted} ops)")
    for name, value in values.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    correct = tally.failed == 0 and not tally.notes
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
