"""The layer ledger: one workload's stream replayed through each layer.

The traced run replays each workload's own op stream (its
``segments``) through the program's layers one at a time, bottom up,
timing every call from outside:

* the bare index (ALEX and B+tree) with ``NullMeter``, ``CostMeter``,
  ``SyncedMeter`` and a counting meter;
* ``ExecutionEngine.run`` with the default observers, and with the full
  observer stack (``Telemetry.full()``, ``SLOTracker``, an ``EventBus``
  engine emitter), each observer behind a timing proxy;
* ``ShardedIndex("ALEX", 4)``, with each shard's index behind a span;
* ``IndexServer.apply`` at ``workers=0``.

Differences between neighbouring layers give each layer's own cost per
op.  Every replay of one variant starts from a freshly bulk-loaded
index; timings are medians over ``REPEATS`` replays, and differences and
ratios are medians of the per-replay differences and ratios.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Sequence

from repro.core.cost import CostMeter, NullMeter, SyncedMeter
from repro.core.events import EventBus
from repro.core.instance import IndexInstance
from repro.core.migrate import apply_op
from repro.core.registry import REGISTRY
from repro.core.runner import ExecutionEngine
from repro.core import server as server_module
from repro.core.server import IndexServer, RWLock
from repro.core.shard import ShardedIndex
from repro.core.slo import SLOTracker
from repro.core.telemetry import Telemetry
from repro.core.workloads import INSERT, LOOKUP, Workload
from repro.indexes.multiplex import MultiplexIndex
from scenarios import LEARNED, TRADITIONAL, Segment

clock = time.perf_counter

REPEATS = 3
#: Ops per segment replayed by the ledger.
SEGMENT_OPS = 4_000


#: Observer proxy span name -> per-layer metric.
OBSERVER_METRICS = {
    "observer.telemetry.trace": "telemetry.trace_us_per_op",
    "observer.telemetry.metrics": "telemetry.metrics_us_per_op",
    "observer.telemetry.profiler": "telemetry.profiler_us_per_op",
    "observer.slo": "slo.us_per_op",
    "observer.events": "events.us_per_op",
}


class CountingMeter(CostMeter):
    """A ``CostMeter`` that also counts charge calls."""

    __slots__ = ("charges",)

    def __init__(self) -> None:
        super().__init__()
        self.charges = 0

    def charge(self, kind: str, n: float = 1.0) -> None:
        self.charges += 1
        CostMeter.charge(self, kind, n)

    def charge_phased(self, phase: str, kind: str, n: float = 1.0) -> None:
        self.charges += 1
        CostMeter.charge_phased(self, phase, kind, n)


class _ObserverProxy:
    """Times one observer's ``on_phase``/``on_op``/``on_smo`` as spans."""

    def __init__(self, inner, name: str, tracer) -> None:
        self.inner = inner
        self.on_phase = tracer.wrap(inner.on_phase, name)
        self.on_op = tracer.wrap(inner.on_op, name)
        self.on_smo = tracer.wrap(inner.on_smo, name)


def _fresh(index_name: str, meter, items):
    index = REGISTRY.get(index_name).factory()
    index.meter = meter
    index.bulk_load(items)
    index.meter.reset()
    return index


class Ledger:
    """Runs every ledger replay over one workload's segments."""

    def __init__(self, segments: List[Segment], tracer) -> None:
        self.segments = segments
        self.tracer = tracer
        self.n_ops = sum(len(seg.ops) for seg in segments)
        self.failures = 0
        self.figures: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}

    # -- bare index ------------------------------------------------------------

    def _bare(self, index_name: str, meter_factory) -> dict:
        per_kind: Dict[str, List[float]] = {}
        total = 0.0
        virtual = 0.0
        charges = 0
        inserts = smos = shifted = 0
        for seg in self.segments:
            index = _fresh(index_name, meter_factory(), seg.bulk_items)
            for op in seg.ops:
                t0 = clock()
                apply_op(index, op)
                dt = clock() - t0
                total += dt
                slot = per_kind.setdefault(op.op, [0.0, 0])
                slot[0] += dt
                slot[1] += 1
                if op.op == INSERT:
                    rec = index.last_op
                    inserts += 1
                    smos += 1 if rec.smo else 0
                    shifted += rec.keys_shifted
            virtual += index.meter.total_time()
            charges += getattr(index.meter, "charges", 0)
        return {"total": total, "per_kind": per_kind, "virtual": virtual,
                "charges": charges, "inserts": inserts, "smos": smos,
                "shifted": shifted}

    # -- engine ----------------------------------------------------------------

    def _engine(self, full_stack: bool) -> dict:
        total = 0.0
        virtual = 0.0
        published = 0
        mark = len(self.tracer.spans)
        for seg in self.segments:
            instance = IndexInstance(REGISTRY.get(LEARNED).factory())
            kwargs = {}
            if full_stack:
                bus = EventBus()
                bus.attach_instance(instance)
                telemetry = Telemetry.full()
                stack = [("slo", SLOTracker(bus=bus)),
                         ("telemetry.trace", telemetry.trace),
                         ("telemetry.metrics", telemetry.metrics),
                         ("telemetry.profiler", telemetry.profiler),
                         ("events", bus.engine_observer())]
                kwargs["observers"] = [
                    _ObserverProxy(obs, f"observer.{name}", self.tracer)
                    for name, obs in stack]
            instance.bulk_load(seg.bulk_items)
            workload = Workload(seg.label, [], seg.ops)
            result = ExecutionEngine(**kwargs).run(instance, workload)
            total += result.wall_seconds
            virtual += result.virtual_ns
            if full_stack:
                published += bus.published
        return {"total": total, "virtual": virtual, "published": published,
                "observers": self.tracer.totals(mark)}

    # -- shards ----------------------------------------------------------------

    def _sharded(self) -> dict:
        total = 0.0
        inner = 0.0
        for seg in self.segments:
            sharded = ShardedIndex(LEARNED, n_shards=4)
            sharded.bulk_load(seg.bulk_items)
            mark = len(self.tracer.spans)
            patches = [self.tracer.patch(inst.index, attr, "shard.inner")
                       for inst in sharded.shards
                       for attr in ("lookup", "insert", "update", "delete",
                                    "range_scan")]
            t0 = clock()
            for op in seg.ops:
                apply_op(sharded, op)
            total += clock() - t0
            self.tracer.restore(patches[0])
            inner += sum(self.tracer.durations("shard.inner", mark))
        return {"total": total, "inner": inner}

    # -- server ----------------------------------------------------------------

    def _server(self) -> float:
        total = 0.0
        for seg in self.segments:
            with IndexServer(workers=0) as server:
                server.create_instance("ledger", LEARNED,
                                       items=seg.bulk_items)
                apply = server.apply
                t0 = clock()
                for op in seg.ops:
                    apply("ledger", op)
                total += clock() - t0
        return total

    # -- the whole ledger --------------------------------------------------------

    def run(self) -> None:
        n = self.n_ops
        runs: Dict[str, List[dict]] = {}
        # Variants compared with each other run next to each other, and
        # every comparison is a median of per-repeat differences or
        # ratios, so a host slowdown common to one repeat cancels out.
        for _ in range(REPEATS):
            for key, fn in (
                    ("alex.null", lambda: self._bare(LEARNED, NullMeter)),
                    ("alex.cost", lambda: self._bare(LEARNED, CostMeter)),
                    ("alex.synced", lambda: self._bare(LEARNED, SyncedMeter)),
                    ("engine.default", lambda: self._engine(False)),
                    ("engine.full", lambda: self._engine(True)),
                    ("server", lambda: {"total": self._server()}),
                    ("sharded", self._sharded),
                    ("alex.counting",
                     lambda: self._bare(LEARNED, CountingMeter)),
                    ("btree.null",
                     lambda: self._bare(TRADITIONAL, NullMeter))):
                runs.setdefault(key, []).append(fn())

        def per_op_us(key: str) -> float:
            return statistics.median(r["total"] for r in runs[key]) / n * 1e6

        def diff_us(key: str, base: str) -> float:
            return statistics.median(
                a["total"] - b["total"]
                for a, b in zip(runs[key], runs[base])) / n * 1e6

        def ratio(key: str, base: str) -> float:
            return statistics.median(
                a["total"] / b["total"] for a, b in zip(runs[key], runs[base]))

        def kind_us(key: str, kind: str) -> float:
            times = [r["per_kind"].get(kind, [0.0, 0]) for r in runs[key]]
            count = times[0][1]
            return statistics.median(t for t, _ in times) / count * 1e6 \
                if count else 0.0

        f = self.figures
        for short, index_key in (("alex", "alex.null"),
                                 ("btree", "btree.null")):
            f[f"indexes.{short}.lookup_us"] = kind_us(index_key, LOOKUP)
            f[f"indexes.{short}.insert_us"] = kind_us(index_key, INSERT)
            rec = runs[index_key][0]
            ins = max(rec["inserts"], 1)
            self.counts[f"indexes.{short}.smo_per_insert"] = rec["smos"] / ins
            self.counts[f"indexes.{short}.keys_shifted_per_insert"] = \
                rec["shifted"] / ins
        f["cost.meter_us_per_op"] = diff_us("alex.cost", "alex.null")
        f["cost.synced_us_per_op"] = diff_us("alex.synced", "alex.null")
        self.counts["cost.charges_per_op"] = \
            runs["alex.counting"][0]["charges"] / n
        virtual = runs["alex.cost"][0]["virtual"]
        self.counts["cost.virtual_ns_per_op"] = virtual / n
        f["runner.self_us_per_op"] = diff_us("engine.default", "alex.cost")
        f["ledger.meter_replay_us"] = per_op_us("alex.cost")
        f["ledger.default_engine_us"] = per_op_us("engine.default")
        f["ledger.observed_engine_us"] = per_op_us("engine.full")
        f["ledger.observed_over_engine"] = ratio("engine.full",
                                                 "engine.default")
        f["ledger.server_apply_us"] = per_op_us("server")
        f["ledger.server_over_meter"] = ratio("server", "alex.cost")
        f["shard.route_us_per_op"] = statistics.median(
            r["total"] - r["inner"] for r in runs["sharded"]) / n * 1e6
        self.counts["events.published"] = runs["engine.full"][0]["published"]
        for name, metric in OBSERVER_METRICS.items():
            f[metric] = statistics.median(
                r["observers"].get(name, 0.0) for r in runs["engine.full"]
            ) / n * 1e6

        # The benchmark's wrappers must add no virtual cost: the bare
        # CostMeter replay, the unwrapped default engine and the engine
        # with every observer proxied charge exactly the same.
        for key in ("engine.default", "engine.full"):
            for r in runs[key]:
                if r["virtual"] != virtual:
                    self.failures += 1
        for key in ("alex.cost", "alex.counting"):
            for r in runs[key]:
                if r["virtual"] != virtual:
                    self.failures += 1


# ---------------------------------------------------------------------------
# Server and multiplexer figures from spans
# ---------------------------------------------------------------------------

def install_layer_spans(tracer) -> None:
    """Wrap the server's and the multiplexer's public entry points."""
    # A pump call that moved no keys (a multiplexer waiting for its
    # cutover) is recorded apart, so the step percentiles describe work.
    tracer.patch(MultiplexIndex, "pump", "multiplex.pump",
                 label=lambda moved: ("multiplex.pump" if moved
                                      else "multiplex.pump_idle"))
    tracer.patch(IndexServer, "apply", "server.apply")
    tracer.patch(RWLock, "acquire_read", "server.lock_read")
    tracer.patch(RWLock, "acquire_write", "server.lock_write")
    tracer.patch(RWLock, "release_write", "server.unlock_write")
    tracer.patch(server_module, "apply_op", "server.index_op")


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def pump_figures(spans, wall_s: float, rounds: int) -> Dict[str, float]:
    """Pump steps that moved keys: count per round and percentiles; the
    share of the ops-phase wall time spent in any pump call."""
    steps = [s[3] - s[2] for s in spans if s[1] == "multiplex.pump"]
    idle = sum(s[3] - s[2] for s in spans if s[1] == "multiplex.pump_idle")
    return {
        "multiplex.pump_calls": len(steps) / rounds,
        "multiplex.pump_p50_ms": quantile(steps, 0.50) * 1e3,
        "multiplex.pump_p99_ms": quantile(steps, 0.99) * 1e3,
        "multiplex.pump_share": (sum(steps) + idle) / wall_s,
    }


def server_figures(spans) -> Dict[str, float]:
    """Client-side lock waits, job-side write-lock holds and the self
    time of ``IndexServer.apply`` (minus its lock and index children)."""
    applies = {s[0]: s for s in spans if s[1] == "server.apply"}
    covered: Dict[int, float] = {}
    waits: List[float] = []
    holds: List[float] = []
    held: Dict[int, float] = {}
    for sid, name, t0, t1, parent, thread in sorted(spans,
                                                    key=lambda s: s[2]):
        if parent in applies:
            covered[parent] = covered.get(parent, 0.0) + (t1 - t0)
            if name in ("server.lock_read", "server.lock_write"):
                waits.append(t1 - t0)
        elif name == "server.lock_write":
            held[thread] = t1
        elif name == "server.unlock_write" and thread in held:
            holds.append(t0 - held.pop(thread))
    selfs = [s[3] - s[2] - covered.get(sid, 0.0)
             for sid, s in applies.items()]
    return {
        "server.lock_wait_p50_us": quantile(waits, 0.50) * 1e6,
        "server.lock_wait_p99_us": quantile(waits, 0.99) * 1e6,
        "server.lock_hold_p99_ms": quantile(holds, 0.99) * 1e3,
        "server.apply_self_us": quantile(selfs, 0.50) * 1e6,
    }
