"""The four benchmark workloads: set-up, the timed ops, and their checks.

Each scenario splits a round into three calls the runner times apart:

* ``setup(seed, tracer)`` — dataset generation (with the generation
  cache cleared, so every round pays it), stream build and bulk load;
* ``run(state)`` — the ops, the only part counted in throughput;
* ``verify(state, rnd)`` — correctness checks, outside both timings.

``run`` returns a :class:`Round`: the op count and wall seconds, the
wall seconds of each stretch of ``CHUNK_OPS`` ops (the same stretches
in every round of a seed), the workload's own figures (printed,
medianed over rounds), and the deterministic counts the runner
requires to repeat exactly across rounds and runs of the same code and
seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.core.events import EventBus, validate_bus_events
from repro.core.instance import AdmissionError, IndexInstance
from repro.core.opstream import DifferentialObserver
from repro.core.registry import REGISTRY
from repro.core.runner import ExecutionEngine
from repro.core.server import JOB_DONE, IndexServer, session_streams
from repro.core.shard import ShardedIndex, ShardRouter
from repro.core.slo import SLOTracker
from repro.core.telemetry import (
    Telemetry,
    validate_chrome_trace,
    validate_metric_records,
)
from repro.core.workloads import (
    DELETE,
    INSERT,
    LOOKUP,
    UPDATE,
    Operation,
    Workload,
    mixed_workload,
    moving_hotspot_workload,
)
from repro.datasets import registry
from repro.indexes.multiplex import MultiplexIndex
from tracer import NullTracer

clock = time.perf_counter

LEARNED = "ALEX"
TRADITIONAL = "B+tree"

#: Ops per timed stretch: a single-threaded round's ops phase is timed
#: in stretches of this many ops (0.1-3 ms each on the workloads here),
#: short enough that most stretches run undisturbed by other load on a
#: shared host in at least one round.
CHUNK_OPS = 10


@dataclass
class Round:
    """What one timed round measured."""

    ops: int
    seconds: float
    #: Wall seconds of each stretch of ``CHUNK_OPS`` ops, in op order
    #: (``hotspot-shards``: also cut after every pump call).
    chunks: List[float] = field(default_factory=list)
    #: Workload-specific figures (medianed over rounds when printed).
    figures: Dict[str, float] = field(default_factory=dict)
    #: Counts that must repeat exactly for the same code and seed.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Raw latency samples in seconds, pooled over rounds, by op class.
    samples: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.seconds


@dataclass
class Segment:
    """A bulk-load set plus an op stream, replayed by the layer ledger."""

    label: str
    bulk_items: List[Tuple[int, Any]]
    ops: List[Operation]


class ChunkClock:
    """Observer that notes the time after every ``CHUNK_OPS``-th op.

    ``start`` and ``stop`` bracket the timed call; ``stop`` returns the
    wall seconds of each stretch of ops (the last one also holds
    whatever the call does after its last op)."""

    #: No verdict: ``ShardRouter.run`` reads ``ok`` from the observer
    #: passed as its ``oracle`` and reports it as ``oracle_ok``.
    ok = None

    def __init__(self) -> None:
        self.marks: List[float] = []

    def start(self) -> None:
        self.marks.append(clock())

    def stop(self) -> List[float]:
        self.marks.append(clock())
        marks = self.marks
        return [b - a for a, b in zip(marks, marks[1:])]

    def on_phase(self, phase, index, workload) -> None:
        pass

    def on_op(self, event, latency) -> None:
        if (event.seq + 1) % CHUNK_OPS == 0:
            self.marks.append(clock())

    def on_smo(self, event) -> None:
        pass


def generate(tracer, dataset: str, n: int, seed: int) -> List[int]:
    """Dataset keys, regenerated from scratch (generation cache cleared)."""
    registry.generation_cache_clear()
    with tracer.span("datasets.generate"):
        return registry.get(dataset).generate(n, seed=seed)


def loaded_instance(tracer, index_name: str, items) -> IndexInstance:
    """A SERVING instance of a registry index, bulk loaded in set-up."""
    instance = IndexInstance(REGISTRY.get(index_name).factory())
    with tracer.span("indexes.bulk_load"):
        instance.bulk_load(items)
    return instance


def ops_only(workload: Workload) -> Workload:
    """The same op stream without bulk items, for an already-loaded
    instance (the engine bulk loads only LOADING instances)."""
    return Workload(workload.name, [], workload.operations,
                    write_fraction=workload.write_fraction)


def bytes_per_key(indexes) -> float:
    indexes = list(indexes)
    total = sum(index.memory_usage().total for index in indexes)
    keys = sum(len(index) for index in indexes)
    return total / max(keys, 1)


# ---------------------------------------------------------------------------
# Engine workloads: paper-mix and observed-mix
# ---------------------------------------------------------------------------

class _EngineScenario:
    """Workloads driven by ``ExecutionEngine.run``.

    The oracle pass is one extra, untimed round with a
    ``DifferentialObserver`` attached that checks every lookup's payload
    and every insert's outcome.  Observers never charge the cost meter,
    so each timed round must reproduce the oracle round's virtual time
    exactly; a round that does not counts all its ops as failed.
    """

    #: (label, index) pairs run per round, in order.
    runs: Tuple[Tuple[str, str], ...] = ()

    def __init__(self) -> None:
        self._reference: Dict[str, float] = {}

    def observers(self, state: dict, label: str) -> dict:
        """Engine keyword arguments for one run."""
        return {}

    def streams(self, tracer, seed: int) -> Dict[str, Workload]:
        raise NotImplementedError

    def setup(self, seed: int, tracer) -> dict:
        streams = self.streams(tracer, seed)
        state = {"streams": streams, "instances": {}}
        for label, index_name in self.runs:
            state["instances"][label] = loaded_instance(
                tracer, index_name, self.stream(state, label).bulk_items)
        return state

    @staticmethod
    def stream(state: dict, label: str) -> Workload:
        """The stream a run label replays (``alex.lookup`` -> ``lookup``)."""
        return state["streams"][label.split(".", 1)[1]]

    def _engine_run(self, state: dict, label: str, extra=()):
        kwargs = self.observers(state, label)
        kwargs["observers"] = [*kwargs.get("observers", ()), *extra]
        engine = ExecutionEngine(**kwargs)
        stream = ops_only(self.stream(state, label))
        t0 = clock()
        result = engine.run(state["instances"][label], stream)
        return result, clock() - t0

    def run(self, state: dict) -> Round:
        rnd = Round(ops=0, seconds=0.0)
        for label, _ in self.runs:
            chunk_clock = ChunkClock()
            chunk_clock.start()
            result, seconds = self._engine_run(state, label,
                                               extra=[chunk_clock])
            rnd.chunks += chunk_clock.stop()
            rnd.ops += result.n_ops
            rnd.seconds += seconds
            rnd.figures[f"{label}_ops_per_s"] = result.n_ops / seconds
            rnd.counts[f"{label}.virtual_ns"] = result.virtual_ns
            rnd.counts[f"{label}.inserts_ok"] = result.insert_stats.inserts
        rnd.counts["indexes.bytes_per_key"] = bytes_per_key(
            inst.index for inst in state["instances"].values())
        return rnd

    def oracle_round(self, seed: int, tracer) -> Tuple[int, int]:
        """Run one untimed round under the differential oracle; returns
        ops attempted and ops failed."""
        state = self.setup(seed, tracer)
        attempted = failures = 0
        for label, _ in self.runs:
            stream = self.stream(state, label)
            oracle = _Oracle(stream)
            result, _ = self._engine_run(state, label, extra=[oracle])
            self._reference[label] = result.virtual_ns
            attempted += stream.n_ops
            failures += len(oracle.differ.mismatches)
            failures += stream.n_ops - result.n_ops
            failures += self.check_artifacts(state, label, result.n_ops)
        return attempted, failures

    def check_artifacts(self, state: dict, label: str, n_ops: int) -> int:
        return 0

    def verify(self, state: dict, rnd: Round) -> int:
        return sum(self.stream(state, label).n_ops for label, _ in self.runs
                   if rnd.counts[f"{label}.virtual_ns"]
                   != self._reference[label])

    def segments(self, seed: int, limit: int) -> List[Segment]:
        return [Segment(name, wl.bulk_items, wl.operations[:limit])
                for name, wl in self.streams(_NO_TRACE, seed).items()]


class _Oracle:
    """Feeds every op of one run to a ``DifferentialObserver`` whose
    model starts from the stream's bulk items (the engine itself sees
    an already-loaded instance and a stream without bulk items)."""

    def __init__(self, stream: Workload) -> None:
        self.differ = DifferentialObserver(limit=stream.n_ops + 1)
        self.differ.on_phase("measure", None, stream)

    def on_phase(self, phase, index, workload) -> None:
        pass

    def on_op(self, event, latency) -> None:
        self.differ.on_op(event, latency)

    def on_smo(self, event) -> None:
        pass


class PaperMix(_EngineScenario):
    """ALEX and B+tree, default observers, scalar path: a read-only
    stream on covid (easy) and a write-only stream on osm (hard)."""

    name = "paper-mix"
    N_KEYS = 25_000
    READS = 10_000
    WRITES = 7_500
    runs = (("alex.lookup", LEARNED), ("btree.lookup", TRADITIONAL),
            ("alex.insert", LEARNED), ("btree.insert", TRADITIONAL))

    def streams(self, tracer, seed: int) -> Dict[str, Workload]:
        covid = generate(tracer, "covid", self.N_KEYS, seed)
        osm = generate(tracer, "osm", self.N_KEYS, seed)
        with tracer.span("workloads.build"):
            return {"lookup": mixed_workload(covid, 0.0, n_ops=self.READS,
                                             seed=seed),
                    "insert": mixed_workload(osm, 1.0, n_ops=self.WRITES,
                                             seed=seed)}


class ObservedMix(_EngineScenario):
    """ALEX on the paper's balanced stream under ``repro run --trace
    --metrics --events``: full telemetry, an SLO tracker and an event
    bus engine emitter."""

    name = "observed-mix"
    N_KEYS = 50_000
    OPS = 20_000
    runs = (("alex.balanced", LEARNED),)

    def streams(self, tracer, seed: int) -> Dict[str, Workload]:
        covid = generate(tracer, "covid", self.N_KEYS, seed)
        with tracer.span("workloads.build"):
            return {"balanced": mixed_workload(covid, 0.5, n_ops=self.OPS,
                                               seed=seed)}

    def setup(self, seed: int, tracer) -> dict:
        state = super().setup(seed, tracer)
        for label, _ in self.runs:
            bus = EventBus()
            bus.attach_instance(state["instances"][label])
            state[label] = {"bus": bus, "telemetry": Telemetry.full(),
                            "slo": SLOTracker(bus=bus)}
        return state

    def observers(self, state: dict, label: str) -> dict:
        stack = state[label]
        return {"telemetry": stack["telemetry"], "bus": stack["bus"],
                "observers": [stack["slo"]]}

    def run(self, state: dict) -> Round:
        rnd = super().run(state)
        stack = state["alex.balanced"]
        rnd.counts["alex.balanced.events_published"] = \
            stack["bus"].published
        return rnd

    def verify(self, state: dict, rnd: Round) -> int:
        return super().verify(state, rnd) + sum(
            self.check_artifacts(state, label, rnd.ops)
            for label, _ in self.runs)

    def check_artifacts(self, state: dict, label: str, n_ops: int) -> int:
        stack = state[label]
        telemetry = stack["telemetry"]
        try:
            validate_chrome_trace(telemetry.trace.to_chrome())
            validate_metric_records(telemetry.metrics.series)
            validate_bus_events(stack["bus"].events())
        except ValueError:
            return n_ops
        return 0


# ---------------------------------------------------------------------------
# serve-rebuild: IndexServer, one closed-loop client, a background rebuild
# ---------------------------------------------------------------------------

_WRITES = (INSERT, UPDATE, DELETE)


class ServeRebuild:
    """An ALEX tenant bulk loaded from covid serves churn ops from one
    client in a closed loop while a rebuild job, submitted after
    ``SUBMIT_AT`` ops, advances one chunk step every ``PUMP_EVERY`` ops.

    The server runs at ``workers=0``, the deterministic mode the gated
    ``repro serve`` numbers use: the client's thread pumps the job, so
    every round does the same work in the same order and each stretch
    of ops can be timed at its fastest, as on the other workloads.  On
    the ``workers=1`` thread the job raced the client and finished
    thousands of ops earlier or later from round to round, so only the
    whole ops phase could be timed, and that was not steady on a shared
    host (README)."""

    name = "serve-rebuild"
    N_KEYS = 5_000
    OPS = 10_000
    SUBMIT_AT = 500
    #: One job step (a 128-key chunk) per this many client ops: the
    #: rebuild's 82-odd steps then span about 4,000 ops.
    PUMP_EVERY = 50
    TENANT = "tenant"

    def setup(self, seed: int, tracer) -> dict:
        keys = generate(tracer, "covid", self.N_KEYS, seed)
        with tracer.span("workloads.build"):
            bulk, streams = session_streams(
                LEARNED, n_clients=1, ops_per_client=self.OPS, seed=seed,
                profile="churn", bulk_keys=keys)
        server = IndexServer(workers=0)
        with tracer.span("indexes.bulk_load"):
            server.create_instance(self.TENANT, LEARNED, items=bulk)
        return {"server": server, "ops": streams[0]}

    def run(self, state: dict) -> Round:
        server: IndexServer = state["server"]
        ops: List[Operation] = state["ops"]
        apply = server.apply
        name = self.TENANT
        lookups: List[float] = []
        writes: List[float] = []
        marks: List[float] = []
        refused = 0
        job = None
        submitted = done_at = 0.0
        try:
            t0 = clock()
            for i, op in enumerate(ops):
                if i == self.SUBMIT_AT:
                    submitted = clock()
                    job = server.rebuild(name)
                elif (job is not None and not job.finished
                      and i % self.PUMP_EVERY == 0):
                    server.pump_jobs(1)
                    if job.finished:
                        done_at = clock()
                a = clock()
                try:
                    apply(name, op)
                except AdmissionError:
                    refused += 1
                b = clock()
                if op.op == LOOKUP:
                    lookups.append(b - a)
                elif op.op in _WRITES:
                    writes.append(b - a)
                if (i + 1) % CHUNK_OPS == 0:
                    marks.append(b)
            seconds = clock() - t0
            if not done_at:
                server.drain()
                done_at = clock()
        finally:
            server.close()
        state["job"] = job
        state["refused"] = refused
        edges = [t0, *marks, t0 + seconds]
        rnd = Round(ops=len(ops), seconds=seconds,
                    chunks=[y - x for x, y in zip(edges, edges[1:])],
                    samples={"lookup": lookups, "write": writes})
        rnd.figures["rebuild_s"] = done_at - submitted
        rnd.counts["indexes.bytes_per_key"] = bytes_per_key(
            [server.instance(name).index])
        rnd.counts["server.journal_entries"] = len(server.journal(name))
        return rnd

    def verify(self, state: dict, rnd: Round) -> int:
        server: IndexServer = state["server"]
        job = state["job"]
        failures = state["refused"] + len(server.replay_check(
            self.TENANT, limit=rnd.ops))
        if job.state != JOB_DONE or job.verified_fraction != 1.0:
            failures += 1
        return failures

    def segments(self, seed: int, limit: int) -> List[Segment]:
        keys = registry.get("covid").generate(self.N_KEYS, seed=seed)
        bulk, streams = session_streams(
            LEARNED, n_clients=1, ops_per_client=limit, seed=seed,
            profile="churn", bulk_keys=keys)
        return [Segment("churn", bulk, streams[0])]


# ---------------------------------------------------------------------------
# hotspot-shards: ShardRouter over ShardedIndex("ALEX", 4)
# ---------------------------------------------------------------------------

class HotspotShards:
    """The ``repro shard`` rebalance replay: a moving hotspot over covid
    routed through a 4-shard ALEX cluster that splits hot shards and
    merges cold ones.  Runs without an event bus, as ``repro shard``
    does (see README: known defect in the split/merge progress sink)."""

    name = "hotspot-shards"
    N_KEYS = 10_000
    OPS = 8_000
    SHARDS = 4

    def setup(self, seed: int, tracer) -> dict:
        keys = generate(tracer, "covid", self.N_KEYS, seed)
        with tracer.span("workloads.build"):
            workload = moving_hotspot_workload(keys, n_ops=self.OPS,
                                               seed=seed)
        sharded = ShardedIndex(LEARNED, n_shards=self.SHARDS)
        with tracer.span("indexes.bulk_load"):
            sharded.bulk_load(workload.bulk_items)
        return {"sharded": sharded, "workload": workload}

    def run(self, state: dict) -> Round:
        sharded: ShardedIndex = state["sharded"]
        router = ShardRouter(sharded)
        chunk_clock = ChunkClock()
        # A rebalance pump step moves up to ``pump_budget`` keys inside
        # one op (tens of ms), so a stretch also ends after every
        # ``MultiplexIndex.pump`` call (one chunk of keys, a few ms):
        # no stretch is then long enough that other load on the host
        # slows it in every round.
        pump = vars(MultiplexIndex)["pump"]
        marks = chunk_clock.marks

        def marked_pump(mux):
            moved = pump(mux)
            marks.append(clock())
            return moved

        MultiplexIndex.pump = marked_pump
        try:
            # The router feeds every routed op to its ``oracle`` hook.
            chunk_clock.start()
            report = router.run(state["workload"], oracle=chunk_clock)
            chunks = chunk_clock.stop()
        finally:
            MultiplexIndex.pump = pump
        state["report"] = report
        rnd = Round(ops=report.n_ops, seconds=sum(chunks), chunks=chunks)
        rnd.counts.update({
            "shard.splits": report.splits,
            "shard.merges": report.merges,
            "shard.virtual_ns": sharded.meter.total_time(),
            "indexes.bytes_per_key": bytes_per_key([sharded]),
        })
        return rnd

    def verify(self, state: dict, rnd: Round) -> int:
        sharded: ShardedIndex = state["sharded"]
        workload: Workload = state["workload"]
        report = state["report"]
        model = dict(workload.bulk_items)
        for op in workload.operations:
            if op.op == INSERT:
                model.setdefault(op.key, op.value)
        want = sorted(model.items())
        got = sharded.range_scan(want[0][0], len(want) + 1)
        failures = sum(1 for a, b in zip(want, got) if a != tuple(b))
        failures += abs(len(want) - len(got))
        failures += len(sharded.debug_validate())
        failures += report.rejected + report.cutover_stall_ops
        failures += workload.n_ops - report.n_ops
        return failures

    def segments(self, seed: int, limit: int) -> List[Segment]:
        keys = registry.get("covid").generate(self.N_KEYS, seed=seed)
        workload = moving_hotspot_workload(keys, n_ops=self.OPS, seed=seed)
        ops = workload.operations
        stride = max(1, len(ops) // limit)
        return [Segment("hotspot", workload.bulk_items, ops[::stride])]


_NO_TRACE = NullTracer()

SCENARIOS = {cls.name: cls for cls in
             (PaperMix, ObservedMix, ServeRebuild, HotspotShards)}
