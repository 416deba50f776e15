"""`QuerySession`: a continuous-query service over one shared engine.

The paper's setting is a long-running stream processor that *hosts*
declarative continuous queries: users register CQL text (or fluent
:class:`~repro.plan.Stream` pipelines) against named input streams,
results accumulate per query, and queries come and go while the engine
keeps running.  A :class:`QuerySession` provides exactly that surface:

>>> session = QuerySession()
>>> session.create_stream("rfid", uncertain=("weight",), family="gaussian")
>>> session.register("q1", "SELECT SUM(weight) FROM rfid [ROWS 100]")
>>> session.push_many("rfid", tuples)
>>> session.results("q1")

**Cross-query subplan sharing.**  Registration attaches the query's
optimized logical plan to the session's
:class:`~repro.plan.PlanHost`, the box table ``Planner.compile`` uses
too.  Before lowering a node the host looks its *structural
fingerprint* (:mod:`repro.plan.fingerprint`) up: if another registered
query already lowered an identical subtree — same source, same
filters, same window, in the same order — the existing physical
operator chain is reused and the new query's sink simply taps it.
The shared prefix then executes
**once** per input tuple no matter how many queries consume it
(visible in :meth:`explain` and :meth:`statistics`).  Boxes are
ref-counted by owning query; :meth:`drop` detaches only the boxes the
dropped query owned exclusively, so the remaining queries keep their
operator state (window contents, join buffers) untouched.

**Dynamic attach/detach.**  Queries may be registered and dropped
while data is flowing; a newly attached query starts observing tuples
pushed after its registration (shared stateful boxes contribute their
existing state, exactly as a shared handle would in one plan).

**Pause/resume** gate a query's *sink*: while paused, results arriving
at the sink are discarded (and counted), but shared upstream boxes
keep running for the other queries.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro import obs
from repro.cql.lowering import lower_query
from repro.plan.builder import Stream
from repro.plan.fingerprint import plan_fingerprints
from repro.plan.nodes import LogicalPlan, SourceNode
from repro.plan.planner import BoxReport, Planner, PlanHost
from repro.plan.rewrites import RewriteTrace
from repro.plan.sharding import ShardingDecision, split_for_sharding
from repro.recovery import CheckpointInfo, CheckpointStore, ReplayLog
from repro.recovery.state import decode_state, encode_state
from repro.runtime.engine import ShardedEngine, ShardedStatistics
from repro.streams.batch import TupleBatch
from repro.streams.engine import StreamEngine
from repro.streams.operators.base import Operator
from repro.streams.operators.basic import CollectSink
from repro.streams.tuples import StreamTuple, advance_tuple_counter, tuple_counter_mark

__all__ = ["QuerySession", "RegisteredQuery", "ServiceError", "BoxReport"]


class ServiceError(Exception):
    """Raised for query-service misuse (duplicate names, bad drops, ...)."""


class _QuerySink(CollectSink):
    """Per-query result sink with a pause gate, callback and listeners.

    ``callback`` is fixed at registration (the ``on_result`` argument);
    ``listeners`` come and go over the query's lifetime — the network
    service attaches one per subscriber
    (:meth:`QuerySession.add_listener`).
    """

    def __init__(
        self,
        name: str,
        callback: Optional[Callable[[StreamTuple], None]] = None,
        query: Optional[str] = None,
    ):
        super().__init__(name=name)
        self.paused = False
        self.dropped = 0
        self._callback = callback
        self.listeners: List[Callable[[StreamTuple], None]] = []
        #: Bounded result history backing ``SUBSCRIBE ... RESUME``.  The
        #: append happens *before* listeners run, so a listener reading
        #: ``replay.last_seq`` sees the sequence number of the item it
        #: is being handed.
        self.replay: Optional[ReplayLog] = None
        #: End-to-end latency accounting: when a delivery runs under an
        #: active trace context the ingest→sink delay lands here.
        self.query_label = query or name
        self.latency = obs.get_registry().histogram(
            "repro_query_latency_seconds", query=self.query_label
        )
        self.last_trace: Optional[obs.TraceContext] = None
        self.last_delivered_at: Optional[float] = None

    def _emit(self, item: StreamTuple) -> None:
        if self._callback is not None:
            self._callback(item)
        for listener in self.listeners:
            listener(item)

    def _accept(self, item: StreamTuple) -> None:
        if self.replay is not None:
            self.replay.append(item)
        if self._callback is not None or self.listeners:
            self._emit(item)

    def _record_delivery(self, count: int) -> None:
        trace = obs.active()
        if trace is None:
            return
        now = obs.trace_clock()
        self.latency.observe(max(0.0, now - trace.t_ingest), count=count)
        self.last_trace = trace
        self.last_delivered_at = now

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        if self.paused:
            self.dropped += len(batch)
            return TupleBatch()
        self.results.extend(batch)
        if len(batch):
            self._record_delivery(len(batch))
        if self.replay is not None or self._callback is not None or self.listeners:
            for item in batch:
                self._accept(item)
        return TupleBatch()


@dataclass
class _Registered:
    name: str
    text: Optional[str]
    plan: LogicalPlan
    optimized: LogicalPlan
    rewrites: List[RewriteTrace]
    sink: _QuerySink
    #: The box the sink taps (``None`` for a sharded query).
    root: Optional[Operator]
    strategy_decisions: list
    #: Set when the query runs in its own sharded runtime instead of the
    #: session's shared engine (``QuerySession(workers=N)``).
    sharded: Optional[ShardedEngine] = None


class RegisteredQuery:
    """Handle returned by :meth:`QuerySession.register`."""

    def __init__(self, session: QuerySession, name: str):
        self._session = session
        self.name = name

    @property
    def results(self) -> List[StreamTuple]:
        return self._session.results(self.name)

    @property
    def sharded(self) -> bool:
        """True when this query runs in its own sharded worker pool."""
        return self._session.is_sharded(self.name)

    def take(self) -> List[StreamTuple]:
        return self._session.take(self.name)

    def explain(self) -> str:
        return self._session.explain(self.name)

    def statistics(self) -> List[BoxReport]:
        return self._session.statistics(self.name)

    def observed_stats(self) -> Dict:
        """Latency histogram and per-operator rates (see session method)."""
        return self._session.observed_stats(self.name)

    def pause(self) -> None:
        self._session.pause(self.name)

    def resume(self) -> None:
        self._session.resume(self.name)

    def drop(self) -> None:
        self._session.drop(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RegisteredQuery({self.name!r})"


class QuerySession:
    """Hosts many named continuous queries in one shared engine.

    Parameters
    ----------
    planner:
        The :class:`~repro.plan.Planner` used to optimize and lower
        registered queries (rewrites, cost model).
    batch_size:
        Rows per batch :meth:`push_many` cuts its input into; ``None``
        (default) pushes one-row batches, so each result is delivered
        before the next tuple is read.
    optimize:
        Apply the planner's rewrite rules to registered queries.
    functions:
        UDFs available to every registered CQL query (individual
        ``register`` calls can add more).
    workers:
        When positive, queries whose plans the partition-aware planner
        pass can split (:func:`repro.plan.sharding.split_for_sharding`)
        transparently run in their own
        :class:`~repro.runtime.ShardedEngine` with this many worker
        processes; pushes into their sources are routed to the shards
        and merged results land in the query's sink exactly as for
        engine-hosted queries.  Unshardable queries keep running in the
        shared engine.  Sharded queries do not participate in
        cross-query subplan sharing (each owns its worker pool).
    shard_backend / shard_chunk_size:
        Backend (``"process"`` or ``"inline"``) and chunk size for the
        sharded runtime.
    shard_remote_shards:
        TCP addresses (``"host:port"``) of running
        :class:`~repro.net.shard.ShardServer` processes; a sharded
        query's highest shard slots connect there instead of forking
        (see ``ShardedEngine(remote_shards=...)``).  A shard server
        accepts one coordinator at a time, so sessions hosting several
        shardable queries should leave this empty and wire remote
        shards per :class:`~repro.runtime.ShardedEngine` instead.
    """

    def __init__(
        self,
        planner: Optional[Planner] = None,
        batch_size: Optional[int] = None,
        optimize: bool = True,
        functions: Optional[Mapping[str, Callable]] = None,
        workers: int = 0,
        shard_backend: str = "process",
        shard_chunk_size: int = 1024,
        shard_remote_shards: Iterable[str] = (),
        replay_capacity: int = 4096,
        trace_sample: Optional[int] = None,
        history_capacity: int = 512,
    ):
        if workers < 0:
            raise ServiceError(f"workers must be non-negative, got {workers}")
        if replay_capacity < 0:
            raise ServiceError(
                f"replay_capacity must be non-negative, got {replay_capacity}"
            )
        if trace_sample is not None:
            # Set before any sharded query forks workers, so both sides
            # of the fork make identical sampling decisions.
            obs.set_trace_sample(trace_sample)
        self.engine = StreamEngine(batch_size=batch_size)
        self._planner = planner or Planner()
        #: The box table of the engine-hosted queries, each attached
        #: under its query name.
        self._host = PlanHost(self.engine, self._planner.cost_model)
        self._batch_size = batch_size
        self._optimize = optimize
        self._functions: Dict[str, Callable] = dict(functions or {})
        self._workers = workers
        self._shard_backend = shard_backend
        self._shard_chunk_size = shard_chunk_size
        self._shard_remote_shards = tuple(shard_remote_shards)
        self._replay_capacity = replay_capacity
        self._streams: Dict[str, SourceNode] = {}  # locked source declarations
        self._queries: Dict[str, _Registered] = {}
        #: source name -> sharded queries reading it (push-path index;
        #: push runs per tuple, so no per-push scan over all queries).
        self._sharded_by_source: Dict[str, List[_Registered]] = {}
        self._closed = False
        #: Set by :meth:`recover`: the metrics snapshot saved with the
        #: restored checkpoint (``None`` for fresh sessions).
        self.recovered_metrics: Optional[Dict] = None
        #: Set by :meth:`recover`: the history blob saved with the
        #: restored checkpoint (also replayed into :attr:`history`).
        self.recovered_history: Optional[Dict] = None
        # Flight-recorder layers 2 and 3: the metrics time-series ring
        # and the health engine evaluating its rules off it.  Ticks are
        # recorded synchronously: by record_tick / health_tick and by
        # every HEALTH poll a server answers.
        self.history = obs.HistoryRing(capacity=history_capacity)
        self.health = obs.HealthEngine(self.history)

    # ------------------------------------------------------------------
    # Stream & function registry
    # ------------------------------------------------------------------
    def create_stream(
        self,
        name: str,
        values: Optional[Iterable[str]] = None,
        uncertain=None,
        family: Optional[str] = None,
        rate_hint: Optional[float] = None,
    ) -> Stream:
        """Declare a named input stream; returns a fluent handle on it.

        Declared streams give CQL queries schema checking and
        uncertain-attribute classification, give the cost model its
        family/rate/selectivity hints, and persist across query drops.
        The returned :class:`~repro.plan.Stream` handle can be extended
        fluently and registered — the programmatic escape hatch.
        """
        if name in self._streams:
            raise ServiceError(f"stream {name!r} is already declared")
        handle = Stream.source(
            name, values=values, uncertain=uncertain, family=family, rate_hint=rate_hint
        )
        self._streams[name] = handle.node  # type: ignore[assignment]
        self._host.declared.add(name)
        return handle

    def create_function(self, name: str, fn: Callable) -> None:
        """Register a UDF usable from every CQL query in this session."""
        if not callable(fn):
            raise ServiceError(f"function {name!r} must be callable")
        self._functions[name] = fn

    @property
    def streams(self) -> List[str]:
        """Names of all known input streams (declared or adopted)."""
        return sorted(self._streams)

    @property
    def queries(self) -> List[str]:
        """Names of the currently registered queries."""
        return sorted(self._queries)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def analyze(
        self,
        query: str,
        functions: Optional[Mapping[str, Callable]] = None,
    ) -> list:
        """Semantically analyze CQL text against this session's schemas.

        Returns the list of :class:`repro.analysis.Diagnostic` findings
        (errors and warnings) without registering anything.  This is the
        same pass :meth:`register` runs under ``strict=True`` and the
        server surfaces in REGISTER reply headers.
        """
        from repro.analysis.semantic import analyze_query

        merged = dict(self._functions)
        merged.update(functions or {})
        return analyze_query(query, sources=self._streams, functions=merged)

    def register(
        self,
        name: str,
        query: Union[str, Stream, LogicalPlan],
        functions: Optional[Mapping[str, Callable]] = None,
        on_result: Optional[Callable[[StreamTuple], None]] = None,
        strict: bool = False,
    ) -> RegisteredQuery:
        """Register a continuous query under ``name`` and start it.

        ``query`` is CQL text, a fluent :class:`~repro.plan.Stream`, or
        a single-output :class:`~repro.plan.LogicalPlan`.  Subplans
        structurally identical to already-registered queries attach to
        the existing physical boxes instead of new ones.
        ``on_result`` is called for every tuple the query emits (in
        addition to collection in :meth:`results`).

        ``strict=True`` runs the CQL semantic analyzer first and raises
        :class:`repro.analysis.AnalysisError` when it reports errors
        (typo'd columns, deterministic ``=`` on uncertain attributes,
        broken windows, ...), instead of letting the query lower into
        something silently wrong.
        """
        if name in self._queries:
            raise ServiceError(f"a query named {name!r} is already registered")
        text: Optional[str] = None
        if isinstance(query, str):
            text = query
            if strict:
                from repro.analysis import AnalysisError, errors

                found = errors(self.analyze(query, functions))
                if found:
                    raise AnalysisError(found)
            merged = dict(self._functions)
            merged.update(functions or {})
            plan = lower_query(query, sources=self._streams, functions=merged)
        elif isinstance(query, Stream):
            plan = query.plan()
        elif isinstance(query, LogicalPlan):
            plan = query
            plan.validate()
        else:
            raise ServiceError(
                f"register() takes CQL text, a Stream or a LogicalPlan, "
                f"got {type(query).__name__}"
            )
        if len(plan.outputs) != 1:
            raise ServiceError(
                "register one query per output; use several register() calls "
                "for multi-output plans"
            )
        if self._optimize:
            optimized, traces = self._planner.optimize(plan)
            optimized.validate()
        else:
            optimized, traces = plan, []

        adopted = self._adopt_sources(optimized)

        if self._workers:
            decision = split_for_sharding(optimized, self._planner.cost_model)
            if decision.shardable:
                return self._register_sharded(
                    name, text, plan, optimized, traces, decision, on_result
                )

        try:
            (root,), lowering = self._host.attach(name, optimized.outputs)
        except Exception:
            for source in adopted:
                del self._streams[source]
            raise
        sink = self._make_sink(name, on_result)
        root.connect(sink)
        self.engine.register(sink)
        self._queries[name] = _Registered(
            name=name,
            text=text,
            plan=plan,
            optimized=optimized,
            rewrites=list(traces),
            sink=sink,
            root=root,
            strategy_decisions=list(lowering.strategy_decisions),
        )
        return RegisteredQuery(self, name)

    def _make_sink(
        self, name: str, on_result: Optional[Callable[[StreamTuple], None]]
    ) -> _QuerySink:
        sink = _QuerySink(name=f"sink:{name}", callback=on_result, query=name)
        if self._replay_capacity:
            sink.replay = ReplayLog(self._replay_capacity, query=name)
        return sink

    def _register_sharded(
        self,
        name: str,
        text: Optional[str],
        plan: LogicalPlan,
        optimized: LogicalPlan,
        traces,
        decision: ShardingDecision,
        on_result: Optional[Callable[[StreamTuple], None]],
    ) -> RegisteredQuery:
        """Run a shardable query in its own worker pool (see ``workers=``)."""
        sink = self._make_sink(name, on_result)
        sharded = ShardedEngine(
            decision,  # split once, from the session's optimized plan
            workers=self._workers,
            backend=self._shard_backend,
            chunk_size=self._shard_chunk_size,
            planner=self._planner,
            sink=sink,
            remote_shards=self._shard_remote_shards,
        )
        registered = _Registered(
            name=name,
            text=text,
            plan=plan,
            optimized=optimized,
            rewrites=list(traces),
            sink=sink,
            root=None,
            strategy_decisions=[],
            sharded=sharded,
        )
        self._queries[name] = registered
        for source in sharded.sources:
            self._sharded_by_source.setdefault(source, []).append(registered)
        return RegisteredQuery(self, name)

    def _adopt_sources(self, plan: LogicalPlan) -> List[str]:
        """Lock in (or check against) the session's source declarations.

        Returns the names of the sources this plan declared first.
        """
        adopted: List[str] = []
        for source in plan.sources:
            locked = self._streams.get(source.name)
            if locked is None:
                self._streams[source.name] = source
                adopted.append(source.name)
                continue
            if locked is source:
                continue
            open_decl = (
                source.values is None
                and source.uncertain is None
                and source.family is None
                and source.rate_hint is None
                and source.stats is None
            )
            if open_decl:
                continue  # an undeclared reference adopts the locked schema
            fp_new = next(iter(plan_fingerprints((source,)).values()))
            fp_old = next(iter(plan_fingerprints((locked,)).values()))
            if fp_new != fp_old:
                raise ServiceError(
                    f"stream {source.name!r} is already declared with a "
                    "different schema; reuse the session's declaration "
                    "(see QuerySession.create_stream)"
                )
        return adopted

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _query(self, name: str) -> _Registered:
        try:
            return self._queries[name]
        except KeyError as exc:
            known = ", ".join(sorted(self._queries)) or "none"
            raise ServiceError(
                f"no query named {name!r} is registered (registered: {known})"
            ) from exc

    def drop(self, name: str) -> None:
        """Drop a query: detach its sink and exclusively-owned boxes.

        Boxes shared with other queries lose this query as an owner but
        keep running with their state; the dropped query's exclusive
        suffix is disconnected from them and unregistered.  Declared
        streams persist even when their last query is dropped.
        """
        query = self._query(name)
        if query.sharded is not None:
            query.sharded.close()
            del self._queries[name]
            for readers in self._sharded_by_source.values():
                if query in readers:
                    readers.remove(query)
            return
        query.root.disconnect(query.sink)
        self.engine.unregister(query.sink)
        for source in self._host.detach(name):
            self._streams.pop(source, None)
        del self._queries[name]

    def pause(self, name: str) -> None:
        """Stop collecting this query's results (discarded while paused)."""
        self._query(name).sink.paused = True

    def resume(self, name: str) -> None:
        """Resume collecting this query's results."""
        self._query(name).sink.paused = False

    def is_paused(self, name: str) -> bool:
        return self._query(name).sink.paused

    def is_sharded(self, name: str) -> bool:
        """Whether a registered query runs in its own sharded runtime."""
        return self._query(name).sharded is not None

    # ------------------------------------------------------------------
    # Data flow
    # ------------------------------------------------------------------
    def _known_sources(self) -> set:
        known = set(self._host.entries)
        for source, readers in self._sharded_by_source.items():
            if readers:
                known.add(source)
        return known

    def _check_source(self, source: str) -> None:
        if source in self._host.entries or self._sharded_by_source.get(source):
            return
        known = ", ".join(sorted(self._known_sources())) or "none"
        raise ServiceError(
            f"unknown source {source!r} (known: {known}); register a query "
            "reading it first"
        )

    def push(self, source: str, item: StreamTuple) -> None:
        """Push one tuple into a named source (a batch of one)."""
        self._check_source(source)
        if source in self._host.entries:
            self.engine.push(source, item)
        for query in self._sharded_by_source.get(source, ()):
            query.sharded.push(source, item)

    def push_many(
        self,
        source: str,
        items: Iterable[StreamTuple],
        batch_size: Optional[int] = None,
        trace: Optional[obs.TraceContext] = None,
    ) -> None:
        """Push many tuples, in batches of the session's batch size.

        Each call is one ingested chunk for latency accounting: a trace
        context (minted here unless the caller — e.g. the network server
        — supplies one stamped at receipt) is active for the duration of
        the push, so query sinks record ingest→delivery latency and the
        sharded runtime stamps outbound chunk batches with it.
        """
        self._check_source(source)
        readers = self._sharded_by_source.get(source, [])
        if readers and not isinstance(items, (list, tuple)):
            items = list(items)  # several consumers each need the full stream
        ctx = trace if trace is not None else obs.new_trace()
        previous = obs.activate(ctx)
        # Root span of a sampled trace: every stage span downstream
        # (encode, ship, exec, merge, deliver) parents to its
        # deterministic id, so the exported tree hangs off one node.
        traced = obs.sampled_trace(ctx)
        root_id = obs.root_span_id(ctx.trace_id) if traced else None
        previous_parent = obs.activate_parent(root_id) if traced else None
        t0 = obs.trace_clock() if traced else 0.0
        try:
            if source in self._host.entries:
                self.engine.push_many(source, items, batch_size=batch_size)
            for query in readers:
                query.sharded.push_many(source, items)
        finally:
            if traced:
                obs.record_span(
                    "session.push",
                    "session",
                    ctx.trace_id,
                    t0,
                    obs.trace_clock(),
                    span_id=root_id,
                    parent_id=previous_parent,
                )
                obs.activate_parent(previous_parent)
            obs.activate(previous)

    def flush(self) -> None:
        """Close out all partial windows (emits their pending results).

        The session keeps running: this is a checkpoint, not a
        shutdown — pushing more tuples afterwards starts fresh windows.
        Sharded queries drain their worker pipelines.
        """
        self.engine.finish()
        for query in self._queries.values():
            if query.sharded is not None:
                query.sharded.finish()

    def close(self) -> None:
        """Shut the session down: stop every sharded query's workers.

        Engine-hosted queries need no teardown; sharded ones hold
        worker processes and queues.  Idempotent; the session is also a
        context manager (``with QuerySession(workers=4) as session:``).
        Call :meth:`flush` first if pending partial windows should
        still be emitted.
        """
        if self._closed:
            return
        self._closed = True
        for query in self._queries.values():
            if query.sharded is not None:
                query.sharded.close()

    # ------------------------------------------------------------------
    # Flight recorder: history ticks and health evaluation
    # ------------------------------------------------------------------
    def record_tick(self, t: Optional[float] = None) -> None:
        """Record one registry snapshot into the session's history ring."""
        self.history.record(obs.get_registry().snapshot(), t=t)

    def health_tick(self, now: Optional[float] = None) -> List[obs.HealthRule]:
        """Record a tick and evaluate the health rules against the ring.

        Returns the rules that newly transitioned into ``firing`` (their
        registered :meth:`on_alert` callbacks have already run).  The
        HEALTH wire verb calls this, so polling health keeps the ring
        fed.
        """
        self.record_tick(t=now)
        return self.health.evaluate(now=now)

    def on_alert(self, callback: Callable[[obs.HealthRule], None]) -> None:
        """Invoke ``callback(rule)`` whenever a health rule starts firing.

        This is the actuation hook telemetry-driven management plugs
        into: reactions such as shedding a subscriber or re-planning a
        stale query subscribe here.
        """
        self.health.on_alert(callback)

    def stage_timings(self, name: Optional[str] = None) -> Dict[str, float]:
        """Coordinator pipeline stage seconds, summed over sharded queries.

        With ``name``, just that query's :meth:`ShardedEngine.stage_timings`.
        """
        totals: Dict[str, float] = {}
        queries = [self._query(name)] if name is not None else self._queries.values()
        for query in queries:
            if query.sharded is None:
                continue
            for stage, seconds in query.sharded.stage_timings().items():
                totals[stage] = totals.get(stage, 0.0) + seconds
        return totals

    def __enter__(self) -> QuerySession:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Result listeners
    # ------------------------------------------------------------------
    def add_listener(self, name: str, listener: Callable[[StreamTuple], None]) -> None:
        """Call ``listener`` for every future result of query ``name``.

        Unlike the ``on_result`` registration callback, listeners attach
        and detach over a running query — the network service uses one
        per subscriber.  Listeners see results from the attach point on
        (no replay) and are not called while the query is paused.
        """
        self._query(name).sink.listeners.append(listener)

    def remove_listener(self, name: str, listener: Callable[[StreamTuple], None]) -> None:
        """Detach a listener added by :meth:`add_listener` (idempotent)."""
        query = self._queries.get(name)
        if query is None:
            return  # the query was dropped; its sink (and listener) are gone
        try:
            query.sink.listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def results(self, name: str) -> List[StreamTuple]:
        """All results collected for a query so far."""
        return list(self._query(name).sink.results)

    def take(self, name: str) -> List[StreamTuple]:
        """Drain and return a query's collected results."""
        sink = self._query(name).sink
        drained = list(sink.results)
        sink.results.clear()
        return drained

    # ------------------------------------------------------------------
    # Persistence-lite: snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """Serialize the session's declarative state to a JSON-able dict.

        Captures the streams declared via :meth:`create_stream` (name,
        attributes, family, rate hint, per-column statistics) and every
        query registered *as CQL text* — the text is already retained —
        plus its paused flag, in registration order.  Queries registered
        as ``Stream``/``LogicalPlan`` objects carry arbitrary closures
        and are listed under ``"unsupported"`` instead of serialized;
        UDFs likewise must be re-supplied to :meth:`restore`.
        """
        streams = []
        for stream_name in sorted(self._host.declared):
            node = self._streams.get(stream_name)
            if node is None:  # pragma: no cover - declared streams persist
                continue
            streams.append(
                {
                    "name": node.name,
                    "values": sorted(node.values) if node.values is not None else None,
                    "uncertain": sorted(node.uncertain)
                    if node.uncertain is not None
                    else None,
                    "family": node.family,
                    "rate_hint": node.rate_hint,
                    "stats": [
                        [stat.attribute, stat.family, stat.a, stat.b]
                        for stat in node.stats or ()
                    ],
                }
            )
        queries = []
        unsupported = []
        for query_name, query in self._queries.items():
            if query.text is None:
                unsupported.append(query_name)
                continue
            queries.append(
                {
                    "name": query_name,
                    "text": query.text,
                    "paused": query.sink.paused,
                }
            )
        return {
            "version": 1,
            "streams": streams,
            "queries": queries,
            "unsupported": sorted(unsupported),
            # Runtime configuration: restore() recreates the sharded
            # runtime as configured here unless explicitly overridden.
            "workers": self._workers,
            "shard_backend": self._shard_backend,
            "shard_chunk_size": self._shard_chunk_size,
            "shard_remote_shards": list(self._shard_remote_shards),
        }

    @classmethod
    def restore(
        cls,
        snapshot: Mapping,
        planner: Optional[Planner] = None,
        batch_size: Optional[int] = None,
        optimize: bool = True,
        functions: Optional[Mapping[str, Callable]] = None,
        workers: Optional[int] = None,
        shard_backend: Optional[str] = None,
        shard_chunk_size: Optional[int] = None,
        shard_remote_shards: Optional[Iterable[str]] = None,
        replay_capacity: Optional[int] = None,
    ) -> QuerySession:
        """Rebuild a session from :meth:`snapshot` output.

        Stream declarations are re-created and the CQL queries
        re-registered (and re-paused) in their snapshot order.  UDFs are
        code, not state — pass them in ``functions`` under the same
        names the query texts use.  Operator state (window contents,
        collected results) is *not* part of the snapshot: the restored
        session starts fresh, which is the intended restart semantics.

        The sharded-runtime configuration (``workers``, backend, chunk
        size, remote shard addresses) is part of the snapshot, so a
        ``QuerySession(workers=4)`` restores sharded rather than
        silently downgrading to one process; pass the corresponding
        keyword to override (e.g. ``workers=0`` to force a
        single-process restore).  Snapshot remote-shard addresses are
        re-dialled at registration — if the shard servers are gone,
        restoring fails loudly rather than quietly forking locally
        (pass ``shard_remote_shards=()`` to accept the local fallback).
        """
        version = snapshot.get("version")
        if version != 1:
            raise ServiceError(f"unsupported session snapshot version {version!r}")
        session = cls(
            planner=planner,
            batch_size=batch_size,
            optimize=optimize,
            functions=functions,
            workers=snapshot.get("workers", 0) if workers is None else workers,
            shard_backend=(
                snapshot.get("shard_backend", "process")
                if shard_backend is None
                else shard_backend
            ),
            shard_chunk_size=(
                snapshot.get("shard_chunk_size", 1024)
                if shard_chunk_size is None
                else shard_chunk_size
            ),
            shard_remote_shards=(
                snapshot.get("shard_remote_shards", ())
                if shard_remote_shards is None
                else shard_remote_shards
            ),
            replay_capacity=4096 if replay_capacity is None else replay_capacity,
        )
        for decl in snapshot.get("streams", ()):
            stats = {attr: (family, a, b) for attr, family, a, b in decl.get("stats", ())}
            uncertain = decl.get("uncertain")
            if uncertain is not None and stats:
                uncertain = {name: stats.get(name) for name in uncertain}
            session.create_stream(
                decl["name"],
                values=decl.get("values"),
                uncertain=uncertain,
                family=decl.get("family"),
                rate_hint=decl.get("rate_hint"),
            )
        for query in snapshot.get("queries", ()):
            session.register(query["name"], query["text"])
            if query.get("paused"):
                session.pause(query["name"])
        return session

    # ------------------------------------------------------------------
    # Result replay (SUBSCRIBE ... RESUME)
    # ------------------------------------------------------------------
    def last_result_seq(self, name: str) -> int:
        """Sequence number of the last result query ``name`` emitted.

        Results are numbered from 1 in emission order, per query; 0
        means the query has emitted nothing yet.
        """
        log = self._query(name).sink.replay
        return log.last_seq if log is not None else 0

    def replay_from(self, name: str, after_seq: int) -> List[Tuple[int, StreamTuple]]:
        """Return the ``(seq, result)`` pairs emitted after ``after_seq``.

        Raises :class:`~repro.recovery.ReplayGapError` when the bounded
        replay log has already trimmed past ``after_seq`` — the caller
        can no longer be given a gap-free resume and should re-read the
        query's results from scratch.
        """
        query = self._query(name)
        if query.sink.replay is None:
            raise ServiceError(
                f"query {name!r} keeps no replay log "
                "(the session was created with replay_capacity=0)"
            )
        return query.sink.replay.replay_from(after_seq)

    # ------------------------------------------------------------------
    # Durability: checkpoint / recover
    # ------------------------------------------------------------------
    def _query_state(self, query: _Registered) -> Dict:
        """One query's full mutable state as a state-codec-ready dict."""
        state: Dict
        if query.sharded is not None:
            # Quiesce *first*: draining in-flight chunks delivers their
            # merged results into the sink, which must be captured below.
            state = {"kind": "sharded", "sharded": query.sharded.state_snapshot()}
        else:
            state = {"kind": "engine", "ops": self._host.snapshot(query.name)}
        state["sink"] = {
            "results": list(query.sink.results),
            "dropped": query.sink.dropped,
        }
        state["replay"] = (
            query.sink.replay.state_snapshot()
            if query.sink.replay is not None
            else None
        )
        return state

    def checkpoint(self, directory: str, mode: str = "auto") -> CheckpointInfo:
        """Quiesce and write a durable checkpoint of the whole session.

        Sharded queries drain their in-flight chunks (without closing
        windows) and snapshot every shard over the worker transports;
        engine-hosted queries snapshot their operator chains in place.
        The checkpoint is committed atomically — a crash mid-write
        leaves the previous checkpoint as the latest valid one.  With
        ``mode="delta"`` (or ``"auto"`` after the first checkpoint)
        only blobs whose content changed are rewritten; the rest are
        references into earlier files.  :meth:`recover` restores the
        latest checkpoint of the directory.
        """
        if self._closed:
            raise ServiceError("cannot checkpoint a closed session")
        declarative = self.snapshot()
        if declarative["unsupported"]:
            names = ", ".join(declarative["unsupported"])
            raise ServiceError(
                f"cannot checkpoint queries registered from Stream/LogicalPlan "
                f"objects ({names}); register them as CQL text"
            )
        blobs: Dict[str, bytes] = {}
        for name, query in self._queries.items():
            blobs[f"query/{name}"] = encode_state(self._query_state(query))
        meta = {
            "session": declarative,
            "tuple_counter": tuple_counter_mark(),
            "batch_size": self._batch_size,
            "optimize": self._optimize,
            "replay_capacity": self._replay_capacity,
        }
        blobs["meta"] = json.dumps(meta, separators=(",", ":")).encode("utf-8")
        # The registry snapshot and the history ring ride along as
        # sidecars so recovery can report what the process observed up
        # to the captured state — and keep its time series growing from
        # there instead of restarting blind.
        t0 = obs.trace_clock()
        info = CheckpointStore(directory).save(
            blobs,
            mode=mode,
            metrics=obs.get_registry().snapshot(),
            history=self.history.to_blob() if len(self.history) else None,
        )
        obs.record_span("checkpoint.commit", "checkpoint", 0, t0, obs.trace_clock())
        return info

    @classmethod
    def recover(
        cls,
        directory: str,
        planner: Optional[Planner] = None,
        functions: Optional[Mapping[str, Callable]] = None,
        workers: Optional[int] = None,
        shard_backend: Optional[str] = None,
        shard_chunk_size: Optional[int] = None,
        shard_remote_shards: Optional[Iterable[str]] = None,
    ) -> QuerySession:
        """Rebuild a session from the latest checkpoint in ``directory``.

        Re-registers every query, restores all operator state (window
        contents, aggregate accumulators, join buffers, in-flight merge
        state), collected results and replay logs, and advances the
        global tuple-id counter past every id the checkpoint recorded
        so new tuples never collide with restored lineage.  Tuples
        pushed into the recovered session continue exactly where the
        checkpoint left off.  UDFs are code, not state — pass them in
        ``functions`` under the names the query texts use.

        The worker count is part of the checkpoint; overriding
        ``workers`` is only valid when it does not change whether (and
        how wide) a query shards.
        """
        store = CheckpointStore(directory)
        header, blobs = store.load_latest()
        meta = json.loads(blobs["meta"].decode("utf-8"))
        # Advance the tuple counter before re-registering: forked shard
        # workers inherit it, and every tuple created from here on must
        # outrank the ids the checkpoint carries.
        advance_tuple_counter(int(meta["tuple_counter"]))
        session = cls.restore(
            meta["session"],
            planner=planner,
            batch_size=meta.get("batch_size"),
            optimize=meta.get("optimize", True),
            functions=functions,
            workers=workers,
            shard_backend=shard_backend,
            shard_chunk_size=shard_chunk_size,
            shard_remote_shards=shard_remote_shards,
            replay_capacity=int(meta.get("replay_capacity", 4096)),
        )
        for name, query in session._queries.items():
            payload = blobs.get(f"query/{name}")
            if payload is None:  # pragma: no cover - defensive
                continue
            state = decode_state(payload)
            query.sink.results = list(state["sink"]["results"])
            query.sink.dropped = int(state["sink"]["dropped"])
            if state.get("replay") is not None and query.sink.replay is not None:
                query.sink.replay.state_restore(state["replay"])
            if state["kind"] == "sharded":
                if query.sharded is None:
                    raise ServiceError(
                        f"query {name!r} was checkpointed sharded but recovered "
                        "into the shared engine; recover with the checkpoint's "
                        "worker configuration"
                    )
                query.sharded.state_restore(state["sharded"])
                continue
            if query.sharded is not None:
                raise ServiceError(
                    f"query {name!r} was checkpointed engine-hosted but "
                    "recovered sharded; recover with the checkpoint's worker "
                    "configuration"
                )
            # A box shared by several queries restores once per query,
            # from the same checkpointed state.
            session._host.restore(state["ops"], name)
        #: Metrics-registry snapshot taken when the checkpoint was
        #: written (``None`` for checkpoints predating the sidecar):
        #: what the lost process had observed up to the restored state.
        session.recovered_metrics = store.load_metrics(int(header["id"]))
        session.recovered_history = store.load_history(int(header["id"]))
        if session.recovered_history is not None:
            # Replay the persisted ticks into the fresh ring: history
            # timestamps are CLOCK_MONOTONIC (system-wide since boot),
            # so ticks recorded after recovery continue monotonically
            # from the restored ones across a crash of the old process.
            session.history = obs.HistoryRing.from_blob(
                session.recovered_history, capacity=session.history.capacity
            )
            session.health.history = session.history
        return session

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def statistics(self, name: Optional[str] = None) -> List[BoxReport]:
        """Per-box statistics with ownership.

        With a query name: that query's boxes in dataflow order (shared
        boxes report *all* their owners, so a shared chain is visible
        as one box with several owners rather than duplicated
        counters).  Without: every box in the session.
        """
        if name is not None:
            query = self._query(name)
            if query.sharded is not None:
                return self._sharded_reports(query)
        reports = self._host.statistics(name)
        if name is None:
            for query in self._queries.values():
                if query.sharded is not None:
                    reports.extend(self._sharded_reports(query))
        return reports

    def _sharded_reports(self, query: _Registered) -> List[BoxReport]:
        """Per-shard boxes (names prefixed ``shard<i>/``) plus coordinator."""
        stats = query.sharded.statistics()
        reports: List[BoxReport] = []
        for shard in sorted(stats.shards):
            for row in stats.shards[shard]:
                renamed = replace(row, name=f"shard{shard}/{row.name}")
                reports.append(BoxReport(stats=renamed, owners=(query.name,)))
        for row in stats.coordinator:
            reports.append(BoxReport(stats=row, owners=(query.name,)))
        return reports

    def observed_stats(self, name: str) -> Dict:
        """Observability report for one query: latency plus operator rates.

        Combines the sink's end-to-end ingest→delivery latency histogram
        (populated whenever pushes run under a trace context — always,
        since :meth:`push_many` mints one) with per-operator throughput:
        mean seconds per batch and, for selective boxes, the observed
        pass rate ``tuples_out / tuples_in``.  Works identically for
        engine-hosted and sharded queries (sharded operators report per
        shard, names prefixed ``shard<i>/``).
        """
        query = self._query(name)
        latency = query.sink.latency
        operators = []
        for report in self.statistics(name):
            stats = report.stats
            operators.append(
                {
                    **asdict(stats),  # name, tuples in/out, batches in, seconds
                    "seconds_per_batch": (
                        stats.seconds / stats.batches_in if stats.batches_in else None
                    ),
                    "pass_rate": (
                        stats.tuples_out / stats.tuples_in if stats.tuples_in else None
                    ),
                }
            )
        last = query.sink.last_trace
        return {
            "query": name,
            "sharded": query.sharded is not None,
            "latency": {
                "count": latency.count,
                "mean": latency.mean,
                **latency.percentiles((0.5, 0.95, 0.99)),
            },
            "last_trace": (
                {
                    "trace_id": last.trace_id,
                    "t_ingest": last.t_ingest,
                    "delivered_at": query.sink.last_delivered_at,
                }
                if last is not None
                else None
            ),
            "operators": operators,
        }

    def shard_statistics(self, name: str) -> ShardedStatistics:
        """Raw per-shard statistics of a sharded query."""
        query = self._query(name)
        if query.sharded is None:
            raise ServiceError(
                f"query {name!r} runs in the shared engine, not sharded "
                "(register it in a session with workers > 0)"
            )
        return query.sharded.statistics()

    def explain(self, name: Optional[str] = None) -> str:
        """Explain one query (with sharing annotations) or the session."""
        if name is not None:
            return self._explain_query(self._query(name))
        lines = ["QuerySession", "============"]
        lines.append(f"streams: {', '.join(self.streams) or '(none)'}")
        described = []
        for query_name in self.queries:
            query = self._queries[query_name]
            if query.sharded is not None:
                described.append(f"{query_name} (sharded x{query.sharded.workers})")
            else:
                described.append(query_name)
        lines.append(f"queries: {', '.join(described) or '(none)'}")
        boxes = self._host.boxes()
        shared = [box for box in boxes if len(box.owners) > 1]
        lines.append(f"physical boxes: {len(boxes)} ({len(shared)} shared)")
        for box in shared:
            lines.append(f"- {box.op.name} shared by {', '.join(sorted(box.owners))}")
        return "\n".join(lines)

    def _explain_query(self, query: _Registered) -> str:
        lines = [f"query {query.name}"]
        if query.sink.paused:
            lines[0] += " (paused)"
        lines.append("=" * len(lines[0]))
        if query.text is not None:
            lines.append(query.text.strip())
            lines.append("")
        lines.append("Logical plan")
        lines.append("------------")
        lines.append(query.optimized.explain())
        lines.append("")
        lines.append("Rewrites")
        lines.append("--------")
        lines.extend([f"- {t.rule}: {t.description}" for t in query.rewrites] or ["(none applied)"])
        if query.strategy_decisions:
            lines.append("")
            lines.append("Cost model")
            lines.append("----------")
            lines.extend(decision.explain() for decision in query.strategy_decisions)
        if query.sharded is not None:
            lines.append("")
            lines.append(query.sharded.explain())
            return "\n".join(lines)
        lines.append("")
        lines.append("Physical boxes")
        lines.append("--------------")
        for box in self._host.boxes(query.name):
            others = sorted(o for o in box.owners if o != query.name)
            tag = f"shared with {', '.join(others)}" if others else "exclusive"
            lines.append(f"- {box.op.name} <- {box.node.label()}  [{tag}]")
        return "\n".join(lines)
