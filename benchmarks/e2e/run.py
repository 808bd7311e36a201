"""End-to-end and per-layer benchmark of the served bitemporal store.

One command runs a workload against the real server in a child
process, checks every answer, and prints every metric by name and unit::

    python3 benchmarks/e2e/run.py --seed 1992          # all four workloads, 30 s windows
    python3 benchmarks/e2e/run.py --trace 1            # the per-layer pass instead
    python3 benchmarks/e2e/run.py --check-agreement    # two sets, which must agree within bounds
    python3 benchmarks/e2e/run.py --smoke              # 2 s windows, 10k elements
    python3 benchmarks/e2e/run.py --workload point_general --seed 7 --seconds 10 --trace 0

With exactly one ``--workload`` the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` (the
contract of the repository's ``BENCHMARK.json``).  README.md defines the
workloads, the metrics and their bounds.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, HERE)

import loadgen  # noqa: E402
import measure  # noqa: E402
import scenario as sc  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402
from repro.storage.logfile import LogFileEngine  # noqa: E402

DEFAULT_SEED = 1992
#: Stored elements of every relation, and of the --smoke ones.
ELEMENTS = 100_000
SMOKE_ELEMENTS = 10_000
OUT = os.path.join(HERE, "out")
#: Requests the traced pass replays (fewer only if ``--seconds`` runs out).
TRACED_REQUESTS = 400
#: A request still unanswered this long after its window closed has timed out.
GRACE = 60.0
#: Seconds of load between two readings of the reference kernel.
SLICE_SECONDS = 1.0

#: Planner strategies that confine a scan using a declared specialization
#: or transaction-time order (``query.planner.narrowed_share`` counts these).
NARROWED = (
    "bounded-tt-window",
    "degenerate-",
    "monotone-binary-search",
    "sequential-interval-search",
    "rollback-prefix",
    "bitemporal-prefix",
)

Value = Dict[str, Any]  # {"value", "unit", "spread", "samples"}


# -- the server child ----------------------------------------------------------------


class Child:
    """One ``server_proc.py`` process."""

    def __init__(
        self,
        options: argparse.Namespace,
        workload: str,
        directory: str,
        trace: bool = False,
        cpu: Optional[int] = None,
    ) -> None:
        os.makedirs(directory)
        self.directory = directory
        self.spans_path = os.path.join(directory, "spans.jsonl")
        command = [
            sys.executable,
            os.path.join(HERE, "server_proc.py"),
            "--workload", workload,
            "--seed", str(options.seed),
            "--elements", str(options.elements),
            "--dir", directory,
        ]  # fmt: skip
        if trace:
            command += ["--trace", "--spans", self.spans_path]
        # The program runs on its defaults whatever the caller's shell exports.
        env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        self.spawned_at = time.time()
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env
        )
        self.port = 0
        self.pid = self.process.pid
        if cpu is not None:
            measure.pin(self.pid, cpu)
        self.epoch: Optional[Dict[str, int]] = None
        self.ready_s = 0.0

    def wait_ready(self) -> None:
        assert self.process.stdout is not None
        line = self.process.stdout.readline().decode("utf-8")
        if not line.startswith("READY "):
            self.kill()
            raise RuntimeError(
                f"server child exited with {self.process.returncode} before it was ready"
            )
        ready = json.loads(line[len("READY "):])
        self.port = ready["port"]
        self.epoch = ready.get("epoch")
        self.ready_s = ready["ready_at"] - self.spawned_at

    def kill(self) -> None:
        """SIGKILL: nothing the child buffered in user space survives."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self._reap()

    def stop(self) -> None:
        """Ask the child to shut down and write its spans."""
        assert self.process.stdin is not None
        try:
            self.process.stdin.write(b"STOP\n")
            self.process.stdin.flush()
            self.process.wait(timeout=GRACE)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            self.kill()
        self._reap()

    def _reap(self) -> None:
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None:
                stream.close()


# -- set-up ----------------------------------------------------------------------------


class Prepared:
    """The generator's side of a workload: oracle and request sequence."""

    def __init__(self, workload: str, options: argparse.Namespace) -> None:
        self.oracle: Optional[sc.Oracle] = None
        self.ingest: Optional[sc.IngestScenario] = None
        if workload == "ingest_durable":
            self.ingest = sc.IngestScenario(options.seed)
            self.ingest.ensure(64)
            return
        relation = sc.build_relation(workload, options.seed, options.elements)
        assert relation is not None
        self.oracle = sc.Oracle(relation)
        scenario_class = sc.HistoryScenario if workload == "history_tiered" else sc.PointScenario
        self.reads = scenario_class(workload, self.oracle, options.seed)
        self.reads.ensure(2_000)


async def _ingest_setup(child: Child, ingest: sc.IngestScenario) -> None:
    """Create the relation, register the view, post batch 0."""
    async with loadgen.Connection("127.0.0.1", child.port) as connection:
        for response in (
            await connection.create_relation(ingest.create_spec()),
            await connection.register_view(ingest.NAME, ingest.view_spec()),
            await connection.send(ingest.batches[0].wire),
        ):
            if response.status != 200:
                raise RuntimeError(f"ingest set-up failed: {response.status} {response.body!r}")


def finish_setup(child: Child, prepared: Prepared) -> float:
    """Wait for *child* to serve its workload's initial state; returns
    the set-up's seconds (spawn to ready, plus any HTTP set-up)."""
    child.wait_ready()
    elapsed = child.ready_s
    if prepared.ingest is not None:
        started = time.perf_counter()
        asyncio.run(_ingest_setup(child, prepared.ingest))
        elapsed += time.perf_counter() - started
    else:
        oracle = prepared.oracle
        assert oracle is not None and child.epoch is not None
        mine = oracle.pin.to_json()
        if (child.epoch["tt"], child.epoch["elements"]) != (mine["tt"], mine["elements"]):
            raise RuntimeError(
                f"server built a different relation: its pin {child.epoch}, the generator's {mine}"
            )
        oracle.epoch_json = child.epoch
    return elapsed


# -- the end-to-end pass -------------------------------------------------------------


@contextlib.contextmanager
def gc_held() -> Iterator[None]:
    """Collect, then hold the generator's cyclic collector: a gen-2 pause
    inside a window would be charged to whichever request it delayed."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@contextlib.contextmanager
def one_cpu(*children: Child) -> Iterator[None]:
    """Confine the generator and *children* to one CPU while they talk.

    One request is in flight at a time, so nothing is lost -- and on two
    virtual CPUs it matters which one a woken process lands on: across
    them a wake-up is an inter-processor interrupt into an idle guest
    CPU, and a sub-millisecond request then read 0.30-0.33 ms wherever
    the scheduler happened to put the two processes, against 0.28 ms
    (to 1 %) on one CPU."""
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    for child in children:
        measure.pin(child.pid, cpu)
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def warmup_seconds(seconds: float) -> float:
    return max(1.0, min(3.0, seconds / 5.0))


async def _run(tally: loadgen.Tally, load: Any, budget: float) -> None:
    """Await *load*, which should end within *budget* seconds: a request
    still unanswered GRACE later has timed out.  A torn connection
    raises: it is a crash of the run, not a sample."""
    try:
        await asyncio.wait_for(load, budget + GRACE)
    except asyncio.TimeoutError:
        tally.fail("a request timed out")


class Slice(NamedTuple):
    """SLICE_SECONDS of a measured window."""

    ops: List[loadgen.Op]
    seconds: float  # how long the load ran
    cpu_ms: float  # server CPU spent meanwhile
    client_cpu_s: float  # generator CPU spent meanwhile
    #: How much more slowly than the quiet sandbox the box ran the
    #: reference kernel just before and just after (their mean).
    slowdown: float


async def measure_window(
    child: Child, prepared: Prepared, options: argparse.Namespace
) -> Tuple[loadgen.Tally, List[Slice], Dict[str, float]]:
    """Warm up, then drive the measured window: slices of load, with a
    reading of the reference kernel between them."""
    seconds = options.seconds
    tally = loadgen.Tally()
    extras: Dict[str, float] = {}
    ingest = prepared.ingest
    connection = loadgen.Connection("127.0.0.1", child.port)
    await connection.connect()
    try:
        if ingest is not None:
            progress = state = loadgen.IngestState(ingest, acked=0)

            def load(deadline: float) -> Any:
                return loadgen.ingest_loop(connection, state, deadline, tally)

            def sent() -> int:
                return state.acked

            ensure = ingest.ensure
        else:
            progress = cursor = loadgen.Cursor()
            reads = prepared.reads

            def load(deadline: float) -> Any:
                return loadgen.closed_loop(connection, reads.requests, cursor, deadline, tally)

            def sent() -> int:
                return cursor.next

            ensure = reads.ensure
            prologue = loadgen.Cursor()
            await _run(
                tally,
                loadgen.closed_loop(connection, reads.prologue, prologue, math.inf, tally),
                GRACE,
            )

        # Warm-up, in short legs so the sequence can be extended between
        # them at the rate observed so far.
        warm = warmup_seconds(seconds)
        begun = time.perf_counter()
        legs = 4
        for leg in range(legs):
            await _run(tally, load(begun + warm * (leg + 1) / legs), warm)
            rate = sent() / (time.perf_counter() - begun)
            ensure(sent() + int(2 * rate * (warm / legs if leg + 1 < legs else seconds)) + 64)
        if ingest is not None:
            # Memory when the relation reaches the size the read
            # workloads serve: how many rows a window stores depends on
            # how fast the box happens to be.
            state.on_rows = (
                max(options.elements, (state.acked + 2) * ingest.BATCH_ROWS),
                lambda: extras.update(rss_at_size=measure.memory_mb(child.pid)["VmRSS"]),
            )

        # Running dry during warm-up only shortened a leg; inside the
        # window it would shorten the measurement.
        progress.exhausted = False
        slices: List[Slice] = []
        count = max(1, round(seconds / SLICE_SECONDS))
        with gc_held():
            reading = measure.slowdown()
            for _ in range(count):
                first_op = len(tally.ops)
                cpu, client_cpu = measure.cpu_ms(child.pid), time.process_time()
                started = time.perf_counter()
                await _run(tally, load(started + seconds / count), seconds)
                elapsed = time.perf_counter() - started
                cpu, client_cpu = measure.cpu_ms(child.pid) - cpu, time.process_time() - client_cpu
                before, reading = reading, measure.slowdown()
                slices.append(
                    Slice(tally.ops[first_op:], elapsed, cpu, client_cpu, (before + reading) / 2)
                )
        if progress.exhausted:
            tally.fail("the pre-generated request sequence ran out inside the window")
        if ingest is not None:
            extras["acked"] = float(state.acked)
        return tally, slices, extras
    finally:
        await connection.close()


def _value(name: str, value: Optional[float], spread: Optional[float], samples: int) -> Value:
    unit = next(metric.unit for metric in spec.end_to_end() if metric.name == name)
    return {
        "value": value,
        "unit": unit,
        "spread": spread,
        "samples": samples,
    }


def window_metrics(slices: List[Slice]) -> Dict[str, Value]:
    """Every end-to-end metric the slices of a window determine.

    Each slice's times are first divided by the slice's ``slowdown``:
    the numbers say what the window would have read on the quiet
    sandbox.  ``spread`` is the metric's IQR / median over the window's
    PARTS consecutive parts."""
    groups = [part for part in measure.parts(slices) if part]
    total = sum(len(one.ops) for one in slices)
    metrics: Dict[str, Value] = {}

    def throughput(name: str, amount) -> None:
        def rate(chosen: List[Slice]) -> float:
            work = sum(amount(op) for one in chosen for op in one.ops)
            return work / sum(one.seconds / one.slowdown for one in chosen)

        if not rate(slices):
            metrics[name] = _value(name, None, None, 0)
            return
        series = [rate(part) for part in groups]
        metrics[name] = _value(name, rate(slices), measure.spread(series), total)
        metrics[name]["slices"] = [round(entry, 1) for entry in series]

    throughput("ops_per_s", lambda op: 1)
    throughput("result_rows_per_s", lambda op: op.rows if op.kind != "bulk" else 0)
    throughput("ingest_rows_per_s", lambda op: op.rows if op.kind == "bulk" else 0)

    def latency(name: str, q: float, chosen) -> None:
        per_part = [
            [op.latency * 1e3 / one.slowdown for one in part for op in one.ops if chosen(op.kind)]
            for part in groups
        ]
        metrics[name] = _value(name, *measure.summarize_latencies(per_part, q))

    latency("tql_p50_ms", 50, sc.is_tql)
    latency("get_p50_ms", 50, lambda kind: kind != "bulk" and not sc.is_tql(kind))
    latency("read_p95_ms", 95, lambda kind: kind != "bulk")
    latency("write_p50_ms", 50, lambda kind: kind == "bulk")
    latency("write_p95_ms", 95, lambda kind: kind == "bulk")

    def cpu_per_op(chosen: List[Slice]) -> Optional[float]:
        ops = sum(len(one.ops) for one in chosen)
        return sum(one.cpu_ms / one.slowdown for one in chosen) / ops if ops else None

    metrics["server_cpu_ms_per_op"] = _value(
        "server_cpu_ms_per_op",
        cpu_per_op(slices),
        measure.spread([cpu_per_op(part) for part in groups]),
        total,
    )
    return metrics


def recover_log(child: Child, ingest: sc.IngestScenario) -> Dict[int, Any]:
    """Reopen the killed child's WAL with the library; surrogate -> element."""
    engine = LogFileEngine(os.path.join(child.directory, "data", f"{ingest.NAME}.logfile"))
    try:
        return {element.element_surrogate: element for element in engine.scan()}
    finally:
        engine.close()


def run_end_to_end(workload: str, options: argparse.Namespace) -> Dict[str, Any]:
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    children: List[Child] = []

    def spawn(cpu: int) -> Child:
        directory = os.path.join(run_dir, f"child{len(children)}")
        child = Child(options, workload, directory, cpu=cpu)
        children.append(child)
        return child

    try:
        # Three set-ups, each with a CPU to itself: child 1 beside the
        # generator's own preparation, then children 2 and 3 beside each
        # other.  Like a window's slices, each is divided by how slowly
        # its CPU ran the reference kernel before and after it.
        allowed = sorted(os.sched_getaffinity(0))
        mine, other = allowed[0], allowed[-1]
        readings = [measure.slowdown_on({mine, other})]
        first = spawn(other)
        os.sched_setaffinity(0, {mine})
        prepared = Prepared(workload, options)
        os.sched_setaffinity(0, allowed)
        setups = [finish_setup(first, prepared)]
        first.kill()
        readings.append(measure.slowdown_on({mine, other}))
        second, child = spawn(other), spawn(mine)
        setups += [finish_setup(second, prepared), finish_setup(child, prepared)]
        second.kill()
        readings.append(measure.slowdown_on({mine, other}))
        beside = [
            (before[cpu] + after[cpu]) / 2
            for cpu, before, after in (
                (other, readings[0], readings[1]),
                (other, readings[1], readings[2]),
                (mine, readings[1], readings[2]),
            )
        ]
        setups = [seconds / slowdown for seconds, slowdown in zip(setups, beside)]

        with one_cpu(child):
            tally, slices, extras = asyncio.run(measure_window(child, prepared, options))
        metrics = window_metrics(slices)
        metrics["setup_s"] = _value(
            "setup_s", statistics.median(setups), measure.spread(setups), len(setups)
        )
        memory = measure.memory_mb(child.pid)
        notes: List[str] = []
        disk: Optional[float] = None
        if prepared.ingest is not None:
            # fsync policy: LogFileEngine default, one fsync per acknowledged batch.
            child.kill()
            acked = int(extras["acked"])
            recovered = recover_log(child, prepared.ingest)
            total, found = loadgen.verify_recovered(tally, prepared.ingest, acked, recovered)
            checked = loadgen.verify_ingest_sampled(tally, prepared.ingest)
            notes.append(
                f"durability: SIGKILL, reopened with LogFileEngine: recovered {found} of "
                f"{total} acknowledged rows (flush policy: one fsync per batch, the default)"
            )
            log_bytes = measure.directory_bytes(os.path.join(child.directory, "data"))
            disk = log_bytes / max(1, len(recovered))
            rss = extras.get("rss_at_size", memory["VmRSS"])
        else:
            assert prepared.oracle is not None
            checked = loadgen.verify_sampled(tally, prepared.oracle)
            rss = memory["VmHWM"]
            tier_dir = os.path.join(child.directory, "tier")
            if os.path.isdir(tier_dir):
                disk = measure.directory_bytes(tier_dir) / len(prepared.oracle.elements)
        notes.append(f"answers: {tally.attempted} counts checked, {checked} bodies compared")
        metrics["server_rss_mb"] = _value("server_rss_mb", rss, None, 1)
        metrics["disk_bytes_per_row"] = _value("disk_bytes_per_row", disk, None, 1)
        metrics["error_rate"] = _value(
            "error_rate", tally.failed / max(1, tally.attempted), None, tally.attempted
        )
        if tally.cacheable:
            notes.append(
                f"response cache: {tally.cache_hits} hits of {tally.cacheable} cacheable reads"
            )
        busy = sum(one.client_cpu_s for one in slices) / sum(one.seconds for one in slices)
        notes.append(f"generator CPU share of the window: {busy:.2f}")
        slowdowns = sorted(one.slowdown for one in slices)
        notes.append(
            f"the box ran the reference kernel {statistics.median(slowdowns):.2f}x "
            f"({slowdowns[0]:.2f}-{slowdowns[-1]:.2f}) as slowly as the quiet sandbox "
            f"({measure.REFERENCE_KERNEL_MS} ms) during the window, "
            f"{statistics.median(beside):.2f}x during set-up; every time above is divided by that"
        )
        notes += [f"FAILED: {note}" for note in tally.notes]
        return {
            "workload": workload,
            "mode": "end_to_end",
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
            "notes": notes,
        }
    finally:
        for child in children:
            child.kill()
        shutil.rmtree(run_dir, ignore_errors=True)


# -- the traced pass -----------------------------------------------------------------


def traced_sequence(prepared: Prepared) -> List[sc.Request]:
    """The first TRACED_REQUESTS requests of the workload."""
    ingest = prepared.ingest
    if ingest is None:
        return prepared.reads.requests[:TRACED_REQUESTS]
    cycles = TRACED_REQUESTS // 3 + 1
    ingest.ensure(cycles + 1)
    sequence = [request for batch in range(1, cycles + 1) for request in ingest.cycle(batch)]
    return sequence[:TRACED_REQUESTS]


async def replay(
    child: Child,
    prepared: Prepared,
    sequence: List[sc.Request],
    deadline_in: Optional[float],
    stamped: bool,
) -> Tuple[loadgen.Tally, float, Dict[str, Any], float]:
    """Replay *sequence* on one connection.  Returns (tally, elapsed
    seconds, /metrics counter delta, generator CPU share)."""
    tally = loadgen.Tally()
    async with loadgen.Connection("127.0.0.1", child.port) as connection:
        before = (await connection.metrics()).json()["metrics"].get("counters", {})
        deadline = math.inf if deadline_in is None else time.perf_counter() + deadline_in
        stamp = sc.with_sequence if stamped else None
        with gc_held():
            client_cpu = time.process_time()
            started = time.perf_counter()
            if prepared.ingest is None:
                await loadgen.closed_loop(
                    connection, sequence, loadgen.Cursor(), deadline, tally, stamp=stamp
                )
            else:
                await _replay_ingest(connection, prepared.ingest, sequence, deadline, tally, stamp)
            elapsed = time.perf_counter() - started
            share = (time.process_time() - client_cpu) / elapsed
        after = (await connection.metrics()).json()["metrics"].get("counters", {})
    delta = {name: value - before.get(name, 0) for name, value in after.items()}
    return tally, elapsed, delta, share


async def _replay_ingest(
    connection: loadgen.Connection,
    ingest: sc.IngestScenario,
    sequence: List[sc.Request],
    deadline: float,
    tally: loadgen.Tally,
    stamp,
) -> None:
    state = loadgen.IngestState(ingest, acked=0)
    for index, request in enumerate(sequence):
        if time.perf_counter() >= deadline:
            return
        wire = request.wire if stamp is None else stamp(request.wire, index)
        if request.kind != "bulk":
            await loadgen.send_read(connection, state, request, tally, wire, index)
        elif not await loadgen.send_bulk(connection, state, request, tally, wire, index):
            return


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    traced: loadgen.Tally, counters: Dict[str, Any], table: Dict[int, Dict[str, float]]
) -> Dict[str, float]:
    """Every per-layer metric the spans, the op records and the
    /metrics delta of the traced pass determine."""
    ops = traced.ops
    count = len(ops)
    rows = {op.index: op.rows for op in ops}
    writes = [op.index for op in ops if op.kind == "bulk"]
    write_rows = sum(rows[index] for index in writes)

    def layer(name: str, **how: Any) -> float:
        return spans.median_layer(table, name, **how)

    def counter(name: str) -> float:
        return float(counters.get(name, 0))

    plans = {
        name[len("query.plans."):]: value
        for name, value in counters.items()
        if name.startswith("query.plans.")
    }
    narrowed = sum(value for name, value in plans.items() if name.startswith(NARROWED))
    walls = {index: layers["wall"] for index, layers in table.items() if "wall" in layers}
    coverage = [1.0 - table[index][spans.ROOT] / wall for index, wall in walls.items() if wall]
    transport = [op.latency * 1e6 - walls[op.index] for op in ops if op.index in walls]
    return {
        "server.http.read_request_us": layer("server.http.read_request"),
        "server.http.serialize_us": layer("server.http.serialize"),
        "server.http.write_us": layer("server.http.write"),
        "server.http.response_bytes_per_op": _ratio(sum(op.size for op in ops), count),
        "server.protocol.decode_us": layer("server.protocol.decode"),
        "server.protocol.encode_us_per_row": layer("server.protocol.encode", per=rows),
        "server.app.handler_self_us": layer("server.app.handler"),
        "server.app.cache_hit_ratio": _ratio(traced.cache_hits, traced.cacheable),
        "server.app.write_wait_us": layer("server.app.handler", only=writes),
        "server.app.backpressure_rejected": counter("server.backpressure.rejected"),
        "query.tql.parse_us": layer("query.tql.parse"),
        "query.tql.compile_us": layer("query.tql.compile"),
        "query.cache.parse_hit_ratio": _ratio(
            counter("cache.hits.parse"), counter("cache.hits.parse") + counter("cache.misses.parse")
        ),
        "query.cache.plan_hit_ratio": _ratio(
            counter("cache.hits.plan"), counter("cache.hits.plan") + counter("cache.misses.plan")
        ),
        "query.planner.plan_us": layer("query.planner.plan"),
        "query.planner.narrowed_share": _ratio(narrowed, sum(plans.values())),
        "query.operators.execute_us": layer("query.operators.execute"),
        "query.operators.examined_per_returned": _ratio(
            counter("query.elements_examined"), counter("query.elements_returned")
        ),
        "query.operators.segments_pruned_share": _ratio(
            counter("query.segments_pruned"),
            counter("query.segments_pruned") + counter("query.segments_scanned"),
        ),
        "relation.read_us": layer("relation.read"),
        "relation.append_many_us_per_row": layer("relation.append_many", per=rows, only=writes),
        "core.constraints.check_us_per_row": layer("core.constraints.check", per=rows),
        "core.constraints.checks_per_row": _ratio(counter("constraints.checks"), write_rows),
        "storage.memory.rows_scanned_per_op": _ratio(counter("storage.memory.rows_scanned"), count),
        "storage.memory.vt_index_hit_ratio": _ratio(
            counter("storage.memory.vt_index_hits"),
            counter("storage.memory.vt_index_hits") + counter("storage.memory.vt_index_misses"),
        ),
        "storage.columnar.positions_examined_per_op": _ratio(
            counter("query.columnar_positions_examined"), count
        ),
        "storage.columnar.materialized_per_op": _ratio(
            counter("query.columnar_elements_materialized"), count
        ),
        "storage.tiered.cold_segments_per_op": _ratio(counter("query.tier_cold_segments"), count),
        "storage.tiered.decode_bytes_per_op": _ratio(counter("storage.tier.decode_bytes"), count),
        "storage.tiered.promotions_per_op": _ratio(counter("storage.tier.promotions"), count),
        "storage.logfile.extend_us_per_batch": layer("storage.logfile.extend"),
        "storage.logfile.fsyncs_per_batch": _ratio(counter("storage.logfile.fsyncs"), len(writes)),
        "storage.logfile.bytes_per_row": _ratio(
            counter("storage.logfile.bytes_written"), write_rows
        ),
        "storage.wal.frame_us_per_row": layer("storage.wal.frame", per=rows),
        "views.standing.apply_us_per_row": layer("views.standing.apply", per=rows),
        "views.standing.deltas_per_row": _ratio(counter("views.deltas_applied"), write_rows),
        "storage.epoch.pin_us": layer("storage.epoch.pin"),
        "bench.request_wall_us": statistics.median(walls.values()) if walls else 0.0,
        "bench.span_coverage": statistics.median(coverage) if coverage else 0.0,
        "bench.transport_us": statistics.median(transport) if transport else 0.0,
    }


def breakdown(
    ops: List[loadgen.Op], table: Dict[int, Dict[str, float]]
) -> Dict[str, Dict[str, Any]]:
    """Per request kind: median wall time and median self time of every
    layer (0 where a request did not touch it), largest first."""
    result: Dict[str, Dict[str, Any]] = {}
    for kind in sorted({op.kind for op in ops}):
        rows = [table[op.index] for op in ops if op.kind == kind and op.index in table]
        if not rows:
            continue
        names = {name for layers in rows for name in layers} - {"wall"}
        medians = {
            name: statistics.median(layers.get(name, 0.0) for layers in rows) for name in names
        }
        result[kind] = {
            "requests": len(rows),
            "wall_us": statistics.median(layers["wall"] for layers in rows),
            "layers": dict(sorted(medians.items(), key=lambda item: -item[1])),
        }
    return result


def run_traced(workload: str, options: argparse.Namespace) -> Dict[str, Any]:
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-traced-", dir=OUT)
    children: List[Child] = []
    try:
        traced_child = Child(options, workload, os.path.join(run_dir, "traced"), trace=True)
        children.append(traced_child)
        plain_child = Child(options, workload, os.path.join(run_dir, "plain"))
        children.append(plain_child)
        prepared = Prepared(workload, options)
        sequence = traced_sequence(prepared)
        for child in children:
            finish_setup(child, prepared)

        # The traced replay may stop at --seconds; the untraced one then
        # replays exactly as many requests, so the two rates compare.
        # Per-layer times are printed as measured; bench.machine_slowdown
        # says how slowly the box ran beside them.
        readings = [measure.slowdown()]
        with one_cpu(traced_child):
            traced, traced_s, counters, _ = asyncio.run(
                replay(traced_child, prepared, sequence, options.seconds, stamped=True)
            )
        readings.append(measure.slowdown())
        traced_child.stop()
        table = spans.by_request(spans.load(traced_child.spans_path))
        shutil.copyfile(traced_child.spans_path, os.path.join(OUT, f"spans-{workload}.jsonl"))
        done = len(traced.ops)
        with one_cpu(plain_child):
            plain, plain_s, _, client_share = asyncio.run(
                replay(plain_child, prepared, sequence[:done], None, stamped=False)
            )
        values = layer_metrics(traced, counters, table)
        values["bench.client_cpu_share"] = client_share
        values["bench.machine_slowdown"] = statistics.mean(readings)
        values["bench.trace_overhead_ratio"] = _ratio(done / traced_s, len(plain.ops) / plain_s)
        metrics = {
            metric.name: {
                "value": values[metric.name],
                "unit": metric.unit,
                "spread": None,
                "samples": done,
            }
            for metric in spec.per_layer()
        }
        if prepared.ingest is not None:
            checked = loadgen.verify_ingest_sampled(traced, prepared.ingest)
            checked += loadgen.verify_ingest_sampled(plain, prepared.ingest)
        else:
            assert prepared.oracle is not None
            checked = loadgen.verify_sampled(traced, prepared.oracle)
            checked += loadgen.verify_sampled(plain, prepared.oracle)
        attempted = traced.attempted + plain.attempted
        failed = traced.failed + plain.failed
        notes = [
            f"replayed {done} requests traced ({done / traced_s:.1f}/s) and untraced "
            f"({len(plain.ops) / plain_s:.1f}/s) on one connection",
            f"answers: {attempted} counts checked, {checked} bodies compared",
            f"spans kept in {os.path.relpath(os.path.join(OUT, f'spans-{workload}.jsonl'))}",
        ]
        notes += [f"FAILED: {note}" for note in traced.notes + plain.notes]
        return {
            "workload": workload,
            "mode": "per_layer",
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "notes": notes,
            "breakdown": breakdown(traced.ops, table),
        }
    finally:
        for child in children:
            child.kill()
        shutil.rmtree(run_dir, ignore_errors=True)


# -- reporting -----------------------------------------------------------------------


def _number(value: Optional[float]) -> str:
    if value is None:
        return "null"
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.0f}"


def print_result(result: Dict[str, Any]) -> None:
    print(f"\n== {result['workload']} ({result['mode']}) -- {spec.workloads()[result['workload']]}")
    for name, entry in result["metrics"].items():
        spread = "" if entry["spread"] is None else f"  spread {entry['spread']:.3f}"
        print(f"  {name:<44} {_number(entry['value']):>10} {entry['unit']:<6}"
              f"{spread}  n={entry['samples']}")
        if "slices" in entry and name in ("ops_per_s", "ingest_rows_per_s"):
            print(f"    per part: {entry['slices']}")
        if name.endswith("p95_ms") and entry["value"] is not None:
            beyond = measure.samples_beyond(entry["samples"], 95)
            if beyond < measure.SAMPLES_BEYOND:
                supported = measure.highest_supported_percentile(entry["samples"])
                print(
                    f"    (only {beyond} samples beyond p95; the sample supports "
                    f"{'the median only' if supported is None else f'p{supported:g}'})"
                )
    for kind, entry in result.get("breakdown", {}).items():
        print(
            f"  {kind}: {entry['requests']} requests, median server wall {entry['wall_us']:.0f} us;"
            " median self time by layer (us):"
        )
        for name, value in entry["layers"].items():
            if value >= 0.005 * entry["wall_us"]:
                print(f"    {name:<28} {value:>10.1f}  {value / entry['wall_us']:>6.1%}")
    for note in result["notes"]:
        print(f"  {note}")


def contract_line(result: Dict[str, Any]) -> str:
    """The one JSON object BENCHMARK.json's driver reads."""
    listed = spec.gated() if result["mode"] == "end_to_end" else spec.per_layer()
    names = [metric.name for metric in listed]
    metrics = {
        name: {"value": result["metrics"][name]["value"], "unit": result["metrics"][name]["unit"]}
        for name in names
    }
    complete = all(entry["value"] is not None for entry in metrics.values())
    return json.dumps(
        {
            "correct": result["failed"] == 0 and complete,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def check_agreement(first: Dict[str, Any], second: Dict[str, Any]) -> int:
    """Print how two runs of one workload compare; returns disagreements."""
    disagreements = 0
    print(f"\n== agreement: {first['workload']}")
    for metric in spec.end_to_end():
        one, two = first["metrics"][metric.name], second["metrics"][metric.name]
        if one["value"] is None and two["value"] is None:
            continue
        if metric.bound is None:
            verdict = "ok" if one["value"] == two["value"] == 0 else "DISAGREE"
            difference = 0.0
        else:
            difference = max(
                measure.worse_by(metric.better, one["value"], two["value"]),
                measure.worse_by(metric.better, two["value"], one["value"]),
            )
            spreads = [entry["spread"] for entry in (one, two) if entry["spread"] is not None]
            if difference > metric.bound:
                verdict = "DISAGREE"
            elif spreads and max(spreads) > metric.bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
        disagreements += verdict == "DISAGREE"
        print(
            f"  {metric.name:<24} {_number(one['value']):>10} {_number(two['value']):>10} "
            f"{metric.unit:<6} differ {difference:.3f}  bound {metric.bound}  {verdict}"
        )
    return disagreements


def record(path: str, results: List[Dict[str, Any]], options: argparse.Namespace) -> None:
    """Merge this invocation's numbers into the JSON ledger file at *path*."""
    ledger: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            ledger = json.load(handle)
    ledger["parameters"] = {
        "seed": options.seed, "seconds": options.seconds, "elements": options.elements
    }  # fmt: skip
    for result in results:
        ledger.setdefault(result["mode"], {})[result["workload"]] = {
            name: entry["value"] for name, entry in result["metrics"].items()
        }
        if "breakdown" in result:
            ledger.setdefault("breakdown", {})[result["workload"]] = result["breakdown"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", action="append", choices=list(spec.workloads()))
    parser.add_argument("--seconds", type=float, help="measured window (default 30; smoke 2)")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, help="1: the per-layer pass instead"
    )
    parser.add_argument(
        "--check-agreement",
        action="store_true",
        help="run two sets; fail if an end-to-end metric differs by more than its bound",
    )
    parser.add_argument("--smoke", action="store_true", help="2 s windows, 10k elements")
    parser.add_argument("--record", metavar="FILE", help="merge the results into this JSON file")
    options = parser.parse_args(argv)
    if options.seconds is None:
        options.seconds = 2.0 if options.smoke else 30.0
    options.elements = SMOKE_ELEMENTS if options.smoke else ELEMENTS
    if options.check_agreement and options.trace:
        parser.error("--check-agreement compares end-to-end runs")

    workloads = options.workload or list(spec.workloads())
    run = run_traced if options.trace else run_end_to_end
    os.makedirs(OUT, exist_ok=True)
    sets: List[List[Dict[str, Any]]] = []
    for _ in range(2 if options.check_agreement else 1):
        sets.append([])
        for workload in workloads:
            result = run(workload, options)
            print_result(result)
            sets[-1].append(result)
    results = [result for one_set in sets for result in one_set]
    failed = sum(result["failed"] for result in results)
    disagreements = 0
    if options.check_agreement:
        disagreements = sum(check_agreement(one, two) for one, two in zip(*sets))
        print(f"\n{disagreements} metrics disagree beyond their bounds")
    if options.record:
        record(options.record, sets[-1], options)
    if failed:
        print(f"\n{failed} operations failed or answered wrongly")
    sys.stdout.flush()
    if len(results) == 1:
        print(contract_line(results[0]))
    return 1 if failed or disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
