"""One timed repetition, run in a fresh process by ``run.py``.

Usage: ``python3 perfbench/rep.py <spec.json> <spawned>`` where
``<spawned>`` is the parent's ``time.monotonic()`` just before the spawn
(on Linux the monotonic clock is shared by all processes, so the child
can time its own start-up).  The child writes a JSON report to the path
named in the spec and exits 0; any exception exits non-zero.

Modes (``spec["mode"]``):

``batch``
    Read the input (parse an ``.nt`` file; for ``snap`` input also save
    and mmap-load a snapshot), then ``RDFind().discover`` at the default
    configuration and ``dump_result``.
``stream``
    Open a ``StreamSession``, bulk-load the initial triples, take the
    first ``document_json()``, then apply seeded batches through
    ``apply_batch`` with a ``document_json()`` after each, for the given
    number of seconds.  Finally write the last document and the live
    dataset (as a snapshot) for the checker.
``check``
    Batch-discover the stream's final live dataset and compare the
    ``dump_result`` bytes with the stream's last document.

With ``spec["trace"]`` the layer functions are wrapped by timing spans
(see ``spans.py``); without it only the phase boundaries are stamped.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import sys
import time

from spans import Tracer, clock

#: Iterations of the calibration loop run after each stream batch, and
#: the nanoseconds one iteration takes at the reference host speed (an
#: idle core of the 2-vCPU x86_64 VM the bounds were set on).  Timing
#: metrics are reported in reference seconds.
BATCH_CALIBRATION_LOOPS = 60_000
CALIBRATION_REF_NS = 600.0
#: Iterations per round; each round's objects are dropped before the
#: next, so the loop adds little to the process's peak memory.
CALIBRATION_ROUND = 20_000
#: The sampler's probe: iterations, seconds between probes, and the
#: seconds one probe takes at the reference host speed.
PROBE_LOOPS = 8_000
PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 0.0009

CONFIG_FIELDS = (
    "support_threshold",
    "parallelism",
    "storage",
    "executor",
    "workers",
    "shuffle",
    "planner",
    "checkpoint",
    "variant_name",
)


def config_stamp(config) -> dict:
    """The resolved ``RDFindConfig`` fields that pick a code path."""
    return {name: getattr(config, name) for name in CONFIG_FIELDS}


def stage_wall(metrics) -> dict:
    """Summed stage ``wall_seconds`` per phase prefix (fc/cg/ex/source)."""
    sums: dict = {}
    for stage in metrics.stages:
        phase = stage.name.split("/", 1)[0]
        sums[phase] = sums.get(phase, 0.0) + stage.wall_seconds
    return sums


def calibrate(loops: int):
    """Run a fixed pure-Python loop; returns ``(seconds, speed)``.

    The loop does what discovery does most (tuple keys, dict and set
    inserts, a sort, frozensets).  Host contention on a shared VM swings
    a process's speed by a fifth within seconds; the same loop, run in
    the same process right after a short piece of timed work, slows by
    about as much.  ``speed`` is the reference time over the time it
    took, so a duration ``t`` measured next to it reads as ``t * speed``
    reference seconds.  The collector is off during the loop: its objects form no
    cycles, and collections it triggered would scan the program's heap
    (timing the heap, not the host) and promote the loop's objects into
    the program's oldest generation.
    """
    collecting = gc.isenabled()
    gc.disable()
    started = clock()
    for first in range(0, loops, CALIBRATION_ROUND):
        groups = {}
        for i in range(first, first + CALIBRATION_ROUND):
            key = (i % 409, i % 13, i)
            groups.setdefault(key[0], set()).add(key)
        ordered = sorted(groups.items(), key=lambda item: -len(item[1]))
        sum(len(frozenset(member[1] for member in members)) for _, members in ordered)
    seconds = clock() - started
    if collecting:
        gc.enable()
    return seconds, CALIBRATION_REF_NS * 1e-9 * loops / seconds


def probe(table: dict) -> float:
    """Seconds a ~1 ms fixed loop over ``table`` takes.

    It creates no object the garbage collector tracks (only ints, in a
    dict it is given), so it never moves the program's collections: with
    a fresh dict per probe, the peak memory of ``countries-snap`` flipped
    between 93 and 115 MiB from run to run.
    """
    started = clock()
    table.clear()
    for i in range(PROBE_LOOPS):
        key = i % 41
        table[key] = table.get(key, 0) + i * i
    return clock() - started


class SpeedSampler:
    """Samples the host's speed from a background thread.

    Every :data:`PROBE_INTERVAL_S` the thread takes the interpreter lock
    and runs :func:`probe`, so the samples come from the same process,
    on the same core, during the timed work itself: a multi-second
    operation is too long to calibrate from its ends.  While a probe runs
    the main thread waits, so :meth:`window` also returns the probe time
    to subtract (about 2% of the window).
    """

    def __init__(self) -> None:
        import threading

        # Floats appended to lists: recording a probe allocates
        # nothing the collector tracks either.
        self.ends, self.seconds = [], []
        self._table = {}
        self._stopped = False
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            time.sleep(PROBE_INTERVAL_S)
            if self._stopped:
                return
            seconds = probe(self._table)
            self.ends.append(clock())
            self.seconds.append(seconds)

    def stop(self) -> None:
        self._stopped = True
        self._thread.join()

    def window(self, start: float, end: float):
        """``(probe seconds, speed)`` over probes that ended in ``[start, end]``."""
        inside = [s for e, s in zip(self.ends, self.seconds) if start <= e <= end]
        if not inside:  # a window shorter than the probe interval
            inside = self.seconds or [PROBE_REF_S]
            return 0.0, PROBE_REF_S * len(inside) / sum(inside)
        return sum(inside), PROBE_REF_S * len(inside) / sum(inside)

    def reference(self, start: float, end: float) -> float:
        """The window's duration minus its probes, in reference seconds."""
        probes, speed = self.window(start, end)
        return (end - start - probes) * speed


def calibration_summary(sampler: SpeedSampler, start: float, end: float) -> dict:
    probes, speed = sampler.window(start, end)
    return {"seconds": probes, "speed": speed, "probes": len(sampler.seconds)}


def tamper(path: str) -> None:
    """Corrupt one support value in a result document (gate self-test)."""
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    at = data.index(b'"support": ') + len(b'"support": ')
    data[at:at] = b"1"
    with open(path, "wb") as handle:
        handle.write(data)


def run_batch(spec: dict, tracer: Tracer) -> dict:
    sampler = SpeedSampler()
    with tracer.span("import", start=spec["spawned"]):
        from repro import RDFind
        from repro.core import discovery, serialization
        from repro.dataflow.engine import ExecutionEnvironment
        from repro.rdf.ntriples import parse_ntriples_file
        from repro.storage.snapshot import load_snapshot, save_snapshot

    with tracer.span("rdf.ntriples.parse"):
        dataset = parse_ntriples_file(spec["input"])
    with tracer.span("rdf.model.encode"):
        encoded = dataset.encode()
    snapshot_bytes = 0
    if spec["input_format"] == "snap":
        snapshot = spec["snapshot"]
        with tracer.span("storage.snapshot.save"):
            save_snapshot(encoded, snapshot)
        with tracer.span("storage.snapshot.load"):
            encoded = load_snapshot(snapshot)
        snapshot_bytes = os.path.getsize(snapshot)
    ready = clock()

    if spec["trace"]:
        for name, layer in (
            ("detect_frequent_conditions", "core.frequent_conditions.detect"),
            ("create_capture_groups", "core.capture_groups.create"),
            ("extract_broad_cinds", "core.extraction.extract"),
            ("consolidate_pertinent", "core.minimality.consolidate"),
        ):
            tracer.wrap(discovery, name, layer)
        tracer.wrap(ExecutionEnvironment, "from_collection", "dataflow.engine.source")
        tracer.wrap(serialization, "result_to_dict", "core.serialization.to_dict")

    started = clock()
    with tracer.span("core.discovery.discover"):
        result = RDFind().discover(encoded, h=spec["h"])
    with tracer.span("core.serialization.dump"):
        serialization.dump_result(result, spec["output"])
    done = clock()
    sampler.stop()

    if spec["tamper"]:
        tamper(spec["output"])
    stats = result.stats
    report = {
        "ready": ready,
        "started": started,
        "done": done,
        "setup_ref": sampler.reference(spec["spawned"], ready),
        "discover_ref": sampler.reference(started, done),
        "calibration": calibration_summary(sampler, spec["spawned"], done),
        "config": config_stamp(result.config),
        "triples": len(encoded),
        "terms": len(encoded.dictionary),
        "snapshot_bytes": snapshot_bytes,
        "result_bytes": os.path.getsize(spec["output"]),
        "counts": {
            "unary": stats.num_frequent_unary,
            "binary": stats.num_frequent_binary,
            "rules": stats.num_association_rules,
            "groups": stats.num_capture_groups,
            "broad_cinds": stats.num_broad_cinds,
            "pertinent_cinds": stats.num_pertinent_cinds,
            "captures_total": stats.extraction.captures_total,
            "captures_pruned": stats.extraction.captures_pruned,
            "uncertain_candidates": stats.extraction.uncertain_candidates,
        },
    }
    if spec["trace"]:
        report["stage_wall"] = stage_wall(result.metrics)
        report["program_metrics"] = result.metrics.to_dict()
    return report


def run_stream(spec: dict, tracer: Tracer) -> dict:
    sampler = SpeedSampler()
    with tracer.span("import", start=spec["spawned"]):
        from repro.storage.snapshot import save_snapshot
        from repro.streaming import StreamSession, maintainer as maintainer_module
        from workloads import UpdateStream

    with tracer.span("bench.input"):
        with open(spec["input"], encoding="utf-8") as handle:
            data = json.load(handle)
        initial = [tuple(row) for row in data["initial"]]
        updates = UpdateStream(initial, [tuple(row) for row in data["held"]])
    with tracer.span("streaming.session.open"):
        session = StreamSession(spec["session"], h=spec["h"])
    maintainer = session.maintainer
    if spec["trace"]:
        tracer.wrap(session.changelog, "append", "streaming.changelog.append")
        tracer.wrap(session.changelog, "sync", "streaming.changelog.sync")
        tracer.wrap(maintainer, "apply", "streaming.maintainer.apply")
        tracer.wrap(maintainer_module, "consolidate_pertinent", "core.minimality.consolidate")

    def query() -> str:
        if spec["trace"]:
            with tracer.span("streaming.maintainer.refresh"):
                maintainer.broad_cinds()
        with tracer.span("streaming.maintainer.emit"):
            return session.document_json()

    with tracer.span("streaming.session.load_initial"):
        session.load_initial(initial)
    with tracer.span("query"):
        queried = clock()
        document = query()
    ready = clock()
    # Batches are short enough to calibrate one by one from their end.
    sampler.stop()
    setup = calibration_summary(sampler, spec["spawned"], ready)
    calibration_s, speeds = setup["seconds"], [setup["speed"]]

    digests = [hashlib.sha256(document.encode("utf-8")).hexdigest()]
    latencies, latencies_ref, query_times, queries_ref = [], [], [], []
    records = 0
    log_bytes_before = session.changelog.nbytes()
    stats_before = maintainer.stats.to_dict()
    deadline = ready + spec["update_seconds"]
    while clock() < deadline or len(latencies) < spec["min_batches"]:
        with tracer.span("bench.bookkeeping"):
            batch = updates.next_batch()
        with tracer.span("batch"):
            started = clock()
            with tracer.span("streaming.session.apply_batch"):
                session.apply_batch(batch)
            applied = clock()
            document = query()
            latencies.append(clock() - started)
            query_times.append(clock() - applied)
        records += len(batch)
        with tracer.span("bench.bookkeeping"):
            digests.append(hashlib.sha256(document.encode("utf-8")).hexdigest())
        with tracer.span("bench.calibrate"):
            seconds, speed = calibrate(BATCH_CALIBRATION_LOOPS)
        calibration_s += seconds
        speeds.append(speed)
        latencies_ref.append(latencies[-1] * speed)
        queries_ref.append(query_times[-1] * speed)
    updated = clock()

    with tracer.span("bench.finalize"):
        with open(spec["output"], "w", encoding="utf-8") as handle:
            handle.write(document)
        if spec["tamper"]:
            tamper(spec["output"])
        save_snapshot(maintainer.materialize(), spec["snapshot"])
        log_bytes = session.changelog.nbytes() - log_bytes_before
        session.close()
    report = {
        "queried": queried,
        "ready": ready,
        "update_seconds": updated - ready,
        "latencies": latencies,
        "latencies_ref": latencies_ref,
        "queries_ref": queries_ref,
        "setup_ref": sampler.reference(spec["spawned"], ready),
        "calibration": {"seconds": calibration_s, "speed": sum(speeds) / len(speeds)},
        "records": records,
        "digests": digests,
        "changelog_bytes": log_bytes,
        "stats_before": stats_before,
        "stats": maintainer.stats.to_dict(),
    }
    return report


def run_check(spec: dict, tracer: Tracer) -> dict:
    with tracer.span("import", start=spec["spawned"]):
        from repro import RDFind
        from repro.core.serialization import dump_result
        from repro.storage.snapshot import load_snapshot

    encoded = load_snapshot(spec["snapshot"])
    ready = clock()
    result = RDFind().discover(encoded, h=spec["h"])
    dump_result(result, spec["output"])
    done = clock()
    with open(spec["output"], "rb") as expected, open(spec["document"], "rb") as got:
        equal = expected.read() == got.read()
    return {
        "ready": ready,
        "done": done,
        "equal": equal,
        "config": config_stamp(result.config),
    }


MODES = {"batch": run_batch, "stream": run_stream, "check": run_check}


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    spec["spawned"] = float(sys.argv[2])
    tracer = Tracer()
    report = MODES[spec["mode"]](spec, tracer)
    report["spawned"] = spec["spawned"]
    report["spans"] = tracer.rows()
    with open(spec["report"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    main()
