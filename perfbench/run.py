"""The repository benchmark: default-configuration discovery, timed end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload diseasome-nt --seed 1 --seconds 20 --trace 0

``run.py`` generates the workload's inputs from ``--seed``, checks the
program's output against the naive oracle, then spawns one fresh
process per timed repetition (``rep.py``) until ``--seconds`` of
repetitions have run.  Every child runs the package's public API with
the default configuration: each ``RDFIND_*`` variable is removed from
its environment.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` one more process runs with timing spans around every
layer call and the metrics are the per-layer ones.  The line before it
carries the environment and resolved configuration, and the full record
(every repetition, the span table, the program's own metrics) is
written to ``.perfbench_out/``.  See ``WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import shutil
import statistics
from statistics import median
import subprocess
import sys
import tempfile

from spans import clock, span_table, top_level_seconds
from workloads import SUPPORT, WORKLOADS, generate_triples, split_stream

HERE = os.path.dirname(os.path.abspath(__file__))
#: Fewest timed repetitions per batch run, whatever ``--seconds`` says.
MIN_REPS = 5
#: Stream processes per run (each sets up once; setup_s is their median).
STREAM_PROCESSES = 3
#: Fewest batches per stream process; ``total_s`` of the stream is its
#: setup plus this many batches.
STREAM_MIN_BATCHES = 16
#: No repetition starts once the run has used this much wall time.
RUN_BUDGET_S = 150.0
#: A child still running after this long is killed and counted failed.
CHILD_TIMEOUT_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "discover_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MiB",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
    "updates_per_s": "1/s",
}

PER_LAYER = {
    "rdf.ntriples.parse_s": "s",
    "rdf.model.encode_s": "s",
    "input.triples": "count",
    "input.terms": "count",
    "storage.snapshot.save_s": "s",
    "storage.snapshot.load_s": "s",
    "storage.snapshot.bytes": "B",
    "dataflow.engine.source_s": "s",
    "core.frequent_conditions.detect_s": "s",
    "core.frequent_conditions.unary": "count",
    "core.frequent_conditions.binary": "count",
    "core.frequent_conditions.rules": "count",
    "core.frequent_conditions.stage_gap_s": "s",
    "core.capture_groups.create_s": "s",
    "core.capture_groups.groups": "count",
    "core.capture_groups.stage_gap_s": "s",
    "core.extraction.extract_s": "s",
    "core.extraction.captures_pruned_ratio": "ratio",
    "core.extraction.uncertain_candidates": "count",
    "core.extraction.broad_cinds": "count",
    "core.extraction.stage_gap_s": "s",
    "core.discovery.driver_s": "s",
    "core.minimality.consolidate_s": "s",
    "core.minimality.pertinent_per_broad": "ratio",
    "core.serialization.to_dict_s": "s",
    "core.serialization.write_s": "s",
    "core.serialization.result_bytes": "B",
    "streaming.session.load_initial_s": "s",
    "streaming.session.apply_batch_s": "s",
    "streaming.changelog.append_s": "s",
    "streaming.changelog.sync_s": "s",
    "streaming.changelog.bytes_per_update": "B",
    "streaming.maintainer.apply_s": "s",
    "streaming.maintainer.refresh_s": "s",
    "streaming.maintainer.emit_s": "s",
    "streaming.maintainer.dependents_recomputed": "count",
    "trace.import_s": "s",
    "trace.unaccounted_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (reported without a result line)."""


# -- environment ---------------------------------------------------------


def source_digest(root: str) -> str:
    """SHA-256 over every file under ``src/`` (path and bytes, sorted)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, subdirs, files in os.walk(src):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode("utf-8") + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit(root: str):
    """The checkout's commit, or ``None`` when it is not a git work tree."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() or None


def environment_stamp(root: str) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numpy": numpy_version,
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
    }


# -- child processes -----------------------------------------------------


class Child:
    """One finished child process.

    ``speed`` is the host's mean speed relative to the reference, from
    the calibration the child ran (see ``rep.SpeedSampler``); a time
    ``t`` the child took reads as ``t * speed`` reference seconds.
    ``busy_s`` is its wall time minus the calibration's own time.
    """

    def __init__(self, report, reply: dict) -> None:
        self.report = report
        self.code = reply["code"]
        self.wall_s = reply["ended"] - reply["spawned"]
        self.cpu_s = reply["cpu_s"]
        self.peak_rss_mb = reply["maxrss_kib"] / 1024.0
        self.aslr_off = reply["aslr_off"]
        self.speed, self.busy_s = None, self.wall_s
        if report is not None and "calibration" in report:
            calibration = report["calibration"]
            self.speed = calibration["speed"]
            self.busy_s = self.wall_s - calibration["seconds"]

    @property
    def ok(self) -> bool:
        return self.code == 0 and self.report is not None

    def raw(self) -> dict:
        """Unscaled measurements, for the record file."""
        return {"wall_s": self.wall_s, "cpu_s": self.cpu_s, "speed": self.speed,
                "peak_rss_mb": self.peak_rss_mb, "aslr_off": self.aslr_off}


class Runner:
    """Spawns ``rep.py`` children through ``launcher.py``."""

    def __init__(self, root: str, work: str) -> None:
        self.root, self.work = root, work
        # Started first, while this process is small: see launcher.py.
        self.launcher = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("RDFIND_")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")

    def spawn(self, spec: dict, hash_seed: int) -> Child:
        """Run one child on ``spec`` with ``PYTHONHASHSEED=hash_seed`` and wait."""
        fd, spec_path = tempfile.mkstemp(suffix=".json", dir=self.work)
        spec = dict(spec, report=spec_path + ".report")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        log_path = spec_path + ".log"
        self.launcher.stdin.write(json.dumps({
            "argv": [sys.executable, os.path.join(HERE, "rep.py"), spec_path],
            "cwd": self.root,
            "env": dict(self.env, PYTHONHASHSEED=str(hash_seed)),
            "log": log_path,
            "timeout": CHILD_TIMEOUT_S,
        }) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        report = None
        if reply["code"] == 0 and os.path.exists(spec["report"]):
            with open(spec["report"], encoding="utf-8") as handle:
                report = json.load(handle)
        else:
            with open(log_path, encoding="utf-8", errors="replace") as handle:
                sys.stderr.write(
                    f"perfbench: {spec['mode']} child exited {reply['code']}:\n"
                    f"{handle.read()[-4000:]}\n"
                )
        for path in (spec_path, spec["report"], log_path):
            if os.path.exists(path):
                os.remove(path)
        return Child(report, reply)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()


# -- correctness ---------------------------------------------------------


def oracle_result(nt_path: str, h: int):
    """The naive profiler's CINDs and ARs, decoded, as multisets."""
    from repro.core.cind import AssociationRule, decode_cind, decode_condition
    from repro.core.validation import NaiveProfiler
    from repro.rdf.ntriples import parse_ntriples_file

    encoded = parse_ntriples_file(nt_path).encode()
    cinds, rules = NaiveProfiler(encoded).discover(h)
    terms = encoded.dictionary
    return (
        collections.Counter((decode_cind(sc.cind, terms), sc.support) for sc in cinds),
        collections.Counter(
            (
                AssociationRule(
                    decode_condition(sar.rule.lhs, terms),
                    decode_condition(sar.rule.rhs, terms),
                ),
                sar.support,
            )
            for sar in rules
        ),
    )


def document_result(data: bytes, h: int):
    """A result document's CINDs and ARs as multisets (None if malformed)."""
    from repro.core.serialization import parse_result_dict

    try:
        cinds, rules, threshold = parse_result_dict(json.loads(data))
    except (ValueError, KeyError, TypeError):
        return None
    if threshold != h:
        return None
    return (
        collections.Counter((sc.cind, sc.support) for sc in cinds),
        collections.Counter((sar.rule, sar.support) for sar in rules),
    )


class BatchGate:
    """Checks every batch output: the first against the oracle, the rest by hash.

    A document is accepted when its SHA-256 equals that of a document
    already proven equal to the oracle.  Until one is proven, each
    document is compared with the oracle itself.
    """

    def __init__(self, expected, h: int) -> None:
        self.expected, self.h = expected, h
        self.verified = None

    def check(self, path: str) -> bool:
        if not os.path.exists(path):
            return False
        with open(path, "rb") as handle:
            data = handle.read()
        digest = hashlib.sha256(data).hexdigest()
        if self.verified is not None:
            return digest == self.verified
        if document_result(data, self.h) == self.expected:
            self.verified = digest
            return True
        return False


# -- statistics ----------------------------------------------------------


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- batch workloads -----------------------------------------------------


def budget_left(started: float, reserve: float) -> bool:
    return clock() - started + reserve < RUN_BUDGET_S


def run_batch(args, workload, runner: Runner, started: float):
    from repro.rdf.model import Triple
    from repro.rdf.ntriples import write_ntriples_file

    work = runner.work
    nt_path = os.path.join(work, "input.nt")
    triples = generate_triples(workload, args.seed, args.scale)
    write_ntriples_file((Triple(*t) for t in triples), nt_path)
    gate = BatchGate(oracle_result(nt_path, SUPPORT), SUPPORT)

    spec = {
        "mode": "batch",
        "h": SUPPORT,
        "input": nt_path,
        "input_format": workload.input_format,
        "snapshot": os.path.join(work, "input.snap"),
        "output": os.path.join(work, "result.json"),
        "trace": False,
        "tamper": False,
    }

    def run_rep(hash_seed: int, **overrides) -> Child:
        child = runner.spawn(dict(spec, **overrides), hash_seed)
        child.correct = child.ok and gate.check(spec["output"])
        for path in (spec["output"], spec["snapshot"]):
            if os.path.exists(path):
                os.remove(path)
        return child

    reps = []
    attempted = failed = 0
    loop_started = clock()
    while (
        (clock() - loop_started < args.seconds or len(reps) < MIN_REPS)
        and budget_left(started, max([r.wall_s for r in reps] or [0.0]) * 1.5)
    ):
        attempted += 1
        child = run_rep(attempted, tamper=attempted == args.tamper_rep)
        failed += not child.correct
        if child.ok:
            reps.append(child)
    if not reps:
        raise BenchError("no repetition finished")

    discover = [r.report["discover_ref"] for r in reps]
    walls = [r.busy_s * r.speed for r in reps]
    values = {
        "setup_s": median([r.report["setup_ref"] for r in reps]),
        "discover_s": median(discover),
        "total_s": median(walls),
        "peak_rss_mb": median([r.peak_rss_mb for r in reps]),
        "update_p50_ms": 1000.0 * median(discover),
        "update_p90_ms": 1000.0 * percentile(discover, 90),
        "updates_per_s": sum(r.report["triples"] for r in reps) / sum(discover),
    }
    record = {
        "config": reps[0].report["config"],
        "repetitions": [{**r.raw(), **r.report} for r in reps],
    }
    if args.trace:
        traced = run_rep(1, trace=True)
        if not traced.ok:
            raise BenchError("traced repetition failed")
        # The traced process must write the very bytes the untraced ones
        # did, or it measured a different program.
        attempted += 1
        failed += not traced.correct
        values = batch_layers(traced, median(walls))
        record["traced"] = {
            **traced.raw(),
            "spans": span_table(traced.report["spans"]),
            "stage_wall": traced.report["stage_wall"],
            "program_metrics": traced.report["program_metrics"],
            "counts": traced.report["counts"],
        }
    return attempted, failed, values, record


def batch_layers(traced: Child, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced batch repetition (raw seconds)."""
    report = traced.report
    rows = report["spans"]
    table = span_table(rows)
    self_s = collections.defaultdict(float, {k: v["self_s"] for k, v in table.items()})
    total_s = collections.defaultdict(float, {k: v["total_s"] for k, v in table.items()})
    stage_wall = collections.defaultdict(float, report["stage_wall"])
    counts = report["counts"]
    top = top_level_seconds(rows)
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update({
        "rdf.ntriples.parse_s": self_s["rdf.ntriples.parse"],
        "rdf.model.encode_s": self_s["rdf.model.encode"],
        "input.triples": report["triples"],
        "input.terms": report["terms"],
        "storage.snapshot.save_s": self_s["storage.snapshot.save"],
        "storage.snapshot.load_s": self_s["storage.snapshot.load"],
        "storage.snapshot.bytes": report["snapshot_bytes"],
        "dataflow.engine.source_s": self_s["dataflow.engine.source"],
        "core.frequent_conditions.detect_s": self_s["core.frequent_conditions.detect"],
        "core.frequent_conditions.unary": counts["unary"],
        "core.frequent_conditions.binary": counts["binary"],
        "core.frequent_conditions.rules": counts["rules"],
        "core.frequent_conditions.stage_gap_s":
            total_s["core.frequent_conditions.detect"] - stage_wall["fc"],
        "core.capture_groups.create_s": self_s["core.capture_groups.create"],
        "core.capture_groups.groups": counts["groups"],
        "core.capture_groups.stage_gap_s":
            total_s["core.capture_groups.create"] - stage_wall["cg"],
        "core.extraction.extract_s": self_s["core.extraction.extract"],
        "core.extraction.captures_pruned_ratio":
            counts["captures_pruned"] / max(counts["captures_total"], 1),
        "core.extraction.uncertain_candidates": counts["uncertain_candidates"],
        "core.extraction.broad_cinds": counts["broad_cinds"],
        "core.extraction.stage_gap_s":
            total_s["core.extraction.extract"] - stage_wall["ex"],
        "core.discovery.driver_s": self_s["core.discovery.discover"],
        "core.minimality.consolidate_s": self_s["core.minimality.consolidate"],
        "core.minimality.pertinent_per_broad":
            counts["pertinent_cinds"] / max(counts["broad_cinds"], 1),
        "core.serialization.to_dict_s": self_s["core.serialization.to_dict"],
        "core.serialization.write_s": self_s["core.serialization.dump"],
        "core.serialization.result_bytes": report["result_bytes"],
        "trace.import_s": total_s["import"],
        "trace.unaccounted_s": traced.wall_s - top,
        "trace.coverage": top / traced.wall_s,
        "trace.overhead": traced.busy_s * traced.speed / untraced_wall,
    })
    return values


# -- stream workload -----------------------------------------------------


def run_stream(args, workload, runner: Runner, started: float):
    work = runner.work
    initial, held = split_stream(generate_triples(workload, args.seed, args.scale))
    input_path = os.path.join(work, "stream.json")
    with open(input_path, "w", encoding="utf-8") as handle:
        json.dump({"initial": initial, "held": held}, handle)

    reference = []  # digest of the document after batch i (0 = after setup)
    attempted = failed = 0

    def run_process(index: int, trace: bool):
        """One stream process and the batch check of its last document."""
        nonlocal attempted, failed
        spec = {
            "mode": "stream",
            "h": SUPPORT,
            "input": input_path,
            "session": os.path.join(work, f"session-{index}"),
            "update_seconds": args.seconds / STREAM_PROCESSES,
            "min_batches": STREAM_MIN_BATCHES,
            "output": os.path.join(work, f"final-{index}.json"),
            "snapshot": os.path.join(work, f"final-{index}.snap"),
            "trace": trace,
            "tamper": index + 1 == args.tamper_rep,
        }
        child = runner.spawn(spec, index % STREAM_PROCESSES + 1)
        shutil.rmtree(spec["session"], ignore_errors=True)
        if not child.ok:
            attempted += 1
            failed += 1
            return None, None
        attempted += max(len(child.report["latencies"]), 1)
        # Every process replays the same seeded batches, so the document
        # after batch i must have the same bytes in every process.
        for i, digest in enumerate(child.report["digests"]):
            if i == len(reference):
                reference.append(digest)
            elif reference[i] != digest:
                failed += 1
        check = runner.spawn({
            "mode": "check",
            "h": SUPPORT,
            "snapshot": spec["snapshot"],
            "document": spec["output"],
            "output": os.path.join(work, f"check-{index}.json"),
        }, 1)
        if not (check.ok and check.report["equal"]):
            failed += 1
        return child, check if check.ok else None

    runs, checks = [], []
    for index in range(STREAM_PROCESSES):
        if runs and not budget_left(started, max(r.wall_s for r in runs) * 3.0):
            break
        child, check = run_process(index, False)
        if child is not None:
            runs.append(child)
        if check is not None:
            checks.append(check)
    if not runs or not checks:
        raise BenchError("no stream process and check finished")

    latencies = [x for r in runs for x in r.report["latencies_ref"]]
    records = sum(r.report["records"] for r in runs)
    values = {
        "setup_s": median([r.report["setup_ref"] for r in runs]),
        "discover_s": median([x for r in runs for x in r.report["queries_ref"]]),
        "total_s": median([
            r.report["setup_ref"] + sum(r.report["latencies_ref"][:STREAM_MIN_BATCHES])
            for r in runs
        ]),
        "peak_rss_mb": median([r.peak_rss_mb for r in runs]),
        "update_p50_ms": 1000.0 * median(latencies),
        "update_p90_ms": 1000.0 * percentile(latencies, 90),
        "updates_per_s": records / sum(latencies),
    }
    record = {
        "config": checks[0].report["config"],
        "checks": [{**c.raw(), "discover_s": c.report["done"] - c.report["ready"]} for c in checks],
        "processes": [
            {
                **r.raw(),
                "setup_s": r.report["ready"] - r.report["spawned"],
                "first_query_s": r.report["ready"] - r.report["queried"],
                "batches": len(r.report["latencies"]),
                "latencies": r.report["latencies"],
                "spans": span_table(r.report["spans"]),
                "maintenance_stats": r.report["stats"],
            }
            for r in runs
        ],
    }
    if args.trace:
        traced, _check = run_process(STREAM_PROCESSES, True)
        if traced is None:
            raise BenchError("traced stream process failed")
        values = stream_layers(traced, median(latencies))
        record["traced"] = {
            **traced.raw(),
            "spans": span_table(traced.report["spans"]),
            "maintenance_stats": traced.report["stats"],
        }
    return attempted, failed, values, record


def stream_layers(traced: Child, untraced_latency: float) -> dict:
    """Per-layer metrics of one traced stream process (raw seconds).

    Update-phase layers are medians over batches of each layer's summed
    self time within the batch.
    """
    report = traced.report
    rows = report["spans"]
    table = span_table(rows)
    child_time = collections.defaultdict(float)
    for _name, start, end, parent in rows:
        if parent >= 0:
            child_time[parent] += end - start
    per_batch = collections.defaultdict(lambda: collections.defaultdict(float))
    top_of = {}
    for index, (name, start, end, parent) in enumerate(rows):
        top_of[index] = index if parent < 0 else top_of[parent]
        if rows[top_of[index]][0] == "batch":
            per_batch[top_of[index]][name] += end - start - child_time[index]
    batches = list(per_batch.values()) or [collections.defaultdict(float)]

    def batch_median(name: str) -> float:
        return median([batch[name] for batch in batches])

    top = top_level_seconds(rows)
    stats, before = report["stats"], report["stats_before"]
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update({
        "input.triples": stats["triples_added"] - stats["triples_removed"],
        "streaming.session.load_initial_s": table["streaming.session.load_initial"]["total_s"],
        "streaming.session.apply_batch_s": batch_median("streaming.session.apply_batch"),
        "streaming.changelog.append_s": batch_median("streaming.changelog.append"),
        "streaming.changelog.sync_s": batch_median("streaming.changelog.sync"),
        "streaming.changelog.bytes_per_update":
            report["changelog_bytes"] / max(report["records"], 1),
        "streaming.maintainer.apply_s": batch_median("streaming.maintainer.apply"),
        "streaming.maintainer.refresh_s": batch_median("streaming.maintainer.refresh"),
        "streaming.maintainer.emit_s": batch_median("streaming.maintainer.emit"),
        "streaming.maintainer.dependents_recomputed":
            (stats["dependents_recomputed"] - before["dependents_recomputed"])
            / max(len(report["latencies"]), 1),
        "core.minimality.consolidate_s": batch_median("core.minimality.consolidate"),
        "trace.import_s": table["import"]["total_s"],
        "trace.unaccounted_s": traced.wall_s - top,
        "trace.coverage": top / traced.wall_s,
        "trace.overhead": median(report["latencies_ref"]) / untraced_latency,
    })
    return values


# -- entry point ---------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=None,
        help="dataset scale override (the benchmark's own tests use a tiny one)",
    )
    parser.add_argument(
        "--tamper-rep", type=int, default=0,
        help="corrupt the output of this repetition (1-based; gate self-test)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = clock()
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        sys.stderr.write("perfbench: src/repro not found; run from the repository root\n")
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    workload = WORKLOADS[args.workload]
    if args.scale is None:
        args.scale = workload.scale

    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
    runner = Runner(root, work)
    measure = run_batch if workload.kind == "batch" else run_stream
    try:
        attempted, failed, values, record = measure(args, workload, runner, started)
    except BenchError as error:
        sys.stderr.write(f"perfbench: {error}\n")
        return 1
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    stamp = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "h": SUPPORT,
        "environment": environment_stamp(root),
        "config": record["config"],
    }
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({**stamp, **record, "result": result}, handle, indent=1)
    print(json.dumps(stamp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
