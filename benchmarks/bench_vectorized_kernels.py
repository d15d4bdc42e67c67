"""Vectorized-kernel benchmark: record path vs the default path.

Runs the full Diseasome discovery twice — once with a non-binding
record-count ``memory_budget`` (which keeps the record-at-a-time
operators: the oracle), once with the default configuration (capture-group
batch kernel, shared-reference candidate merge, fused capture-support
count) — and compares end-to-end wall-clock.

The kernels are pure execution-strategy changes, so both legs must
produce byte-identical result documents (asserted on the exact bytes
``dump_result`` writes).  The acceptance bar for the kernel layer is a
>=1.5x end-to-end speedup over the record path on Diseasome at h=10.

Besides the report section, the bench writes ``BENCH_kernels.json`` at
the repo root: one machine-readable record per leg (elapsed seconds,
speedup, per-phase stage wall time) plus the environment it ran in
(python version, core count, commit).
"""

import json
import os
import platform
import subprocess
import time
from pathlib import Path

from repro.core.discovery import RDFind, RDFindConfig
from repro.core.serialization import result_json_chunks
from repro.datasets import registry

DATASET = "Diseasome"
H = 10
PARALLELISM = 4
#: Acceptance floor for the kernel layer's end-to-end win.
MIN_SPEEDUP = 1.5
#: A record-count budget no Diseasome stage comes near: it binds nothing
#: but keeps discovery on the record-at-a-time path.
NON_BINDING_BUDGET = 10**12

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_JSON = REPO_ROOT / "BENCH_kernels.json"


def _environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def _document(result) -> str:
    """The exact text ``dump_result`` writes for ``result``."""
    return "".join(
        result_json_chunks(
            result.support_threshold,
            result.config.variant_name,
            result.cinds,
            result.association_rules,
            result.dictionary,
        )
    )


def _run_leg(encoded, leg: str, **overrides) -> dict:
    config = RDFindConfig(
        support_threshold=H, parallelism=PARALLELISM, **overrides
    )
    started = time.perf_counter()
    result = RDFind(config).discover(encoded)
    elapsed = time.perf_counter() - started
    phases: dict = {}
    for stage in result.metrics.stages:
        phase = stage.name.split("/", 1)[0]
        phases[phase] = phases.get(phase, 0.0) + stage.wall_seconds
    return {
        "leg": leg,
        "elapsed": elapsed,
        "document": _document(result),
        "cinds": len(result.cinds),
        "association_rules": len(result.association_rules),
        "phase_wall_seconds": {k: round(v, 4) for k, v in phases.items()},
        "stages": {stage.name for stage in result.metrics.stages},
    }


def test_vectorized_kernels(benchmark, report):
    encoded = registry.load(DATASET, encoded=True)

    def body():
        return [
            _run_leg(encoded, "record", memory_budget=NON_BINDING_BUDGET),
            _run_leg(encoded, "default"),
        ]

    legs = benchmark.pedantic(body, rounds=1, iterations=1)
    record, default = legs
    speedup = record["elapsed"] / max(default["elapsed"], 1e-9)
    identical = default["document"] == record["document"]

    section = report.section(f"Vectorized kernels — {DATASET} (h={H})")
    for leg in legs:
        ratio = record["elapsed"] / max(leg["elapsed"], 1e-9)
        section.row(
            f"{leg['leg']:<8} {leg['elapsed']:6.2f}s ({ratio:4.2f}x)"
            f" | {leg['cinds']:,} pertinent CINDs"
            f" | stage wall {leg['phase_wall_seconds']}"
        )
    section.row("output bytes identical: " + ("yes" if identical else "NO"))

    rows = [
        {
            "leg": leg["leg"],
            "elapsed_seconds": round(leg["elapsed"], 4),
            "speedup_vs_record": round(
                record["elapsed"] / max(leg["elapsed"], 1e-9), 3
            ),
            "pertinent_cinds": leg["cinds"],
            "association_rules": leg["association_rules"],
            "phase_wall_seconds": leg["phase_wall_seconds"],
            "output_identical_to_record": leg["document"] == record["document"],
        }
        for leg in legs
    ]
    OUTPUT_JSON.write_text(
        json.dumps(
            {
                "dataset": DATASET,
                "h": H,
                "parallelism": PARALLELISM,
                "environment": _environment(),
                "legs": rows,
            },
            indent=2,
        )
        + "\n"
    )

    # The kernels are execution strategy only: not a single output byte
    # may move, and the default path must clear the acceptance speedup.
    assert identical
    assert {"cg/batches", "ex/materialize-refs"} <= default["stages"]
    assert not {"cg/batches", "ex/materialize-refs"} & record["stages"]
    assert speedup >= MIN_SPEEDUP
