"""Workload definitions and seeded input generation.

Every input the benchmark feeds the program is derived from ``--seed``,
which spells the terms (see :func:`generate_triples`).  The same seed
gives the same inputs, byte for byte.

See ``WORKLOADS.md`` for why each workload exists and which layer each
is meant to move.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List, Tuple

#: Support threshold ``h`` of every workload (``rdfind discover -s 10``).
SUPPORT = 10
#: Update records per stream batch.
BATCH_SIZE = 32
#: Share of the stream dataset bulk-loaded before updates start.
INITIAL_SHARE = 0.9
#: Seed of the stream's shuffle and update sequence (fixed; see
#: :func:`generate_triples`).
ORDER_SEED = 0

Triple = Tuple[str, str, str]


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"batch"`` (one discover + dump per process) or ``"stream"``.
    kind: str
    #: Registry name of the generator (``repro.datasets.registry``).
    dataset: str
    scale: float
    #: How a batch process reads its input: ``"nt"`` parses an N-Triples
    #: file, ``"snap"`` parses it once, saves a snapshot and mmap-loads it.
    input_format: str = "nt"


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("diseasome-nt", "batch", "Diseasome", 0.5, "nt"),
        Workload("countries-snap", "batch", "Countries", 1.0, "snap"),
        Workload("stream-diseasome", "stream", "Diseasome", 0.5),
    )
}


def generate_triples(workload: Workload, seed: int, scale: float) -> List[Triple]:
    """The workload's dataset as string triples, spelled per ``seed``.

    The graph and the triple order are the generator's own (its default
    seed): discovery's cost moves by up to half with the triple order
    alone, so drawing them from ``seed`` would bury any change in the
    program under input noise (see ``WORKLOADS.md``).  ``seed`` instead
    picks a fixed-length namespace token prefixed to every IRI, so each
    seed is a different input with the same structure and cost.  For the
    same reason the stream's shuffle, split and update sequence are fixed
    (:data:`ORDER_SEED`).
    """
    from repro.datasets.registry import get_dataset

    token = hashlib.sha256(str(seed).encode("ascii")).hexdigest()[:8]
    prefix = f"urn:t{token}:"

    def spell(term: str) -> str:
        return term if term.startswith(('"', "_:")) else prefix + term

    dataset = get_dataset(workload.dataset).load(scale=scale)
    return [(spell(t.s), spell(t.p), spell(t.o)) for t in dataset]


def split_stream(triples: List[Triple]) -> Tuple[List[Triple], List[Triple]]:
    """Shuffle and split into (bulk-loaded, held-out) triples."""
    shuffled = list(triples)
    random.Random(ORDER_SEED).shuffle(shuffled)
    cut = int(len(shuffled) * INITIAL_SHARE)
    return shuffled[:cut], shuffled[cut:]


class UpdateStream:
    """Endless, seeded batches of updates against a live triple set.

    Each record is, with equal odds, the add of a held-out triple or the
    removal of a live one, so every record changes the dataset and no
    update is a no-op.  The sequence depends only on the starting split,
    never on timing, so every process sees the same batches in the same
    order.
    """

    def __init__(self, live: List[Triple], held: List[Triple]) -> None:
        self._live = list(live)
        self._held = list(held)
        self._rng = random.Random(ORDER_SEED + 1)

    def _take(self, pool: List[Triple]) -> Triple:
        index = self._rng.randrange(len(pool))
        pool[index], pool[-1] = pool[-1], pool[index]
        return pool.pop()

    def next_batch(self) -> List[Tuple[str, str, str, str]]:
        batch = []
        for _ in range(BATCH_SIZE):
            add = self._rng.random() < 0.5
            if add and self._held or not self._live:
                triple = self._take(self._held)
                self._live.append(triple)
                batch.append(("add",) + triple)
            else:
                triple = self._take(self._live)
                self._held.append(triple)
                batch.append(("remove",) + triple)
        return batch
