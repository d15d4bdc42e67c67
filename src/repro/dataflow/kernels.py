"""Vectorized batch kernels for the discovery hot path.

A *batch kernel* is an operator that consumes one
:class:`~repro.storage.columnar.TripleBatch` — a worker's slice of the
encoded dataset kept as three parallel id ``array`` columns — instead of
a stream of per-triple Python records.  The kernel fuses a whole operator
chain into one pass per partition (no intermediate record lists), and
amortizes the expensive per-record work (Bloom probes, capture
construction) behind per-id caches: a column has far fewer distinct ids
than elements, so each probe/object is paid once per distinct id instead
of once per triple.

Byte-identity contract (enforced by ``tests/test_kernels.py``): the
capture-group kernel (:class:`EvidenceBatchKernel`) yields
``(value, {capture})`` pairs in exactly the order the record path's
``flat_map`` emits per-triple evidences — batch ``i`` holds precisely
partition ``i``'s triples in partition order
(:func:`~repro.storage.columnar.build_triple_batches`), so the fused
combiner builds the identical aggregation dict and the shuffle routes
identical buckets.

Everything here is module-level (and picklable), so the kernel runs
unchanged on the ``serial`` and ``process`` executor backends.
"""

from __future__ import annotations

import time
from typing import Iterator, List, Optional, Set, Tuple

from repro.core.cind import Capture
from repro.core.conditions import (
    BinaryCondition,
    ConditionScope,
    UnaryCondition,
)
from repro.dataflow.engine import DataSet, ExecutionEnvironment
from repro.storage.columnar import EncodedDataset, TripleBatch, build_triple_batches

__all__ = ["EvidenceBatchKernel", "batch_dataset"]


def batch_dataset(
    env: ExecutionEnvironment,
    columns: EncodedDataset,
    batch_count: Optional[int] = None,
    name: str = "batches",
) -> DataSet:
    """A dataset of column batches, ``batch_count`` slices round-robined
    onto the environment's workers.

    With ``batch_count == parallelism`` (the default) batch ``i`` *is*
    partition ``i`` of ``from_collection(columns)`` — the layout the
    order-sensitive capture-group kernel requires.  Larger counts
    round-robin extra batches onto the workers.  Slicing the columns is
    serial driver work, recorded as a one-partition stage named ``name``.
    """
    parallelism = env.parallelism
    count = batch_count if batch_count is not None else parallelism
    start = time.perf_counter()
    batches = build_triple_batches(columns, count)
    partitions: List[List[TripleBatch]] = [[] for _ in range(parallelism)]
    sizes = [0] * parallelism
    for index, batch in enumerate(batches):
        partitions[index % parallelism].append(batch)
        sizes[index % parallelism] += len(batch)
    elapsed = time.perf_counter() - start
    stage = env.metrics.new_stage(name)
    stage.wall_seconds = elapsed
    stage.partition_seconds = [elapsed]
    stage.records_in = [len(columns)]
    stage.records_out = [len(columns)]
    return DataSet(env, partitions, name=name, logical_sizes=sizes)


# ----------------------------------------------------------------------
# capture-evidence kernel (CGCreator, Algorithm 2)
# ----------------------------------------------------------------------

#: Cache sentinel: a probed-and-pruned condition id (vs "not cached yet").
_PRUNED = object()


class EvidenceBatchKernel:
    """Fused Algorithm 2 over one column batch (order-exact).

    Drop-in for the record path's ``flat_map(_EvidenceEmitter) →
    reduce_by_key`` chain when used with ``flat_map_reduce_by_key``: the
    generator yields ``(value, {capture})`` singleton-set pairs in
    exactly the per-triple, per-projection order the record path emits,
    so the fused combiner state — and everything downstream of it — is
    byte-identical.

    The speedup comes from the caches: per projection, the full
    bloom-probe / rule-check / capture-construction decision is computed
    once per distinct condition-value combination and replayed as a tuple
    of shared (immutable, value-hashed) :class:`Capture` objects for
    every other triple carrying the same ids.
    """

    __slots__ = ("projections", "unary_bloom", "binary_bloom", "rules", "allow_binary")

    def __init__(
        self, scope: ConditionScope, frequent
    ) -> None:
        # Mirrors _EvidenceEmitter.__init__ (repro.core.capture_groups)
        # field for field — the projection order is the oracle's order.
        self.projections = tuple(
            (attr, scope.condition_attrs_for(attr))
            for attr in sorted(scope.projection_attrs)
        )
        if frequent is not None:
            self.unary_bloom = frequent.unary_bloom
            self.binary_bloom = frequent.binary_bloom
            self.rules = frozenset(frequent.rule_set)
        else:
            self.unary_bloom = self.binary_bloom = None
            self.rules = frozenset()
        self.allow_binary = scope.allow_binary

    def _probe_capture(self, cache: dict, alpha, attr, value: int):
        """Capture for a unary-case condition id (``_PRUNED`` if pruned)."""
        unary = UnaryCondition(attr, value)
        if self.unary_bloom is None or self.unary_bloom.contains_int_key(unary):
            entry = Capture(alpha, unary)
        else:
            entry = _PRUNED
        cache[value] = entry
        return entry

    def _probe_unary(self, cache: dict, attr, value: int):
        """``(ok, condition)`` for one condition id, memoized per attr.

        A column has far fewer distinct ids than elements, so the Bloom
        probe — pure-Python double hashing, the record path's dominant
        cost — and the condition object are paid once per distinct id.
        """
        entry = cache.get(value)
        if entry is None:
            unary = UnaryCondition(attr, value)
            entry = cache[value] = (
                self.unary_bloom is None
                or self.unary_bloom.contains_int_key(unary),
                unary,
            )
        return entry

    def _binary_captures(
        self, alpha, beta, gamma, beta_entry, gamma_entry
    ) -> Tuple[Capture, ...]:
        """The capture template one (v_beta, v_gamma) id pair produces."""
        beta_ok, unary_beta = beta_entry
        gamma_ok, unary_gamma = gamma_entry
        if beta_ok and gamma_ok:
            binary = BinaryCondition(
                beta, unary_beta.value, gamma, unary_gamma.value
            )
            binary_ok = (
                self.binary_bloom is None
                or self.binary_bloom.contains_int_key(binary)
            )
            if (
                binary_ok
                and (unary_beta, unary_gamma) not in self.rules
                and (unary_gamma, unary_beta) not in self.rules
            ):
                return (Capture(alpha, binary),)
            return (Capture(alpha, unary_beta), Capture(alpha, unary_gamma))
        if beta_ok:
            return (Capture(alpha, unary_beta),)
        if gamma_ok:
            return (Capture(alpha, unary_gamma),)
        return ()

    def __call__(
        self, batch: TripleBatch
    ) -> Iterator[Tuple[int, Set[Capture]]]:
        columns = batch.columns
        # Per-projection execution plans: (True, value_col, beta_col,
        # gamma_col, beta, gamma, alpha, beta_cache, gamma_cache,
        # pair_cache) for the binary case, (False, value_col,
        # [(alpha, attr, col, cache), ...]) for unaries.  The unary
        # caches are keyed by condition id; the pair cache memoizes the
        # full decision per distinct (v_beta, v_gamma) combination.
        plans = []
        for alpha, condition_attrs in self.projections:
            value_col = columns[int(alpha)]
            if len(condition_attrs) == 2 and self.allow_binary:
                beta, gamma = condition_attrs
                plans.append(
                    (
                        True,
                        value_col,
                        columns[int(beta)],
                        columns[int(gamma)],
                        beta,
                        gamma,
                        alpha,
                        {},
                        {},
                        {},
                    )
                )
            else:
                unary_plans = [
                    (alpha, attr, columns[int(attr)], {})
                    for attr in condition_attrs
                ]
                plans.append((False, value_col, unary_plans))
        for index in range(len(batch)):
            for plan in plans:
                if plan[0]:
                    (
                        _b,
                        value_col,
                        beta_col,
                        gamma_col,
                        beta,
                        gamma,
                        alpha,
                        beta_cache,
                        gamma_cache,
                        pair_cache,
                    ) = plan
                    pair = (beta_col[index], gamma_col[index])
                    captures = pair_cache.get(pair)
                    if captures is None:
                        captures = pair_cache[pair] = self._binary_captures(
                            alpha,
                            beta,
                            gamma,
                            self._probe_unary(beta_cache, beta, pair[0]),
                            self._probe_unary(gamma_cache, gamma, pair[1]),
                        )
                    if captures:
                        value = value_col[index]
                        for capture in captures:
                            yield value, {capture}
                else:
                    _b, value_col, unary_plans = plan
                    value = value_col[index]
                    for alpha, attr, col, cache in unary_plans:
                        entry = cache.get(col[index])
                        if entry is None:
                            entry = self._probe_capture(cache, alpha, attr, col[index])
                        capture = entry
                        if capture is not _PRUNED:
                            yield value, {capture}
