"""FCDetector: frequent condition discovery and AR extraction (Section 5).

This is the first phase of RDFind's lazy pruning.  It follows the data
flow of the paper's Figure 5:

1.  *Frequent unary conditions* — every worker emits a ``(condition, 1)``
    counter per triple attribute, counters are aggregated with local
    pre-aggregation ("early aggregation"), and non-frequent conditions are
    dropped (steps 1-2).
2.  *Compaction* — workers build partial Bloom filters over their frequent
    unary conditions and one worker unions them bit-wise (steps 3-4); the
    union is broadcast (step 5).
3.  *Frequent binary conditions* — Algorithm 1: per triple, unary
    conditions are probed against the Bloom filter and only pairs of
    (apparently) frequent unaries spawn binary counters, which are then
    aggregated and filtered (steps 6-7).  Candidates are never
    materialized globally — this is the paper's "on-demand candidate
    checking" that replaces Apriori's in-memory candidate tree.
4.  *Binary compaction* — a second Bloom filter (steps 8-9).
5.  *Association rules* — frequent unary counters are joined with frequent
    binary counters on the embedded unary condition; equal counts yield an
    exact AR (step 11, Lemma 2).

Bloom-filter false positives can let a binary candidate with a
non-frequent unary part be *counted*, but never let it survive: a binary
condition's frequency is bounded by its parts', so the ``>= h`` filter is
exact.  Downstream (Algorithm 2) false positives are likewise harmless —
they can only create captures whose support is below ``h``, which the
capture-support pruning or the final broadness filter removes.
"""

from __future__ import annotations

import operator
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.core.cind import AssociationRule, SupportedAR
from repro.core.conditions import (
    BinaryCondition,
    Condition,
    ConditionScope,
    UnaryCondition,
)
from repro.dataflow.bloom import BloomFilter
from repro.dataflow.engine import (
    DataSet,
    ExecutionEnvironment,
    pair_key,
    pair_value,
)
from repro.rdf.model import Attr, EncodedDataset, EncodedTriple


#: Default false-positive rate for the condition Bloom filters.
DEFAULT_FP_RATE = 0.01


@dataclass
class FrequentConditions:
    """Output of the FCDetector.

    ``unary_counts``/``binary_counts`` hold the exact frequencies of the
    *frequent* conditions only.  The Bloom filters are what the downstream
    phases probe (matching the paper); the exact dicts additionally serve
    the statistics module and the tests.
    """

    h: int
    scope: ConditionScope
    unary_counts: Dict[UnaryCondition, int]
    binary_counts: Dict[BinaryCondition, int]
    unary_bloom: BloomFilter
    binary_bloom: BloomFilter
    association_rules: List[SupportedAR] = field(default_factory=list)

    @property
    def rule_set(self) -> Set[AssociationRule]:
        """The bare rules, for O(1) membership tests in Algorithm 2."""
        return {sar.rule for sar in self.association_rules}

    def is_frequent(self, condition: Condition) -> bool:
        """Exact frequency check against the retained counters."""
        if isinstance(condition, UnaryCondition):
            return condition in self.unary_counts
        return condition in self.binary_counts

    def frequency(self, condition: Condition) -> int:
        """Exact frequency of a frequent condition (0 if not frequent)."""
        if isinstance(condition, UnaryCondition):
            return self.unary_counts.get(condition, 0)
        return self.binary_counts.get(condition, 0)


# The operator callables below are module-level classes (not closures) so
# that the process executor can pickle them together with their config.


class _UnaryCounterEmitter:
    """Per-triple ``(unary condition, 1)`` counters (Figure 5, step 1)."""

    __slots__ = ("attrs",)

    def __init__(self, scope: ConditionScope) -> None:
        self.attrs = tuple(sorted(scope.condition_attrs))

    def __call__(
        self, triple: EncodedTriple
    ) -> Iterator[Tuple[UnaryCondition, int]]:
        for attr in self.attrs:
            yield UnaryCondition(attr, triple[int(attr)]), 1


class _BinaryCounterEmitter:
    """Algorithm 1: on-demand binary candidate creation via Bloom probes."""

    __slots__ = ("attrs", "pairs", "unary_bloom")

    def __init__(self, scope: ConditionScope, unary_bloom: BloomFilter) -> None:
        self.attrs = tuple(sorted(scope.condition_attrs))
        pairs = []
        for index, attr1 in enumerate(self.attrs):
            for attr2 in self.attrs[index + 1 :]:
                pairs.append((attr1, attr2))
        self.pairs = tuple(pairs)
        self.unary_bloom = unary_bloom

    def __call__(
        self, triple: EncodedTriple
    ) -> Iterator[Tuple[BinaryCondition, int]]:
        unary_bloom = self.unary_bloom
        probed = {
            attr: UnaryCondition(attr, triple[int(attr)]) in unary_bloom
            for attr in self.attrs
        }
        for attr1, attr2 in self.pairs:
            if probed[attr1] and probed[attr2]:
                yield (
                    BinaryCondition(
                        attr1, triple[int(attr1)], attr2, triple[int(attr2)]
                    ),
                    1,
                )


def _count_at_least(h: int, pair: Tuple[Condition, int]) -> bool:
    """Frequency filter used via ``functools.partial`` (picklable)."""
    return pair[1] >= h


def _columnar_unary_counts(
    env: ExecutionEnvironment,
    columns: EncodedDataset,
    scope: ConditionScope,
    h: int,
) -> Dict[UnaryCondition, int]:
    """Columnar fast path for steps 1-2: count ids straight off the columns.

    ``Counter(column)`` iterates an ``array`` at C speed, so no per-triple
    Python-level counter records are materialized.  The result is the same
    dict the dataflow path collects: the per-attribute first-occurrence
    order of a column equals the first-occurrence order of the attribute
    over the triples, so even insertion order matches.
    """
    stage = env.metrics.new_stage("fc/unary-columnar")
    start = time.perf_counter()
    counts: Dict[UnaryCondition, int] = {}
    distinct = 0
    for attr in sorted(scope.condition_attrs):
        column_counts = Counter(columns.column(attr))
        distinct += len(column_counts)
        for value, count in column_counts.items():
            if count >= h:
                counts[UnaryCondition(attr, value)] = count
    elapsed = time.perf_counter() - start
    stage.records_in = [len(columns) * len(scope.condition_attrs)]
    stage.records_out = [len(counts)]
    stage.wall_seconds = elapsed
    stage.partition_seconds = [elapsed / env.parallelism] * env.parallelism
    # The dataflow path's combiners hold one counter per distinct
    # condition; charge the same state to keep budget semantics honest.
    stage.peak_state_cost = distinct
    env._check_budget("fc/unary-columnar", distinct)
    return counts


def _columnar_binary_counts(
    env: ExecutionEnvironment,
    columns: EncodedDataset,
    scope: ConditionScope,
    unary_bloom: BloomFilter,
    h: int,
) -> Dict[BinaryCondition, int]:
    """Columnar fast path for Algorithm 1 (steps 6-7).

    Bloom probes are memoized per (attribute, id): a dataset has far fewer
    distinct ids than triples, and :class:`BinaryCondition` objects are
    only built for pairs that survive the frequency filter.
    """
    stage = env.metrics.new_stage("fc/binary-columnar")
    start = time.perf_counter()
    attrs = tuple(sorted(scope.condition_attrs))
    probe_caches: Dict[Attr, Dict[int, bool]] = {attr: {} for attr in attrs}
    counts: Dict[BinaryCondition, int] = {}
    records_in = 0
    distinct = 0
    for index, attr1 in enumerate(attrs):
        cache1 = probe_caches[attr1]
        column1 = columns.column(attr1)
        for attr2 in attrs[index + 1 :]:
            cache2 = probe_caches[attr2]
            pair_counter: Counter = Counter()
            for v1, v2 in zip(column1, columns.column(attr2)):
                hit1 = cache1.get(v1)
                if hit1 is None:
                    hit1 = cache1[v1] = UnaryCondition(attr1, v1) in unary_bloom
                if not hit1:
                    continue
                hit2 = cache2.get(v2)
                if hit2 is None:
                    hit2 = cache2[v2] = UnaryCondition(attr2, v2) in unary_bloom
                if hit2:
                    pair_counter[(v1, v2)] += 1
            records_in += sum(pair_counter.values())
            distinct = max(distinct, len(pair_counter))
            env._check_budget("fc/binary-columnar", len(pair_counter))
            for (v1, v2), count in pair_counter.items():
                if count >= h:
                    counts[BinaryCondition(attr1, v1, attr2, v2)] = count
    elapsed = time.perf_counter() - start
    stage.records_in = [records_in]
    stage.records_out = [len(counts)]
    stage.wall_seconds = elapsed
    stage.partition_seconds = [elapsed / env.parallelism] * env.parallelism
    stage.peak_state_cost = distinct
    return counts


def _last_stage(env: ExecutionEnvironment, name: str):
    """Most recent stage with ``name`` (the one the planner just shaped)."""
    for stage in reversed(env.metrics.stages):
        if stage.name == name:
            return stage
    return None


def _plan_unary_counts(
    env: ExecutionEnvironment,
    columns: EncodedDataset,
    scope: ConditionScope,
    h: int,
) -> Dict[UnaryCondition, int]:
    """Columnar counting with planner dispatch (steps 1-2).

    When a stage planner is attached and picks the batch kernel, the scan
    runs as a ``reduce_partitions`` over column batches on the executor
    (real cores under the process backend); otherwise the single-threaded
    driver scan runs.  Both produce the same counts, so downstream output
    is byte-identical either way — the planner only trades wall-clock.
    """
    planner = getattr(env, "planner", None)
    if planner is None or not planner.active:
        return _columnar_unary_counts(env, columns, scope, h)
    records = len(columns) * len(scope.condition_attrs)
    plan = planner.plan_kernel("fc/unary-columnar", records)
    if plan.use_kernel:
        from repro.dataflow.kernels import batch_dataset, unary_counts_kernel

        split = planner.plan_partitions("fc/unary-columnar", records)
        batches = batch_dataset(
            env, columns, split.partitions, name="fc/unary-batches"
        )
        counts = unary_counts_kernel(env, batches, scope, h)
    else:
        counts = _columnar_unary_counts(env, columns, scope, h)
    planner.annotate(env.metrics, "fc/unary-columnar", plan)
    stage = _last_stage(env, "fc/unary-columnar")
    if stage is not None:
        planner.observe(stage)
    return counts


def _plan_binary_counts(
    env: ExecutionEnvironment,
    columns: EncodedDataset,
    scope: ConditionScope,
    unary_bloom: BloomFilter,
    h: int,
) -> Dict[BinaryCondition, int]:
    """Columnar Algorithm 1 with planner dispatch (steps 6-7)."""
    planner = getattr(env, "planner", None)
    if planner is None or not planner.active:
        return _columnar_binary_counts(env, columns, scope, unary_bloom, h)
    records = len(columns) * len(scope.condition_attrs)
    plan = planner.plan_kernel("fc/binary-columnar", records)
    if plan.use_kernel:
        from repro.dataflow.kernels import batch_dataset, binary_counts_kernel

        split = planner.plan_partitions("fc/binary-columnar", records)
        batches = batch_dataset(
            env, columns, split.partitions, name="fc/binary-batches"
        )
        counts = binary_counts_kernel(env, batches, scope, unary_bloom, h)
    else:
        counts = _columnar_binary_counts(env, columns, scope, unary_bloom, h)
    planner.annotate(env.metrics, "fc/binary-columnar", plan)
    stage = _last_stage(env, "fc/binary-columnar")
    if stage is not None:
        planner.observe(stage)
    return counts


def _local_bloom(
    capacity: int, fp_rate: float, partition: List[Tuple[Condition, int]]
) -> BloomFilter:
    """One worker's partial Bloom filter over its counter partition."""
    bloom = BloomFilter.for_capacity(capacity, fp_rate)
    for condition, _count in partition:
        bloom.add(condition)
    return bloom


def _build_bloom(
    counters: DataSet, capacity: int, fp_rate: float, name: str
) -> BloomFilter:
    """Distributed Bloom construction: local partials, bit-wise OR union."""
    return counters.reduce_partitions(
        partial(_local_bloom, max(1, capacity), fp_rate),
        lambda a, b: a.union_update(b),  # merge runs on the driver
        name=name,
    )


def _dataflow_unary_counts(
    env: ExecutionEnvironment,
    triples: DataSet,
    scope: ConditionScope,
    h: int,
) -> Tuple[Dict[UnaryCondition, int], DataSet]:
    """Record-at-a-time path for steps 1-2 (counts dict + frequent dataset)."""
    unary_counters = triples.flat_map(
        _UnaryCounterEmitter(scope), name="fc/unary-counters"
    ).reduce_by_key(
        key_fn=pair_key,
        value_fn=pair_value,
        reduce_fn=operator.add,
        name="fc/unary-aggregate",
        order_insensitive=True,
    )
    frequent_unary = unary_counters.filter(
        partial(_count_at_least, h), name="fc/unary-filter"
    )
    return dict(frequent_unary.collect(name="fc/unary-collect")), frequent_unary


def _dataflow_binary_counts(
    env: ExecutionEnvironment,
    triples: DataSet,
    scope: ConditionScope,
    unary_bloom: BloomFilter,
    h: int,
) -> Tuple[Dict[BinaryCondition, int], DataSet]:
    """Record-at-a-time path for Algorithm 1 (counts dict + frequent dataset)."""
    binary_counters = triples.flat_map(
        _BinaryCounterEmitter(scope, unary_bloom),
        name="fc/binary-counters",
    ).reduce_by_key(
        key_fn=pair_key,
        value_fn=pair_value,
        reduce_fn=operator.add,
        name="fc/binary-aggregate",
        order_insensitive=True,
    )
    frequent_binary = binary_counters.filter(
        partial(_count_at_least, h), name="fc/binary-filter"
    )
    return (
        dict(frequent_binary.collect(name="fc/binary-collect")),
        frequent_binary,
    )


def _unary_counts_only(
    env: ExecutionEnvironment,
    triples: DataSet,
    scope: ConditionScope,
    h: int,
    columns: Optional[EncodedDataset],
) -> Dict[UnaryCondition, int]:
    """The fc/unary checkpoint boundary's value: just the counts dict."""
    if columns is not None:
        return _plan_unary_counts(env, columns, scope, h)
    return _dataflow_unary_counts(env, triples, scope, h)[0]


def _binary_counts_only(
    env: ExecutionEnvironment,
    triples: DataSet,
    scope: ConditionScope,
    unary_bloom: BloomFilter,
    h: int,
    columns: Optional[EncodedDataset],
) -> Dict[BinaryCondition, int]:
    """The fc/binary checkpoint boundary's value: just the counts dict."""
    if columns is not None:
        return _plan_binary_counts(env, columns, scope, unary_bloom, h)
    return _dataflow_binary_counts(env, triples, scope, unary_bloom, h)[0]


def detect_frequent_conditions(
    env: ExecutionEnvironment,
    triples: DataSet,
    h: int,
    scope: Optional[ConditionScope] = None,
    fp_rate: float = DEFAULT_FP_RATE,
    columns: Optional[EncodedDataset] = None,
) -> FrequentConditions:
    """Run the FCDetector over a dataset of encoded triples.

    Parameters
    ----------
    env:
        The execution environment (fixes parallelism, gathers metrics).
    triples:
        A :class:`~repro.dataflow.engine.DataSet` of
        :class:`~repro.rdf.model.EncodedTriple`.
    h:
        The user-defined support threshold; conditions below it are
        pruned (Lemma 1 makes this sound for broad-CIND discovery).
    scope:
        Attribute restrictions; defaults to the general setting.
    fp_rate:
        Target false-positive rate of the condition Bloom filters.
    columns:
        The columnar form of the same triples.  When given, the counting
        stages run directly over the id columns (same counts, same Bloom
        filters, far fewer Python-level records); the Bloom/AR stages
        still run on the dataflow engine.
    """
    if h < 1:
        raise ValueError(f"support threshold must be >= 1, got {h}")
    scope = scope if scope is not None else ConditionScope.full()

    # Stage-granularity checkpointing: the counting stages (the expensive
    # part of the phase) become durable boundaries.  A checkpointed run
    # materializes the frequent-condition datasets from the collected
    # count dicts — content-identical to the filter datasets the plain
    # dataflow path feeds downstream (the Bloom unions are bit-wise ORs
    # and the AR list is sorted at the end, so neither depends on the
    # partition layout), which is what lets a restored dict stand in.
    ckpt = getattr(env, "checkpoint", None)
    if ckpt is not None and not ckpt.enabled("stage"):
        ckpt = None

    # Steps 1-2: frequent unary conditions with early aggregation.
    if ckpt is not None:
        unary_counts: Dict[UnaryCondition, int] = ckpt.step(
            "fc/unary",
            "stage",
            partial(_unary_counts_only, env, triples, scope, h, columns),
        )
        frequent_unary = env.from_collection(
            unary_counts.items(), name="fc/unary-frequent"
        )
    elif columns is not None:
        unary_counts = _plan_unary_counts(env, columns, scope, h)
        frequent_unary = env.from_collection(
            unary_counts.items(), name="fc/unary-frequent"
        )
    else:
        unary_counts, frequent_unary = _dataflow_unary_counts(
            env, triples, scope, h
        )

    # Steps 3-5: unary Bloom filter, built distributedly and broadcast.
    unary_bloom = _build_bloom(
        frequent_unary, len(unary_counts), fp_rate, name="fc/unary-bloom"
    )
    bloom_stage = env.metrics.new_stage("fc/unary-bloom-broadcast")
    bloom_stage.broadcast_records = env.parallelism

    binary_counts: Dict[BinaryCondition, int] = {}
    if scope.allow_binary and len(scope.condition_attrs) >= 2:
        # Steps 6-7: frequent binary conditions (Algorithm 1).
        if ckpt is not None:
            binary_counts = ckpt.step(
                "fc/binary",
                "stage",
                partial(
                    _binary_counts_only,
                    env,
                    triples,
                    scope,
                    unary_bloom,
                    h,
                    columns,
                ),
            )
            frequent_binary = env.from_collection(
                binary_counts.items(), name="fc/binary-frequent"
            )
        elif columns is not None:
            binary_counts = _plan_binary_counts(
                env, columns, scope, unary_bloom, h
            )
            frequent_binary = env.from_collection(
                binary_counts.items(), name="fc/binary-frequent"
            )
        else:
            binary_counts, frequent_binary = _dataflow_binary_counts(
                env, triples, scope, unary_bloom, h
            )
        # Steps 8-9: binary Bloom filter.
        binary_bloom = _build_bloom(
            frequent_binary, len(binary_counts), fp_rate, name="fc/binary-bloom"
        )
    else:
        frequent_binary = env.from_collection((), name="fc/binary-empty")
        binary_bloom = BloomFilter.for_capacity(1, fp_rate)

    # Step 11: association rules by joining unary and binary counters.
    if ckpt is not None:
        association_rules = ckpt.step(
            "fc/rules",
            "stage",
            partial(_extract_association_rules, frequent_unary, frequent_binary),
        )
    else:
        association_rules = _extract_association_rules(
            frequent_unary, frequent_binary
        )

    return FrequentConditions(
        h=h,
        scope=scope,
        unary_counts=unary_counts,
        binary_counts=binary_counts,
        unary_bloom=unary_bloom,
        binary_bloom=binary_bloom,
        association_rules=association_rules,
    )


def _explode_binary_parts(pair):
    """``(u1 ∧ u2, n)`` → one join record per embedded unary part."""
    condition, count = pair
    for part in condition.unary_parts():
        yield part, condition, count


def _match_association_rules(key, unary_records, binary_records):
    """Equal-count join groups yield exact ARs (Lemma 2)."""
    if not unary_records:
        return
    (_condition, unary_count) = unary_records[0]
    for _part, binary_condition, binary_count in binary_records:
        if binary_count == unary_count:
            other = binary_condition.other_part(key)
            yield SupportedAR(AssociationRule(key, other), binary_count)


def _extract_association_rules(
    frequent_unary: DataSet, frequent_binary: DataSet
) -> List[SupportedAR]:
    """Join unary and binary counters on the embedded unary condition.

    A frequent binary counter ``(u1 ∧ u2, n)`` joins with both of its
    parts; if a part's counter equals ``n``, the part determines the other
    (confidence 1) and ``part → other`` is an AR with support ``n``
    (Lemma 2).
    """
    binaries_by_part = frequent_binary.flat_map(
        _explode_binary_parts, name="fc/ar-explode"
    )
    rules = frequent_unary.co_group(
        binaries_by_part,
        key_self=pair_key,
        key_other=pair_key,
        fn=_match_association_rules,
        name="fc/ar-join",
    ).collect(name="fc/ar-collect")
    rules.sort(key=lambda sar: (-sar.support, sar.rule))
    return rules
