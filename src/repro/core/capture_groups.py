"""CGCreator: capture evidences and capture groups (Section 6).

A *capture evidence* states that a value occurs in a capture's
interpretation; a *capture group* is the set of captures sharing one
value.  Lemma 3 reduces CIND validity to capture-group membership, which
is what makes groups the central data structure of the extraction phase.

Evidence creation follows Algorithm 2 exactly: per triple and projection
attribute, the two candidate unary conditions are probed against the
unary-condition Bloom filter; if both pass, the binary condition is probed
against the binary filter and checked against the known association rules.
A frequent, non-AR binary condition yields a *single* binary capture
evidence — it *subsumes* the two unary evidences (they are recovered
during group aggregation, see :func:`expand_captures`), which keeps the
shuffle volume at one record instead of three.  An AR-embedding binary
condition is skipped entirely: its capture is extent-equal to a unary
capture (equivalence pruning, Section 5.1), so the unary evidences are
emitted instead.

With ``frequent=None`` the creator runs unpruned — every condition is
treated as frequent and no ARs exist.  That is the RDFind-NF ablation of
Section 8.5.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.core.cind import Capture
from repro.core.conditions import (
    BinaryCondition,
    ConditionScope,
    UnaryCondition,
    is_binary,
)
from repro.core.frequent_conditions import FrequentConditions
from repro.dataflow.engine import DataSet, ExecutionEnvironment, pair_key
from repro.rdf.model import Attr, EncodedTriple

#: A capture group: the set of captures that share one common value.
CaptureGroup = FrozenSet[Capture]


class _EvidenceEmitter:
    """The per-triple evidence function (Algorithm 2).

    A module-level class rather than a closure so the process executor can
    pickle it; the Bloom filters and rule set travel with the instance to
    each pool worker once per stage.
    """

    __slots__ = ("projections", "unary_bloom", "binary_bloom", "rules", "allow_binary")

    def __init__(
        self, scope: ConditionScope, frequent: Optional[FrequentConditions]
    ) -> None:
        self.projections: Tuple[Tuple[Attr, Tuple[Attr, ...]], ...] = tuple(
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

    def __call__(
        self, triple: EncodedTriple
    ) -> Iterator[Tuple[int, Capture]]:
        unary_bloom = self.unary_bloom
        binary_bloom = self.binary_bloom
        rules = self.rules
        for alpha, condition_attrs in self.projections:
            value = triple[int(alpha)]
            if len(condition_attrs) == 2 and self.allow_binary:
                beta, gamma = condition_attrs
                v_beta = triple[int(beta)]
                v_gamma = triple[int(gamma)]
                unary_beta = UnaryCondition(beta, v_beta)
                unary_gamma = UnaryCondition(gamma, v_gamma)
                beta_ok = unary_bloom is None or unary_beta in unary_bloom
                gamma_ok = unary_bloom is None or unary_gamma in unary_bloom
                if beta_ok and gamma_ok:
                    binary = BinaryCondition(beta, v_beta, gamma, v_gamma)
                    binary_ok = binary_bloom is None or binary in binary_bloom
                    if (
                        binary_ok
                        and (unary_beta, unary_gamma) not in rules
                        and (unary_gamma, unary_beta) not in rules
                    ):
                        yield value, Capture(alpha, binary)
                    else:
                        yield value, Capture(alpha, unary_beta)
                        yield value, Capture(alpha, unary_gamma)
                elif beta_ok:
                    yield value, Capture(alpha, unary_beta)
                elif gamma_ok:
                    yield value, Capture(alpha, unary_gamma)
            else:
                for attr in condition_attrs:
                    unary = UnaryCondition(attr, triple[int(attr)])
                    if unary_bloom is None or unary in unary_bloom:
                        yield value, Capture(alpha, unary)


def expand_captures(captures: Set[Capture]) -> CaptureGroup:
    """Recover the unary captures a binary capture evidence subsumes.

    A binary evidence ``v ∈ (α, φ1 ∧ φ2)`` implies ``v ∈ (α, φ1)`` and
    ``v ∈ (α, φ2)``; both unary conditions are frequent whenever the
    binary one is (the Apriori property), so no extra frequency check is
    needed here.
    """
    expanded: Set[Capture] = set(captures)
    for capture in captures:
        if is_binary(capture.condition):
            for part in capture.condition.unary_parts():
                expanded.add(Capture(capture.attr, part))
    return frozenset(expanded)


def create_capture_groups(
    env: ExecutionEnvironment,
    triples: DataSet,
    scope: Optional[ConditionScope] = None,
    frequent: Optional[FrequentConditions] = None,
    batches: Optional[DataSet] = None,
) -> DataSet:
    """Run the CGCreator: evidences → grouped and expanded capture groups.

    Returns a :class:`~repro.dataflow.engine.DataSet` of
    :data:`CaptureGroup` (frozensets of captures); the grouping values are
    discarded after aggregation, as in the paper ("the system discards the
    values as they are no longer needed").

    Parameters
    ----------
    env, triples:
        The environment and the encoded-triple dataset.
    scope:
        Attribute restrictions (defaults to the general setting).
    frequent:
        FCDetector output; ``None`` disables the frequent-condition
        pruning (the RDFind-NF ablation).
    batches:
        Optional column-batch dataset over the same triples (one
        :class:`~repro.storage.columnar.TripleBatch` per partition, same
        round-robin layout).  When given, Algorithm 2 runs as the fused
        batch kernel — evidence emission and the grouping combiner in one
        pass, Bloom probes and capture construction cached per distinct
        id — instead of the ``flat_map`` + ``reduce_by_key`` record
        chain.  Both paths emit identical evidences in identical order,
        so the grouped output is byte-identical.
    """
    scope = scope if scope is not None else ConditionScope.full()
    if batches is not None:
        from repro.dataflow.kernels import EvidenceBatchKernel

        grouped = batches.flat_map_reduce_by_key(
            EvidenceBatchKernel(scope, frequent),
            _merge_sets,
            name="cg/group-by-value",
        )
    else:
        evidences = triples.flat_map(
            _EvidenceEmitter(scope, frequent), name="cg/evidences"
        )
        grouped = evidences.reduce_by_key(
            key_fn=pair_key,
            value_fn=_singleton_capture_set,
            reduce_fn=_merge_sets,
            name="cg/group-by-value",
        )
    # Round-robin the groups before the expensive per-group work: the hash
    # partitioning above clusters by value, so the few very large groups
    # (paper Section 7.1: they emerge from values like rdf:type) would
    # otherwise pile onto single workers ("the capture groups are
    # distributed among the workers after this step").
    rebalanced = grouped.rebalance(name="cg/rebalance")
    return rebalanced.map(_expand_group_value, name="cg/expand")


def _singleton_capture_set(pair: Tuple[int, Capture]) -> Set[Capture]:
    """Seed accumulator for one evidence record."""
    return {pair[1]}


def _expand_group_value(pair: Tuple[int, Set[Capture]]) -> CaptureGroup:
    """Drop the grouping value and expand subsumed unary captures."""
    return expand_captures(pair[1])


def _merge_sets(a: Set[Capture], b: Set[Capture]) -> Set[Capture]:
    """Union two accumulator sets, mutating the larger one.

    The accumulators are owned by the aggregation, so in-place union is
    safe; always growing the larger set keeps aggregation near-linear even
    for values with very many capture evidences.
    """
    if len(a) < len(b):
        a, b = b, a
    a |= b
    return a
