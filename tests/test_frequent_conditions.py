"""Tests for the FCDetector (frequent conditions and association rules)."""

from collections import Counter

import pytest

from repro.core.conditions import (
    BinaryCondition,
    ConditionScope,
    UnaryCondition,
    conditions_of_triple,
    is_binary,
    is_unary,
)
from repro.core.frequent_conditions import detect_frequent_conditions
from repro.core.validation import NaiveProfiler
from repro.dataflow.engine import ExecutionEnvironment
from repro.rdf.model import Attr
from tests.conftest import random_rdf


def run_fcdetector(encoded, h, scope=None, parallelism=3):
    env = ExecutionEnvironment(parallelism=parallelism)
    triples = env.from_collection(encoded.triples)
    return detect_frequent_conditions(env, triples, h=h, scope=scope)


def naive_frequencies(encoded, scope=None):
    counts = Counter()
    for triple in encoded:
        counts.update(conditions_of_triple(triple, scope))
    return counts


class TestFrequencyCounting:
    @pytest.mark.parametrize("h", [1, 2, 3, 5])
    def test_counts_match_naive(self, table1_encoded, h):
        result = run_fcdetector(table1_encoded, h)
        expected = {
            condition: count
            for condition, count in naive_frequencies(table1_encoded).items()
            if count >= h
        }
        combined = {**result.unary_counts, **result.binary_counts}
        assert combined == expected

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_counts_match_naive_random(self, seed, parallelism):
        encoded = random_rdf(seed, n_triples=40).encode()
        result = run_fcdetector(encoded, h=2, parallelism=parallelism)
        expected = {
            condition: count
            for condition, count in naive_frequencies(encoded).items()
            if count >= 2
        }
        combined = {**result.unary_counts, **result.binary_counts}
        assert combined == expected

    def test_table1_h2_unary_examples(self, table1_encoded):
        result = run_fcdetector(table1_encoded, h=2)
        dictionary = table1_encoded.dictionary
        rdf_type = UnaryCondition(Attr.P, dictionary.encode_existing("rdf:type"))
        assert result.unary_counts[rdf_type] == 3
        grad = UnaryCondition(Attr.O, dictionary.encode_existing("gradStudent"))
        assert result.unary_counts[grad] == 2

    def test_table1_h2_binary_example(self, table1_encoded):
        result = run_fcdetector(table1_encoded, h=2)
        dictionary = table1_encoded.dictionary
        binary = BinaryCondition.make(
            Attr.P, dictionary.encode_existing("rdf:type"),
            Attr.O, dictionary.encode_existing("gradStudent"),
        )
        assert result.binary_counts[binary] == 2

    def test_apriori_property(self):
        """Every frequent binary condition has frequent unary parts."""
        encoded = random_rdf(11, n_triples=60).encode()
        result = run_fcdetector(encoded, h=2)
        for binary in result.binary_counts:
            for part in binary.unary_parts():
                assert part in result.unary_counts

    def test_invalid_threshold_rejected(self, table1_encoded):
        with pytest.raises(ValueError):
            run_fcdetector(table1_encoded, h=0)


class TestBloomFilters:
    def test_blooms_cover_all_frequent_conditions(self):
        encoded = random_rdf(3, n_triples=50).encode()
        result = run_fcdetector(encoded, h=2)
        assert all(c in result.unary_bloom for c in result.unary_counts)
        assert all(c in result.binary_bloom for c in result.binary_counts)

    def test_helper_accessors(self, table1_encoded):
        result = run_fcdetector(table1_encoded, h=2)
        some_unary = next(iter(result.unary_counts))
        assert result.is_frequent(some_unary)
        assert result.frequency(some_unary) >= 2
        absent = UnaryCondition(Attr.S, 10_000)
        assert not result.is_frequent(absent)
        assert result.frequency(absent) == 0


class TestAssociationRules:
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_rules_match_oracle(self, table1_encoded, h):
        result = run_fcdetector(table1_encoded, h=h)
        oracle = NaiveProfiler(table1_encoded).association_rules(h)
        assert set(result.association_rules) == set(oracle)

    @pytest.mark.parametrize("seed", range(5))
    def test_rules_match_oracle_random(self, seed):
        encoded = random_rdf(seed + 50, n_triples=45).encode()
        result = run_fcdetector(encoded, h=2)
        oracle = NaiveProfiler(encoded).association_rules(2)
        assert set(result.association_rules) == set(oracle)

    def test_table1_gradstudent_rule(self, table1_encoded):
        result = run_fcdetector(table1_encoded, h=2)
        dictionary = table1_encoded.dictionary
        rendered = {sa.rule.render(dictionary) for sa in result.association_rules}
        assert "o=gradStudent → p=rdf:type" in rendered

    def test_rule_support_equals_lhs_frequency(self):
        encoded = random_rdf(9, n_triples=40).encode()
        result = run_fcdetector(encoded, h=1)
        for supported in result.association_rules:
            assert supported.support == result.frequency(supported.rule.lhs)
            assert supported.support == result.frequency(
                supported.rule.binary_condition
            )

    def test_rule_set_property(self, table1_encoded):
        result = run_fcdetector(table1_encoded, h=2)
        assert all(sa.rule in result.rule_set for sa in result.association_rules)


class TestScopes:
    def test_predicates_only_scope_has_no_binaries(self, table1_encoded):
        result = run_fcdetector(
            table1_encoded, h=1, scope=ConditionScope.predicates_only()
        )
        assert result.binary_counts == {}
        assert all(c.attr is Attr.P for c in result.unary_counts)

    def test_scoped_counts_match_naive(self, table1_encoded):
        scope = ConditionScope.predicates_only()
        result = run_fcdetector(table1_encoded, h=2, scope=scope)
        expected = {
            condition: count
            for condition, count in naive_frequencies(table1_encoded, scope).items()
            if count >= 2
        }
        assert result.unary_counts == expected


class TestStageTimes:
    def test_every_timed_stage_reports_wall_time(self):
        """A stage with measured partition time also has a wall time."""
        from repro.core.discovery import RDFind

        result = RDFind().discover(random_rdf(41, n_triples=400).encode(), h=2)
        timed = [
            stage for stage in result.metrics.stages if any(stage.partition_seconds)
        ]
        assert {"fc/unary-columnar", "fc/binary-columnar"} <= {
            stage.name for stage in timed
        }
        assert [stage.name for stage in timed if stage.wall_seconds <= 0] == []
