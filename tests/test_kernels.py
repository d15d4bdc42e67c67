"""Tests for the vectorized batch kernels.

The central contract: the default execution path (capture-group batch
kernel, shared-reference candidate merge, fused capture-support count)
produces output byte-identical to the record-at-a-time oracle that a
record-count ``memory_budget`` selects, on both executor backends and
both shuffle planes.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.core.capture_groups import create_capture_groups
from repro.core.conditions import Attr, ConditionScope, UnaryCondition
from repro.core.discovery import RDFind, RDFindConfig
from repro.core.frequent_conditions import detect_frequent_conditions
from repro.core.serialization import dump_result
from repro.dataflow.bloom import BloomFilter
from repro.dataflow.engine import ExecutionEnvironment, record_cells
from repro.dataflow.gcpause import gc_paused, stage_gc_pause
from repro.dataflow.kernels import batch_dataset
from repro.dataflow.shuffle import record_bytes
from repro.storage.columnar import build_triple_batches, packed_column_nbytes
from repro.storage.compressed import BitPackedColumn

from tests.conftest import random_rdf


def document_bytes(result, path) -> bytes:
    """The exact bytes ``rdfind discover -o`` writes for ``result``."""
    dump_result(result, path)
    return path.read_bytes()


#: A record-count budget far above anything the test data needs: it
#: binds nothing, but it keeps discovery on the record-at-a-time path.
NON_BINDING_BUDGET = 10**9


#: Random-input shapes as ``(n_triples, n_subjects, n_objects)``. The
#: large one holds ~1500 distinct triples, over 4096 capture records.
INPUT_SIZES = {"small": (120, 8, 8), "large": (1600, 40, 40), "tiny": (6, 3, 3)}


def discover(
    executor="serial", shuffle="inline", seed=7, h=2, size="small", **kwargs
):
    n_triples, n_subjects, n_objects = INPUT_SIZES[size]
    dataset = random_rdf(
        seed, n_triples=n_triples, n_subjects=n_subjects, n_objects=n_objects
    )
    config = RDFindConfig(
        support_threshold=h,
        parallelism=3,
        executor=executor,
        shuffle=shuffle,
        **kwargs,
    )
    return RDFind(config).discover(dataset.encode())


# ----------------------------------------------------------------------
# batch layout and pricing honesty
# ----------------------------------------------------------------------


class TestTripleBatches:
    def test_batches_reproduce_round_robin_partitioning(self):
        encoded = random_rdf(3, n_triples=50).encode()
        count = 4
        batches = build_triple_batches(encoded, count)
        rows = list(encoded)
        for index, batch in enumerate(batches):
            expected = rows[index::count]
            assert len(batch) == len(expected)
            assert list(zip(*batch.columns)) == [tuple(t) for t in expected]

    def test_batch_dataset_matches_from_collection_layout(self):
        encoded = random_rdf(4, n_triples=40).encode()
        env = ExecutionEnvironment(parallelism=3)
        triples = env.from_collection(encoded)
        batches = batch_dataset(env, encoded)
        record_partitions = triples.partitions
        for index, partition in enumerate(batches.partitions):
            (batch,) = partition
            assert list(zip(*batch.columns)) == [
                tuple(t) for t in record_partitions[index]
            ]

    def test_oversliced_batches_round_robin_onto_workers(self):
        encoded = random_rdf(5, n_triples=30).encode()
        env = ExecutionEnvironment(parallelism=2)
        batches = batch_dataset(env, encoded, batch_count=5)
        partitions = batches.partitions
        assert [len(p) for p in partitions] == [3, 2]  # batches 0,2,4 / 1,3
        total = sum(len(batch) for p in partitions for batch in p)
        assert total == len(encoded)

    def test_record_budget_prices_batches_like_triples(self):
        encoded = random_rdf(6, n_triples=33).encode()
        batches = build_triple_batches(encoded, 4)
        assert sum(record_cells(b) for b in batches) == encoded.cells
        assert all(b.budget_cells == 3 * len(b) for b in batches)

    def test_byte_budget_pricing_is_honest(self):
        """nbytes prices the batch at its bit-packed column size."""
        encoded = random_rdf(8, n_triples=2000, n_subjects=40, n_objects=40).encode()
        (batch,) = build_triple_batches(encoded, 1)
        priced = record_bytes(batch)
        assert priced == sys.getsizeof(batch) + batch.nbytes()
        assert batch.nbytes() == sum(
            packed_column_nbytes(column) for column in batch.columns
        )
        # Never over the real mutable-array footprint...
        actual = sys.getsizeof(batch) + sum(
            sys.getsizeof(column) for column in batch.columns
        )
        assert priced <= actual
        # ...and the packed size matches what BitPackedColumn produces.
        for column in batch.columns:
            assert packed_column_nbytes(column) == BitPackedColumn.pack(column).nbytes()

    def test_invalid_batch_count_rejected(self):
        encoded = random_rdf(9, n_triples=10).encode()
        with pytest.raises(ValueError):
            build_triple_batches(encoded, 0)


# ----------------------------------------------------------------------
# kernels vs their record/driver oracles
# ----------------------------------------------------------------------


def kernel_env(executor="serial"):
    return ExecutionEnvironment(parallelism=3, executor=executor)


class TestKernelOracles:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("pruned", [False, True])
    def test_capture_groups_match_record_path(self, executor, pruned):
        encoded = random_rdf(14, n_triples=120, n_subjects=8, n_objects=8).encode()
        scope = ConditionScope.full()
        frequent = None
        if pruned:
            frequent = detect_frequent_conditions(
                kernel_env(),
                kernel_env().from_collection(encoded),
                h=2,
                scope=scope,
                columns=encoded,
            )
        oracle_env = kernel_env(executor)
        oracle = create_capture_groups(
            oracle_env, oracle_env.from_collection(encoded), scope, frequent
        ).partitions
        env = kernel_env(executor)
        triples = env.from_collection(encoded)
        kernel = create_capture_groups(
            env, triples, scope, frequent, batches=batch_dataset(env, encoded)
        ).partitions
        # Identical partitions, not just identical contents: the kernel
        # feeds the same shuffle routing as the record path.
        assert kernel == oracle

    def test_capture_group_kernel_with_restricted_scope(self):
        encoded = random_rdf(15, n_triples=80).encode()
        scope = ConditionScope.predicates_only()
        env1, env2 = kernel_env(), kernel_env()
        oracle = create_capture_groups(
            env1, env1.from_collection(encoded), scope, None
        ).partitions
        kernel = create_capture_groups(
            env2,
            env2.from_collection(encoded),
            scope,
            None,
            batches=batch_dataset(env2, encoded),
        ).partitions
        assert kernel == oracle


class TestBloomIntKeyFastPath:
    def test_agrees_with_contains_for_int_tuple_keys(self):
        bloom = BloomFilter.for_capacity(256, 0.01)
        members = [UnaryCondition(Attr.P, v) for v in range(0, 200, 3)]
        bloom.update(members)
        probes = [UnaryCondition(Attr.P, v) for v in range(200)] + [
            (a, b) for a in range(10) for b in range(10)
        ]
        for key in probes:
            assert bloom.contains_int_key(key) == (key in bloom)

    def test_plain_int_keys(self):
        bloom = BloomFilter.from_items(range(0, 100, 7), capacity=20)
        for value in range(100):
            assert bloom.contains_int_key(value) == (value in bloom)


# ----------------------------------------------------------------------
# end-to-end byte identity against the record-path oracle
# ----------------------------------------------------------------------


KERNEL_STAGES = {"cg/batches", "ex/materialize-refs"}


class TestDefaultPathByteIdentity:
    @pytest.mark.parametrize("size", ["small", "large"])
    @pytest.mark.parametrize("shuffle", ["inline", "spill"])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_default_matches_record_oracle(self, executor, shuffle, size, tmp_path):
        default = discover(executor=executor, shuffle=shuffle, size=size)
        oracle = discover(
            executor=executor,
            shuffle=shuffle,
            size=size,
            memory_budget=NON_BINDING_BUDGET,
        )
        assert document_bytes(default, tmp_path / "default.json") == (
            document_bytes(oracle, tmp_path / "oracle.json")
        )
        default_stages = {stage.name for stage in default.metrics.stages}
        oracle_stages = {stage.name for stage in oracle.metrics.stages}
        assert KERNEL_STAGES <= default_stages
        assert not KERNEL_STAGES & oracle_stages

    def test_default_uses_kernels_even_on_tiny_input(self):
        # There is no input-size floor: a handful of triples still runs
        # the batch kernels.
        result = discover(size="tiny", h=1)
        assert KERNEL_STAGES <= {stage.name for stage in result.metrics.stages}


class TestRecordCountBudget:
    def test_record_memory_budget_disables_kernels(self):
        result = discover(memory_budget=100_000)
        assert not KERNEL_STAGES & {stage.name for stage in result.metrics.stages}

    def test_record_memory_budget_run_keeps_default_output(self, tmp_path):
        # A record-count budget forces the record paths; the run must
        # still succeed and write the same document as the default run.
        budgeted = discover(memory_budget=100_000)
        default = discover()
        assert document_bytes(budgeted, tmp_path / "budgeted.json") == (
            document_bytes(default, tmp_path / "default.json")
        )


class TestNoPlannerOption:
    def test_planner_is_not_a_config_field(self):
        with pytest.raises(TypeError):
            RDFindConfig(planner="static")
        assert RDFindConfig().planner == "kernels"

    def test_planner_env_variable_is_ignored(self, monkeypatch):
        monkeypatch.setenv("RDFIND_PLANNER", "off")
        result = discover()
        assert result.metrics.stage_by_name("cg/batches") is not None


# ----------------------------------------------------------------------
# GC suppression accounting
# ----------------------------------------------------------------------


class TestGcPause:
    def test_gc_paused_restores_previous_state(self):
        was_enabled = gc.isenabled()
        try:
            gc.enable()
            with gc_paused():
                assert not gc.isenabled()
            assert gc.isenabled()
            gc.disable()
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable() if was_enabled else gc.disable()

    def test_stage_pause_counts_suppressed_passes(self):
        threshold0 = gc.get_threshold()[0] or 700
        with stage_gc_pause() as pause:
            # Keep the allocations alive through __exit__: the gen-0
            # counter is allocations minus deallocations, so freeing
            # inside the block would cancel the delta being measured.
            garbage = [[] for _ in range(3 * threshold0)]
        assert pause.suppressed >= 1
        del garbage

    def test_quiet_stage_suppresses_nothing(self):
        with stage_gc_pause() as pause:
            pass
        assert pause.suppressed == 0

    def test_job_metrics_aggregate_suppressed_collections(self):
        result = discover()
        total = result.metrics.total_gc_suppressed_collections
        assert total == sum(
            stage.gc_suppressed_collections for stage in result.metrics.stages
        )
        assert total >= 0
