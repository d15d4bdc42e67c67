"""Tests for discovery-result JSON serialization."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.cind import decode_cind, decode_condition
from repro.core.discovery import RDFind, find_pertinent_cinds
from repro.core.serialization import (
    dump_result,
    load_result,
    parse_result_dict,
    result_to_dict,
)
from repro.rdf.model import Dataset
from repro.sparql import QueryMinimizer, lubm_q2
from repro.streaming import StreamSession
from tests.conftest import random_rdf


@pytest.fixture(scope="module")
def result():
    return find_pertinent_cinds(random_rdf(990, n_triples=45).encode(), support_threshold=2)


class TestRoundtrip:
    def test_header_fields(self, result):
        payload = result_to_dict(result)
        assert payload["format"] == "rdfind-result"
        assert payload["support_threshold"] == 2
        assert payload["variant"] == "RDFind"

    def test_cinds_roundtrip_decoded(self, result):
        cinds, rules, h = parse_result_dict(result_to_dict(result))
        assert h == 2
        dictionary = result.dictionary
        expected_cinds = {
            (decode_cind(sc.cind, dictionary), sc.support) for sc in result.cinds
        }
        assert {(sc.cind, sc.support) for sc in cinds} == expected_cinds
        expected_rules = {
            (
                decode_condition(sa.rule.lhs, dictionary),
                decode_condition(sa.rule.rhs, dictionary),
                sa.support,
            )
            for sa in result.association_rules
        }
        assert {
            (sa.rule.lhs, sa.rule.rhs, sa.support) for sa in rules
        } == expected_rules

    def test_file_roundtrip(self, result, tmp_path):
        path = tmp_path / "result.json"
        dump_result(result, path)
        cinds, rules, h = load_result(path)
        assert len(cinds) == len(result.cinds)
        assert len(rules) == len(result.association_rules)
        assert h == 2
        # the document must be plain JSON
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle)["format"] == "rdfind-result"

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            parse_result_dict({"format": "something-else"})
        with pytest.raises(ValueError):
            parse_result_dict({"format": "rdfind-result", "version": 99})


class TestReuseInMinimizer:
    def test_loaded_result_drives_the_minimizer(self, tmp_path):
        """Discover once, save, reload, minimize — the advertised flow."""
        from repro.datasets import lubm
        from repro.core.cind import AssociationRule

        dataset = lubm(scale=0.25)
        result = find_pertinent_cinds(dataset.encode(), support_threshold=5)
        path = tmp_path / "lubm-cinds.json"
        dump_result(result, path)

        cinds, rules, _h = load_result(path)
        minimizer = QueryMinimizer(
            (sc.cind for sc in cinds),
            (AssociationRule(sa.rule.lhs, sa.rule.rhs) for sa in rules),
        )
        report = minimizer.minimize(lubm_q2())
        assert len(report.minimized.patterns) == 3


#: Terms that stress JSON string escaping and the writer's re-indenting:
#: quotes, backslashes, embedded newlines and tabs, non-ASCII, U+2028.
AWKWARD_TERMS = [
    'say "hi"',
    "back\\slash",
    '"line one\nline two"',
    "tab\there",
    "\n",
    "Zürich",
    "東京",
    "sep\u2028arator",
    "rdf:type",
    "x",
]


def dumped(result, tmp_path) -> str:
    path = tmp_path / "result.json"
    dump_result(result, path)
    return path.read_text(encoding="utf-8")


def oracle(result) -> str:
    """What ``json.dump(result_to_dict(...), indent=1)`` writes."""
    return json.dumps(result_to_dict(result), ensure_ascii=False, indent=1)


class TestWriterIdentity:
    """``dump_result`` streams exactly the bytes of the dict oracle."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rows=st.lists(
            st.tuples(*[st.sampled_from(AWKWARD_TERMS) | st.text(max_size=4)] * 3),
            min_size=1,
            max_size=24,
        ),
        h=st.integers(min_value=1, max_value=3),
    )
    def test_generated_datasets(self, tmp_path, rows, h):
        result = RDFind().discover(Dataset.from_tuples(rows).encode(), h=h)
        assert dumped(result, tmp_path) == oracle(result)

    def test_zero_cinds(self, tmp_path):
        result = RDFind().discover(
            Dataset.from_tuples([("a", "p", "b")]).encode(), h=2
        )
        assert result.cinds == [] and result.association_rules == []
        text = dumped(result, tmp_path)
        assert text == oracle(result)
        assert '"cinds": [],' in text

    def test_zero_association_rules(self, tmp_path, result):
        assert result.cinds and result.association_rules == []
        text = dumped(result, tmp_path)
        assert text == oracle(result)
        assert text.endswith('"association_rules": []\n}')

    def test_binary_condition_captures(self, tmp_path, result):
        assert any(
            capture.is_binary for sc in result.cinds for capture in sc.cind
        )
        assert dumped(result, tmp_path) == oracle(result)

    def test_association_rules(self, tmp_path, table1_encoded):
        result = RDFind().discover(table1_encoded, h=2)
        assert result.cinds and result.association_rules
        assert dumped(result, tmp_path) == oracle(result)

    def test_rows_spanning_several_chunks(self, tmp_path, monkeypatch, result):
        from repro.core import serialization

        monkeypatch.setattr(serialization, "ROWS_PER_CHUNK", 2)
        assert len(result.cinds) > 4
        assert dumped(result, tmp_path) == oracle(result)


class TestStreamDocumentIdentity:
    """The stream query writes the batch ``dump_result`` bytes."""

    @staticmethod
    def batch_bytes(session, tmp_path) -> str:
        result = RDFind().discover(session.maintainer.materialize(), h=session.h)
        text = dumped(result, tmp_path)
        assert text == oracle(result)
        return text

    def test_remove_readd_and_reopen(self, tmp_path):
        terms = AWKWARD_TERMS
        rows = [
            (terms[i % 10], terms[(3 * i) % 7], terms[(i + 4) % 10])
            for i in range(40)
        ] + [(f"s{i % 5}", "rdf:type", f"c{i % 3}") for i in range(30)]
        directory = str(tmp_path / "state")
        readd = rows[:25]
        with StreamSession(directory, h=2, fsync=False) as session:
            session.load_initial(rows)
            assert session.document_json() == self.batch_bytes(session, tmp_path)
            for triple in readd:
                session.remove(*triple)
            assert session.document_json() == self.batch_bytes(session, tmp_path)
            for triple in readd:
                session.add(*triple)
            assert session.document_json() == self.batch_bytes(session, tmp_path)
            session.compact()
            for triple in rows[30:36]:
                session.remove(*triple)
            session.add(*rows[31])
            session.changelog.sync()
            expected = self.batch_bytes(session, tmp_path)
            assert session.document_json() == expected
        with StreamSession(directory, h=2, fsync=False) as session:
            assert session.resumed_from_checkpoint
            assert session.replayed_records == 7
            assert session.document_json() == expected
            assert session.result_document() == json.loads(expected)
