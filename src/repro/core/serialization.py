"""Serializing discovery results (JSON) and binary frame streams.

Discovery is the expensive step; its consumers (the query minimizer, the
ontology and knowledge apps, downstream tooling) often run later or
elsewhere.  This module renders a :class:`DiscoveryResult`'s CINDs and
ARs into a self-contained JSON document (term strings inlined, no
dictionary needed to read it) and reads such documents back into
decoded, string-valued structures ready for
:class:`repro.sparql.minimizer.QueryMinimizer` and friends.

It also exposes the *binary frame* layer the spilling shuffle
(:mod:`repro.dataflow.shuffle`) builds its run files on: length-prefixed,
CRC-checked byte frames (defined in :mod:`repro.core.framing`, which is
dependency-free so the shuffle can import it without pulling in the
discovery result types; re-exported here as the serialization facade).
A frame on disk is ``[4-byte big-endian payload length][4-byte CRC32 of
the payload][payload]``; a stream of frames ends at clean EOF.
Corruption surfaces as :class:`FrameCorruptionError` (checksum mismatch)
and a short read as :class:`FrameTruncatedError`, so a reader can
distinguish "bit rot" from "writer died mid-frame".

Writing the document
--------------------

:func:`result_to_dict` is the dict API; :func:`dump_result` does not go
through it.  The writer, :func:`result_json_chunks`, yields the document
in blocks of rows, byte for byte what
``json.dump(result_to_dict(r), indent=1, ensure_ascii=False)`` writes,
without ever holding a dict tree or the whole document string:

* each **distinct** capture is rendered once —
  ``json.dumps(_capture_to_json(decode_capture(c)), indent=1)`` — and
  re-indented to its depth with a plain ``"\n"`` replace (JSON escapes
  every newline inside a string, so each ``"\n"`` in the fragment is
  layout).  Results repeat captures heavily: 60k CIND rows on Countries
  share about 2k captures;
* each CIND row is a fixed template around its two cached fragments
  and its integer support.

The same writer serves the stream query
(:meth:`repro.streaming.maintainer.StreamingRDFind.document_json`),
which is how the streaming and batch documents stay byte-identical.

Schema (version 1)::

    {
      "format": "rdfind-result",
      "version": 1,
      "support_threshold": 25,
      "variant": "RDFind",
      "cinds": [
        {"dep": {"attr": "s", "cond": [["p", "memberOf"]]},
         "ref": {"attr": "s", "cond": [["p", "rdf:type"]]},
         "support": 2},
        ...
      ],
      "association_rules": [
        {"lhs": ["o", "gradStudent"], "rhs": ["p", "rdf:type"], "support": 2},
        ...
      ]
    }
"""

from __future__ import annotations

import json
import os
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Tuple, Union

from repro.core.cind import (
    CIND,
    AssociationRule,
    Capture,
    SupportedAR,
    SupportedCIND,
    decode_capture,
    decode_condition,
)
from repro.core.conditions import BinaryCondition, Condition, UnaryCondition
from repro.core.discovery import DiscoveryResult
from repro.core.framing import (  # noqa: F401  (re-exported facade)
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    FrameCorruptionError,
    FrameError,
    FrameTruncatedError,
    iter_frames,
    pack_frame,
    read_frame,
    write_frame,
)
from repro.rdf.model import Attr, TermDictionary

FORMAT_NAME = "rdfind-result"
FORMAT_VERSION = 1

#: Rows joined into one yielded chunk of :func:`result_json_chunks`.
ROWS_PER_CHUNK = 1024


def _condition_to_json(condition: Condition) -> List[List[str]]:
    if isinstance(condition, UnaryCondition):
        return [[condition.attr.symbol, condition.value]]
    return [
        [part.attr.symbol, part.value] for part in condition.unary_parts()
    ]


def _condition_from_json(payload: List[List[str]]) -> Condition:
    if len(payload) == 1:
        ((symbol, value),) = payload
        return UnaryCondition(Attr.from_symbol(symbol), value)
    if len(payload) == 2:
        (s1, v1), (s2, v2) = payload
        return BinaryCondition.make(
            Attr.from_symbol(s1), v1, Attr.from_symbol(s2), v2
        )
    raise ValueError(f"malformed condition payload: {payload!r}")


def _capture_to_json(capture: Capture) -> Dict:
    return {
        "attr": capture.attr.symbol,
        "cond": _condition_to_json(capture.condition),
    }


def _capture_from_json(payload: Dict) -> Capture:
    return Capture(
        Attr.from_symbol(payload["attr"]),
        _condition_from_json(payload["cond"]),
    )


def result_to_dict(result: DiscoveryResult) -> Dict:
    """Render a discovery result as a JSON-ready dict (strings inlined)."""
    dictionary = result.dictionary
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "support_threshold": result.support_threshold,
        "variant": result.config.variant_name,
        "cinds": [
            {
                "dep": _capture_to_json(
                    decode_capture(sc.cind.dependent, dictionary)
                ),
                "ref": _capture_to_json(
                    decode_capture(sc.cind.referenced, dictionary)
                ),
                "support": sc.support,
            }
            for sc in result.cinds
        ],
        "association_rules": [
            {
                "lhs": _condition_to_json(
                    decode_condition(sa.rule.lhs, dictionary)
                )[0],
                "rhs": _condition_to_json(
                    decode_condition(sa.rule.rhs, dictionary)
                )[0],
                "support": sa.support,
            }
            for sa in result.association_rules
        ],
    }


def _fragment(payload: Union[Dict, List], depth: int) -> str:
    """``payload`` as ``json.dumps(indent=1)`` renders it ``depth`` levels in."""
    text = json.dumps(payload, ensure_ascii=False, indent=1)
    return text.replace("\n", "\n" + " " * depth)


def _list_chunks(rows: Iterable[str]) -> Iterator[str]:
    """A top-level member's list of pre-rendered rows, in blocks."""
    rows = iter(rows)
    lead = "[\n"
    while True:
        block = list(islice(rows, ROWS_PER_CHUNK))
        if not block:
            break
        yield lead + ",\n".join(block)
        lead = ",\n"
    yield "[]" if lead == "[\n" else "\n ]"


def _cind_rows(
    cinds: Iterable[SupportedCIND], dictionary: TermDictionary
) -> Iterator[str]:
    fragments: Dict[Capture, str] = {}
    for sc in cinds:
        dependent, referenced = sc.cind
        dep = fragments.get(dependent)
        if dep is None:
            dep = fragments[dependent] = _fragment(
                _capture_to_json(decode_capture(dependent, dictionary)), 3
            )
        ref = fragments.get(referenced)
        if ref is None:
            ref = fragments[referenced] = _fragment(
                _capture_to_json(decode_capture(referenced, dictionary)), 3
            )
        yield (
            f'  {{\n   "dep": {dep},\n   "ref": {ref},\n'
            f'   "support": {sc.support}\n  }}'
        )


def _rule_rows(
    rules: Iterable[SupportedAR], dictionary: TermDictionary
) -> Iterator[str]:
    for sa in rules:
        lhs, rhs = (
            _fragment(_condition_to_json(decode_condition(side, dictionary))[0], 3)
            for side in sa.rule
        )
        yield (
            f'  {{\n   "lhs": {lhs},\n   "rhs": {rhs},\n'
            f'   "support": {sa.support}\n  }}'
        )


def result_json_chunks(
    support_threshold: int,
    variant: str,
    cinds: Iterable[SupportedCIND],
    rules: Iterable[SupportedAR],
    dictionary: TermDictionary,
) -> Iterator[str]:
    """The result document as text chunks (see *Writing the document*).

    Concatenated, the chunks equal ``json.dumps(document,
    ensure_ascii=False, indent=1)`` of the :func:`result_to_dict`-shaped
    document for these rows, in the order given.
    """
    yield (
        f'{{\n "format": {json.dumps(FORMAT_NAME)},'
        f'\n "version": {FORMAT_VERSION},'
        f'\n "support_threshold": {json.dumps(support_threshold)},'
        f'\n "variant": {json.dumps(variant, ensure_ascii=False)},'
        f'\n "cinds": '
    )
    yield from _list_chunks(_cind_rows(cinds, dictionary))
    yield ',\n "association_rules": '
    yield from _list_chunks(_rule_rows(rules, dictionary))
    yield "\n}"


def dump_result(result: DiscoveryResult, path: Union[str, os.PathLike]) -> None:
    """Write a discovery result as JSON (streamed, see the module notes)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(
            result_json_chunks(
                result.support_threshold,
                result.config.variant_name,
                result.cinds,
                result.association_rules,
                result.dictionary,
            )
        )


def parse_result_dict(
    payload: Dict,
) -> Tuple[List[SupportedCIND], List[SupportedAR], int]:
    """Read a result document into string-valued CINDs/ARs plus its h.

    The returned structures use string term values (like
    :func:`repro.core.cind.decode_cind` output) and plug directly into
    :meth:`QueryMinimizer <repro.sparql.minimizer.QueryMinimizer>` and the
    apps' canonicalization helpers.
    """
    if payload.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} document")
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported version {payload.get('version')!r}")
    cinds = [
        SupportedCIND(
            CIND(
                _capture_from_json(row["dep"]),
                _capture_from_json(row["ref"]),
            ),
            int(row["support"]),
        )
        for row in payload.get("cinds", [])
    ]
    rules = [
        SupportedAR(
            AssociationRule(
                _condition_from_json([row["lhs"]]),
                _condition_from_json([row["rhs"]]),
            ),
            int(row["support"]),
        )
        for row in payload.get("association_rules", [])
    ]
    return cinds, rules, int(payload.get("support_threshold", 1))


def load_result(
    path: Union[str, os.PathLike],
) -> Tuple[List[SupportedCIND], List[SupportedAR], int]:
    """Read a JSON result document written by :func:`dump_result`."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_result_dict(json.load(handle))
