"""A reader for the Turtle subset commonly found in the wild.

The paper's datasets circulate both as N-Triples and as Turtle dumps;
this module reads the Turtle features those dumps actually use:

* ``@prefix`` declarations and prefixed names (``ex:thing``);
* ``@base`` declarations and relative IRIs;
* the ``a`` keyword (``rdf:type``);
* predicate lists (``;``) and object lists (``,``);
* literals with language tags, datatypes, and the numeric/boolean
  shorthands (``42``, ``3.14``, ``true``);
* blank node labels (``_:b0``) — anonymous ``[]`` nodes get fresh labels;
* comments and arbitrary whitespace.

Terms are produced in this library's storage conventions (bare IRIs,
``"..."``-quoted literals, ``_:`` blank labels), so the output plugs
straight into :class:`~repro.rdf.model.Dataset` and discovery.
"""

from __future__ import annotations

import os
import re
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.rdf.model import Dataset, Triple
from repro.rdf.namespaces import RDF

XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
XSD_DECIMAL = "http://www.w3.org/2001/XMLSchema#decimal"
XSD_BOOLEAN = "http://www.w3.org/2001/XMLSchema#boolean"


class TurtleParseError(ValueError):
    """Raised on malformed Turtle, with position information.

    ``path`` names the file when the error left :func:`parse_turtle_file`.
    """

    path: Optional[str] = None

    def __init__(self, message: str, position: int, text: str) -> None:
        line = text.count("\n", 0, position) + 1
        super().__init__(f"{message} (line {line})")
        self.position = position


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+|\#[^\n]*)
  | (?P<PREFIX_DECL>@prefix\b|PREFIX\b)
  | (?P<BASE_DECL>@base\b|BASE\b)
  | (?P<IRI><[^<>\s]*>)
  | (?P<LITERAL>"(?:[^"\\]|\\.)*")
  | (?P<LANG>@[A-Za-z][A-Za-z0-9-]*)
  | (?P<DTSEP>\^\^)
  | (?P<BLANK>_:[A-Za-z0-9_.-]+)
  | (?P<ANON>\[\s*\])
  | (?P<NUMBER>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<BOOL>\btrue\b|\bfalse\b)
  | (?P<A>\ba\b)
  | (?P<PNAME>[A-Za-z_][\w.-]*?:[\w./#-]*|:[\w./#-]*)
  | (?P<SEMI>;)
  | (?P<COMMA>,)
  | (?P<DOT>\.)
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "value", "position")

    def __init__(self, kind: str, value: str, position: int) -> None:
        self.kind = kind
        self.value = value
        self.position = position


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    length = len(text)
    while position < length:
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise TurtleParseError(
                f"unexpected character {text[position]!r}", position, text
            )
        if match.lastgroup != "WS":
            tokens.append(_Token(match.lastgroup, match.group(), position))
        position = match.end()
    tokens.append(_Token("EOF", "", length))
    return tokens


class _TurtleParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.prefixes: Dict[str, str] = {}
        self.base = ""
        self._anon_counter = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def error(self, message: str) -> TurtleParseError:
        return TurtleParseError(message, self.current.position, self.text)

    def expect(self, kind: str) -> _Token:
        if self.current.kind != kind:
            raise self.error(f"expected {kind}, found {self.current.kind}")
        return self.advance()

    # ------------------------------------------------------------------

    def parse(self) -> Iterator[Triple]:
        while self.current.kind != "EOF":
            if self.current.kind == "PREFIX_DECL":
                self._parse_prefix()
            elif self.current.kind == "BASE_DECL":
                self._parse_base()
            else:
                yield from self._parse_statement()

    def _parse_prefix(self) -> None:
        sparql_style = self.advance().value == "PREFIX"
        name = self.expect("PNAME").value
        if not name.endswith(":"):
            raise self.error("prefix name must end with ':'")
        iri = self.expect("IRI").value[1:-1]
        self.prefixes[name[:-1]] = iri
        if not sparql_style:
            self.expect("DOT")

    def _parse_base(self) -> None:
        sparql_style = self.advance().value == "BASE"
        self.base = self.expect("IRI").value[1:-1]
        if not sparql_style:
            self.expect("DOT")

    def _parse_statement(self) -> Iterator[Triple]:
        subject = self._parse_subject()
        while True:
            predicate = self._parse_predicate()
            while True:
                obj = self._parse_object()
                yield Triple(subject, predicate, obj)
                if self.current.kind == "COMMA":
                    self.advance()
                    continue
                break
            if self.current.kind == "SEMI":
                self.advance()
                while self.current.kind == "SEMI":  # tolerate ';;'
                    self.advance()
                if self.current.kind == "DOT":  # dangling ';' before '.'
                    break
                continue
            break
        self.expect("DOT")

    def _fresh_blank(self) -> str:
        self._anon_counter += 1
        return f"_:anon{self._anon_counter}"

    def _resolve_pname(self, pname: str) -> str:
        prefix, _sep, local = pname.partition(":")
        if prefix not in self.prefixes:
            raise self.error(f"undeclared prefix {prefix!r}")
        return self.prefixes[prefix] + local

    def _parse_subject(self) -> str:
        token = self.current
        if token.kind == "IRI":
            self.advance()
            return self.base + token.value[1:-1] if _is_relative(token.value) else token.value[1:-1]
        if token.kind == "PNAME":
            self.advance()
            return self._resolve_pname(token.value)
        if token.kind == "BLANK":
            self.advance()
            return token.value
        if token.kind == "ANON":
            self.advance()
            return self._fresh_blank()
        raise self.error("expected a subject (IRI, prefixed name, or blank node)")

    def _parse_predicate(self) -> str:
        token = self.current
        if token.kind == "A":
            self.advance()
            return RDF.type
        if token.kind == "IRI":
            self.advance()
            return self.base + token.value[1:-1] if _is_relative(token.value) else token.value[1:-1]
        if token.kind == "PNAME":
            self.advance()
            return self._resolve_pname(token.value)
        raise self.error("expected a predicate (IRI, prefixed name, or 'a')")

    def _parse_object(self) -> str:
        token = self.current
        if token.kind in ("IRI",):
            self.advance()
            return self.base + token.value[1:-1] if _is_relative(token.value) else token.value[1:-1]
        if token.kind == "PNAME":
            self.advance()
            return self._resolve_pname(token.value)
        if token.kind == "BLANK":
            self.advance()
            return token.value
        if token.kind == "ANON":
            self.advance()
            return self._fresh_blank()
        if token.kind == "LITERAL":
            self.advance()
            literal = token.value
            if self.current.kind == "LANG":
                literal += self.advance().value
            elif self.current.kind == "DTSEP":
                self.advance()
                datatype_token = self.advance()
                if datatype_token.kind == "IRI":
                    literal += f"^^{datatype_token.value}"
                elif datatype_token.kind == "PNAME":
                    literal += f"^^<{self._resolve_pname(datatype_token.value)}>"
                else:
                    raise self.error("expected a datatype IRI after '^^'")
            return literal
        if token.kind == "NUMBER":
            self.advance()
            datatype = XSD_DECIMAL if ("." in token.value or "e" in token.value.lower()) else XSD_INTEGER
            return f'"{token.value}"^^<{datatype}>'
        if token.kind == "BOOL":
            self.advance()
            return f'"{token.value}"^^<{XSD_BOOLEAN}>'
        raise self.error("expected an object term")


def _is_relative(iri_token: str) -> bool:
    body = iri_token[1:-1]
    return "://" not in body and not body.startswith(("urn:", "mailto:"))


def parse_turtle(text: str) -> Iterator[Triple]:
    """Yield triples from Turtle text (the supported subset)."""
    return _TurtleParser(text).parse()


def parse_turtle_file(path: Union[str, os.PathLike], name: str = "") -> Dataset:
    """Parse a Turtle file into a :class:`Dataset`."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return Dataset(parse_turtle(text), name=name or str(path))
    except TurtleParseError as error:
        error.path = str(path)
        raise
