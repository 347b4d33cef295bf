"""Reader and writer for the dlgp-style rule text format.

Grammar (comments run from '%' to end of line):

    document  := statement*
    statement := fact | rule
    fact      := atomlist "."
    rule      := ("[" LABEL "]")? atomlist ":-" atomlist "."    head :- body
    atomlist  := atom ("," atom)*
    atom      := IDENT "(" term ("," term)* ")"
    term      := VARIABLE | IDENT

Words are runs of ASCII letters, digits and '_'; a word is a VARIABLE
when it starts with an uppercase letter, else an IDENT.  The tokenizer
makes one regex pass per line and emits plain (kind, text, line) tuples;
a character that is neither whitespace nor the start of a token (a
non-ASCII letter, '@', a lone ':' or '-') is a ParseError on its line.
Lines end at '\n' only, so CRLF text parses like LF text.

Head variables absent from the body are existential.  Parsed rules are
standardized apart by suffixing variable names with the rule ordinal; the
serializer strips that suffix again, so parse(serialize(doc)) is
structurally the identity on parsed documents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .model import Atom, Constant, Instance, Rule, RuleSet, Variable


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


# Groups: a word, ':-', a punctuation character, a bad character.  A
# comment ('%' to the end of the line) matches with every group empty, and
# findall skips whitespace, which no alternative matches.  Only ASCII
# letters, digits and '_' make words.
_TOKEN_RE = re.compile(r"([A-Za-z0-9_]+)|(:-)|([()\[\],.])|%.*|(\S)")


def _tokenize(text: str) -> list:
    """(kind, text, line) triples, kind 'word', 'impl' or the punctuation
    character itself; one regex pass per line."""
    tokens = []
    for line, chunk in enumerate(text.split("\n"), start=1):
        for word, impl, punct, bad in _TOKEN_RE.findall(chunk):
            if word:
                tokens.append(("word", word, line))
            elif punct:
                tokens.append((punct, punct, line))
            elif impl:
                tokens.append(("impl", impl, line))
            elif bad:
                raise ParseError("unexpected character %r" % bad, line)
    return tokens


def _is_variable(word: str) -> bool:
    return word[0].isupper()


@dataclass(frozen=True)
class SourceDocument:
    facts: tuple
    rules: tuple

    def rule_set(self) -> RuleSet:
        return RuleSet(self.rules)

    def database(self) -> Instance:
        return Instance(self.facts)


class _Parser:
    """Recursive descent over the (kind, text, line) tokens of `_tokenize`."""

    def __init__(self, tokens: list):
        self.toks = tokens
        self.i = 0
        self.arities: dict = {}
        self.facts: list = []
        self.rules: list = []
        self.labels: set = set()

    def _peek(self) -> Optional[str]:
        """The kind of the next token, or None at the end."""
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def _next(self, kind: Optional[str] = None) -> tuple:
        if self.i == len(self.toks):
            last_line = self.toks[-1][2] if self.toks else 1
            raise ParseError("unterminated statement (unexpected end of input)", last_line)
        tok = self.toks[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError("expected %r, found %r" % (kind, tok[1]), tok[2])
        self.i += 1
        return tok

    def _atom(self) -> tuple:
        """Returns (pred, raw-args as (is_var, name) pairs, line)."""
        _, pred, line = self._next("word")
        if _is_variable(pred):
            raise ParseError("predicate names start lowercase: %r" % pred, line)
        self._next("(")
        args = []
        while True:
            name = self._next("word")[1]
            args.append((_is_variable(name), name))
            kind, _, at = self._next()
            if kind == ")":
                break
            if kind != ",":
                raise ParseError("expected ',' or ')' in atom", at)
        prev = self.arities.setdefault(pred, len(args))
        if prev != len(args):
            raise ParseError(
                "predicate %s used with arity %d, previously %d" % (pred, len(args), prev), line
            )
        return pred, args, line

    def _atomlist(self) -> list:
        atoms = [self._atom()]
        while self._peek() == ",":
            self.i += 1
            atoms.append(self._atom())
        return atoms

    def parse(self) -> SourceDocument:
        while self._peek() is not None:
            self._statement()
        return SourceDocument(facts=tuple(self.facts), rules=tuple(self.rules))

    def _statement(self) -> None:
        label = None
        if self._peek() == "[":
            self.i += 1
            label = self._next("word")[1]
            self._next("]")
        first = self._atomlist()
        kind, _, at = self._next()
        if kind == ".":
            if label is not None:
                raise ParseError("facts cannot carry a rule label", at)
            for pred, raw, line in first:
                for is_var, name in raw:
                    if is_var:
                        raise ParseError("variable %s in a fact" % name, line)
                self.facts.append(Atom(pred, tuple(Constant(n) for _, n in raw)))
            return
        if kind != "impl":
            raise ParseError("expected '.' or ':-' after atom list", at)
        body = self._atomlist()
        end_line = self._next(".")[2]
        ordinal = len(self.rules) + 1
        rid = label if label is not None else "r%d" % ordinal
        if rid in self.labels:
            raise ParseError("duplicate rule label %r" % rid, end_line)
        self.labels.add(rid)

        def build(raw_atoms: list) -> tuple:
            out = []
            for pred, raw, _line in raw_atoms:
                args = tuple(
                    Variable("%s_%d" % (n, ordinal)) if is_var else Constant(n)
                    for is_var, n in raw
                )
                out.append(Atom(pred, args))
            return tuple(out)

        rule = Rule(id=rid, head=build(first), body=build(body))
        self.rules.append(rule)


def parse(text: str) -> SourceDocument:
    return _Parser(_tokenize(text)).parse()


def parse_rules(text: str) -> RuleSet:
    """Convenience: parse a document and return its rule set."""
    return parse(text).rule_set()


def _render_term(t, rule_ordinal: Optional[int]) -> str:
    if isinstance(t, Variable):
        name = t.name
        if rule_ordinal is not None:
            suffix = "_%d" % rule_ordinal
            if name.endswith(suffix):
                name = name[: -len(suffix)]
        return name
    if isinstance(t, Constant):
        return "star0" if t.name == "*" else t.name
    raise ValueError("cannot serialize term %s in dlgp" % (t,))


def _render_atom(a: Atom, rule_ordinal: Optional[int] = None) -> str:
    return "%s(%s)" % (a.pred, ",".join(_render_term(t, rule_ordinal) for t in a.args))


def serialize(doc: SourceDocument) -> str:
    lines = []
    for f in doc.facts:
        lines.append(_render_atom(f) + ".")
    for ordinal, r in enumerate(doc.rules, start=1):
        head = ", ".join(_render_atom(a, ordinal) for a in r.head)
        body = ", ".join(_render_atom(a, ordinal) for a in r.body)
        lines.append("[%s] %s :- %s." % (r.id, head, body))
    return "".join(line + "\n" for line in lines)
