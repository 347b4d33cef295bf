"""Reader and writer for the dlgp-style rule text format.

Grammar (comments run from '%' to end of line):

    document  := statement*
    statement := fact | rule
    fact      := atomlist "."
    rule      := ("[" LABEL "]")? atomlist ":-" atomlist "."    head :- body
    atomlist  := atom ("," atom)*
    atom      := IDENT "(" term ("," term)* ")"
    term      := VARIABLE | IDENT

VARIABLE tokens start with an uppercase letter, IDENT tokens with a
lowercase letter or digit.  Head variables absent from the body are
existential.  Parsed rules are standardized apart by suffixing variable
names with the rule ordinal; the serializer strips that suffix again, so
parse(serialize(doc)) is structurally the identity on parsed documents.
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


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<impl>:-)
  | (?P<punct>[()\[\],.])
  | (?P<word>[A-Za-z0-9_]+)
""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'word', 'impl', '(', ')', '[', ']', ',', '.'
    text: str
    line: int


def _tokenize(text: str) -> list:
    tokens = []
    line = 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], line)
        pos = m.end()
        line += m.group(0).count("\n")
        if m.lastgroup in ("ws", "comment"):
            continue
        if m.lastgroup == "impl":
            tokens.append(_Token("impl", ":-", line))
        elif m.lastgroup == "punct":
            tokens.append(_Token(m.group(0), m.group(0), line))
        else:
            tokens.append(_Token("word", m.group(0), line))
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
    def __init__(self, tokens: list):
        self.toks = tokens
        self.i = 0
        self.arities: dict = {}
        self.facts: list = []
        self.rules: list = []
        self.labels: set = set()

    def _peek(self) -> Optional[_Token]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next(self, kind: Optional[str] = None) -> _Token:
        tok = self._peek()
        if tok is None:
            last_line = self.toks[-1].line if self.toks else 1
            raise ParseError("unterminated statement (unexpected end of input)", last_line)
        if kind is not None and tok.kind != kind:
            raise ParseError("expected %r, found %r" % (kind, tok.text), tok.line)
        self.i += 1
        return tok

    def _atom(self) -> tuple:
        """Returns (pred, raw-args as (is_var, name) pairs, line)."""
        name = self._next("word")
        if _is_variable(name.text):
            raise ParseError("predicate names start lowercase: %r" % name.text, name.line)
        self._next("(")
        args = []
        while True:
            t = self._next("word")
            args.append((_is_variable(t.text), t.text))
            tok = self._next()
            if tok.kind == ")":
                break
            if tok.kind != ",":
                raise ParseError("expected ',' or ')' in atom", tok.line)
        prev = self.arities.setdefault(name.text, len(args))
        if prev != len(args):
            raise ParseError(
                "predicate %s used with arity %d, previously %d" % (name.text, len(args), prev),
                name.line,
            )
        return name.text, args, name.line

    def _atomlist(self) -> list:
        atoms = [self._atom()]
        while True:
            tok = self._peek()
            if tok is not None and tok.kind == ",":
                self.i += 1
                atoms.append(self._atom())
            else:
                return atoms

    def parse(self) -> SourceDocument:
        while self._peek() is not None:
            self._statement()
        return SourceDocument(facts=tuple(self.facts), rules=tuple(self.rules))

    def _statement(self) -> None:
        label = None
        if self._peek().kind == "[":
            self._next("[")
            label_tok = self._next("word")
            label = label_tok.text
            self._next("]")
        first = self._atomlist()
        tok = self._next()
        if tok.kind == ".":
            if label is not None:
                raise ParseError("facts cannot carry a rule label", tok.line)
            for pred, raw, line in first:
                for is_var, name in raw:
                    if is_var:
                        raise ParseError("variable %s in a fact" % name, line)
                self.facts.append(Atom(pred, tuple(Constant(n) for _, n in raw)))
            return
        if tok.kind != "impl":
            raise ParseError("expected '.' or ':-' after atom list", tok.line)
        body = self._atomlist()
        end = self._next(".")
        ordinal = len(self.rules) + 1
        rid = label if label is not None else "r%d" % ordinal
        if rid in self.labels:
            raise ParseError("duplicate rule label %r" % rid, end.line)
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
