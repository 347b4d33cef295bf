import importlib.util
import sys
from pathlib import Path

import pytest

import chase_sentinel as cs
from chase_sentinel.dlgp import ParseError, _tokenize, parse, serialize

import fixtures
from oracles import tokenize_reference


def test_parse_rule_with_existential():
    doc = parse("[r1] typeA(X,U), typeA(U,X) :- typeB(X,Y).")
    assert not doc.facts
    (rule,) = doc.rules
    assert rule.id == "r1"
    assert sorted(rule.existentials) == ["U_1"]
    assert [a.pred for a in rule.body] == ["typeB"]
    assert [a.pred for a in rule.head] == ["typeA", "typeA"]


def test_parse_ground_fact():
    doc = parse("typeB(t,r).")
    assert doc.rules == ()
    (fact,) = doc.facts
    assert str(fact) == "typeB(t,r)"


def test_parse_empty_document():
    doc = parse("")
    assert doc.facts == () and doc.rules == ()


def test_parse_multi_atom_fact_statement():
    doc = parse("p(a), q(b).")
    assert [str(f) for f in doc.facts] == ["p(a)", "q(b)"]


def test_comments_and_whitespace():
    doc = parse("% intro\n p(a). % trailing\n% done\n")
    assert len(doc.facts) == 1


def test_variable_in_fact_is_an_error():
    with pytest.raises(ParseError) as e:
        parse("p(a).\nq(X).")
    assert e.value.line == 2


def test_arity_conflict_reports_line():
    with pytest.raises(ParseError) as e:
        parse("p(a).\np(a,b).")
    assert e.value.line == 2


def test_unterminated_statement():
    with pytest.raises(ParseError):
        parse("p(a)")
    with pytest.raises(ParseError):
        parse("[r1] q(X) :- p(X)")


def test_duplicate_labels_rejected():
    with pytest.raises(ParseError):
        parse("[r1] q(X) :- p(X).\n[r1] p(X) :- q(X).")


def test_unlabelled_rules_get_ordinal_ids():
    doc = parse("q(X) :- p(X).\ns(X) :- q(X).")
    assert [r.id for r in doc.rules] == ["r1", "r2"]


def test_rules_standardized_apart_by_ordinal():
    doc = parse("[a] q(X) :- p(X).\n[b] s(X) :- q(X).")
    ra, rb = doc.rules
    assert ra.body_vars == ("X_1",)
    assert rb.body_vars == ("X_2",)
    doc.rule_set()  # no standardization complaint


def test_round_trip_identity():
    text = """
typeB(t,r).
p(a), q(b).
[r1] typeA(X,U), typeA(U,X) :- typeB(X,Y).
[r2] typeB(Z,V) :- typeB(X,Y), typeA(X,Z), typeA(Z,X).
q2(X) :- p(X).
"""
    doc = parse(text)
    rendered = serialize(doc)
    again = parse(rendered)
    assert again.facts == doc.facts
    assert again.rules == doc.rules
    assert serialize(again) == rendered


def test_serialize_empty_and_single_fact():
    assert serialize(parse("")) == ""
    assert serialize(parse("typeB(t,r).")) == "typeB(t,r).\n"


def test_database_and_rule_set_views():
    doc = parse("p(a).\n[r] q(X) :- p(X).")
    db = doc.database()
    assert len(db) == 1 and db.first_derived_at(doc.facts[0]) == 0
    rs = doc.rule_set()
    assert rs.schema == {"q": 1, "p": 1}


# Each malformed text with the error it must raise: (message, line).
MALFORMED = {
    "p(a). @x": ("line 1: unexpected character '@'", 1),
    "p(a).\np(é).": ("line 2: unexpected character 'é'", 2),
    "p(aéb).": ("line 1: unexpected character 'é'", 1),
    "p(\u0663).": ("line 1: unexpected character '\u0663'", 1),  # a non-ASCII digit
    "[r] q(X) - p(X).": ("line 1: unexpected character '-'", 1),
    "[r] q(X) : p(X).": ("line 1: unexpected character ':'", 1),
    "[r] q(X) :\n- p(X).": ("line 1: unexpected character ':'", 1),
    "p(a).\r\n\tq(X).\r\n": ("line 2: variable X in a fact", 2),
    "p(a) % no newline after this comment": (
        "line 1: unterminated statement (unexpected end of input)", 1),
    "p(a)\n\n% trailing comment\n": (
        "line 1: unterminated statement (unexpected end of input)", 1),
    "\n\n% one\n\n  % two\np(a).\n\nq(X).": ("line 8: variable X in a fact", 8),
    "% c\n[r] q(X) :- p(X) :- r(X).": ("line 2: expected '.', found ':-'", 2),
    "p(a) . q(X).": ("line 1: variable X in a fact", 1),
}

# Well-formed texts with unusual layout, and their facts.
WELL_FORMED = {
    "p(a).\r\n\tq(b).\r\n": ["p(a)", "q(b)"],
    "p(a). % no newline after this comment": ["p(a)"],
    "\tp(a)\t,\tq(b)\t.\t": ["p(a)", "q(b)"],
    "p(a).\r%x\rq(b).": ["p(a)"],  # a lone CR does not end a comment
    "p(a)\u00a0.\u2028q(b).": ["p(a)", "q(b)"],  # Unicode spaces separate tokens
}


@pytest.mark.parametrize("text", sorted(MALFORMED))
def test_malformed_text_reports_message_and_line(text):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (str(e.value), e.value.line) == MALFORMED[text]


@pytest.mark.parametrize("text", sorted(WELL_FORMED))
def test_crlf_tabs_and_trailing_comments_parse(text):
    assert [str(f) for f in parse(text).facts] == WELL_FORMED[text]


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_dlgp_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _token_corpus() -> list:
    texts = [getattr(fixtures, name) for name in (
        "HANDSHAKE", "HANDSHAKE_TRUSTED", "ACCESS_CONTROL", "WALK", "VACUOUS_SELF", "TRIAD",
        "TRIAD_GUARDED", "DATALOG_FIRST_PAIR")]
    workloads = _load_workloads()
    for seed in (1, 2):
        texts += [op.text for op in workloads.generated_ops(cs, seed)]
        texts += [op.text for op in workloads.chase_ops(seed) if "access" in op.name]
    return texts + sorted(MALFORMED) + sorted(WELL_FORMED)


def _outcome(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as e:
        return ("error", str(e), e.line)


def test_token_stream_matches_the_reference_tokenizer():
    texts = _token_corpus()
    # 8 fixtures; per seed, 200 generated sets and 18 access-control chases
    assert len(texts) == 8 + 2 * (200 + 18) + len(MALFORMED) + len(WELL_FORMED)
    mismatches = [
        text for text in texts if _outcome(_tokenize, text) != _outcome(tokenize_reference, text)
    ]
    assert mismatches == []
