"""Shared example rule sets used across the test modules.

These mirror the worked examples of the analysis this package implements:
two handshake-protocol sets, an access-control policy, a single rule whose
self-cycle is vacuous, two three-rule sets exercising chained simulation
and renaming, the one-rule walk set whose restricted chase diverges, and a
pair where only a Datalog-first strategy terminates.  Also the generator
parameters of the benchmark's `generated` corpus (`bench/workloads.py`).
"""

import chase_sentinel as cs

HANDSHAKE = """
[r1] typeA(X,U), typeA(U,X) :- typeB(X,Y).
[r2] typeB(Z,V) :- typeB(X,Y), typeA(X,Z), typeA(Z,X).
"""

HANDSHAKE_TRUSTED = """
[r3] trustedServer(U), typeA(X,U), typeA(U,X) :- typeB(X,Y).
[r4] trustedServer(V), typeB(Z,V) :- typeB(X,Y), typeA(X,Z), typeA(Z,X).
"""

ACCESS_CONTROL = """
[r1] enters(X,Y) :- memOf(X,Y).
[r2] enters(X,U), keyOpens(Y,U) :- hasKey(X,Y).
[r3] hasKey(X,V), keyOpens(V,Y) :- enters(X,Y).
[r4] grants(W,X,Y), emp(W) :- hasKey(X,Y).
[r5] hasKey(X,Y) :- grants(T,X,Y).
"""

WALK = "[r] e(X2,Z) :- e(X1,X2).\n"

VACUOUS_SELF = "[r] t(Y,Z) :- t(X,Y), p(X,Y).\n"

TRIAD = """
[r1] q(X,Y) :- p(X,Y).
[r2] t(X,Y) :- r(X,Y).
[r3] p(Z,X), r(Z,X) :- q(X,Y), t(X,Y).
"""

TRIAD_GUARDED = """
[r1] q(X,Y,Z) :- p(X,Y,Z), k(Z).
[r2] t(X,Y,Z) :- r(X,Y,Z).
[r3] p(V,X,Z), r(V,X,Z) :- q(X,Y,Z), t(X,Y,Z).
"""

DATALOG_FIRST_PAIR = """
[r1] q(X,U,Y), q(U,Y,Y) :- q(X,Y,Y).
[r2] q(Z,Z,Z) :- q(X,Y,Z).
"""


def handshake() -> cs.RuleSet:
    return cs.parse_rules(HANDSHAKE)


def handshake_trusted() -> cs.RuleSet:
    return cs.parse_rules(HANDSHAKE_TRUSTED)


def access_control() -> cs.RuleSet:
    return cs.parse_rules(ACCESS_CONTROL)


def walk() -> cs.RuleSet:
    return cs.parse_rules(WALK)


def vacuous_self() -> cs.RuleSet:
    return cs.parse_rules(VACUOUS_SELF)


def triad() -> cs.RuleSet:
    return cs.parse_rules(TRIAD)


def triad_guarded() -> cs.RuleSet:
    return cs.parse_rules(TRIAD_GUARDED)


def datalog_first_pair() -> cs.RuleSet:
    return cs.parse_rules(DATALOG_FIRST_PAIR)


# the benchmark's `generated` workload parameters: sets 0..199 of
# `cs.generate(cs.GenParams(seed=s, **GENERATED))`
GENERATED = dict(count=10, predicate_pool=20, arity=2, max_repeated_relations=3,
                 body_atoms=1, head_atoms=2, head_shape="discrete")
