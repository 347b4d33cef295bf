"""Critical databases: the skolem one (full relations over the rule
constants plus a reserved fresh constant), the per-path restricted one built
from indexed constants, and index-lowering renaming functions over it.
Both databases are plain instances.  `apply_renaming` hands back the
restricted one itself under the identity and builds one new instance for
any other renaming; the chained search runs on it in place and rolls it
back (see `activeness.is_active_wrt`).

The body frozen at path index i depends only on the rule and i, so it is
built once per (rule, index) and kept on the rule (`Rule.frozen_bodies`).
`restricted_critical_db` lays those bodies out in path order, and every
cycle of a rule set reuses them.

Renamings are proposed, not enumerated.  A near miss is a failed match of a
body atom, under the bindings made so far, against an instance atom that
differs from it only where both hold indexed constants (an unbound
variable agrees with anything).  The chained search's matcher
(`activeness._Search.matches`) records each near miss as the merge it
proposes, read off the comparison of the body atom's constant and bound
slots that failed: the higher index of every differing pair renamed to
the lower.  A near miss with two constants of one index, or one constant
that would go two ways, proposes nothing.
`propose_merges` makes one renaming of each distinct merge; it offers no
union of several near misses: on every corpus tried, such a union changed
no path status and no witness renaming.  `is_path_active` composes
proposals with the renaming they were found under, up to |path| deep.

No completeness argument is known.  A renaming never makes an inactive
trigger active, so it helps through a new body match, a new chain edge
(collapsed atoms move the step an atom is first derived at), or a blocking
Datalog trigger it makes inactive.  Proposals miss a difference inside a
skolem term (rules are function-free, so that is a variable bound to one:
`q(Y)` with Y bound to `f(<X,2>)` against `q(f(<X,1>))`), a repeated
variable not yet bound (`p(X,X)` against `p(<Y,1>,<Z,2>)`), a pair that
must meet at a third, lower constant no near miss names, and the last two
kinds of help.
The claim is empirical: the demand-driven renamings reach the status of
the sweep over every renaming (`all_renamings`) on every cycle tried,
including the renaming-dependent cycles of
`tests/test_activeness.py::test_demand_driven_renamings_agree_with_the_sweep_oracle`
and every `k_safe`/`memb_check` operation of the benchmark's `fixtures`
and `generated` workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence

from .chase import BudgetExceeded
from .model import (
    Atom,
    Constant,
    IndexedConstant,
    Instance,
    Rule,
    RuleSet,
    Term,
    Variable,
    full_relation_atoms,
)

STAR = Constant("*")


def skolem_critical_db(rs: RuleSet, max_atoms: Optional[int] = None) -> Instance:
    """Full relation over constants(R) plus '*' for every schema predicate.

    Its size, the sum of |domain|^arity over the schema, grows
    exponentially with the arity, so it is compared with `max_atoms`
    before anything is built: a larger database raises
    BudgetExceeded("atoms"), as a chase of it would on its first check."""
    domain: List[Term] = list(dict.fromkeys([STAR] + [Constant(c) for c in rs.constants]))
    size = sum(len(domain) ** arity for arity in rs.schema.values())
    if max_atoms is not None and size > max_atoms:
        raise BudgetExceeded("atoms")
    return Instance(
        a for pred, arity in rs.schema.items() for a in full_relation_atoms(pred, arity, domain)
    )


def _frozen_body(rule: Rule, index: int) -> tuple:
    """The rule's body with each variable X replaced by <X, index>."""
    body = rule.frozen_bodies.get(index)
    if body is None:
        body = rule.frozen_bodies[index] = tuple(
            Atom(a.pred, tuple(
                IndexedConstant(t.name, index) if isinstance(t, Variable) else t for t in a.args
            ))
            for a in rule.body
        )
    return body


def restricted_critical_db(path: Sequence[Rule]) -> Instance:
    """I^pi: the i-th rule's body frozen with <var, i> indexed constants, as
    an instance of database atoms in path order, each once."""
    if not path:
        raise ValueError("path must be non-empty")
    return Instance(a for i, rule in enumerate(path, start=1) for a in _frozen_body(rule, i))


@dataclass(frozen=True)
class RenamingFunction:
    """Partial map between indexed constants; identity elsewhere.  A constant
    with index i may only be renamed to one with index j < i."""

    mapping: tuple  # sorted ((IndexedConstant, IndexedConstant), ...)

    def __post_init__(self) -> None:
        for src, dst in self.mapping:
            if dst.index >= src.index:
                raise ValueError(
                    "renaming must lower the index: %s -> %s" % (src, dst)
                )

    @staticmethod
    def identity() -> "RenamingFunction":
        return RenamingFunction(())

    @staticmethod
    def from_dict(d: Dict[IndexedConstant, IndexedConstant]) -> "RenamingFunction":
        items = tuple(sorted(((s, t) for s, t in d.items() if s is not t), key=lambda p: str(p[0])))
        return RenamingFunction(items)

    @cached_property
    def _map(self) -> Dict[IndexedConstant, IndexedConstant]:
        return dict(self.mapping)

    @property
    def is_identity(self) -> bool:
        return not self.mapping

    def __len__(self) -> int:
        return len(self.mapping)

    def apply_term(self, t: Term) -> Term:
        """t renamed; it renames the atoms of I^pi, whose arguments are
        indexed constants or rule constants, never skolem terms."""
        if isinstance(t, IndexedConstant):
            return self._map.get(t, t)
        return t

    def apply_atom(self, a: Atom) -> Atom:
        return Atom(a.pred, tuple(self.apply_term(t) for t in a.args))

    def compose_after(self, first: "RenamingFunction") -> "RenamingFunction":
        """self o first: apply `first`, then self."""
        d_first = first._map
        d_self = self._map
        domain = set(d_first) | set(d_self)
        out = {}
        for c in domain:
            mid = d_first.get(c, c)
            final = d_self.get(mid, mid)
            if final is not c:
                out[c] = final
        return RenamingFunction.from_dict(out)

    def __str__(self) -> str:
        if self.is_identity:
            return "identity"
        return ", ".join("%s->%s" % (s, t) for s, t in self.mapping)


def apply_renaming(rn: RenamingFunction, db: Instance) -> Instance:
    """rn(I^pi): `db` itself under the identity, else one new instance in
    which duplicate atoms collapse by set semantics."""
    if rn.is_identity:
        return db
    return Instance(rn.apply_atom(a) for a in db.atoms())


def propose_merges(merges: Iterable[frozenset]) -> List[RenamingFunction]:
    """One renaming per recorded merge, each a frozenset of (higher, lower)
    indexed-constant pairs; duplicates dropped, smallest first."""
    proposals: Dict[tuple, RenamingFunction] = {}
    for merge in merges:
        rn = RenamingFunction.from_dict(dict(merge))
        proposals.setdefault(rn.mapping, rn)
    return sorted(proposals.values(), key=lambda r: (len(r), str(r)))


def all_renamings(indexed: Sequence[IndexedConstant], limit: int = 100_000):
    """Exhaustive enumeration of valid renaming functions (each constant maps
    to itself or to any constant of strictly smaller index).

    The library no longer calls it: it is the tests' oracle for the
    demand-driven renamings (`tests/oracles.renaming_sweep`).  It stays here
    only because the benchmark's tracer patches it by this name; it moves to
    `tests/oracles.py` with the next benchmark change (ROADMAP item 7)."""
    consts = sorted(indexed, key=lambda c: (c.index, c.var))
    targets = []
    total = 1
    for c in consts:
        opts = [c] + [d for d in consts if d.index < c.index]
        targets.append(opts)
        total *= len(opts)
        if total > limit:
            raise ValueError("renaming space too large (%d)" % total)
    import itertools

    for combo in itertools.product(*targets):
        mapping = {c: t for c, t in zip(consts, combo) if c is not t}
        yield RenamingFunction.from_dict(mapping)
