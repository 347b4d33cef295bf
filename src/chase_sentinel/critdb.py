"""Critical databases: the skolem one (full relations over the rule
constants plus a reserved fresh constant), the per-path restricted one built
from indexed constants, and index-lowering renaming functions over it.

Renamings are proposed, not enumerated.  A near miss is a failed match of a
body atom, under the bindings made so far, against an instance atom that
differs from it only where both hold indexed constants (an unbound
variable agrees with anything).  `propose_merges` turns each near miss into
the renaming that sends the higher index of every differing pair to the
lower, plus the union of all of them; `is_path_active` composes proposals
with the renaming they were found under, up to |path| deep.

No completeness argument is known.  A renaming never makes an inactive
trigger active, so it helps through a new body match, a new chain edge
(collapsed atoms move the step an atom is first derived at), or a blocking
Datalog trigger it makes inactive.  Proposals miss a difference inside a
skolem term (`q(f(<X,2>))` against `q(f(<X,1>))`), a repeated variable not
yet bound (`p(X,X)` against `p(<Y,1>,<Z,2>)`), a pair that must meet at a
third, lower constant no near miss names, and the last two kinds of help.
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

from .model import (
    Atom,
    Constant,
    IndexedConstant,
    Instance,
    Rule,
    RuleSet,
    SkolemTerm,
    Term,
    Variable,
    full_relation_atoms,
)

STAR = Constant("*")


def skolem_critical_db(rs: RuleSet) -> Instance:
    """Full relation over constants(R) plus '*' for every schema predicate."""
    domain: List[Term] = [STAR] + [Constant(c) for c in rs.constants]
    inst = Instance()
    for pred, arity in rs.schema.items():
        for a in full_relation_atoms(pred, arity, domain):
            inst.add(a, 0)
    return inst


def _e_i(index: int, a: Atom) -> Atom:
    args = tuple(
        IndexedConstant(t.name, index) if isinstance(t, Variable) else t for t in a.args
    )
    return Atom(a.pred, args)


@dataclass(frozen=True)
class RestrictedCriticalDB:
    path: tuple  # rules, in path order
    atoms: tuple
    indexed_constants: tuple

    def instance(self) -> Instance:
        return Instance(self.atoms, step=0)


def restricted_critical_db(path: Sequence[Rule]) -> RestrictedCriticalDB:
    """I^pi: the i-th rule's body frozen with <var, i> indexed constants."""
    if not path:
        raise ValueError("path must be non-empty")
    atoms: list = []
    seen_atoms: set = set()
    indexed: list = []
    seen_consts: set = set()
    for i, rule in enumerate(path, start=1):
        for a in rule.body:
            ia = _e_i(i, a)
            if ia not in seen_atoms:
                seen_atoms.add(ia)
                atoms.append(ia)
            for t in ia.args:
                if isinstance(t, IndexedConstant) and t not in seen_consts:
                    seen_consts.add(t)
                    indexed.append(t)
    return RestrictedCriticalDB(path=tuple(path), atoms=tuple(atoms), indexed_constants=tuple(indexed))


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
        items = tuple(sorted(((s, t) for s, t in d.items() if s != t), key=lambda p: str(p[0])))
        return RenamingFunction(items)

    @cached_property
    def _map(self) -> Dict[IndexedConstant, IndexedConstant]:
        return dict(self.mapping)

    def as_dict(self) -> Dict[IndexedConstant, IndexedConstant]:
        return dict(self.mapping)

    @property
    def is_identity(self) -> bool:
        return not self.mapping

    def __len__(self) -> int:
        return len(self.mapping)

    def apply_term(self, t: Term) -> Term:
        if isinstance(t, IndexedConstant):
            return self._map.get(t, t)
        if isinstance(t, SkolemTerm):
            return SkolemTerm(t.fn, tuple(self.apply_term(a) for a in t.args))
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
            if final != c:
                out[c] = final
        return RenamingFunction.from_dict(out)

    def __str__(self) -> str:
        if self.is_identity:
            return "identity"
        return ", ".join("%s->%s" % (s, t) for s, t in self.mapping)


def apply_renaming(rn: RenamingFunction, db: RestrictedCriticalDB) -> Instance:
    """rn(I^pi); duplicate atoms collapse by set semantics."""
    inst = Instance()
    for a in db.atoms:
        inst.add(rn.apply_atom(a), 0)
    return inst


@dataclass(frozen=True)
class Conflict:
    """A body-match near miss: the pattern required one indexed constant
    where the instance offered another.  Pairs are (required, found)."""

    step: int
    rule_id: str
    pairs: frozenset  # frozenset of (IndexedConstant, IndexedConstant) tuples


def _orient(pairs: Iterable[tuple]) -> Optional[Dict[IndexedConstant, IndexedConstant]]:
    """Merge each pair by renaming the higher index to the lower; None when a
    pair has equal indices (index-lowering cannot resolve it)."""
    out: Dict[IndexedConstant, IndexedConstant] = {}
    for a, b in pairs:
        if a == b:
            continue
        if a.index == b.index:
            return None
        hi, lo = (a, b) if a.index > b.index else (b, a)
        prev = out.get(hi)
        if prev is not None and prev != lo:
            return None  # contradictory requirements in one conflict
        out[hi] = lo
    return out or None


def propose_merges(conflicts: Iterable[Conflict]) -> List[RenamingFunction]:
    """Candidate renaming functions resolving recorded conflicts, smallest
    first; the union of all orientable conflicts is offered last."""
    proposals: Dict[tuple, RenamingFunction] = {}
    oriented: List[Dict[IndexedConstant, IndexedConstant]] = []
    for c in conflicts:
        d = _orient(c.pairs)
        if d is None:
            continue
        oriented.append(d)
        rn = RenamingFunction.from_dict(d)
        proposals.setdefault(rn.mapping, rn)
    if len(oriented) > 1:
        union: Dict[IndexedConstant, IndexedConstant] = {}
        consistent = True
        for d in oriented:
            for k, v in d.items():
                if union.get(k, v) != v:
                    consistent = False
                    break
            if not consistent:
                break
            union.update(d)
        if consistent and union:
            rn = RenamingFunction.from_dict(union)
            proposals.setdefault(rn.mapping, rn)
    return sorted(proposals.values(), key=lambda r: (len(r), str(r)))


def all_renamings(indexed: Sequence[IndexedConstant], limit: int = 100_000):
    """Exhaustive enumeration of valid renaming functions (each constant maps
    to itself or to any constant of strictly smaller index).

    The library no longer calls it: it is the tests' oracle for the
    demand-driven renamings (`tests/oracles.renaming_sweep`).  It stays here
    only because the benchmark's tracer patches it by this name; it moves to
    `tests/oracles.py` with the next benchmark change (ROADMAP item 3)."""
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
        mapping = {c: t for c, t in zip(consts, combo) if c != t}
        yield RenamingFunction.from_dict(mapping)
