"""Critical databases: the skolem one (full relations over the rule
constants plus a reserved fresh constant), the per-path restricted one built
from indexed constants, and index-lowering renaming functions over it.

Renamings are proposed, not enumerated.  A near miss is a failed match of a
body atom, under the bindings made so far, against an instance atom that
differs from it only where both hold indexed constants (an unbound
variable agrees with anything); the search records it as the frozenset of
its (required, found) pairs.  `propose_merges` turns each near miss into
the renaming that sends the higher index of every pair to the lower.  It
offers no union of several near misses: on every corpus tried, such a
union changed no path status and no witness renaming.  `is_path_active`
composes proposals with the renaming they were found under, up to |path|
deep.

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
            return None  # contradictory requirements in one near miss
        out[hi] = lo
    return out or None


def propose_merges(near_misses: Iterable[frozenset]) -> List[RenamingFunction]:
    """One candidate renaming function per orientable near miss, each a
    frozenset of (required, found) indexed-constant pairs; duplicates
    dropped, smallest first."""
    proposals: Dict[tuple, RenamingFunction] = {}
    for pairs in near_misses:
        d = _orient(pairs)
        if d is not None:
            rn = RenamingFunction.from_dict(d)
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
