"""chase-sentinel: termination analysis for existential rules.

Decides membership in the k-safe hierarchy of restricted-chase terminating
rule sets, runs skolem/restricted/Datalog-first chases, checks the WA, JA,
aGRD and MFA acyclicity conditions, tests depth-bounded membership, and
generates benchmark TGDs.
"""

from .acyclicity import (
    CheckResult,
    Condition,
    check_condition,
    connected_components,
    cycle_function,
    is_agrd,
    is_ja,
    is_mfa,
    is_wa,
)
from .activeness import (
    ChainWitness,
    KSafeReport,
    SafetyVerdict,
    Status,
    Verdict,
    is_active_wrt,
    is_path_active,
    k_safe,
    replay_witness,
)
from .bounded import (
    BoundFunction,
    MembCheckResult,
    constant_bound,
    exp_tower_bound,
    linear_bound,
    memb_check,
    parse_bound,
)
from .chase import (
    Budget,
    BudgetExhausted,
    ChaseTrace,
    CyclicTermFound,
    Saturated,
    datalog_first_filter,
    greedy_restricted,
    skolem_chase,
)
from .critdb import (
    RenamingFunction,
    RestrictedCriticalDB,
    apply_renaming,
    propose_merges,
    restricted_critical_db,
    skolem_critical_db,
)
from .cycles import KCycle, enumerate_k_cycles, is_relevant
from .deps import (
    DependencyGraph,
    PieceUnifier,
    dependency_graph,
    depends_on,
    piece_unifiers,
)
from .dlgp import ParseError, SourceDocument, parse, parse_rules, serialize
from .gen import GenParams, GenerationError, generate
from .hom import apply_trigger, find_homomorphisms, is_active_trigger
from .model import (
    Atom,
    Constant,
    IndexedConstant,
    Instance,
    Position,
    Rule,
    RuleSet,
    SkolemTerm,
    Variable,
    atom,
    rule_set_size,
    skolemize_rule,
    term_height,
)

__version__ = "0.1.0"
