"""Kernel for a degree-indexed lambda-calculus with intersection types,
expansion heads and a universal type.

Layers: syntax (terms, degrees, substitution), reduction (beta/eta/head
engines, confluence checks), types (canonical forms, subtyping), envs
(typing environments and judgments), derivations (proof trees and the
checker), transform (subject reduction/expansion), search (bounded
typability), rulesearch (brute-force subtyping oracle), semantics
(membership oracles), gen (enumerators), props (property suites), cli.
"""

from .envs import (
    Env,
    Judgment,
    env_empty,
    mk_env,
    parse_env,
    parse_judgment,
    print_env,
    print_judgment,
)
from .errors import KernelError
from .reduction import (
    Relation,
    Verdict,
    check_local_confluence,
    equiv,
    first_step,
    normalize,
    step_positions,
)
from .search import Found, Refuted, Unknown, bounded_typecheck
from .semantics import (
    EXAMPLE_TYPES,
    OracleVerdict,
    completeness_sample,
    lift_correspondence,
    oracle_membership,
    saturation_check,
    soundness_check,
)
from .syntax import (
    Abs,
    App,
    Term,
    Var,
    VarKey,
    alpha_canon,
    alpha_eq,
    alpha_key,
    free_vars,
    lift,
    lower,
    parse_term,
    print_term,
    substitute,
    term_size,
)
from .transform import (
    lower_derivation,
    subject_expand_beta,
    subject_reduce,
    subst_derivation,
)
from .types import (
    CanonType,
    parse_type,
    print_type,
    subtype,
)
from .derivations import (
    check_derivation,
    parse_derivation,
    print_derivation,
)

__all__ = [
    "Abs",
    "App",
    "CanonType",
    "Env",
    "EXAMPLE_TYPES",
    "Found",
    "Judgment",
    "KernelError",
    "OracleVerdict",
    "Refuted",
    "Relation",
    "Term",
    "Unknown",
    "Var",
    "VarKey",
    "Verdict",
    "alpha_canon",
    "alpha_eq",
    "alpha_key",
    "bounded_typecheck",
    "check_derivation",
    "check_local_confluence",
    "completeness_sample",
    "env_empty",
    "equiv",
    "first_step",
    "free_vars",
    "lift",
    "lift_correspondence",
    "lower",
    "lower_derivation",
    "mk_env",
    "normalize",
    "oracle_membership",
    "parse_derivation",
    "parse_env",
    "parse_judgment",
    "parse_term",
    "parse_type",
    "print_derivation",
    "print_env",
    "print_judgment",
    "print_term",
    "print_type",
    "saturation_check",
    "soundness_check",
    "step_positions",
    "subject_expand_beta",
    "subject_reduce",
    "subst_derivation",
    "substitute",
    "subtype",
    "term_size",
]
