"""Kernel for a degree-indexed lambda-calculus with intersection types,
expansion heads and a universal type.

Layers: syntax (terms, degrees, substitution), reduction (beta/eta/head
engines, confluence checks), types (canonical forms, subtyping), envs
(typing environments and judgments), derivations (proof trees and the
checker), transform (subject reduction/expansion), search (bounded
typability), rulesearch (brute-force subtyping oracle), semantics
(membership oracles), gen (enumerators), props (property suites), cli.

The package re-exports only the names of the README's quick start; every
other name is imported from the module that defines it.
"""

from .derivations import check_derivation
from .envs import env_empty
from .reduction import Relation
from .search import bounded_typecheck
from .syntax import parse_term
from .transform import subject_reduce
from .types import parse_type
