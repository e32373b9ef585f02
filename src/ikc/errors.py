"""Error taxonomy shared by every layer of the kernel.

Each class marks one way an input can be rejected; callers catch the base
class KernelError when they only care about pass/fail.
"""


class KernelError(Exception):
    """Base class for every rejection the kernel can produce."""


class InputSyntaxError(KernelError):
    """Unparseable text.  Carries a position-tagged diagnostic."""


class DegreeError(KernelError):
    """An index/degree side condition failed (prefix order, equality)."""


class JoinabilityError(KernelError):
    """Two pieces disagree on the index of a shared free variable name."""


class ShapeError(KernelError):
    """A type constructor was applied to an operand of the wrong shape."""


class DomainError(KernelError):
    """An environment operation touched a key outside its domain contract."""


class RuleError(KernelError):
    """A derivation node violates its rule's side conditions."""

    def __init__(self, rule: str, reason: str):
        super().__init__(f"{rule}: {reason}")
        self.rule = rule
        self.reason = reason


class PreconditionError(KernelError):
    """A transformer was handed arguments outside its contract."""


class NotAReductError(KernelError):
    """subject reduction: the target term is not reachable from the subject."""


class NotAnExpansionError(KernelError):
    """subject expansion: the source term does not reduce to the subject."""
