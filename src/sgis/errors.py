"""Shared exception types."""


class SgisError(Exception):
    """Base class for all package errors."""


class GraphError(SgisError):
    """Invalid separated graph (validation failure)."""


class GraphParseError(GraphError):
    """Syntax or semantic error in a graph file; `line_no` is None for errors
    of the whole graph, which no single line causes."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class WordError(SgisError):
    """A token sequence does not resolve against the graph."""


class IncompatiblePathsError(SgisError):
    """A set of paths fails pairwise compatibility; carries one violating pair."""

    def __init__(self, first, second):
        super().__init__(f"incompatible paths: {first!r}, {second!r}")
        self.pair = (first, second)


class LevelMismatchError(SgisError):
    """Product of elements living at different quotient levels."""


class ActionDomainError(SgisError):
    """Partial-action application outside its domain ideal."""


class CylinderError(SgisError):
    """Malformed basic open set (side conditions violated)."""


class BudgetExceededError(SgisError):
    """An enumeration exhausted its node budget; distinct from a negative answer."""

    def __init__(self, budget: int, context: str = ""):
        detail = f" during {context}" if context else ""
        super().__init__(f"node budget of {budget} exceeded{detail}")
        self.budget = budget


DEFAULT_NODE_BUDGET = 10**6


class Budget:
    """Mutable countdown shared by one enumeration call tree."""

    __slots__ = ("limit", "used", "context")

    def __init__(self, limit: int = DEFAULT_NODE_BUDGET, context: str = ""):
        self.limit = limit
        self.used = 0
        self.context = context

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceededError(self.limit, self.context)
