"""Exception types shared across vasskit modules."""

from __future__ import annotations


class VasskitError(Exception):
    """Base class for all vasskit errors."""


class ParseError(VasskitError):
    """Syntax or static error in counter-program text, with source position."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class ExpansionError(VasskitError):
    """Macro expansion failed (unbound meta-variable, bad constant, budget)."""


class WrongStateError(VasskitError):
    """A transition was applied in a configuration with a different state."""


class NegativeCounterError(VasskitError):
    """A transition would drive a counter below zero."""

    def __init__(self, component: int):
        self.component = component
        super().__init__(f"counter {component} would become negative")


class BudgetExceededError(VasskitError):
    """A search or enumeration exceeded its configured budget."""


class PolicyStuckError(VasskitError):
    """A canonical schedule cannot be built or replayed: the program does
    not have the loops the schedule expects, or a scheduled step cannot fire."""


class ConfigCycleError(VasskitError):
    """Run counting met a cycle among the bounded configurations it keeps,
    so it returns no count: through a configuration that can halt, the
    halting-run count would be infinite."""
