"""Exception types shared across the package."""


class PneqError(Exception):
    """Base class for all errors raised by pneq."""


class ModelError(PneqError):
    """A net, marking, relation or transition is structurally invalid."""


class NotEnabledError(ModelError):
    """A transition was fired at a marking that does not enable it."""


class ParseError(PneqError):
    """A text input could not be parsed; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class StateSpaceLimitError(PneqError):
    """Bounded exploration hit its cap; `count` is how far it got."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


class SearchBudgetError(PneqError):
    """A search ran out of its budget (inconclusive); `count` is how far it got."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count
