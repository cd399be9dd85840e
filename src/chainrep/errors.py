"""Exception types shared across the package."""


class ChainrepError(Exception):
    """Base class for all library errors."""


class InputError(ChainrepError):
    """Raised for malformed user input (bad signatures, bad flags, bad files)."""


class ParseError(InputError):
    """Raised when formula text cannot be parsed.

    Carries the offending text and a character position.
    """

    def __init__(self, message: str, text: str = "", pos: int = -1):
        self.text = text
        self.pos = pos
        if pos >= 0:
            message = f"{message} (at position {pos})"
        super().__init__(message)


class ResourceLimitError(ChainrepError):
    """Raised when a work budget would be exceeded: the state budget, which
    counts automaton states and monoid elements alike, the transition-table
    cap, a copy cap or the nesting depth of a formula.

    Carries the budget, its subject ("states", "transitions", "nesting
    depth", ...), the size reached and, for all but copy caps, the stage
    that ran out: parse, compile, oracle, monoid, map automaton, preimage
    ranks, guard or ambiguity, which prefixes the message.
    """

    def __init__(self, message: str, budget=None, subject=None, stage=None,
                 reached=None):
        self.budget = budget
        self.subject = subject
        self.stage = stage
        self.reached = reached
        if stage:
            message = f"{stage}: {message}"
        super().__init__(message)
