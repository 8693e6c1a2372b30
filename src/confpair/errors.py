"""Exceptions shared across the package.

ParseError carries a character position so the CLI can point at the
offending spot; ValidationError is for structurally well-formed input
that violates an invariant (duplicate labels, bad arity, size mismatch).
"""


class ParseError(ValueError):
    def __init__(self, message, text=None, pos=None):
        self.reason = message
        self.text = text
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)

    def within(self, text, offset):
        """The same error, for a piece of `text` that starts at `offset`."""
        return ParseError(self.reason, text, offset + self.pos)


class ValidationError(ValueError):
    pass


class VerificationFailure(Exception):
    """A structural check (Gram identity, duality, ...) did not hold."""
