"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: InputError -> 2, CapExceeded -> 3,
InternalError (a failed self-audit) -> 4. Everything else that escapes is a
bug.
"""


class FidError(Exception):
    """Base class for all package errors."""


class InputError(FidError):
    """Malformed user input: bad file, bad formula, bad arguments."""


class CapExceeded(FidError):
    """A configured resource cap (order, node count, game rounds) was hit."""


class FormulaTooLarge(CapExceeded):
    """A synthesized formula would exceed the node-count ceiling."""


class InternalError(FidError):
    """A self-audit failed: the package broke one of its own invariants."""


class UnsupportedPosition(FidError):
    """The phased Spoiler strategy hit the one-useful-class exception
    on structures of different orders, where its bound may legitimately fail."""


def check(ok: bool, message: str):
    """A self-audit that also holds under python -O: raise InternalError with
    the message unless `ok`."""
    if not ok:
        raise InternalError(message)
