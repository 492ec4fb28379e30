"""Shared exception types, and the one reader of decimal literals."""

import sys


class CapExceeded(ValueError):
    """An operation would exceed one of the explicit brute-force guards.

    Every enumeration in this package is bounded by a named cap (group order,
    ambient space size, symbolic term count).  Guards raise this instead of
    silently truncating.
    """


def _shown(text: str, width: int = 40) -> str:
    """text, or its first and last characters around an ellipsis when it is
    longer than width."""
    if len(text) <= width:
        return text
    return f"{text[:width // 2]}...{text[-10:]}"


def read_int(digits: str, source: str, what: str) -> int:
    """int(digits), where digits is a decimal literal read from the input
    source, which the error names as what (e.g. "the polynomial").  A
    literal with more digits than Python reads is a one-line CapExceeded
    that names the input and the limit; any other bad literal is int's own
    ValueError, for the caller to reword."""
    try:
        return int(digits)
    except ValueError:
        if not digits.strip().lstrip("+-").isdigit():
            raise
        raise CapExceeded(
            f"{what} {_shown(source)!r} holds an integer of {len(digits.strip())} "
            f"digits, more than {sys.get_int_max_str_digits()}, Python's limit "
            "for reading an integer, which no flag raises"
        ) from None
