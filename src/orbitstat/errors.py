"""Shared exception types, the one reader of decimal literals, the one test
of whether Python prints an integer, and the words of every refusal."""

import sys
from functools import lru_cache
from typing import Callable


class CapExceeded(ValueError):
    """An input would pass a cap or a limit; guards raise this instead of
    silently truncating.  Caps, each raised by its flag: --cap-group
    (DEFAULT_GROUP_CAP, elements of a coset or of S_n enumerated), --cap-enum
    (DEFAULT_ENUM_CAP, the ensemble series' work and the q^d polynomials of
    the ensemble_sum oracle), --cap-terms (DEFAULT_TERM_CAP, the symbolic
    route's work).  Limits, which no flag raises: ENUMERATION_LIMIT (sieve
    slots q^d, the degree of a polynomial term), HISTOGRAM_LIMIT (cycle-type
    pairs of one block step of the closed-form histogram), EXPANSION_LIMIT
    (binomial terms of one monomial), and Python's limit on the digits of
    an integer it reads or prints."""


def refusal(what: str, limit: int, flag: str = "") -> CapExceeded:
    """The refusal of what, an amount past limit: a cap that flag raises
    (flag may add advice after it), or with no flag a limit."""
    if flag:
        return CapExceeded(f"{what}, beyond the cap {limit}; raise it with {flag}")
    return CapExceeded(f"{what}, beyond the limit {limit}, which no flag raises")


def unprintable(subject: str) -> CapExceeded:
    """The refusal of a value holding an integer longer than Python prints;
    subject names it and ends in a word such as "has" or "of"."""
    return CapExceeded(
        f"{subject} more than {print_limit()} digits, Python's limit for "
        "printing an integer, which no flag raises"
    )


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


@lru_cache(maxsize=None)
def _power_of_ten(digits: int) -> int:
    """10^digits, the least integer with more than that many digits."""
    return 10 ** digits


def print_limit() -> int:
    """Python's limit on the digits of an integer it prints, or its default
    limit when none is set: a count estimated past it is never computed."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def prints(value: int) -> bool:
    """Whether str(value) is within Python's limit on the digits of an
    integer it prints.  A b-bit integer has more than (b - 1) log10(2) and
    less than b log10(2) + 1 digits, so the bit length decides, and only
    an integer near the limit is compared with a power of ten."""
    limit = sys.get_int_max_str_digits()
    bits = abs(value).bit_length()
    if not limit or bits * 0.30103 + 1 <= limit:
        return True
    if (bits - 1) * 0.30102 >= limit:
        return False
    return abs(value) < _power_of_ten(limit)


def too_long(log10: float, value: Callable[[], int]) -> bool:
    """Whether value() has more digits than Python prints.  log10, at most
    log10(value()) and within a digit of it, decides unless it is within a
    digit of print_limit, so value is called only there."""
    limit = print_limit()
    return log10 >= limit - 1 and (log10 >= limit + 1 or not prints(value()))


def count_text(log10: float, value: Callable[[], int], name: str, unit: str) -> str:
    """A count for a refusal, "{value()} {unit}", or when too_long(log10,
    value) "{name} {unit}, a number of more than N digits"."""
    if too_long(log10, value):
        return f"{name} {unit}, a number of more than {print_limit()} digits"
    return f"{value()} {unit}"
