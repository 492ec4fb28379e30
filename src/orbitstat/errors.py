"""Shared exception types, the one reader of decimal literals, the words of
every refusal, and the one owner of Python's digit limit (past_print_limit,
print_limit, prints) and of a work cap's running count (Budget)."""

import sys
from typing import Callable, Optional


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
    return abs(value) < 10 ** limit


def past_print_limit(log10: float, value: Optional[Callable[[], int]] = None) -> bool:
    """Whether Python has a digit limit and value() has more digits.  log10,
    within a digit below log10(value()), decides unless it is within a digit
    of the limit; with no value it is a lower bound, past a digit beyond."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return False
    if value is None:
        return log10 > limit + 1
    return log10 >= limit - 1 and (log10 >= limit + 1 or not prints(value()))


def count_text(log10: float, value: Callable[[], int], name: str, unit: str) -> str:
    """A count for a refusal, "{value()} {unit}", or "{name} {unit}, a
    number of more than N digits" when past_print_limit(log10, value), or
    with no limit when log10 is a digit past print_limit()."""
    if log10 >= print_limit() + 1 or past_print_limit(log10, value):
        return f"{name} {unit}, a number of more than {print_limit()} digits"
    return f"{value()} {unit}"


class Budget:
    """A work cap's running count of steps.  spend adds steps before they
    run and refuses once the count passes cap: "{what} would reach N steps
    ({counted})", with a count too long to print named "at least 10^D"."""

    def __init__(self, what: str, counted: str, cap: int, flag: str):
        self.what, self.counted, self.cap, self.flag = what, counted, cap, flag
        self.count = 0

    def spend(self, steps: Optional[int]) -> None:
        """Add steps, None for more than print_limit() digits of them."""
        count = self.count = None if steps is None else self.count + steps
        if count is None or count > self.cap:
            shown = count if count is not None and prints(count) else f"at least 10^{print_limit()}"
            raise refusal(
                f"{self.what} would reach {shown} steps ({self.counted})", self.cap, self.flag
            )
