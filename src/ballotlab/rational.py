"""Exact rational values and their display rendering.

All tabulation arithmetic in this package is exact; binary floats are
refused at the boundary and decimal strings are produced by integer
arithmetic with round-half-up, so rendered output never drifts.
"""

from __future__ import annotations

from decimal import Decimal  # already loaded by ``fractions``
from fractions import Fraction

#: ``int()``'s default digit limit, which bounds every other number read, also
#: bounds a decimal exponent: ``Fraction("1e-30000000")`` builds ``10**30000000``.
MAX_EXPONENT = 4300


def exact_rational(value, what: str) -> Fraction:
    """Convert to an exact Fraction, refusing binary floats outright.

    Accepts ints, Fractions, Decimals, and strings such as ``"0.35"`` or
    ``"21738/62291"``, refusing a decimal exponent past ±``MAX_EXPONENT``.
    """
    if isinstance(value, float):
        raise ValueError(
            f"{what} must be exact (int, string, or Fraction), not a binary float"
        )
    written = str(value).lower() if isinstance(value, (str, Decimal)) else ""
    try:
        if abs(int(written.partition("e")[2] or 0)) <= MAX_EXPONENT:  # the decimal exponent
            return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"{what} is not a rational number: {value!r}") from exc
    raise ValueError(f"{what} has a decimal exponent outside ±{MAX_EXPONENT}: {value!r}")


def decimal_string(value: Fraction | int, places: int) -> str:
    """Exact fixed-point rendering, round-half-up on the magnitude."""
    sign = "-" if value < 0 else ""
    scaled = abs(value) * 10**places
    units, remainder = divmod(scaled.numerator, scaled.denominator)
    if 2 * remainder >= scaled.denominator:
        units += 1
    if places == 0:
        return f"{sign}{units}"
    digits = str(units).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def percent_string(share: Fraction | int, places: int = 2) -> str:
    """A proportion rendered as a percentage, e.g. ``51.46%``."""
    return decimal_string(share * 100, places) + "%"


def fraction_token(value: Fraction | int) -> str:
    """Machine rendering: plain integer, or ``numerator/denominator``."""
    try:
        return str(value)
    except ValueError:  # past ``int()``'s digit limit
        raise ValueError(f"exact value has a numerator or denominator of over {MAX_EXPONENT} "
                         "digits, too long for machine output; table output rounds it") from None
