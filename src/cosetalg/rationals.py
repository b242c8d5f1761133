"""Exact rationals: the stored form of a coefficient, and formatting for JSON output.

Everything user-facing prints as "p/q" in lowest terms with positive q,
or plain "p" for integers.
"""

from __future__ import annotations

from fractions import Fraction


def _exact(x) -> int | Fraction:
    """Any rational as an ``int`` when integral, else as a ``Fraction``; an ``int`` as it is."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def format_rational(x: Fraction | int) -> str:
    if type(x) is int:
        return str(x)
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
