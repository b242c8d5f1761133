"""Formatting of exact rationals for JSON output.

Everything user-facing prints as "p/q" in lowest terms with positive q,
or plain "p" for integers.
"""

from __future__ import annotations

from fractions import Fraction


def format_rational(x: Fraction | int) -> str:
    if type(x) is int:
        return str(x)
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
