"""Exact scalars: integers, rationals and Gaussian rationals a + b*i.

Every polynomial coefficient is stored in its narrowest exact type: an `int`
when the value is an integer, a `Fraction` when it is real but not an
integer, and a `GaussianRational` only when its imaginary part is nonzero.
`exact` is the one function that narrows a value on its way into a
polynomial, and `GaussianRational` arithmetic narrows its own results (i*i is
the int -1), so the polynomial loops run on native `int` and `Fraction`
arithmetic whenever the coefficients are real.  All three types compare equal
(and hash equal) when their values are equal, so equality -- and hence the
zero test of residuals -- is decidable and independent of the stored type.

The three types share the read-only `real` and `imag` attributes of Python's
numbers, which is how values are rendered without looking at their type.
"""

from __future__ import annotations

from fractions import Fraction


def _rational(q):
    """An int or a Fraction as an int when it is integral, else unchanged."""
    return int(q) if q.denominator == 1 else q


def _gaussian(re: Fraction, im: Fraction):
    """re + im*i from Fraction parts, narrowed to a real when im is 0."""
    if not im:
        return _rational(re)
    g = object.__new__(GaussianRational)
    g.re = re
    g.im = im
    return g


class GaussianRational:
    """Immutable exact complex scalar with Fraction real and imaginary parts.

    Constructing one directly keeps the type whatever the parts are
    (`parsing.parse_scalar` returns such values); every arithmetic result is
    narrowed to an int or a Fraction when its imaginary part is 0.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @property
    def real(self):
        return self.re

    @property
    def imag(self):
        return self.im

    def __complex__(self):
        return complex(self.re, self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = as_gaussian(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # equal values hash equal across int, Fraction and GaussianRational
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __neg__(self):
        return _gaussian(-self.re, -self.im)

    def __add__(self, other):
        other = as_gaussian(other)
        if other is None:
            return NotImplemented
        return _gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_gaussian(other)
        if other is None:
            return NotImplemented
        return _gaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = as_gaussian(other)
        if other is None:
            return NotImplemented
        return _gaussian(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = as_gaussian(other)
        if other is None:
            return NotImplemented
        if not self.im and not other.im:
            # real operands, as in a parsed real entry of a matrix tuple
            return _rational(self.re * other.re)
        return _gaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_gaussian(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero Gaussian rational")
        if not other.im:
            return _gaussian(self.re / other.re, self.im / other.re)
        d = other.re * other.re + other.im * other.im
        return _gaussian(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        other = as_gaussian(other)
        if other is None:
            return NotImplemented
        return other / self

    def conjugate(self):
        return _gaussian(self.re, -self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


def exact(value):
    """`value` in its narrowest exact type -- int, else Fraction, else
    GaussianRational -- or None when it is not an exact scalar."""
    if isinstance(value, GaussianRational):
        return value if value.im else _rational(value.re)
    if isinstance(value, (int, Fraction)):
        return _rational(value)
    return None


def as_gaussian(value):
    """Coerce int/Fraction/GaussianRational to GaussianRational, else None."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return None


def format_scalar(c) -> str:
    """Render an exact scalar without surrounding parentheses: '3', '-1/2',
    '2i', 'i', '1+2i'."""
    re, im = c.real, c.imag
    if not im:
        return str(re)
    if im == 1:
        im_part = "i"
    elif im == -1:
        im_part = "-i"
    else:
        im_part = f"{im}i"
    if not re:
        return im_part
    sign = "+" if im > 0 else ""
    return f"{re}{sign}{im_part}"


def scalar_needs_parens(c) -> bool:
    """True when the rendered form contains an interior +/- ('1+2i')."""
    return bool(c.real) and bool(c.imag)
