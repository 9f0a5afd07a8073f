"""Exact scalars: rationals and elements of a real quadratic field.

Every coordinate, length, and rotation amount in this library is a
:class:`QField` value ``a + b*sqrt(d)`` with rational ``a``, ``b`` and a
square-free integer radicand ``1 < d < 2**32``.  A value is stored as
integers in the normal form ``(A + B*sqrt(d)) / D`` with ``D > 0`` and
``gcd(A, B, D) = 1``, so two values are equal exactly when their normal
forms are.  The radicand is dropped whenever ``B`` is zero, so a value is
irrational exactly when ``is_rational`` is false.  No floating point is
used anywhere; sums, products, quotients, signs, comparisons and floors
are decided by integer arithmetic on the normal form alone.

Radicands are capped below ``RADICAND_BOUND = 2**32`` so that the
square-freeness test (trial division up to ``sqrt(d)``) stays within a few
milliseconds on any input; a larger radicand is a ``ValueError``.

``_over`` is the one place where values go over a common denominator;
the integer passes over polygon edges, strip shears and orbit rows start
from its pairs.

The canonical text form is ``p/q`` for rationals and ``p/q+r/s*sqrt(d)``
(or ``p/q-r/s*sqrt(d)``) otherwise, with both fractions in lowest terms
and positive denominators.  ``parse_scalar`` and ``format_scalar`` round
trip bit-exactly on this grammar.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Union

Rational = Union[int, Fraction]

RADICAND_BOUND = 2**32

_SCALAR_RE = re.compile(
    r"^(?P<rat>[+-]?\d+(?:/\d+)?)?"
    r"(?:(?P<sgn>[+-])?(?P<coef>\d+(?:/\d+)?)\*sqrt\((?P<rad>\d+)\))?$"
)


@lru_cache(maxsize=1024)
def _is_squarefree(d: int) -> bool:
    n, p = d, 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
        p += 1 if p == 2 else 2
    return True


def _check_radicand(d: object) -> None:
    if d is None:
        raise ValueError("irrational part requires a radicand d")
    if not isinstance(d, int) or d <= 1:
        raise ValueError(f"radicand must be an integer > 1, got {d!r}")
    if d >= RADICAND_BOUND:
        raise ValueError(f"radicand must be below 2**32, got {d}")
    if not _is_squarefree(d):
        raise ValueError(f"radicand must be square-free, got {d}")


def _ratio(x: Rational) -> tuple[int, int]:
    """Numerator and positive denominator of ``x`` in lowest terms.

    Only ints and Fractions are exact; a float, a bool or a decimal string
    is a ``ValueError`` rather than a silently rounded value.
    """
    if type(x) is int:
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x), 1
    raise ValueError(f"expected an exact int or Fraction, got {x!r}")


def _normal(n1: int, d1: int, n2: int, d2: int, d: object) -> tuple:
    """Normal form of ``n1/d1 + n2/d2*sqrt(d)``, both fractions in lowest terms."""
    if not n2:
        return n1, 0, d1, None
    _check_radicand(d)
    if d1 == d2:
        return n1, n2, d1, d
    # over D = lcm(d1, d2) no prime divides all of A, B, D: it would divide
    # the larger of the two denominators and its numerator too
    D = d1 // gcd(d1, d2) * d2
    return n1 * (D // d1), n2 * (D // d2), D, d


def _merge_radicand(d1: int | None, d2: int | None) -> int | None:
    if d1 is None:
        return d2
    if d2 is None or d2 == d1:
        return d1
    raise ValueError(f"mixed radicands sqrt({d1}) and sqrt({d2})")


def _sign(a: int, b: int, d: int | None) -> int:
    """Exact sign of ``a + b*sqrt(d)`` for integers ``a``, ``b``."""
    if not b:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if not a:
        return sb
    sa = 1 if a > 0 else -1
    if sa == sb:
        return sa
    # opposite signs: the larger of a^2 and b^2 d wins
    lhs = a * a
    rhs = b * b * d
    if lhs == rhs:  # impossible for square-free d
        raise ArithmeticError("square-free radicand produced a square")
    return sa if lhs > rhs else sb


class QField:
    """An exact scalar ``a + b*sqrt(d)``, stored as ``(A + B*sqrt(d)) / D``.

    The integers satisfy ``D > 0`` and ``gcd(A, B, D) = 1``; ``d`` is
    ``None`` exactly when ``B == 0`` and a square-free integer
    ``1 < d < 2**32`` otherwise.  ``a = A/D`` and ``b = B/D`` are exposed
    as :class:`fractions.Fraction` properties.  Values are immutable, and
    values with different radicands cannot be mixed in one expression.
    """

    __slots__ = ("_v",)

    def __new__(cls, a: Rational = 0, b: Rational = 0, d: int | None = None) -> "QField":
        # built in __new__, so calling __init__ again cannot rewrite a value
        self = _new(cls)
        _set(self, _normal(*_ratio(a), *_ratio(b), d))
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QField values are immutable")

    def __reduce__(self):
        # copies and unpickled values go back through the validating parser
        return (parse_scalar, (format_scalar(self),))

    @classmethod
    def sqrt(cls, d: int) -> "QField":
        """The element ``sqrt(d)`` itself."""
        return cls(0, 1, d)

    # -- normal-form accessors ------------------------------------------

    @property
    def a(self) -> Fraction:
        A, _, D, _ = self._v
        return Fraction(A, D)

    @property
    def b(self) -> Fraction:
        _, B, D, _ = self._v
        return Fraction(B, D)

    @property
    def d(self) -> int | None:
        return self._v[3]

    @property
    def p(self) -> int:
        A, _, D, _ = self._v
        return A // gcd(A, D)

    @property
    def q(self) -> int:
        A, _, D, _ = self._v
        return D // gcd(A, D)

    @property
    def r(self) -> int:
        _, B, D, _ = self._v
        return B // gcd(B, D)

    @property
    def s(self) -> int:
        _, B, D, _ = self._v
        return D // gcd(B, D)

    def is_rational(self) -> bool:
        """True when the value lies in Q (certified: normal form has B = 0)."""
        return not self._v[1]

    def as_fraction(self) -> Fraction:
        A, B, D, _ = self._v
        if B:
            raise ValueError(f"{self} is irrational")
        return Fraction(A, D)

    def conjugate(self) -> "QField":
        A, B, D, d = self._v
        return _raw(A, -B, D, d)

    # -- arithmetic ------------------------------------------------------
    #
    # Each operator dispatches on ``type(other) is QField``, then on
    # ``type(other) is int``, and only then falls back to ``_coerce``.

    def __add__(self, other: object) -> "QField":
        A1, B1, D1, d1 = self._v
        if type(other) is QField:
            A2, B2, D2, d2 = other._v
        elif type(other) is int:
            return _raw(A1 + other * D1, B1, D1, d1)
        else:
            o = _coerce(other)
            if o is None:
                return NotImplemented
            A2, B2, D2, d2 = o._v
        if d1 != d2:
            d1 = _merge_radicand(d1, d2)
        if D1 == D2:
            return _reduced(A1 + A2, B1 + B2, D1, d1)
        return _reduced(A1 * D2 + A2 * D1, B1 * D2 + B2 * D1, D1 * D2, d1)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QField":
        A1, B1, D1, d1 = self._v
        if type(other) is QField:
            A2, B2, D2, d2 = other._v
        elif type(other) is int:
            return _raw(A1 - other * D1, B1, D1, d1)
        else:
            o = _coerce(other)
            if o is None:
                return NotImplemented
            A2, B2, D2, d2 = o._v
        if d1 != d2:
            d1 = _merge_radicand(d1, d2)
        if D1 == D2:
            return _reduced(A1 - A2, B1 - B2, D1, d1)
        return _reduced(A1 * D2 - A2 * D1, B1 * D2 - B2 * D1, D1 * D2, d1)

    def __rsub__(self, other: object) -> "QField":
        A, B, D, d = self._v
        if type(other) is int:
            return _raw(other * D - A, -B, D, d)
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other: object) -> "QField":
        A1, B1, D1, d1 = self._v
        if type(other) is QField:
            A2, B2, D2, d2 = other._v
        elif type(other) is int:
            # cancel against D only: gcd(A, B, D) = 1 already
            g = gcd(other, D1)
            if g != 1:
                other //= g
                D1 //= g
            B = B1 * other
            return _raw(A1 * other, B, D1, d1 if B else None)
        else:
            o = _coerce(other)
            if o is None:
                return NotImplemented
            A2, B2, D2, d2 = o._v
        if not B2:
            return _reduced(A1 * A2, B1 * A2, D1 * D2, d1)
        if not B1:
            return _reduced(A1 * A2, A1 * B2, D1 * D2, d2)
        if d1 != d2:
            d1 = _merge_radicand(d1, d2)
        return _reduced(A1 * A2 + B1 * B2 * d1, A1 * B2 + B1 * A2, D1 * D2, d1)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QField":
        A1, B1, D1, d1 = self._v
        if type(other) is QField:
            A2, B2, D2, d2 = other._v
        elif type(other) is int:
            if not other:
                raise ZeroDivisionError("division by zero scalar")
            # a prime dividing A, B and D*other divides other, not D
            g = gcd(A1, B1, other)
            if other < 0:
                g = -g
            if g != 1:
                A1 //= g
                B1 //= g
                other //= g
            return _raw(A1, B1, D1 * other, d1)
        else:
            o = _coerce(other)
            if o is None:
                return NotImplemented
            A2, B2, D2, d2 = o._v
        if not B2:
            if not A2:
                raise ZeroDivisionError("division by zero scalar")
            A, B, D, d = A1 * D2, B1 * D2, D1 * A2, d1
        else:
            d = _merge_radicand(d1, d2)
            # multiply by the conjugate; the norm A2^2 - B2^2 d is nonzero
            # because d is square-free, hence never a square of a rational.
            A = (A1 * A2 - B1 * B2 * d) * D2
            B = (B1 * A2 - A1 * B2) * D2
            D = D1 * (A2 * A2 - B2 * B2 * d)
        if D < 0:
            A, B, D = -A, -B, -D
        return _reduced(A, B, D, d)

    def __rtruediv__(self, other: object) -> "QField":
        o = _raw(other, 0, 1, None) if type(other) is int else _coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self) -> "QField":
        A, B, D, d = self._v
        return _raw(-A, -B, D, d)

    def __pos__(self) -> "QField":
        return self

    def __abs__(self) -> "QField":
        A, B, D, d = self._v
        return _raw(-A, -B, D, d) if _sign(A, B, d) < 0 else self

    def __bool__(self) -> bool:
        A, B, _, _ = self._v
        return bool(A or B)

    # -- order -----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, decided by integer comparisons."""
        A, B, _, d = self._v
        return _sign(A, B, d)

    def _cmp(self, other: object) -> int | None:
        """Sign of ``self - other`` from cross-multiplied integers."""
        A1, B1, D1, d1 = self._v
        if type(other) is QField:
            A2, B2, D2, d2 = other._v
        elif type(other) is int:
            return _sign(A1 - other * D1, B1, d1)
        else:
            o = _coerce(other)
            if o is None:
                return None
            A2, B2, D2, d2 = o._v
        if d1 != d2:
            d1 = _merge_radicand(d1, d2)
        if D1 == D2:
            return _sign(A1 - A2, B1 - B2, d1)
        return _sign(A1 * D2 - A2 * D1, B1 * D2 - B2 * D1, d1)

    def __lt__(self, other: object) -> bool:
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c < 0

    def __le__(self, other: object) -> bool:
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c <= 0

    def __gt__(self, other: object) -> bool:
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c > 0

    def __ge__(self, other: object) -> bool:
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c >= 0

    def __eq__(self, other: object) -> bool:
        # normal forms are unique, so equal values have equal integers
        if type(other) is QField:
            return self._v == other._v
        if type(other) is int:
            A, B, D, _ = self._v
            return A == other and D == 1 and not B
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self._v == o._v

    def __hash__(self) -> int:
        # a rational hashes like the equal Fraction or int; an irrational
        # like the tuple (a, b, d) of Fractions
        A, B, D, d = self._v
        if not B:
            return hash(Fraction(A, D))
        return hash((Fraction(A, D), Fraction(B, D), d))

    # -- conversions -----------------------------------------------------

    def __float__(self) -> float:
        A, B, D, d = self._v
        if not B:
            return A / D
        return A / D + B / D * math.sqrt(d)

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"QField({format_scalar(self)!r})"


_new = object.__new__
_set = QField._v.__set__


def _raw(A: int, B: int, D: int, d: int | None) -> QField:
    """A QField from integers already in normal form."""
    v = _new(QField)
    _set(v, (A, B, D, d))
    return v


def _reduced(A: int, B: int, D: int, d: int | None) -> QField:
    """A QField from integers with ``D > 0``, reduced by one gcd."""
    g = gcd(A, B, D)
    if g != 1:
        A //= g
        B //= g
        D //= g
    v = _new(QField)
    _set(v, (A, B, D, d if B else None))
    return v


def _over(*values: QField, d: int | None = None) -> tuple[int, int | None, list[tuple[int, int]]]:
    """``(D, d, pairs)``: value k is ``(A + B*sqrt(d)) / D`` for ``(A, B) = pairs[k]``,
    over the least common denominator D.  The radicand ``d`` is merged first,
    then each value's in order; two radicands are a ``ValueError``."""
    D = 1
    for x in values:
        Dk = x._v[2]
        if D % Dk:
            D = D // gcd(D, Dk) * Dk
    pairs = []
    for x in values:
        A, B, Dk, dk = x._v
        if dk != d and dk is not None:
            d = _merge_radicand(d, dk)
        s = D // Dk
        pairs.append((A * s, B * s))
    return D, d, pairs


def _coerce(value: object) -> QField | None:
    """The slow path of operand dispatch: subclasses and Fractions, not bools."""
    if isinstance(value, QField):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return _raw(int(value), 0, 1, None)
    if isinstance(value, Fraction):
        return _raw(value.numerator, 0, value.denominator, None)
    return None


def qf(value: "QField | Rational | str") -> QField:
    """Coerce an int, Fraction, canonical string, or QField to QField.

    Anything else, floats and bools included, is a ``ValueError``.
    """
    if type(value) is QField:
        return value
    if type(value) is int:
        return _raw(value, 0, 1, None)
    if isinstance(value, QField):
        return value
    if isinstance(value, str):
        return parse_scalar(value)
    return QField(value)


ScalarLike = QField | Rational | str


def sign(x: "QField | Rational") -> int:
    return qf(x).sign()


def is_rational(x: "QField | Rational") -> bool:
    return qf(x).is_rational()


def floor(x: "QField | Rational") -> int:
    """Exact floor, via the integer square root of the sqrt term."""
    return _floor(*qf(x)._v)


def _floor(A: int, B: int, D: int, d: int | None) -> int:
    """Exact floor of ``(A + B*sqrt(d)) / D`` for integers with ``D > 0``."""
    if not B:
        return A // D
    # |B|*sqrt(d) is irrational, so it lies strictly inside (t, t+1), and
    # floor((A + B*sqrt(d)) / D) = floor(floor(A + B*sqrt(d)) / D)
    t = isqrt(B * B * d)
    return (A + t) // D if B > 0 else (A - t - 1) // D


def _parse_ratio(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    n, m = int(num), int(den) if den else 1
    if not m:
        raise ValueError(f"zero denominator in scalar {text!r}")
    g = gcd(n, m)
    return n // g, m // g


def parse_scalar(text: str) -> QField:
    """Parse the canonical scalar grammar (``p/q``, ``p/q+r/s*sqrt(d)``).

    Integer shorthand without an explicit denominator is also accepted.
    """
    s = text.strip()
    match = _SCALAR_RE.match(s)
    if match is None or not s:
        raise ValueError(f"malformed scalar {text!r}")
    rat, sgn, coef, rad = match.group("rat", "sgn", "coef", "rad")
    if rat is None and coef is None:
        raise ValueError(f"malformed scalar {text!r}")
    n1, d1 = _parse_ratio(rat) if rat is not None else (0, 1)
    if coef is None:
        return _raw(n1, 0, d1, None)
    n2, d2 = _parse_ratio(coef)
    if sgn == "-":
        n2 = -n2
    v = _new(QField)
    _set(v, _normal(n1, d1, n2, d2, int(rad)))
    return v


def format_scalar(x: "QField | Rational") -> str:
    """Canonical text form; inverse of parse_scalar on its output."""
    A, B, D, d = qf(x)._v
    g = gcd(A, D)
    out = f"{A // g}/{D // g}"
    if B:
        g = gcd(B, D)
        out += f"{'+' if B > 0 else '-'}{abs(B) // g}/{D // g}*sqrt({d})"
    return out


ZERO = QField(0)
ONE = QField(1)
