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

Values go over a common denominator in two places: ``_over`` for the
integer passes over polygon edges, strip shears and orbit rows, which start
from its pairs, and ``_align`` for the operators.  Each binary operator
reads its other operand through ``_operand``, so a rational is the
``B = 0`` case of its one integer rule.

Those passes and the operators share one rule per operation on integer
rows ``x + y*sqrt(d)``, with ``d`` None on a rational row: ``_sign``, the
exact sign; ``_floor``, the floor of a row over a positive denominator;
``_divide``, one row over another through the conjugate of the second;
``_floor_ratio``, the floor of that ratio, for a single floor; ``_mod``,
one row modulo another by that floor, for arcs modulo a perimeter and orbit
starts; ``_quotients``, every partial quotient of the ratio of two rows, for
the steps of a continued fraction, from one integer square root; and
``_order``, which builds each of the four orderings ``<``, ``<=``, ``>`` and
``>=`` from the ``_sign`` of one difference.

The canonical text form is ``p/q`` for rationals and ``p/q+r/s*sqrt(d)``
(or ``p/q-r/s*sqrt(d)``) otherwise, with both fractions in lowest terms
and positive denominators.  ``format_scalar`` prints any value, and
``parse_scalar`` refuses an integer of more than ``DIGIT_BOUND = 4300``
digits (the interpreter's default limit on int-to-str conversion) before
converting any, so the two round trip bit-exactly on this grammar for
every value whose integers have at most that many digits.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Callable, Iterator, Union

Rational = Union[int, Fraction]

RADICAND_BOUND = 2**32
DIGIT_BOUND = 4300

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


def _normal(n1: int, d1: int, n2: int, d2: int, d: object) -> tuple:
    """Normal form of ``n1/d1 + n2/d2*sqrt(d)``, both fractions in lowest terms."""
    if not n2:
        return n1, 0, d1, None
    _check_radicand(d)
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


def _order(holds: tuple[bool, bool, bool]) -> Callable:
    """A comparison of ``self`` with ``other``: whether it holds when the
    exact sign of ``self - other``, from cross-multiplied integers, is -1, 0
    or +1, read from ``holds`` in that order; ``NotImplemented`` for an
    operand that is not a QField, an int or a Fraction."""

    def compare(self: "QField", other: object) -> bool:
        o = _operand(other)
        if o is None:
            return NotImplemented
        A1, B1, A2, B2, _, d = _align(self._v, o)
        return holds[_sign(A1 - A2, B1 - B2, d) + 1]

    return compare


class QField:
    """An exact scalar ``a + b*sqrt(d)``, stored as ``(A + B*sqrt(d)) / D``.

    The integers satisfy ``D > 0`` and ``gcd(A, B, D) = 1``; ``d`` is
    ``None`` exactly when ``B == 0`` and a square-free integer
    ``1 < d < 2**32`` otherwise.  ``a = A/D`` and ``b = B/D`` are exposed
    as :class:`fractions.Fraction` properties.  Values are immutable, and
    values with different radicands cannot be mixed in one expression.
    """

    __slots__ = ("_v",)

    def __new__(cls, a: Rational, b: Rational = 0, d: int | None = None) -> "QField":
        # built in __new__, so calling __init__ again cannot rewrite a value;
        # a and b are read as operands, and only an int or a Fraction is
        # exact: a float is refused rather than silently rounded
        va, vb = _operand(a), _operand(b)
        for x, v in ((a, va), (b, vb)):
            if v is None or isinstance(x, QField):
                raise ValueError(f"expected an exact int or Fraction, got {x!r}")
        self = _new(cls)
        _set(self, _normal(va[0], va[2], vb[0], vb[2], d))
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
    # Each binary operator reads its other operand as a normal form through
    # ``_operand``, so an int or a Fraction is the B = 0 case of the one
    # integer rule; anything else is ``NotImplemented``.

    def __add__(self, other: object) -> "QField":
        o = _operand(other)
        if o is None:
            return NotImplemented
        A1, B1, A2, B2, D, d = _align(self._v, o)
        return _reduced(A1 + A2, B1 + B2, D, d)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QField":
        o = _operand(other)
        if o is None:
            return NotImplemented
        A1, B1, A2, B2, D, d = _align(self._v, o)
        return _reduced(A1 - A2, B1 - B2, D, d)

    def __rsub__(self, other: object) -> "QField":
        o = _operand(other)
        if o is None:
            return NotImplemented
        A1, B1, A2, B2, D, d = _align(o, self._v)
        return _reduced(A1 - A2, B1 - B2, D, d)

    def __mul__(self, other: object) -> "QField":
        o = _operand(other)
        if o is None:
            return NotImplemented
        A1, B1, D1, d = self._v
        A2, B2, D2, d2 = o
        if d != d2 and d2 is not None:
            d = _merge_radicand(d, d2)
        return _reduced(A1 * A2 + B1 * B2 * (d or 0), A1 * B2 + B1 * A2, D1 * D2, d)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QField":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _quotient(self._v, o)

    def __rtruediv__(self, other: object) -> "QField":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _quotient(o, self._v)

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

    # each ordering's truth at the sign -1, 0, +1 of self - other
    __lt__ = _order((True, False, False))
    __le__ = _order((True, True, False))
    __gt__ = _order((False, False, True))
    __ge__ = _order((False, True, True))

    def __eq__(self, other: object) -> bool:
        # normal forms are unique, so equal values have equal integers
        o = _operand(other)
        if o is None:
            return NotImplemented
        return self._v == o

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
        return _text(*self._v)

    def __repr__(self) -> str:
        return f"QField({_text(*self._v)!r})"


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


def _operand(value: object) -> tuple | None:
    """The normal form ``(A, B, D, d)`` of a QField, an int or a Fraction;
    None for anything else, bools included."""
    if type(value) is QField:
        return value._v
    if type(value) is int:
        return value, 0, 1, None
    if isinstance(value, QField):
        return value._v
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value), 0, 1, None
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator, None
    return None


def _align(v1: tuple, v2: tuple) -> tuple:
    """``(A1, B1, A2, B2, D, d)``: two normal forms over one denominator D,
    the radicand of ``v1`` merged first."""
    A1, B1, D1, d1 = v1
    A2, B2, D2, d2 = v2
    if d1 != d2 and d2 is not None:
        d1 = _merge_radicand(d1, d2)
    if D1 == D2:
        return A1, B1, A2, B2, D1, d1
    return A1 * D2, B1 * D2, A2 * D1, B2 * D1, D1 * D2, d1


def _quotient(v1: tuple, v2: tuple) -> QField:
    """``v1 / v2``: the quotient of the two rows by ``_divide``, times D2/D1."""
    A1, B1, D1, d = v1
    A2, B2, D2, d2 = v2
    if d != d2 and d2 is not None:
        d = _merge_radicand(d, d2)
    A, B, N = _divide(A1, B1, A2, B2, d)
    if not N:
        raise ZeroDivisionError("division by zero scalar")
    return _reduced(A * D2, B * D2, D1 * N, d)


def qf(value: "QField | Rational | str") -> QField:
    """Coerce an int, Fraction, canonical string, or QField to QField.

    Anything else, floats and bools included, is a ``ValueError``.
    """
    v = _operand(value)
    if v is None:
        # a string is parsed; any other type fails in the constructor
        return parse_scalar(value) if isinstance(value, str) else QField(value)
    return value if isinstance(value, QField) else _raw(*v)


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


def _divide(x0: int, y0: int, x1: int, y1: int, d: int | None) -> tuple[int, int, int]:
    """``(A, B, N)`` with ``(A + B*sqrt(d)) / N = (x0 + y0*sqrt(d)) / (x1 + y1*sqrt(d))``
    and N >= 0, not in lowest terms: the first row times the conjugate of
    the second over its norm x1^2 - y1^2*d, which is 0 exactly when the
    second row is (d is square-free).  A rational second row needs no
    conjugate: the first row goes over it as it is."""
    if not y1:
        return (x0, y0, x1) if x1 >= 0 else (-x0, -y0, -x1)
    A, B, N = x0 * x1 - y0 * y1 * d, y0 * x1 - x0 * y1, x1 * x1 - y1 * y1 * d
    return (A, B, N) if N > 0 else (-A, -B, -N)


def _floor_ratio(x0: int, y0: int, x1: int, y1: int, d: int | None) -> int:
    """``floor((x0 + y0*sqrt(d)) / (x1 + y1*sqrt(d)))`` for integer rows, the
    second positive: the rule of ``_divide`` written out, so that a single
    floor is one call, and one ``_floor``."""
    if d is None:
        return x0 // x1
    norm = x1 * x1 - d * y1 * y1
    sgn = 1 if norm > 0 else -1
    return _floor(sgn * (x0 * x1 - d * y0 * y1), sgn * (y0 * x1 - x0 * y1), sgn * norm, d)


def _quotients(x0: int, y0: int, x1: int, y1: int, d: int | None) -> Iterator[int]:
    """The partial quotients of ``(x0 + y0*sqrt(d)) / (x1 + y1*sqrt(d))`` for
    integer rows, the second positive, as a generator that ends when the
    ratio is rational.  The ratio is ``(A + B*sqrt(d)) / M`` by ``_divide``'s
    rule.  An irrational one is put once as ``(P + sqrt(N)) / Q`` with
    ``N = B^2*d`` and Q dividing ``N - P^2 = -(x0^2 - d*y0^2)*M``, and each
    quotient is read from the one integer square root r of N: sqrt(N) lies
    strictly between r and r + 1, so ``a = (P + r) // Q``, or
    ``(P + r + 1) // Q`` when Q < 0, and the next complete quotient is
    ``(P' + sqrt(N)) / Q'`` with ``P' = a*Q - P`` and ``Q' = (N - P'^2) / Q``,
    again with Q' dividing ``N - P'^2``.  A rational ratio (d None, or the
    two rows proportional) takes Euclid's steps on A and M, whose floors hold
    for either sign of M; a row on d None is rational, with y = 0."""
    A, B, M = x0 * x1 - (d or 0) * y0 * y1, y0 * x1 - x0 * y1, x1 * x1 - (d or 0) * y1 * y1
    if B:
        N = B * B * d
        P, Q = (A, M) if B > 0 else (-A, -M)
        r = isqrt(N)
        while True:
            a = (P + r) // Q if Q > 0 else (P + r + 1) // Q
            yield a
            P = a * Q - P
            Q = (N - P * P) // Q
    while M:
        yield A // M
        A, M = M, A % M


def _mod(a: int, b: int, pa: int, pb: int, d: int | None) -> tuple[int, int]:
    """(a + b*sqrt(d)) modulo (pa + pb*sqrt(d)) > 0, by ``_floor_ratio``."""
    # a rational row skips the call: every level rotation takes this case,
    # and the call cost 2-5 % per recurrence item
    q = a // pa if d is None else _floor_ratio(a, b, pa, pb, d)
    return a - q * pa, b - q * pb


def _parse_ratio(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    n, m = int(num), int(den) if den else 1
    if not m:
        raise ValueError(f"zero denominator in scalar {text!r}")
    g = gcd(n, m)
    return n // g, m // g


def _check_digits(text: str) -> None:
    """Refuse a text holding an integer of more than ``DIGIT_BOUND`` digits,
    before any is converted: ``parse_scalar`` reads no such integer back."""
    if len(text) > DIGIT_BOUND and max(map(len, re.split(r"\D+", text))) > DIGIT_BOUND:
        raise ValueError(f"scalar has an integer of more than {DIGIT_BOUND} digits")


def parse_scalar(text: str) -> QField:
    """Parse the canonical scalar grammar (``p/q``, ``p/q+r/s*sqrt(d)``).

    Integer shorthand without an explicit denominator is also accepted.
    """
    s = text.strip()
    _check_digits(s)
    # the pattern matches a non-empty string only when a group is non-empty
    match = _SCALAR_RE.match(s)
    if match is None or not s:
        raise ValueError(f"malformed scalar {text!r}")
    rat, sgn, coef, rad = match.group("rat", "sgn", "coef", "rad")
    n1, d1 = _parse_ratio(rat) if rat is not None else (0, 1)
    if coef is None:
        return _raw(n1, 0, d1, None)
    n2, d2 = _parse_ratio(coef)
    if sgn == "-":
        n2 = -n2
    return _raw(*_normal(n1, d1, n2, d2, int(rad)))


def format_scalar(x: "QField | Rational") -> str:
    """Canonical text form; inverse of parse_scalar on its output."""
    return _text(*qf(x)._v)


def _text(A: int, B: int, D: int, d: int | None, num: Callable[[int], str] = str) -> str:
    """The canonical text of ``(A + B*sqrt(d)) / D`` for integers with
    ``D > 0``: each fraction is put in lowest terms, so the row need not be
    reduced.  The integers are printed by ``num``; when one is past the
    interpreter's limit on int-to-str conversion the text is printed again
    by ``_digits``, through the same template and sign rule (``_digits`` on
    every integer would cost a Python call each on the common path)."""
    g, h = gcd(A, D), gcd(B, D)
    try:
        tail = f"{'+' if B > 0 else '-'}{num(abs(B) // h)}/{num(D // h)}*sqrt({d})" if B else ""
        return f"{num(A // g)}/{num(D // g)}{tail}"
    except ValueError:
        return _text(A, B, D, d, _digits)


def _digits(n: int) -> str:
    """The decimal text of any integer: ``str`` up to the interpreter's limit
    on int-to-str conversion (``sys.get_int_max_str_digits``), ``Decimal``
    past it, which converts from the binary digits and has no limit."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(n))


ZERO = QField(0)
ONE = QField(1)


__all__ = ["QField", "qf", "sign", "is_rational", "floor", "parse_scalar", "format_scalar"]
