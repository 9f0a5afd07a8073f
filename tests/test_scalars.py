"""Exact scalar arithmetic, ordering, floors, and the text grammar.

mpmath at 60 digits serves as the independent sign and floor oracle for
values mixing a rational and a sqrt term.
"""

import copy
import enum
import math
import operator
import pickle
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from atfkit.scalars import (
    DIGIT_BOUND,
    ONE,
    ZERO,
    QField,
    _check_digits,
    _digits,
    _operand,
    _over,
    _reduced,
    floor,
    format_scalar,
    is_rational,
    parse_scalar,
    qf,
    sign,
)

mpmath.mp.dps = 60


def random_value(rng: random.Random, d: int | None = 2) -> QField:
    a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    if d is None:
        return QField(a)
    b = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    return QField(a, b, d)


def to_mp(x: QField) -> mpmath.mpf:
    out = mpmath.mpf(x.a.numerator) / x.a.denominator
    if x.b != 0:
        out += mpmath.mpf(x.b.numerator) / x.b.denominator * mpmath.sqrt(x.d)
    return out


# -- construction and normal form -------------------------------------------


def test_zero_sqrt_coefficient_drops_radicand():
    v = QField(Fraction(3, 4), 0, 2)
    assert v.d is None
    assert v.is_rational()
    assert v.as_fraction() == Fraction(3, 4)


def test_radicand_validation():
    with pytest.raises(ValueError):
        QField(0, 1, 4)  # square
    with pytest.raises(ValueError):
        QField(0, 1, 12)  # divisible by a square
    with pytest.raises(ValueError):
        QField(0, 1, 1)
    with pytest.raises(ValueError):
        QField(0, 1, None)  # irrational part without a radicand
    with pytest.raises(ValueError):
        QField(0, 1, Fraction(5))  # not an int
    with pytest.raises(ValueError, match=r"2\*\*32"):
        QField(0, 1, 2**32 + 15)  # square-free, but above the radicand cap
    # odd squares and their multiples: _is_squarefree stepping p by 2 from 2
    # (even trial divisors only) or by 3 from 3 (skipping 5 and 7) would
    # accept 9, 25 or 49, and a bound of p*p < n would accept 9 and 25
    for d in (9, 25, 49, 50, 75, 98):
        with pytest.raises(ValueError, match=f"radicand must be square-free, got {d}"):
            QField(0, 1, d)
    for d in (15, 21, 35, 105):
        assert QField(0, 1, d).d == d


def test_values_are_immutable():
    v = qf("1/2")
    with pytest.raises(AttributeError):
        v._a = Fraction(1)
    v.__init__(7)  # re-running the initialiser must not rewrite the value
    assert v == qf("1/2")


def test_normal_form_accessors():
    v = QField(Fraction(-3, 4), Fraction(5, 6), 7)
    assert (v.p, v.q, v.r, v.s, v.d) == (-3, 4, 5, 6, 7)
    assert not v.is_rational()
    with pytest.raises(ValueError):
        v.as_fraction()


def test_sqrt_constructor():
    root = QField.sqrt(5)
    assert root * root == 5
    assert not root.is_rational()


def test_qf_coercions():
    assert qf(3) == QField(3)
    assert qf(Fraction(2, 6)) == QField(Fraction(1, 3))
    assert qf("5/8") == QField(Fraction(5, 8))
    existing = QField(1, 1, 2)
    assert qf(existing) is existing


@pytest.mark.parametrize("value", [0.1, 1.0, True, None, [1, 2], "0.5"])
def test_inexact_inputs_rejected(value):
    # a float would be silently rounded (qf(0.1) was 3602879701896397/2**55)
    with pytest.raises(ValueError):
        qf(value)
    message = re.escape(f"expected an exact int or Fraction, got {value!r}")
    with pytest.raises(ValueError, match=message):
        QField(value)
    with pytest.raises(ValueError, match=message):
        QField(1, value, 2)


@pytest.mark.parametrize(
    "value", [qf(1), qf("1/2+1/3*sqrt(2)")], ids=["rational-qfield", "irrational-qfield"]
)
def test_constructor_refuses_a_qfield(value):
    # the constructor reads a and b as the operators read an operand, but a
    # QField is no exact int or Fraction to it
    message = re.escape(f"expected an exact int or Fraction, got {value!r}")
    with pytest.raises(ValueError, match=message):
        QField(value)
    with pytest.raises(ValueError, match=message):
        QField(1, value, 2)


def test_constructor_reads_int_subclasses_as_ints():
    x = QField(Small.THREE, Fraction(-2, 4), 2)
    assert x._v == (6, -1, 2, 2) and all(type(k) is int for k in x._v)
    assert QField(Small.THREE)._v == (3, 0, 1, None) and type(QField(Small.THREE)._v[0]) is int


def test_operand_reads_a_qfield_subclass():
    class Sub(QField):
        pass

    x = Sub(1, 2, 3)
    assert type(x) is Sub and _operand(x) is x._v
    assert qf(x) is x
    assert qf(1) + x == QField(2, 2, 3) and x * 2 == QField(2, 4, 3)


def test_module_sign_and_is_rational_coerce_their_argument():
    assert [sign(x) for x in (-3, 0, Fraction(1, 2), qf("1/1-1/1*sqrt(2)"))] == [-1, 0, 1, -1]
    assert is_rational(3) and is_rational(Fraction(1, 3))
    assert not is_rational(QField.sqrt(2)) and is_rational(QField.sqrt(2) * QField.sqrt(2))
    with pytest.raises(ValueError):
        sign(0.5)


@pytest.mark.parametrize("text", ["-7/3", "0/1", "1/2-1/3*sqrt(7)", "5/1+1/9*sqrt(4294967291)"])
def test_copy_and_pickle_round_trip(text):
    x = parse_scalar(text)
    for again in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(again) is QField
        assert again == x and hash(again) == hash(x)
        assert format_scalar(again) == text


# -- field arithmetic --------------------------------------------------------


def test_field_axioms_randomized():
    rng = random.Random(101)
    for _ in range(80):
        d = rng.choice([2, 3, 5, None])
        x, y, z = (random_value(rng, d) for _ in range(3))
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + ZERO == x
        assert x * ONE == x
        assert x - x == ZERO
        if bool(y):
            assert (x / y) * y == x
            assert y / y == ONE


def test_arithmetic_matches_mpmath():
    rng = random.Random(102)
    for _ in range(60):
        d = rng.choice([2, 3, 5])
        x, y = random_value(rng, d), random_value(rng, d)
        for got, expect in [
            (x + y, to_mp(x) + to_mp(y)),
            (x - y, to_mp(x) - to_mp(y)),
            (x * y, to_mp(x) * to_mp(y)),
        ]:
            assert abs(to_mp(got) - expect) < mpmath.mpf(10) ** -40


def test_conjugate_norm_is_rational():
    rng = random.Random(103)
    for _ in range(40):
        x = random_value(rng, rng.choice([2, 3, 7]))
        norm = x * x.conjugate()
        assert norm.is_rational()
        trace = x + x.conjugate()
        assert trace.is_rational()
    assert qf("1/2").conjugate() == qf("1/2")


def test_frozen_products():
    root2 = QField.sqrt(2)
    assert (1 + root2) * (1 - root2) == -1
    assert str(1 / (1 + root2)) == "-1/1+1/1*sqrt(2)"
    assert (root2 / 2) * (root2 / 2) == qf("1/2")


def test_mixed_radicands_rejected():
    with pytest.raises(ValueError):
        QField.sqrt(2) + QField.sqrt(3)
    with pytest.raises(ValueError):
        QField.sqrt(2) * QField.sqrt(3)
    x, y = QField(1, 2, 3), QField(Fraction(1, 2), -1, 5)
    for op in (
        lambda: x - y,
        lambda: x / y,
        lambda: x < y,
        lambda: x >= y,
    ):
        with pytest.raises(ValueError):
            op()
    assert x != y
    # a rational value mixes with anything
    assert qf(2) + QField.sqrt(3) == QField(2, 1, 3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        QField.sqrt(2) / QField(0)
    for zero in (0, Fraction(0), QField(0, 0, 2)):
        for num in (ONE, QField.sqrt(2)):
            with pytest.raises(ZeroDivisionError):
                num / zero
    for num in (1, Fraction(1, 2)):
        with pytest.raises(ZeroDivisionError):
            num / ZERO


class Small(enum.IntEnum):
    THREE = 3


def test_int_and_fraction_operands():
    v = qf("3/4")
    assert 1 + v == qf("7/4")
    assert 2 * v == qf("3/2")
    assert 1 - v == qf("1/4")
    assert Fraction(1, 2) / v == qf("2/3")
    assert v / 3 == qf("1/4")
    # an int subclass acts as the equal int on every operator, on both sides
    for x in (v, QField(Fraction(-1, 2), 3, 2), qf(3)):
        for op in (
            operator.add, operator.sub, operator.mul, operator.truediv,
            operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne,
        ):
            for left, right in ((op(x, Small.THREE), op(x, 3)), (op(Small.THREE, x), op(3, x))):
                assert type(left) is type(right) and left == right


@pytest.mark.parametrize("other", [True, False, 0.5, 1.0, Decimal("1"), 1 + 0j])
def test_bool_operands_are_refused(other):
    # a bool, a float, a Decimal or a complex is no more a number to the
    # operators than it is to qf, even where its value equals the scalar's
    for x in (qf(1), qf(Fraction(other.real))):
        for op in (
            operator.add, operator.sub, operator.mul, operator.truediv,
            operator.lt, operator.le, operator.gt, operator.ge,
        ):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
        assert not (x == other) and not (other == x) and x != other and other != x


def test_unary_operators():
    x = QField(Fraction(-1, 2), Fraction(2, 3), 2)
    assert -(-x) == x
    assert +x == x
    assert abs(qf(-5)) == 5
    assert abs(x) == x  # -1/2 + (2/3) sqrt 2 > 0
    assert abs(-x) == x
    assert not bool(ZERO)
    assert bool(QField(0, 1, 2))


# -- ordering ----------------------------------------------------------------


def test_sign_matches_mpmath():
    rng = random.Random(104)
    for _ in range(200):
        x = random_value(rng, rng.choice([2, 3, 5, 6, None]))
        mp = to_mp(x)
        expected = 0 if mp == 0 else (1 if mp > 0 else -1)
        assert x.sign() == expected


def test_comparison_chain():
    values = [qf(-2), QField(0, -1, 2), ZERO, qf("1/3"), QField(1, 1, 2), qf(3)]
    for i, lo in enumerate(values):
        for hi in values[i + 1 :]:
            assert lo < hi
            assert hi > lo
            assert lo <= hi
            assert not (lo >= hi)
            assert lo != hi


def test_close_irrational_comparison():
    # 665857/470832 is a continued-fraction convergent just above sqrt(2)
    close = qf(Fraction(665857, 470832))
    assert QField.sqrt(2) < close
    assert (close - QField.sqrt(2)).sign() == 1


def test_hash_consistency():
    assert hash(qf(Fraction(5, 1))) == hash(5)
    assert qf(5) == 5
    seen = {qf("1/2"), qf(Fraction(2, 4)), QField(Fraction(1, 2))}
    assert len(seen) == 1
    assert len({QField(1, 1, 2), QField(1, 1, 3)}) == 2
    # a rational hashes like the equal Fraction, also over a denominator that
    # is the hash modulus or a multiple of it, and -1 like the int -1 (as -2)
    modulus = sys.hash_info.modulus
    for n, den in ((1, modulus), (-3, modulus), (1, 2 * modulus), (7, modulus * modulus), (-1, 1)):
        assert hash(qf(Fraction(n, den))) == hash(Fraction(n, den)), (n, den)
    assert hash(qf(-1)) == hash(-1) == -2
    # an irrational like the tuple (a, b, d) of Fractions
    a, b = Fraction(1, modulus), Fraction(-2, 3 * modulus)
    assert hash(QField(a, b, 2)) == hash((a, b, 2))


# -- floor -------------------------------------------------------------------


@pytest.mark.parametrize(
    "value, expected",
    [
        (qf(Fraction(7, 2)), 3),
        (qf(Fraction(-7, 2)), -4),
        (qf(6), 6),
        (QField.sqrt(2), 1),
        (-QField.sqrt(2), -2),
        (100 * QField.sqrt(2), 141),
        (QField(3, 2, 2), 5),
        (QField(Fraction(1, 2), Fraction(-1, 3), 5), -1),
    ],
)
def test_floor_frozen_cases(value, expected):
    assert floor(value) == expected


def test_floor_bracketing_randomized():
    rng = random.Random(105)
    for _ in range(300):
        x = random_value(rng, rng.choice([2, 3, 5, None]))
        m = floor(x)
        assert (x - m).sign() >= 0
        assert (x - (m + 1)).sign() < 0


def test_floor_matches_mpmath():
    rng = random.Random(106)
    for _ in range(150):
        x = random_value(rng, rng.choice([2, 3, 5]))
        assert floor(x) == int(mpmath.floor(to_mp(x)))


def test_floor_accepts_plain_rationals():
    assert floor(Fraction(9, 4)) == 2
    assert floor(-3) == -3
    assert floor("7/3") == 2


# -- text grammar ------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "0/1",
        "5/6",
        "-3/4",
        "1/2+1/3*sqrt(2)",
        "0/1-1/8*sqrt(2)",
        "-2/1+7/1*sqrt(15)",
        "177/4183-32/4183*sqrt(2)",
    ],
)
def test_canonical_round_trip(text):
    assert format_scalar(parse_scalar(text)) == text


def test_parse_shorthand():
    assert parse_scalar("7") == 7
    assert parse_scalar("-4") == -4
    assert parse_scalar(" 1/2 ") == qf("1/2")
    assert parse_scalar("3/1+1/1*sqrt(2)") == QField(3, 1, 2)
    assert parse_scalar("2*sqrt(3)") == QField(0, 2, 3)
    assert parse_scalar("-1/2*sqrt(5)") == QField(0, Fraction(-1, 2), 5)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "abc",
        "1.5",
        "sqrt(2)",
        "1/2+sqrt(2)",
        "1/2+1/3*sqrt(4)",
        "1//2",
        "1/2 + 1/3*sqrt(2)",
        "1/0",
        "1/2+1/0*sqrt(2)",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


def test_format_round_trip_randomized():
    rng = random.Random(107)
    for _ in range(120):
        x = random_value(rng, rng.choice([2, 3, 5, None]))
        assert parse_scalar(format_scalar(x)) == x


def test_str_and_repr():
    v = QField(Fraction(1, 2), Fraction(-1, 3), 7)
    assert str(v) == "1/2-1/3*sqrt(7)"
    assert repr(v) == "QField('1/2-1/3*sqrt(7)')"
    assert str(ZERO) == "0/1"


def test_str_and_repr_print_integers_past_the_int_to_str_limit():
    # str() of an int stops at sys.get_int_max_str_digits() (4300 by default)
    p = 10**9999 + 7  # 10,000 digits
    digits = "1" + "0" * 9998 + "7"
    v = QField(Fraction(p, 3), Fraction(-p, 11), 2)
    assert str(v) == f"{digits}/3-{digits}/11*sqrt(2)"
    assert repr(v) == f"QField('{digits}/3-{digits}/11*sqrt(2)')"
    assert format_scalar(QField(Fraction(-7, p))) == f"-7/{digits}"
    # the square of the longest integer the grammar takes
    x = parse_scalar("9" * DIGIT_BOUND)
    square = str(x * x)
    assert square.endswith("/1") and int(Decimal(square[:-2])) == (10**DIGIT_BOUND - 1) ** 2


@pytest.mark.parametrize(
    "text",
    [
        "9" * (DIGIT_BOUND + 1),
        "-" + "0" * (DIGIT_BOUND + 1),
        "1/" + "7" * (DIGIT_BOUND + 1),
        "1/2+" + "3" * (DIGIT_BOUND + 1) + "*sqrt(2)",
        "1/2+1/3*sqrt(" + "1" * (DIGIT_BOUND + 1) + ")",
        "1" * (DIGIT_BOUND + 1) + "x",
    ],
    ids=["integer", "zeros", "denominator", "sqrt-coefficient", "radicand", "malformed"],
)
def test_parse_refuses_integers_past_the_digit_bound(text):
    with pytest.raises(ValueError, match=f"integer of more than {DIGIT_BOUND} digits"):
        parse_scalar(text)


def test_parse_takes_integers_up_to_the_digit_bound():
    text = f"-{'9' * DIGIT_BOUND}/1{'0' * (DIGIT_BOUND - 1)}+1/{'9' * DIGIT_BOUND}*sqrt(2)"
    x = parse_scalar(text)
    nine, power = 10**DIGIT_BOUND - 1, 10 ** (DIGIT_BOUND - 1)
    assert x == QField(Fraction(-nine, power), Fraction(1, nine), 2)
    assert format_scalar(x) == text
    with pytest.raises(ValueError, match="malformed"):
        parse_scalar(("1" * DIGIT_BOUND + "x") * 3)


def test_text_signs_the_sqrt_term_past_the_digit_limit():
    # one sign rule for both the str and the _digits printing: a coefficient
    # of 1 or -1 keeps its sign when the rational part is past the limit
    big = 10**4301
    assert format_scalar(QField(big, 1, 2)) == f"1{'0' * 4301}/1+1/1*sqrt(2)"
    assert format_scalar(QField(big, -1, 2)).endswith("/1-1/1*sqrt(2)")
    assert format_scalar(QField(1, 1, 2)) == "1/1+1/1*sqrt(2)"
    assert format_scalar(QField(1, -1, 2)) == "1/1-1/1*sqrt(2)"


def test_digits_prints_integers_of_any_length():
    assert [_digits(n) for n in (0, -7, 10**DIGIT_BOUND - 1)] == ["0", "-7", "9" * DIGIT_BOUND]
    # past the int-to-str limit
    assert _digits(10**DIGIT_BOUND) == "1" + "0" * DIGIT_BOUND
    assert _digits(-(10**9999 + 7)) == "-1" + "0" * 9998 + "7"


def test_check_digits_scans_a_whole_text():
    _check_digits("x" * 10 * DIGIT_BOUND)
    _check_digits(("9" * DIGIT_BOUND + ",") * 3)
    with pytest.raises(ValueError, match=f"integer of more than {DIGIT_BOUND} digits"):
        _check_digits('{"x": "' + "9" * (DIGIT_BOUND + 1) + '/16"}')


def test_float_conversion_is_close():
    x = QField(Fraction(1, 3), Fraction(2, 7), 5)
    assert math.isclose(float(x), 1 / 3 + 2 / 7 * math.sqrt(5))


# -- differential check against a Fraction-pair model ------------------------
#
# The model keeps a + b*sqrt(RADICAND) as a pair of Fractions and uses the
# textbook formulas; it shares no code with the integer kernel.

RADICAND = 7


def model_of(x) -> tuple[Fraction, Fraction]:
    if isinstance(x, QField):
        return x.a, x.b
    return Fraction(x), Fraction(0)


def model_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def model_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def model_mul(x, y):
    return x[0] * y[0] + x[1] * y[1] * RADICAND, x[0] * y[1] + x[1] * y[0]


def model_div(x, y):
    norm = y[0] * y[0] - y[1] * y[1] * RADICAND
    return model_mul(x, (y[0] / norm, -y[1] / norm))


def model_sign(x) -> int:
    a, b = x
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if (b > 0) else -1
    bigger_a = a * a > b * b * RADICAND
    return (1 if a > 0 else -1) if bigger_a else (1 if b > 0 else -1)


def model_floor(x) -> int:
    m = math.floor(float(x[0]) + float(x[1]) * math.sqrt(RADICAND))
    while model_sign(model_sub(x, (Fraction(m), 0))) < 0:
        m -= 1
    while model_sign(model_sub(x, (Fraction(m + 1), 0))) >= 0:
        m += 1
    return m


def assert_matches(got: QField, want: tuple[Fraction, Fraction]) -> None:
    assert type(got) is QField
    assert (got.a, got.b) == want
    assert got.d == (RADICAND if want[1] != 0 else None)
    # equal values must compare equal however they were reached
    assert got == QField(want[0], want[1], RADICAND)


def random_fraction(rng: random.Random) -> Fraction:
    if rng.random() < 0.15:
        return Fraction(0)
    return Fraction(rng.randint(-10**6, 10**6), rng.choice([1, rng.randint(1, 10**4)]))


def random_operand(rng: random.Random):
    """A QField (irrational or rational), an int or a Fraction."""
    kind = rng.randrange(4)
    if kind == 0:
        return QField(random_fraction(rng), random_fraction(rng), RADICAND)
    if kind == 1:
        return QField(random_fraction(rng))
    if kind == 2:
        return rng.choice([0, 1, -1, rng.randint(-10**6, 10**6)])
    return random_fraction(rng)


def test_kernel_agrees_with_fraction_pair_model():
    rng = random.Random(2024)
    ops = [
        (lambda u, v: u + v, model_add),
        (lambda u, v: u - v, model_sub),
        (lambda u, v: u * v, model_mul),
        (lambda u, v: u / v, model_div),
    ]
    for _ in range(2000):
        x = QField(random_fraction(rng), random_fraction(rng), RADICAND)
        # one operand in four equals x, so equality is exercised both ways
        y = QField(x.a, x.b, RADICAND) if rng.random() < 0.25 else random_operand(rng)
        mx, my = model_of(x), model_of(y)
        s = model_sign(model_sub(mx, my))
        for left, right, ml, mr in ((x, y, mx, my), (y, x, my, mx)):
            for op, model in ops:
                if model is model_div and mr == (0, 0):
                    with pytest.raises(ZeroDivisionError):
                        op(left, right)
                else:
                    assert_matches(op(left, right), model(ml, mr))
            assert (left < right, left <= right, left == right) == (s < 0, s <= 0, s == 0)
            assert (left > right, left >= right, left != right) == (s > 0, s >= 0, s != 0)
            s = -s
        assert x.sign() == model_sign(mx)
        assert floor(x) == model_floor(mx)
        assert parse_scalar(format_scalar(x)) == x
        if x.is_rational():
            assert hash(x) == hash(mx[0])


# -- the common-denominator helper ---------------------------------------------


def over_batches():
    """Seeded batches of rationals and of values in one radicand (sqrt(2) or
    sqrt(5)), with negative values, zeros and the denominators 10007 and 10009."""
    rng = random.Random(91)
    dens = [1, 2, 3, 12, 10007, 10009]
    batches = [[qf(0)], [qf("-3/10007"), qf("5/10009"), qf(0)]]
    for k in range(60):
        d = (None, 2, 5)[k % 3]
        batch = []
        for _ in range(rng.randint(1, 6)):
            a = Fraction(rng.randint(-50, 50), rng.choice(dens))
            b = Fraction(rng.randint(-50, 50), rng.choice(dens)) if d else 0
            batch.append(QField(a, b, d if b else None))
        batches.append(batch)
    return batches


def test_over_puts_values_over_their_least_common_denominator():
    batches = over_batches()
    assert any(x.d == 2 for b in batches for x in b) and any(x.d == 5 for b in batches for x in b)
    assert any({10007, 10009} <= {x.q for x in b} | {x.s for x in b} for b in batches)
    for batch in batches:
        D, d, pairs = _over(*batch)
        assert D == math.lcm(*(x.q for x in batch), *(x.s for x in batch))
        assert d == next((x.d for x in batch if x.d), None)
        assert len(pairs) == len(batch)
        for x, (A, B) in zip(batch, pairs):
            assert _reduced(A, B, D, d) == x


def test_over_merges_a_given_radicand_and_refuses_two():
    x, y = qf("-7/3"), QField(Fraction(1, 4), Fraction(-2, 5), 2)
    assert _over(x, d=2) == (3, 2, [(-7, 0)])
    assert _over(x, y, d=2) == (60, 2, [(-140, 0), (15, -24)])
    assert _over(d=7) == (1, 7, []) and _over() == (1, None, [])
    for values, d in (((y, QField.sqrt(3)), None), ((y,), 3), ((x, QField.sqrt(5)), 2)):
        with pytest.raises(ValueError, match="mixed radicands"):
            _over(*values, d=d)
