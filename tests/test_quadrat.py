"""Exact Q(sqrt5) arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import goldenslant.exactlin as xl
from goldenslant.quadrat import ONE_MINUS_PSI, PSI, QuadRat, SQRT5, parse_quadrat

_small_fractions = st.fractions(min_value=-100, max_value=100, max_denominator=50)
_quadrats = st.builds(QuadRat, _small_fractions, _small_fractions)


def test_psi_satisfies_its_minimal_polynomial():
    assert PSI * PSI == PSI + 1
    assert ONE_MINUS_PSI * ONE_MINUS_PSI == ONE_MINUS_PSI + 1
    assert PSI + ONE_MINUS_PSI == QuadRat(1)
    assert PSI * ONE_MINUS_PSI == QuadRat(-1)
    assert 2 * PSI - 1 == SQRT5
    assert SQRT5 * SQRT5 == QuadRat(5)


def test_multiplication_rule_is_the_ring_rule():
    x = QuadRat(Fraction(2, 3), Fraction(-1, 4))
    y = QuadRat(Fraction(5, 7), Fraction(3, 2))
    z = x * y
    assert z.a == Fraction(2, 3) * Fraction(5, 7) + 5 * Fraction(-1, 4) * Fraction(3, 2)
    assert z.b == Fraction(2, 3) * Fraction(3, 2) + Fraction(-1, 4) * Fraction(5, 7)


@given(_quadrats, _quadrats, _quadrats)
def test_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x * y == y * x
    assert x + (y + z) == (x + y) + z
    assert x - x == QuadRat(0)


@given(_quadrats)
def test_division_inverts_multiplication(x):
    y = QuadRat(Fraction(3, 7), Fraction(-2, 9))
    assert (x * y) / y == x


@given(_quadrats, _quadrats)
def test_float_conversion_is_monotone(x, y):
    if x < y:
        assert float(x) <= float(y)
    assert (x == y) == (float(x - y) == 0.0)


@given(_quadrats)
def test_sign_matches_float(x):
    fx = float(x)
    if fx > 1e-9:
        assert x.sign() == 1
    elif fx < -1e-9:
        assert x.sign() == -1


def test_sign_handles_cancellation_exactly():
    # 161803/100000 is just below psi = 1.6180339887...
    low = QuadRat(Fraction(161803, 100000))
    assert (PSI - low).sign() == 1
    high = QuadRat(Fraction(161804, 100000))
    assert (PSI - high).sign() == -1
    assert (PSI - PSI).sign() == 0
    assert abs(ONE_MINUS_PSI) == PSI - 1


def test_powers_and_negative_powers():
    assert PSI**2 == PSI + 1
    assert PSI**3 == 2 * PSI + 1
    assert PSI**0 == QuadRat(1)
    assert PSI**-1 == PSI - 1  # 1/psi = psi - 1
    with pytest.raises(ZeroDivisionError):
        QuadRat(0).inverse()


def test_ordering_is_total_on_distinct_values():
    values = [QuadRat(0), ONE_MINUS_PSI, QuadRat(1), PSI, SQRT5]
    assert sorted(values, key=float) == sorted(values)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1/2+1/2*sqrt5", PSI),
        ("1/2-1/2*sqrt5", ONE_MINUS_PSI),
        ("0.5+0.5*sqrt5", PSI),
        ("-3", QuadRat(-3)),
        ("2", QuadRat(2)),
        ("sqrt5", SQRT5),
        ("-2*sqrt5", QuadRat(0, -2)),
        ("2-sqrt5", QuadRat(2, -1)),
        ("0.25", QuadRat(Fraction(1, 4))),
    ],
)
def test_parse_quadrat(text, expected):
    assert parse_quadrat(text) == expected


@pytest.mark.parametrize("bad", ["", "psi", "sqrt2", "1+", "x*sqrt5", "1..2"])
def test_parse_quadrat_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_quadrat(bad)


def test_float_value_of_psi():
    assert math.isclose(float(PSI), (1 + math.sqrt(5)) / 2, rel_tol=0, abs_tol=1e-15)


# ---------------------------------------------------------------------------
# QuadRat against a plain (Fraction, Fraction) oracle: (a, b) means a + b*sqrt5

_huge = st.integers(min_value=2**64, max_value=2**200)
_huge_fractions = st.builds(lambda n, d, neg: Fraction(-n if neg else n, d),
                            _huge, _huge, st.booleans())
_fractions = st.one_of(_small_fractions, _huge_fractions)
_pairs = st.tuples(_fractions, _fractions)


def _pair(x):
    return (x.a, x.b)


def _padd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _psub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _pmul(x, y):
    return (x[0] * y[0] + 5 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _pinv(x):
    norm = x[0] * x[0] - 5 * x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def _psign(x):
    a, b = x
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    diff = a * a - 5 * b * b
    return sa * ((diff > 0) - (diff < 0))


@given(_pairs, _pairs)
def test_ring_operations_match_the_pair_oracle(x, y):
    qx, qy = QuadRat(*x), QuadRat(*y)
    assert _pair(qx + qy) == _padd(x, y)
    assert _pair(qx - qy) == _psub(x, y)
    assert _pair(qx * qy) == _pmul(x, y)
    assert _pair(-qx) == (-x[0], -x[1])
    assert _pair(qx + y[0]) == _padd(x, (y[0], 0))
    assert _pair(y[0] - qx) == _psub((y[0], 0), x)
    assert _pair(y[0] * qx) == _pmul((y[0], 0), x)
    if qy:
        assert _pair(qy.inverse()) == _pinv(y)
        assert _pair(qx / qy) == _pmul(x, _pinv(y))
    if qx:
        assert _pair(y[0] / qx) == _pmul((y[0], 0), _pinv(x))


@given(_pairs, _pairs)
def test_sign_and_ordering_match_the_pair_oracle(x, y):
    qx, qy = QuadRat(*x), QuadRat(*y)
    assert qx.sign() == _psign(x)
    diff = _psign(_psub(x, y))
    assert (qx < qy) == (diff < 0)
    assert (qx <= qy) == (diff <= 0)
    assert (qx > qy) == (diff > 0)
    assert (qx >= qy) == (diff >= 0)
    assert (qx == qy) == (diff == 0)
    assert (qx < y[0]) == (_psign(_psub(x, (y[0], 0))) < 0)


@given(_pairs, _pairs)
def test_equal_values_built_differently_are_equal_and_hash_equal(x, y):
    qx, qy = QuadRat(*x), QuadRat(*y)
    for other in ((qx + qy) - qy, qx * QuadRat(7) / 7, -(-qx),
                  QuadRat(x[0]) + QuadRat(0, x[1])):
        assert other == qx
        assert hash(other) == hash(qx)
        assert _pair(other) == x
    if qy:
        assert (qx * qy) / qy == qx
        assert hash((qx * qy) / qy) == hash(qx)


def test_canonical_form_of_unreduced_inputs():
    assert QuadRat(Fraction(2, 4)) == QuadRat(Fraction(1, 2))
    assert hash(QuadRat(Fraction(2, 4))) == hash(QuadRat(Fraction(1, 2)))
    assert QuadRat(Fraction(6, 4), Fraction(-3, 9)) == QuadRat("3/2", "-1/3")
    assert QuadRat(0) == QuadRat(Fraction(0, 5), 0) == 0
    assert hash(PSI + ONE_MINUS_PSI - 1) == hash(QuadRat(0))
    assert QuadRat(Fraction(1, 2)) == Fraction(1, 2)
    assert QuadRat(3) == 3


@given(_pairs)
def test_float_matches_the_fraction_formula_bit_for_bit(x):
    expected = float(x[0]) + float(x[1]) * math.sqrt(5.0)
    assert float(QuadRat(*x)).hex() == expected.hex()


def test_numerators_beyond_64_bits_stay_exact():
    big = QuadRat(Fraction(2**100 + 1, 3**50), Fraction(-(2**90), 7**40))
    assert big - big == QuadRat(0)
    assert big * big.inverse() == QuadRat(1)
    assert (big + 2**70) - big == 2**70
    tiny = QuadRat(Fraction(1, 2**80), Fraction(1, 2**80))
    assert tiny.sign() == 1 and (tiny - tiny).sign() == 0


# ---------------------------------------------------------------------------
# exactlin against the same oracle; small entries keep the generated
# matrices cheap and make singular ones common

def _pmatmul(a, b):
    out = []
    for row in a:
        out.append([])
        for col in zip(*b):
            total = (Fraction(0), Fraction(0))
            for x, y in zip(row, col):
                total = _padd(total, _pmul(x, y))
            out[-1].append(total)
    return out


def _prank(a):
    """Rank by Gaussian elimination on pairs."""
    m = [list(row) for row in a]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if _psign(m[i][c])), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = _pinv(m[rank][c])
        for i in range(len(m)):
            if i != rank and _psign(m[i][c]):
                f = _pmul(m[i][c], inv)
                m[i] = [_psub(x, _pmul(f, y)) for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


_entries = st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                     st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1, 2)]))


def _pmatrices(rows, cols):
    return st.lists(st.lists(_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def _quad(a):
    return [[QuadRat(*x) for x in row] for row in a]


@st.composite
def _matmul_operands(draw):
    n, k, m = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(_pmatrices(n, k)), draw(_pmatrices(k, m))


@settings(max_examples=50, deadline=None)
@given(_matmul_operands())
def test_exactlin_matmul_matches_the_pair_oracle(operands):
    a, b = operands
    got = xl.matmul(_quad(a), _quad(b))
    assert [[_pair(x) for x in row] for row in got] == _pmatmul(a, b)
    got = xl.qmatrix(_quad(a)) @ xl.qmatrix(_quad(b))
    assert isinstance(got, xl.QMatrix)
    assert [[_pair(x) for x in row] for row in got] == _pmatmul(a, b)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(_pmatrices(n, n), _pmatrices(n, 2))))
def test_exactlin_solve_matches_the_pair_oracle(operands):
    a, b = operands
    if _prank(a) < len(a):
        with pytest.raises(ZeroDivisionError):
            xl.solve(_quad(a), _quad(b))
        return
    x = xl.solve(_quad(a), _quad(b))
    assert _pmatmul(a, [[_pair(v) for v in row] for row in x]) == [
        [(Fraction(p), Fraction(q)) for p, q in row] for row in b]


@settings(max_examples=50, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 5)).flatmap(lambda s: _pmatrices(*s)))
def test_exactlin_kernel_basis_matches_the_pair_oracle(a):
    basis = [[_pair(x) for x in v] for v in xl.kernel_basis(_quad(a))]
    cols = len(a[0])
    assert len(basis) == cols - _prank(a)
    zero = (Fraction(0), Fraction(0))
    for v in basis:
        assert _pmatmul(a, [[x] for x in v]) == [[zero] for _ in a]
    if basis:
        assert _prank(basis) == len(basis)
