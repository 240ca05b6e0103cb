"""Exact Q(sqrt5) arithmetic."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import goldenslant.exactlin as xl
from goldenslant.quadrat import (
    ONE_MINUS_PSI,
    PSI,
    QuadRat,
    SQRT5,
    fast_sum_holds,
    from_integers,
    parse_quadrat,
    rounded,
)

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
        # A coefficient of sqrt5 is never split into a rational part and a shorter one.
        ("12*sqrt5", QuadRat(0, 12)),
        ("-10*sqrt5", QuadRat(0, -10)),
        ("0.5*sqrt5", QuadRat(0, Fraction(1, 2))),
        ("91/9*sqrt5", QuadRat(0, Fraction(91, 9))),
        ("1 - 3/4*sqrt5", QuadRat(1, Fraction(-3, 4))),
    ],
)
def test_parse_quadrat(text, expected):
    assert parse_quadrat(text) == expected


@pytest.mark.parametrize("bad", ["", "psi", "sqrt2", "1+", "x*sqrt5", "1..2", "2sqrt5"])
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
@example((Fraction(9, 4), Fraction(-1)))  # 9/4 - sqrt5 cancels 8.3 bits
@example((Fraction(-(10**308)), Fraction(10**308)))  # 10^308 sqrt5 alone is past the range
@example((Fraction(0), Fraction(-1, 10)))  # a multiple of sqrt5 is rounded once
def test_float_is_the_fraction_formula_unless_it_cancels(x):
    a, b = float(x[0]), float(x[1]) * math.sqrt(5.0)
    got = float(QuadRat(*x))
    if fast_sum_holds(a + b, a, b):
        assert got.hex() == (a + b).hex()
    else:  # within an ulp of a 200-digit value
        with localcontext(prec=200):
            exact = float(Decimal(x[0].numerator) / x[0].denominator
                          + Decimal(x[1].numerator) / x[1].denominator * Decimal(5).sqrt())
        assert abs(got - exact) <= math.ulp(exact)


@given(_fractions.filter(bool))
@example(Fraction(-1, 10))  # A for (c_p, c_q) = (1, -1): (q/d) * sqrt5 reads -0.223606797749979
@example(Fraction(2, 5))
def test_a_multiple_of_sqrt5_is_correctly_rounded_in_both_views(b):
    with localcontext(prec=200):
        exact = float(Decimal(b.numerator) / b.denominator * Decimal(5).sqrt())
    x = QuadRat(0, b)
    assert float(x) == exact
    view = np.asarray(xl.qmatrix([[x, QuadRat(1)], [QuadRat(b), -x]]), dtype=float)
    assert view.tolist() == [[exact, 1.0], [float(b), -exact]]


def test_the_report_coefficients_of_a_multiple_of_sqrt5():
    assert float(-SQRT5 / 10) == -0.22360679774997896
    assert float(SQRT5 * 2 / 5) == 0.8944271909999159


def _fraction_text(x):
    """The text of ``x`` from its Fraction parts ``a`` and ``b``."""
    a, b = x.a, x.b
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}*sqrt5"
    return f"{a}{'+' if b > 0 else '-'}{abs(b)}*sqrt5"


_text_ints = st.just(0) | st.integers(-50, 50) | st.integers(-2**200, 2**200)


@given(_text_ints, _text_ints, st.integers(1, 50) | st.integers(1, 2**200))
@example(0, 0, 7)
@example(-3, 0, 6)
@example(0, -4, 6)
@example(2**199, -(2**199), 2**200)
def test_text_is_the_fraction_text_and_parses_back(p, q, d):
    x = from_integers(p, q, d)
    assert str(x) == _fraction_text(x)
    assert parse_quadrat(str(x)) == x


def test_float_of_a_near_cancelling_value_is_within_a_few_ulps():
    # p + q*sqrt5 small against its two terms: the float sum cancels up to about 22 bits.
    rng = random.Random(2718)
    draws = []
    for _ in range(20000):
        q = rng.randrange(1, 10**6) * rng.choice((-1, 1))
        p = -round(q * math.sqrt(5.0)) + rng.randrange(-3000, 3001)
        draws.append((p, q, rng.randrange(1, 1000)))
    draws.append((-256130, 113638, 1))  # 115 ulps off under an 8-bit threshold
    for p, q, d in draws:
        exact = rounded(p, q, d)
        got = float(QuadRat(Fraction(p, d), Fraction(q, d)))
        assert abs(got - exact) <= 4 * math.ulp(exact), (p, q, d)


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
    kernel, _ = xl.kernel_basis(_quad(a))
    basis = [[_pair(x) for x in v] for v in kernel]
    cols = len(a[0])
    assert len(basis) == cols - _prank(a)
    zero = (Fraction(0), Fraction(0))
    for v in basis:
        assert _pmatmul(a, [[x] for x in v]) == [[zero] for _ in a]
    if basis:
        assert _prank(basis) == len(basis)


# ---------------------------------------------------------------------------
# QMatrix, the integer-array form, against a per-entry QuadRat oracle.  Wide
# numerators reach past 2^64 and mixed denominators force common ones.

_wide = st.integers(-3, 3) | st.integers(-(2**70), 2**70)
_entry = st.builds(lambda p, q, d: QuadRat(Fraction(p, d), Fraction(q, d)), _wide, _wide,
                   st.integers(1, 12) | st.integers(1, 2**66))
_scalar = st.one_of(st.integers(-5, 5), st.integers(2**64, 2**66),
                    st.fractions(min_value=-4, max_value=4, max_denominator=9), _entry)


def _rows(shape):
    return st.lists(st.lists(_entry, min_size=shape[1], max_size=shape[1]),
                    min_size=shape[0], max_size=shape[0])


_shapes = st.tuples(st.integers(1, 4), st.integers(1, 4))


def _values(m) -> list:
    """The entries of an exact matrix (or vector) as nested lists of QuadRat."""
    return np.asarray(m).tolist()


def _canonical(m) -> bool:
    """Lowest terms: ``d > 0`` and no common factor of ``d`` and all the numerators."""
    return m.d > 0 and math.gcd(m.d, *m.p.flat, *m.q.flat) == 1


def _entrywise(f, *mats):
    return [[f(*xs) for xs in zip(*rows)] for rows in zip(*mats)]


@settings(max_examples=60, deadline=None)
@given(_shapes.flatmap(lambda s: st.tuples(_rows(s), _rows(s))), _scalar)
def test_qmatrix_operators_match_the_entry_oracle(pair, c):
    a, b = pair
    qa, qb = xl.qmatrix(a), xl.qmatrix(b)
    cases = {
        "add": (qa + qb, _entrywise(lambda x, y: x + y, a, b)),
        "sub": (qa - qb, _entrywise(lambda x, y: x - y, a, b)),
        "mul": (qa * qb, _entrywise(lambda x, y: x * y, a, b)),
        "neg": (-qa, _entrywise(lambda x: -x, a)),
        "add scalar": (qa + c, _entrywise(lambda x: x + c, a)),
        "scalar add": (c + qa, _entrywise(lambda x: c + x, a)),
        "sub scalar": (qa - c, _entrywise(lambda x: x - c, a)),
        "scalar sub": (c - qa, _entrywise(lambda x: c - x, a)),
        "mul scalar": (qa * c, _entrywise(lambda x: x * c, a)),
        "scalar mul": (c * qa, _entrywise(lambda x: c * x, a)),
        "transpose": (qa.T, [list(col) for col in zip(*a)]),
        "mT": (qa.mT, [list(col) for col in zip(*a)]),
        "slice": (qa[::-1, :1], [row[:1] for row in a[::-1]]),
        "concatenate": (xl.concatenate([qa, qb], axis=1), [x + y for x, y in zip(a, b)]),
    }
    if c:
        cases["div scalar"] = (qa / c, _entrywise(lambda x: x / c, a))
    for name, (got, want) in cases.items():
        assert isinstance(got, xl.QMatrix) and _canonical(got), name
        assert _values(got) == want, name
    assert qa[0, 0] == a[0][0] and isinstance(qa[0, 0], QuadRat)
    assert (qa + qb) - qb == qa and not (qa == qa + 1)


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda s: st.tuples(_rows(s[:2]), _rows(s[1:]))))
def test_qmatrix_matmul_matches_the_entry_oracle(pair):
    a, b = pair
    got = xl.qmatrix(a) @ xl.qmatrix(b)
    want = [[sum((x * y for x, y in zip(row, col)), QuadRat(0)) for col in zip(*b)]
            for row in a]
    assert _canonical(got) and _values(got) == want


@settings(max_examples=60, deadline=None)
@given(_shapes.flatmap(_rows))
def test_float_view_has_the_bits_of_each_entry(a):
    view = np.asarray(xl.qmatrix(a), dtype=float)
    assert [[x.hex() for x in row] for row in view.tolist()] == [
        [float(x).hex() for x in row] for row in a]


# Lucas over Fibonacci numbers approach sqrt5, so L_k - F_k sqrt5 nearly cancels.
_fib = [0, 1]
_lucas = [2, 1]
while len(_fib) < 80:
    _fib.append(_fib[-1] + _fib[-2])
    _lucas.append(_lucas[-1] + _lucas[-2])
_near_zero = st.builds(lambda k, s, d: QuadRat(Fraction(s * _lucas[k], d), Fraction(-s * _fib[k], d)),
                       st.integers(40, 79), st.sampled_from([1, -1]), st.integers(1, 9))


@settings(max_examples=80, deadline=None)
@given(st.lists(_entry | _near_zero | st.just(QuadRat(0)), min_size=1, max_size=9))
def test_exact_amax_matches_the_entry_oracle(values):
    from goldenslant.structures import _amax
    m = xl.qmatrix([values])
    got = _amax(m)
    assert isinstance(got, QuadRat) and got == max(abs(x) for x in values)
    assert (not got) == all(not x for x in values)


def test_exact_amax_of_near_cancelling_values():
    from goldenslant.structures import _amax
    tiny = [QuadRat(_lucas[k], -_fib[k]) for k in (60, 61, 62)]  # |.| = psi^-k, alternating signs
    assert [x.sign() for x in tiny] == [1, -1, 1]
    assert _amax(xl.qmatrix([tiny])) == abs(tiny[0])
    assert _amax(xl.qmatrix([[QuadRat(0)] * 3] * 2)) == 0


def _rank_deficient(draw, rows, cols, rank):
    """A rows x cols matrix of rank <= rank, a product of small Q(sqrt5) factors."""
    if rank == 0:
        return [[QuadRat(0)] * cols for _ in range(rows)]
    small = st.builds(lambda p, q: QuadRat(Fraction(p, 2), q), st.integers(-3, 3), st.integers(-1, 1))
    left = draw(st.lists(st.lists(small, min_size=rank, max_size=rank), min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(small, min_size=cols, max_size=cols), min_size=rank, max_size=rank))
    return [[sum((x * y for x, y in zip(row, col)), QuadRat(0)) for col in zip(*right)]
            for row in left]


@st.composite
def _eliminations(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rank = draw(st.integers(0, min(rows, cols)))
    a = _rank_deficient(draw, rows, cols, rank)
    if draw(st.booleans()) and rows > 1:  # a zero leading entry forces a row swap
        a[0] = [QuadRat(0)] + a[0][1:]
    return a


@settings(max_examples=80, deadline=None)
@given(_eliminations())
def test_kernel_basis_on_rank_deficient_matrices(a):
    cols = len(a[0])
    rank = _prank([[_pair(x) for x in row] for row in a])
    kernel, free = xl.kernel_basis(a)
    assert len(kernel) == cols - rank and _canonical(kernel)
    assert kernel[:, free] == xl.eye(len(free))
    if len(kernel):
        assert not any(x for row in _values(xl.qmatrix(a) @ kernel.T) for x in row)
        assert _prank([[_pair(x) for x in v] for v in _values(kernel)]) == len(kernel)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.data())))
def test_solve_with_row_swaps_and_singular_systems(args):
    n, data = args
    a = _rank_deficient(data.draw, n, n, data.draw(st.integers(n - 1, n)))
    k = data.draw(st.integers(1, 3))
    b = data.draw(st.lists(st.lists(_entry, min_size=k, max_size=k), min_size=n, max_size=n))
    if n > 1 and data.draw(st.booleans()):
        a = [[QuadRat(0)] + a[0][1:]] + a[1:]  # a zero pivot position needs a swap
    if _prank([[_pair(x) for x in row] for row in a]) < n:
        with pytest.raises(ZeroDivisionError):
            xl.solve(a, b)
        return
    x = xl.solve(a, b)
    assert _canonical(x) and _values(xl.qmatrix(a) @ x) == b


def _ldl_product(factor) -> xl.QMatrix:
    """``L D L^T`` from the ``L^T`` and ``D^-1 L^-1`` of :func:`xl.ldl`, after checking
    their shapes: L^T is unit upper triangular and ``(D^-1 L^-1) L`` is diagonal."""
    lt, lower_inv = factor
    n = len(lt)
    assert all(lt[i, j] == (i == j) for i in range(n) for j in range(i + 1))
    d_inv = list((lower_inv @ lt.T).diagonal())
    assert lower_inv @ lt.T == xl.qmatrix(np.diag(d_inv))
    return lt.T @ xl.qmatrix(np.diag([1 / x for x in d_inv])) @ lt


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    _rows((n, n)), st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))))
def test_ldl_factors_exactly_the_positive_definite_matrices(args):
    b, signs = args
    a = xl.qmatrix(b) @ xl.qmatrix(np.diag(signs)) @ xl.qmatrix(b).T
    # Sylvester's law of inertia: a is positive definite iff b is invertible and all signs are +1.
    positive = min(signs) == 1 and _prank([[_pair(x) for x in row] for row in b]) == len(b)
    factor = xl.ldl(a)
    assert (factor is not None) == positive
    if positive:
        assert _ldl_product(factor) == a and all(map(_canonical, factor))


def test_entries_beyond_64_bits_survive_elimination():
    big = QuadRat(Fraction(2**100 + 1, 3**50), Fraction(-(2**90), 7**40))
    a = xl.qmatrix([[big, 1], [2**70, big * big]])
    x = xl.solve(a, xl.eye(2))
    assert a @ x == xl.eye(2) and x @ a == xl.eye(2)
    assert _ldl_product(xl.ldl(a @ a.T)) == a @ a.T
    assert xl.ldl(-(a @ a.T)) is None


def test_floats_never_enter_an_exact_matrix():
    a = xl.qmatrix([[1, 2], [3, 4]])
    for bad in (lambda: a * 0.5, lambda: 0.5 * a, lambda: a + np.ones((2, 2)),
                lambda: np.ones((2, 2)) @ a, lambda: xl.qmatrix([[0.5]]), lambda: PSI + 0.5):
        with pytest.raises(TypeError):
            bad()
