"""Expression DSL: grammar, parse shapes, jets vs finite differences."""

import math
from fractions import Fraction

import numpy as np
import pytest

from goldenslant.errors import DomainError, ExprSyntaxError, UnknownIdentifier
from goldenslant.expr import (
    MAX_DEPTH,
    MAX_POWER_BITS,
    Bin,
    Call,
    Const,
    Lit,
    Neg,
    Param,
    Pow,
    evaluate,
    evaluate_affine,
    parse,
)
from goldenslant.quadrat import ONE_MINUS_PSI, PSI, QuadRat

PARAMS = ["u1", "u2"]
U1, U2 = Param("u1", 0), Param("u2", 1)


def _jet_at(expr, point):
    """Value, gradient and Hessian of ``expr`` at one point: its jets at a batch of one."""
    jets = expr.eval_jets([point])
    return float(jets.value[0]), jets.grad[0], jets.hess[0]


class TestParsing:
    def test_product_with_function(self):
        e = parse("u1*cos(0.5)", PARAMS)
        assert e.root == Bin("*", Param("u1", 0), Call("cos", Lit(Fraction(1, 2))))

    def test_constant_times_parameter(self):
        e = parse("psi*u1", PARAMS)
        assert e.root == Bin("*", Const("psi"), Param("u1", 0))

    def test_malformed_input_reports_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("u1+*u2", PARAMS)
        assert err.value.offset == 3

    def test_unknown_identifier_reports_name_and_offset(self):
        with pytest.raises(UnknownIdentifier) as err:
            parse("u1+waffle", PARAMS)
        assert err.value.name == "waffle" and err.value.offset == 3

    def test_precedence_unary_minus_tighter_than_product(self):
        e = parse("-u1*u2", PARAMS)
        assert e.root == Bin("*", Neg(Param("u1", 0)), Param("u2", 1))

    def test_precedence_power_tighter_than_unary_minus(self):
        e = parse("-u1^2", PARAMS)
        assert e.root == Neg(Pow(Param("u1", 0), 2))

    def test_power_right_associative_integer_chain(self):
        e = parse("u1^2^3", PARAMS)
        assert e.root == Pow(Param("u1", 0), 8)

    def test_negative_exponent(self):
        assert parse("u1^-2", PARAMS).root == Pow(Param("u1", 0), -2)

    def test_nesting_is_capped_at_max_depth(self):
        # The operand inside 99 parentheses sits at level 100.
        assert parse("(" * (MAX_DEPTH - 1) + "u1" + ")" * (MAX_DEPTH - 1), PARAMS).root \
            == Param("u1", 0)
        for text in ("(" * 2000 + "u1" + ")" * 2000, "-" * 2000 + "u1",
                     "sin(" * 150 + "u1" + ")" * 150, "2^" * 2000 + "1"):
            with pytest.raises(ExprSyntaxError, match="nests deeper than"):
                parse(text, PARAMS)

    def test_long_chains_are_deep_trees(self):
        # u1+u1+...+u1 is a left-leaning tree: evaluation recurses once per term.
        node, adds = parse("+".join(["u1"] * MAX_DEPTH), PARAMS).root, 0
        while isinstance(node, Bin):
            assert node.op == "+" and node.right == U1
            node, adds = node.left, adds + 1
        assert node == U1 and adds == MAX_DEPTH - 1
        with pytest.raises(ExprSyntaxError, match="nests deeper than"):
            parse("+".join(["u1"] * (MAX_DEPTH + 1)), PARAMS)

    def test_exponent_tower_is_bounded_before_it_is_computed(self):
        assert parse("u1^2^63", PARAMS).root == Pow(Param("u1", 0), 2 ** 63)
        assert parse("u1^1^1000", PARAMS).root == Pow(Param("u1", 0), 1)
        for text, offset in [("u1^2^64", 5), ("u1^9^9^9", 5), ("u1^10^100", 6), ("u1^2^-1", 5)]:
            with pytest.raises(ExprSyntaxError, match="exponent tower") as err:
                parse(text, PARAMS)
            assert err.value.offset == offset

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("u1^1.5", PARAMS)

    def test_left_associativity_of_subtraction(self):
        e = parse("u1-u2-1", PARAMS)
        assert e.root == Bin("-", Bin("-", Param("u1", 0), Param("u2", 1)), Lit(Fraction(1)))

    def test_empty_and_trailing_input(self):
        with pytest.raises(ExprSyntaxError):
            parse("  ", PARAMS)
        with pytest.raises(ExprSyntaxError):
            parse("u1 u2", PARAMS)

    def test_duplicate_params_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("u1", ["u1", "u1"])

    def test_function_requires_parentheses(self):
        with pytest.raises(ExprSyntaxError):
            parse("sin+1", PARAMS)

    @pytest.mark.parametrize("text,root", [
        ("-(u1*u2)", Neg(Bin("*", U1, U2))),
        ("u1-(u2+1)", Bin("-", U1, Bin("+", U2, Lit(Fraction(1))))),
        ("(u1+u2)^3", Pow(Bin("+", U1, U2), 3)),
        ("-(-u1)", Neg(Neg(U1))),
        ("2.25*u1*u2/sqrt5",
         Bin("/", Bin("*", Bin("*", Lit(Fraction(9, 4)), U1), U2), Const("sqrt5"))),
    ])
    def test_parentheses_and_literals_parse_to_their_tree(self, text, root):
        assert parse(text, PARAMS).root == root


class TestJetEvaluation:
    def test_square(self):
        value, grad, hess = _jet_at(parse("u1^2", ["u1"]), [3.0])
        assert value == 9.0 and grad[0] == 6.0 and hess[0, 0] == 2.0

    def test_sine_at_zero(self):
        value, grad, hess = _jet_at(parse("sin(u1)", ["u1"]), [0.0])
        assert value == 0.0 and grad[0] == 1.0 and hess[0, 0] == 0.0

    def test_bilinear_with_constant(self):
        value, grad, hess = _jet_at(parse("psi*u1*u2", PARAMS), [1.0, 2.0])
        psi = float(PSI)
        assert math.isclose(value, 2 * psi, abs_tol=1e-14)
        assert np.allclose(grad, [2 * psi, psi], atol=1e-14)
        assert math.isclose(hess[0, 1], psi, abs_tol=1e-14)
        assert hess[0, 0] == 0.0

    def test_division_and_reciprocal_rules(self):
        value, grad, hess = _jet_at(parse("u1/u2", PARAMS), [1.0, 2.0])
        assert math.isclose(value, 0.5)
        assert np.allclose(grad, [0.5, -0.25])
        assert math.isclose(hess[1, 1], 2 * 1.0 / 8.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            _jet_at(parse("sqrt(u1)", ["u1"]), [-1.0])
        with pytest.raises(DomainError):
            _jet_at(parse("1/u1", ["u1"]), [0.0])
        with pytest.raises(DomainError):
            _jet_at(parse("u1^-1", ["u1"]), [0.0])
        with pytest.raises(DomainError):
            _jet_at(parse("u1", ["u1"]), [0.0, 1.0])

    @pytest.mark.parametrize("text,value,grad,hess", [
        ("u1^2/10^-200", 2.5e199, 1e200, 2e200),
        ("u1^2*exp(0)/10^-150", 2.5e149, 1e150, 2e150),
        ("u1^2+sqrt(0)", 0.25, 1.0, 2.0),
    ])
    def test_constant_takes_no_derivative_rule(self, text, value, grad, hess):
        # A constant reads no parameter: the 2/w^3 of a divisor w = 10^-200 overflows and
        # sqrt's 1/(2 sqrt(v)) is infinite at 0, but neither scales a derivative.
        got = _jet_at(parse(text, ["u1"]), [0.5])
        assert got[0] == pytest.approx(value, rel=1e-15)
        assert got[1][0] == pytest.approx(grad, rel=1e-15)
        assert got[2][0, 0] == pytest.approx(hess, rel=1e-15)

    @pytest.mark.parametrize("text,point", [("sqrt(u1)", 0.0), ("u1/0", 0.5),
                                            ("1/(1/0)+u1", 0.5)])
    def test_zero_divisors_and_roots_still_raise(self, text, point):
        # u1^-1 at 0 is in test_domain_errors.
        with pytest.raises(DomainError):
            _jet_at(parse(text, ["u1"]), [point])

    def test_hessian_is_symmetric(self):
        _, _, hess = _jet_at(parse("sin(u1*u2)+u1^3*u2", PARAMS), [0.7, -0.4])
        assert np.array_equal(hess, hess.T)


def _python_value(text, params):
    """Independent float evaluation of DSL text by Python itself (``^`` -> ``**``).

    Python's ``**`` binds tighter than unary minus and is right-associative,
    like the DSL's ``^``.
    """
    code = compile(text.replace("^", "**"), "<expr>", "eval")

    def value(point):
        env = dict(zip(params, (float(x) for x in point)), sin=math.sin, cos=math.cos)
        return eval(code, {"__builtins__": {}}, env)

    return value


def _fd_gradient(f, point, h=1e-5):
    m = len(point)
    grad = np.zeros(m)
    for i in range(m):
        up, dn = list(point), list(point)
        up[i] += h
        dn[i] -= h
        grad[i] = (f(up) - f(dn)) / (2 * h)
    return grad


def _fd_hessian(f, point, h=1e-5):
    m = len(point)
    hess = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            pp, pm, mp, mm = (list(point) for _ in range(4))
            pp[i] += h
            pp[j] += h
            pm[i] += h
            pm[j] -= h
            mp[i] -= h
            mp[j] += h
            mm[i] -= h
            mm[j] -= h
            hess[i, j] = (f(pp) - f(pm) - f(mp) + f(mm)) / (4 * h * h)
    return hess


def _random_expression(rng, params):
    terms = []
    for _ in range(rng.integers(1, 3)):
        c = rng.uniform(-0.8, 0.8)
        kind = rng.integers(0, 4)
        u = params[rng.integers(0, len(params))]
        v = params[rng.integers(0, len(params))]
        if kind == 0:
            terms.append(f"{c:.4f}*{u}^{rng.integers(1, 4)}")
        elif kind == 1:
            terms.append(f"{c:.4f}*sin({u})")
        elif kind == 2:
            terms.append(f"{c:.4f}*cos({u}*{rng.uniform(0.5, 1.5):.4f})")
        else:
            terms.append(f"{c:.4f}*{u}*{v}")
    return "+".join(terms)


def test_jets_match_finite_differences_on_random_expressions():
    rng = np.random.default_rng(0)
    params = ["u1", "u2", "u3"]
    for _ in range(50):
        text = _random_expression(rng, params)
        e, f = parse(text, params), _python_value(text, params)
        point = rng.uniform(-1, 1, 3)
        value, grad, hess = _jet_at(e, point)
        grad_scale = max(1.0, float(np.abs(grad).max()))
        hess_scale = max(1.0, float(np.abs(hess).max()))
        assert np.abs(grad - _fd_gradient(f, point)).max() <= 1e-6 * grad_scale
        assert np.abs(hess - _fd_hessian(f, point)).max() <= 1e-6 * hess_scale
        assert math.isclose(value, f(point), rel_tol=1e-12, abs_tol=1e-12)


class TestAffineExtraction:
    def test_affine_with_golden_coefficients(self):
        const, coeffs = parse("(1-psi)*u1+2*psi", PARAMS).affine_exact()
        assert const == 2 * PSI
        assert coeffs[0] == ONE_MINUS_PSI and coeffs[1].sign() == 0

    def test_division_by_constant(self):
        const, coeffs = parse("u1/2", PARAMS).affine_exact()
        assert const.sign() == 0 and float(coeffs[0]) == 0.5

    @pytest.mark.parametrize("text", ["u1*u2", "sin(u1)", "pi*u1", "u1^2", "u1/u2"])
    def test_non_affine_returns_none(self, text):
        assert parse(text, PARAMS).affine_exact() is None

    def test_constant_power_is_exact(self):
        const, coeffs = parse("psi^2*u1", PARAMS).affine_exact()
        assert coeffs[0] == PSI + 1

    @pytest.mark.parametrize("text", ["u1+0.5^4000000", "u1+2^-5000", "u1+(0.5^1000)^1000",
                                      "u1+psi^-100000", "u1+(1+sqrt5)^-4000000",
                                      "(1/3)^4097*u1", f"u1+0.5^{MAX_POWER_BITS // 4 + 1}"])
    def test_constant_power_past_the_bit_bound_has_no_exact_form(self, text):
        # The float route still evaluates it; only the exact lift is skipped.
        expr = parse(text, PARAMS)
        assert expr.affine_exact() is None
        assert math.isfinite(_jet_at(expr, (0.5, 0.5))[0])

    def test_constant_power_within_the_bit_bound_stays_exact(self):
        # 0.5 = 1/2 has b = 2 bits, so (b + 2) |N| <= MAX_POWER_BITS up to N = MAX_POWER_BITS / 4.
        n = MAX_POWER_BITS // 4
        assert parse(f"u1+0.5^{n}", PARAMS).affine_exact()[0] == QuadRat(Fraction(1, 2 ** n))
        assert parse(f"u1+2^-{n}", PARAMS).affine_exact()[0] == QuadRat(Fraction(1, 2 ** n))
        assert parse("u1+psi^-3", PARAMS).affine_exact()[0] == (PSI - 1) ** 3

    @pytest.mark.parametrize("points", [
        [[0.0, 1e10], [1e10, 0.0]],  # components are checked in order, then points
        [[0.0, 0.0, 0.0]],  # the wrong number of coordinates
    ])
    def test_affine_evaluation_fails_as_the_jets_do(self, points):
        components = [parse(text, PARAMS) for text in ("10^300*u1", "10^300*u2", "u1+1")]
        with pytest.raises(DomainError) as jets:
            evaluate(components, points)
        constant = np.array([0.0, 0.0, 1.0])
        jacobian = np.array([[1e300, 0.0], [0.0, 1e300], [1.0, 0.0]])
        with pytest.raises(DomainError) as affine:
            evaluate_affine(constant, jacobian, points)
        assert str(affine.value) == str(jets.value)
