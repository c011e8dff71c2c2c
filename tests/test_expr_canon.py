import random

from eqgym.expr import (
    Binary,
    Constant,
    DomainError,
    Unary,
    Value,
    Variable,
    canonicalize,
    evaluate,
    parse,
)
from gen import random_expression


def canon(text):
    return canonicalize(parse(text))


def test_self_subtraction_is_zero():
    assert canon("x - x") == Constant(0.0)


def test_identity_collapses():
    assert canon("1 * x") == Variable("x")
    assert canon("0 + x") == Variable("x")
    assert canon("x ** 1") == Variable("x")
    assert canon("-(-x)") == Variable("x")


def test_division_becomes_negative_power():
    assert canon("F / k") == canon("F * k**-1")


def test_subtraction_becomes_scaled_addition():
    assert canon("a - b") == canon("a + (-1)*b")


def test_commutativity_and_flattening():
    assert canon("a*b*c") == canon("c*(b*a)")
    assert canon("a + (b + c)") == canon("(c + a) + b")


def test_constant_folding():
    assert canon("2 * 3 * x") == Binary("mul", Constant(6.0), Variable("x"))
    assert canon("1 + 2 + x") == Binary("add", Constant(3.0), Variable("x"))
    assert canon("np.sqrt(4)") == Constant(2.0)
    assert canon("2 ** 3") == Constant(8.0)


def test_like_terms_merge():
    assert canon("2*x + 3*x") == canon("5*x")
    assert canon("x + x") == canon("2*x")


def test_zero_coefficient_keeps_error_regions():
    reduced = canon("np.log(x) - np.log(x)")
    assert reduced != Constant(0.0)
    out = evaluate(reduced, {"x": -1.0})
    assert isinstance(out, DomainError)
    assert evaluate(reduced, {"x": 3.0}) == Value(0.0)


def test_like_terms_that_overflow_stay_apart():
    # Merged, the coefficient would be 2e308, which is not a float.
    expr = parse("1e308*x + 1e308*x")
    reduced = canonicalize(expr)
    assert canonicalize(reduced) == reduced
    for x in (1e-10, -3e-9, 0.5):
        assert evaluate(reduced, {"x": x}) == evaluate(expr, {"x": x})


def _height(expr):
    if isinstance(expr, Binary):
        return 1 + max(_height(expr.left), _height(expr.right))
    if isinstance(expr, Unary):
        return 1 + _height(expr.operand)
    return 1


def test_long_sums_build_balanced_trees():
    # 4,096 terms x**i (height 2 each) in one sum: ceil(log2 4096) = 12
    # more levels, where a left-deep chain would need 4,095.
    terms = [f"x**{i}" for i in range(2, 4098)]
    while len(terms) > 1:
        terms = [f"({a} + {b})" for a, b in zip(terms[::2], terms[1::2])]
    reduced = canon(terms[0])
    assert _height(reduced) == 14
    assert canonicalize(reduced) == reduced


def test_mul_by_zero_not_collapsed():
    assert canon("0 * np.log(x)") != Constant(0.0)


def test_unfoldable_constants_stay_symbolic():
    kept = canon("np.sqrt(0 - 4)")
    out = evaluate(kept, {})
    assert isinstance(out, DomainError)
    assert out.reason == "negative-sqrt"


def test_pi_folds_with_the_other_constant_factors():
    assert canon("np.pi * 2 * x") == canon("x * 2 * np.pi") == canon("6.283185307179586 * x")


def _points(rng, names, n=12):
    return [{name: rng.uniform(-8.0, 8.0) for name in names} for _ in range(n)]


def test_idempotent_on_fuzz():
    rng = random.Random(4242)
    names = ("x", "y", "z")
    for _ in range(250):
        expr = random_expression(rng, names, depth=5, tame=True)
        once = canonicalize(expr)
        assert canonicalize(once) == once


def test_meaning_preserved_on_fuzz():
    rng = random.Random(31337)
    names = ("x", "y")
    for _ in range(250):
        expr = random_expression(rng, names, depth=4, tame=True)
        reduced = canonicalize(expr)
        for point in _points(rng, names, n=8):
            a = evaluate(expr, point)
            b = evaluate(reduced, point)
            if isinstance(a, DomainError):
                assert isinstance(b, DomainError), (expr, point)
            else:
                assert isinstance(b, Value), (expr, point)
                scale = max(abs(a.value), 1e-9)
                assert abs(a.value - b.value) / scale < 1e-9, (expr, point)


def test_operand_order_is_stable():
    # Same multiset of operands in any source order -> same canonical tree.
    variants = ["3*b*a", "a*3*b", "b*a*3", "(a*b)*3", "3*(b*a)"]
    forms = {canon(v) for v in variants}
    assert len(forms) == 1
