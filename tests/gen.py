"""Seeded expression generators, meaning-preserving rewrites and the
reference tree-walk evaluator for tests."""

from __future__ import annotations

import math
import random

from eqgym.expr import (
    Binary,
    Constant,
    DomainError,
    Expression,
    NamedConstant,
    Unary,
    Value,
    Variable,
    _apply_binary,
    _apply_unary,
    _checked,
    _DomainSignal,
)


def node_count(expr: Expression) -> int:
    if isinstance(expr, Unary):
        return 1 + node_count(expr.operand)
    if isinstance(expr, Binary):
        return 1 + node_count(expr.left) + node_count(expr.right)
    return 1


def transform_at(expr: Expression, index: int, fn) -> Expression:
    """Apply fn to the preorder node at `index`, rebuilding the spine."""
    if index == 0:
        return fn(expr)
    index -= 1
    if isinstance(expr, Unary):
        return Unary(expr.op, transform_at(expr.operand, index, fn))
    if isinstance(expr, Binary):
        left_size = node_count(expr.left)
        if index < left_size:
            return Binary(expr.op, transform_at(expr.left, index, fn), expr.right)
        return Binary(expr.op, expr.left, transform_at(expr.right, index - left_size, fn))
    return expr


# -- the reference evaluator ---------------------------------------------------
# The recursive tree walk that `evaluate` compiled away, kept as its
# brute-force twin: the compiled closures must match it bit for bit.

def _walk(expr: Expression, bindings) -> float:
    if isinstance(expr, Constant):
        return _checked(expr.value, "constant")
    if isinstance(expr, NamedConstant):
        return math.pi
    if isinstance(expr, Variable):
        try:
            v = bindings[expr.name]
        except KeyError:
            raise _DomainSignal(
                "unbound-variable", f"no value for {expr.name!r}", expr.name
            ) from None
        return _checked(float(v), expr.name)
    if isinstance(expr, Unary):
        x = _walk(expr.operand, bindings)
        return _checked(_apply_unary(expr.op, x), expr.op)
    a = _walk(expr.left, bindings)
    b = _walk(expr.right, bindings)
    return _checked(_apply_binary(expr.op, a, b), expr.op)


def walk_evaluate(expr: Expression, bindings):
    """`evaluate` by a plain recursive walk over the tree."""
    try:
        return Value(_walk(expr, bindings))
    except _DomainSignal as sig:
        return DomainError(sig.reason, sig.detail, sig.subject)


# Ops whose magnitudes stay tame on moderate inputs; log/sqrt/div/pow are
# added separately so error regions stay exercised but bounded.
_TAME_UNARY = ("neg", "abs", "sin", "cos", "atan", "tanh", "sqrt", "log", "exp")
_FULL_UNARY = _TAME_UNARY + ("tan", "asin", "acos", "sinh")


def random_expression(
    rng: random.Random,
    variables: tuple[str, ...],
    depth: int = 4,
    tame: bool = True,
) -> Expression:
    """Random AST.  tame=True keeps constants and exponents small so that
    evaluation over moderate domains stays far from the overflow cutoff."""
    if depth <= 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.55:
            return Variable(rng.choice(variables))
        if r < 0.92:
            if tame:
                return Constant(round(rng.uniform(-4.0, 4.0), 3))
            return Constant(round(rng.uniform(-1e6, 1e6), 3))
        return NamedConstant("pi")
    r = rng.random()
    if r < 0.3:
        ops = _TAME_UNARY if tame else _FULL_UNARY
        return Unary(rng.choice(ops), random_expression(rng, variables, depth - 1, tame))
    if r < 0.42:
        exponent: Expression
        if tame or rng.random() < 0.8:
            exponent = Constant(float(rng.choice([-2.0, -1.0, 0.5, 2.0, 3.0])))
        else:
            exponent = random_expression(rng, variables, depth - 1, tame)
        return Binary("pow", random_expression(rng, variables, depth - 1, tame), exponent)
    op = rng.choice(["add", "sub", "mul", "div"])
    return Binary(
        op,
        random_expression(rng, variables, depth - 1, tame),
        random_expression(rng, variables, depth - 1, tame),
    )


# -- rewrites ---------------------------------------------------------------
# Each rule maps a node to a different tree with the same value and the
# same domain-error set (up to float rounding far below the oracle's
# tolerance), so a rewritten expression must stay judged equivalent.

def _commute(e):
    return Binary(e.op, e.right, e.left)


def _reassoc_right(e):
    # (a . b) . c -> a . (b . c)
    return Binary(e.op, e.left.left, Binary(e.op, e.left.right, e.right))


def _reassoc_left(e):
    return Binary(e.op, Binary(e.op, e.left, e.right.left), e.right.right)


def _sub_to_addneg(e):
    return Binary("add", e.left, Unary("neg", e.right))


def _addneg_to_sub(e):
    return Binary("sub", e.left, e.right.operand)


def _div_to_mulpow(e):
    return Binary("mul", e.left, Binary("pow", e.right, Constant(-1.0)))


def _neg_to_mul(e):
    return Binary("mul", Constant(-1.0), e.operand)


def _pow2_to_mul(e):
    return Binary("mul", e.left, e.left)


def _mul_to_pow2(e):
    return Binary("pow", e.left, Constant(2.0))


def _distribute(e):
    return Binary(
        "add",
        Binary("mul", e.left, e.right.left),
        Binary("mul", e.left, e.right.right),
    )


def _wrap_mul_one(e):
    return Binary("mul", Constant(1.0), e)


def _wrap_add_zero(e):
    return Binary("add", Constant(0.0), e)


def _wrap_double_neg(e):
    return Unary("neg", Unary("neg", e))


def _rules_for(node: Expression):
    rules = [_wrap_mul_one, _wrap_add_zero, _wrap_double_neg]
    if isinstance(node, Binary):
        if node.op in ("add", "mul"):
            rules.append(_commute)
            if isinstance(node.left, Binary) and node.left.op == node.op:
                rules.append(_reassoc_right)
            if isinstance(node.right, Binary) and node.right.op == node.op:
                rules.append(_reassoc_left)
        if node.op == "sub":
            rules.append(_sub_to_addneg)
        if node.op == "div":
            rules.append(_div_to_mulpow)
        if node.op == "add" and isinstance(node.right, Unary) and node.right.op == "neg":
            rules.append(_addneg_to_sub)
        if (
            node.op == "pow"
            and isinstance(node.right, Constant)
            and node.right.value == 2.0
        ):
            rules.append(_pow2_to_mul)
        if node.op == "mul" and node.left == node.right:
            rules.append(_mul_to_pow2)
        if node.op == "mul" and isinstance(node.right, Binary) and node.right.op == "add":
            rules.append(_distribute)
    if isinstance(node, Unary) and node.op == "neg":
        rules.append(_neg_to_mul)
    return rules


def rewrite(rng: random.Random, expr: Expression, steps: int = 3) -> Expression:
    """Apply `steps` random value-preserving rewrites at random nodes."""
    for _ in range(steps):
        index = rng.randrange(node_count(expr))
        expr = transform_at(expr, index, lambda node: rng.choice(_rules_for(node))(node))
    return expr


def perturb(rng: random.Random, expr: Expression) -> Expression:
    """Scale by (1 + delta) with |delta| >= 1e-3: never equivalent."""
    delta = rng.uniform(1e-3, 0.5) * rng.choice([-1.0, 1.0])
    return Binary("mul", Constant(1.0 + delta), expr)
