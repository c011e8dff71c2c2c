"""Brute-force twins: `evaluate` compiles each tree into one generated
function and must match the plain recursive walk (`gen.walk_evaluate`)
bit for bit."""

import math
import pickle
import random
import struct

import pytest

import gen
from eqgym import environment, expr
from eqgym.environment import bundled_environments, run_experiment
from eqgym.expr import (
    Binary, Constant, DomainError, Unary, Value, Variable, evaluate, parse, sample_assignments,
)

ENVS = {env.env_id: env for env in bundled_environments()}

DOMAIN_REASONS = {
    "overflow", "division-by-zero", "negative-sqrt", "log-nonpositive",
    "asin-acos-out-of-range", "pow-domain", "unbound-variable",
}
# Bindings on and past the edges: signed zeros, the HUGE cutoff, beyond
# the largest float, exp's overflow point, and non-finite values.
EDGE_VALUES = (0.0, -0.0, 1.0, -1.0, 0.5, 1e200, -1e300, 1e301, 710.0,
               math.inf, -math.inf, math.nan)


def same_outcome(a, b) -> bool:
    """Equal outcomes: Value bits (so the sign of zero counts), or all three
    DomainError fields."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Value):
        return struct.pack("<d", a.value) == struct.pack("<d", b.value)
    return a == b


def test_evaluate_matches_the_walk_on_fuzz():
    rng = random.Random(20261018)
    names = ("x", "y", "z")
    points = errors = 0
    reasons = set()
    for i in range(4000):
        # Every fifth tree may use z, which the points never bind.
        tree = gen.random_expression(
            rng, names if i % 5 == 0 else names[:2],
            depth=rng.randint(1, 6), tame=i % 2 == 0,
        )
        for _ in range(25):
            point = {}
            for name in names[:2]:
                r = rng.random()
                if r < 0.5:
                    point[name] = rng.uniform(-3.0, 3.0)
                elif r < 0.7:
                    point[name] = rng.choice(EDGE_VALUES)
                else:
                    point[name] = rng.uniform(-1e3, 1e3)
            got, want = evaluate(tree, point), gen.walk_evaluate(tree, point)
            assert same_outcome(got, want), (tree, point, got, want)
            points += 1
            if isinstance(got, DomainError):
                errors += 1
                reasons.add(got.reason)
    assert points >= 100_000
    assert reasons == DOMAIN_REASONS
    assert 0.1 < errors / points < 0.5


def test_evaluate_keeps_signed_zeros_and_operand_order():
    x = {"x": -0.0}
    for text in ("x", "-x", "x * 1", "x + 0", "0 - x", "np.abs(x)", "x * -1"):
        tree = parse(text)
        assert same_outcome(evaluate(tree, x), gen.walk_evaluate(tree, x)), text
    # The left operand's error is the one reported.
    tree = parse("np.log(x) + y / 0")
    assert evaluate(tree, {"x": -1.0, "y": 1.0}) == gen.walk_evaluate(
        tree, {"x": -1.0, "y": 1.0}
    )
    assert evaluate(tree, {"x": -1.0, "y": 1.0}).reason == "log-nonpositive"


# The generated code's own names, and builtins it calls.
CODE_NAMES = ("b", "t0", "float", "math", "HUGE", "__import__", "_checked")


@pytest.mark.parametrize("name", CODE_NAMES)
def test_variables_named_like_the_generated_code(name):
    tree = parse(f"np.sqrt({name}) * {name} + 2 / {name} - np.log({name})**2")
    for value in (4.0, 1.0, -1.0, 0.0, -0.0, 1e200, 1e301, math.inf, math.nan):
        point = {name: value}
        assert same_outcome(evaluate(tree, point), gen.walk_evaluate(tree, point)), point
    assert evaluate(tree, {}) == DomainError("unbound-variable", f"no value for {name!r}")
    assert evaluate(tree, {"y": 1.0}) == gen.walk_evaluate(tree, {"y": 1.0})


def test_formula_over_every_name_of_the_generated_code():
    tree = parse(" + ".join(f"{i + 1}*{name}" for i, name in enumerate(CODE_NAMES))
                 + " - b*t0/float**math")
    rng = random.Random(5)
    for _ in range(200):
        point = {name: rng.choice((rng.uniform(-3, 3), rng.choice(EDGE_VALUES)))
                 for name in CODE_NAMES}
        assert same_outcome(evaluate(tree, point), gen.walk_evaluate(tree, point)), point
    assert evaluate(tree, {}) == gen.walk_evaluate(tree, {}) == DomainError(
        "unbound-variable", "no value for 'b'")
    point = dict.fromkeys(CODE_NAMES, 2.0)
    assert evaluate(tree, point) == Value(2.0 * 28 - 2.0 * 2.0 / 2.0**2.0)


@pytest.mark.parametrize("value", [1e301, -0.0, 5e-324])
def test_constants_past_huge_signed_zero_and_subnormal(value):
    c, x = Constant(value), Variable("x")
    trees = (c, Unary("neg", c), Unary("sqrt", c), Binary("mul", x, c), Binary("add", c, x),
             Binary("div", x, c), Binary("div", c, x), Binary("pow", c, x))
    for tree in trees:
        for point in ({"x": 2.0}, {"x": -0.0}, {"x": 1e300}, {"x": -3.0}, {}):
            assert same_outcome(evaluate(tree, point), gen.walk_evaluate(tree, point)), (tree, point)


def test_a_subtree_used_twice():
    inner = parse("np.log(x) - y / 3")
    tree = Binary("mul", inner, Unary("sqrt", Binary("add", inner, Variable("x"))))
    assert tree.left is tree.right.operand.left
    rng = random.Random(3)
    points = [{"x": rng.uniform(-2, 5), "y": rng.uniform(-5, 5)} for _ in range(200)]
    for point in points + [{"x": 1.0}, {"y": 1.0}, {"x": 0.0, "y": 1.0}]:
        assert same_outcome(evaluate(tree, point), gen.walk_evaluate(tree, point)), point


def test_generated_code_holds_no_text_from_the_formula():
    tree = parse("secret_name * 1.2345678 + np.sqrt(secret_name)")
    code = expr._compile(tree).__code__
    text = repr((code.co_names, code.co_varnames, code.co_consts))
    assert "secret_name" not in text and "1.2345678" not in text
    assert evaluate(tree, {"secret_name": 4.0}) == Value(4.0 * 1.2345678 + 2.0)


def test_eviction_keeps_every_result_equal_to_the_walk():
    rng = random.Random(7)
    trees = [gen.random_expression(rng, ("x", "y"), depth=4, tame=False)
             for _ in range(3 * expr._COMPILED_MAX)]
    points = [{"x": rng.uniform(-5, 5), "y": rng.uniform(-5, 5)} for _ in range(3)]
    for _ in range(2):  # the second sweep recompiles evicted trees
        for tree in trees:
            for point in points:
                assert same_outcome(evaluate(tree, point), gen.walk_evaluate(tree, point))
            assert len(expr._COMPILED) <= expr._COMPILED_MAX


def test_evaluation_leaves_the_tree_unchanged():
    tree = parse("2*np.pi*np.sqrt(l/g) + np.log(l) - l**-0.5")
    twin = parse("2*np.pi*np.sqrt(l/g) + np.log(l) - l**-0.5")
    before = (hash(tree), repr(tree), pickle.dumps(tree))
    assert evaluate(tree, {"l": 2.0, "g": 9.81}) == gen.walk_evaluate(tree, {"l": 2.0, "g": 9.81})
    assert (hash(tree), repr(tree), pickle.dumps(tree)) == before
    assert tree == twin and hash(tree) == hash(twin)
    assert pickle.loads(pickle.dumps(tree)) == tree
    assert vars(tree).keys() == {"op", "left", "right"}


def _rows(env, rng):
    """In-domain samples and corners, rows with one value out of its
    domain, beyond float range or non-finite, and (on env_409) rows that
    break the validity constraint."""
    domains = env.domains()
    rows = sample_assignments(domains, 60, seed=11)
    rows.append({name: d.lower for name, d in domains.items()})
    rows.append({name: d.upper for name, d in domains.items()})
    for name, d in domains.items():
        base = dict(rng.choice(rows))
        for bad in (d.lower - (d.upper - d.lower), d.upper * 2 + 1, 1e308,
                    10**400, -10**400, math.inf, math.nan):
            rows.append({**base, name: bad})
    if env.env_id == "env_409":  # r < a, with a in [0.1, 10] and r in [0, 2]
        for row in sample_assignments(domains, 60, seed=12):
            a = rng.uniform(0.1, 2.0)
            rows.append({**row, "a": a, "r": rng.uniform(a, 2.0)})
    return rows


@pytest.mark.parametrize("env_id", sorted(ENVS))
def test_run_experiment_matches_the_walk(env_id, monkeypatch):
    env = ENVS[env_id]
    rows = _rows(env, random.Random(env_id))
    compiled = [run_experiment(env, row) for row in rows]
    monkeypatch.setattr(environment, "evaluate", gen.walk_evaluate)
    walked = [run_experiment(env, row) for row in rows]
    assert all(same_outcome(a, b) for a, b in zip(compiled, walked))
    reasons = {out.reason for out in compiled if isinstance(out, DomainError)}
    assert "out-of-domain" in reasons
    assert any(isinstance(out, Value) for out in compiled)
    if env.env_id == "env_409":
        assert "validity" in reasons


@pytest.mark.parametrize("env_id", sorted(ENVS))
def test_each_law_matches_the_walk_where_it_overflows(env_id):
    # Scaled far outside the domains, every law reaches its overflow and
    # domain-error regions.
    env = ENVS[env_id]
    rng = random.Random(env_id)
    names = env.input_names()
    points = [{n: 10.0 ** (300 if i == j else -300) for j, n in enumerate(names)}
              for i in range(len(names))]
    points += [{n: rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 300) for n in names}
               for _ in range(400)]
    outcomes = []
    for point in points:
        got = evaluate(env.equation, point)
        assert same_outcome(got, gen.walk_evaluate(env.equation, point)), point
        outcomes.append(got)
    assert any(isinstance(out, DomainError) and out.reason == "overflow" for out in outcomes)
