"""Seeded expression generators, meaning-preserving rewrites, and the
reference tree-walk evaluator, parser, domain sampler and experiment
runner for tests; also seeded flat JSON objects for the packet encoder
and seeded environments for fuzzing the platform."""

from __future__ import annotations

import math
import random
import re
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from eqgym.expr import (
    _FUNCTIONS,
    _MAX_DEPTH,
    Binary,
    Constant,
    DomainError,
    Expression,
    ExpressionSyntaxError,
    Unary,
    UnknownFunctionError,
    Value,
    Variable,
    evaluate,
    render,
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
# brute-force twin: the generated functions must match it bit for bit.

def _walk(expr: Expression, bindings) -> float:
    if isinstance(expr, Constant):
        return _checked(expr.value, "constant")
    if isinstance(expr, Variable):
        try:
            v = float(bindings[expr.name])
        except KeyError:
            raise _DomainSignal("unbound-variable", f"no value for {expr.name!r}") from None
        except OverflowError:
            raise _DomainSignal("overflow", expr.name) from None
        except (TypeError, ValueError):
            raise _DomainSignal("not-a-number", f"value for {expr.name!r} is not a number") from None
        return _checked(v, expr.name)
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
        return DomainError(sig.reason, sig.detail)


# -- the reference parser -----------------------------------------------------
# The tokenizer and parser that `parse` replaced, kept as its twin: the
# new parser must return equal trees and raise the same errors.

_NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*")

@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER NAME OP END
    text: str
    offset: int  # byte offset into the UTF-8 encoding of the source


def _tokenize(text: str) -> Iterator[_Token]:
    """Yield the tokens of `text` on demand, then one END token, so a parse
    that fails early never scans the rest of the text."""
    pos = 0
    n = len(text)
    # The byte offset of `pos`, advanced over each stretch of text once so
    # that tokenizing stays linear in the length of the input.
    byte_off = 0
    counted = 0
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        byte_off += len(text[counted:pos].encode("utf-8"))
        counted = pos
        if text.startswith("**", pos):
            yield _Token("OP", "**", byte_off)
            pos += 2
            continue
        if ch in "+-*/()":
            yield _Token("OP", ch, byte_off)
            pos += 1
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            yield _Token("NUMBER", m.group(), byte_off)
            pos = m.end()
            continue
        m = _NAME_RE.match(text, pos)
        if m:
            yield _Token("NAME", m.group(), byte_off)
            pos = m.end()
            continue
        raise ExpressionSyntaxError(
            f"unexpected character {ch!r} at byte {byte_off}",
            byte_off,
            ("number", "identifier", "operator", "'('", "')'"),
        )
    yield _Token("END", "", len(text.encode("utf-8")))


class _Parser:
    """Recursive descent over a lazy token stream.

    Each rule returns its node with the node's tree height (a leaf is 1),
    and every node built is checked against _MAX_DEPTH at once: a long
    flat chain such as `a+b+...` is built by a loop, not by recursion, so
    the recursion cap alone would not bound it.
    """

    def __init__(self, text: str):
        self._tokens = _tokenize(text)
        self._ahead: list[_Token] = []  # pulled, not yet consumed
        self.depth = 0

    def peek(self, ahead: int = 0) -> _Token:
        while len(self._ahead) <= ahead:
            if self._ahead and self._ahead[-1].kind == "END":
                return self._ahead[-1]
            self._ahead.append(next(self._tokens))
        return self._ahead[ahead]

    def advance(self) -> _Token:
        tok = self.peek()
        if tok.kind != "END":
            self._ahead.pop(0)
        return tok

    def fail(self, expected: tuple[str, ...]) -> ExpressionSyntaxError:
        tok = self.peek()
        found = "end of input" if tok.kind == "END" else repr(tok.text)
        return ExpressionSyntaxError(
            f"syntax error at byte {tok.offset}: unexpected {found}, "
            f"expected one of: {', '.join(expected)}",
            tok.offset,
            expected,
        )

    def enter(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            tok = self.peek()
            raise ExpressionSyntaxError(
                f"expression nested too deeply at byte {tok.offset}", tok.offset, ()
            )

    def leave(self):
        self.depth -= 1

    @staticmethod
    def _built(node: Expression, height: int) -> tuple[Expression, int]:
        if height > _MAX_DEPTH:
            raise ExpressionSyntaxError(
                f"expression nested too deeply: tree height exceeds {_MAX_DEPTH}", 0, ()
            )
        return node, height

    def expression(self) -> tuple[Expression, int]:
        self.enter()
        node, height = self.multiplicative()
        while self.peek().kind == "OP" and self.peek().text in ("+", "-"):
            op = "add" if self.advance().text == "+" else "sub"
            right, right_height = self.multiplicative()
            node, height = self._built(
                Binary(op, node, right), 1 + max(height, right_height)
            )
        self.leave()
        return node, height

    def multiplicative(self) -> tuple[Expression, int]:
        node, height = self.unary()
        while self.peek().kind == "OP" and self.peek().text in ("*", "/"):
            op = "mul" if self.advance().text == "*" else "div"
            right, right_height = self.unary()
            node, height = self._built(
                Binary(op, node, right), 1 + max(height, right_height)
            )
        return node, height

    def unary(self) -> tuple[Expression, int]:
        self.enter()
        try:
            if self.peek().kind == "OP" and self.peek().text == "-":
                self.advance()
                # A minus directly over a number literal folds into a negative
                # constant, except when `**` follows: `-3**2` is -(3**2).
                nxt = self.peek()
                if nxt.kind == "NUMBER" and not (
                    self.peek(1).kind == "OP" and self.peek(1).text == "**"
                ):
                    self.advance()
                    return Constant(-self._number(nxt)), 1
                operand, height = self.unary()
                return self._built(Unary("neg", operand), height + 1)
            return self.power()
        finally:
            self.leave()

    def power(self) -> tuple[Expression, int]:
        base, height = self.atom()
        if self.peek().kind == "OP" and self.peek().text == "**":
            self.advance()
            exponent, exponent_height = self.unary()
            return self._built(
                Binary("pow", base, exponent), 1 + max(height, exponent_height)
            )
        return base, height

    def atom(self) -> tuple[Expression, int]:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Constant(self._number(tok)), 1
        if tok.kind == "NAME":
            self.advance()
            return self._name(tok)
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            self.enter()
            built = self.expression()
            self.leave()
            closing = self.peek()
            if closing.kind == "OP" and closing.text == ")":
                self.advance()
                return built
            raise self.fail(("')'",))
        raise self.fail(("number", "identifier", "'('", "'-'"))

    def _number(self, tok: _Token) -> float:
        v = float(tok.text)
        if not math.isfinite(v):
            raise ExpressionSyntaxError(
                f"number literal out of range at byte {tok.offset}", tok.offset, ()
            )
        return v

    def _name(self, tok: _Token) -> tuple[Expression, int]:
        name = tok.text
        calls = self.peek().kind == "OP" and self.peek().text == "("
        if name == "np.pi":
            if calls:
                raise UnknownFunctionError(name, tok.offset)
            return Constant(math.pi), 1
        if "." in name:
            prefix, _, fn = name.partition(".")
            if prefix != "np" or fn not in _FUNCTIONS or not calls:
                raise UnknownFunctionError(name, tok.offset)
            return self._call(fn)
        if calls:
            if name not in _FUNCTIONS:
                raise UnknownFunctionError(name, tok.offset)
            return self._call(name)
        return Variable(name), 1

    def _call(self, fn: str) -> tuple[Expression, int]:
        self.advance()  # consume '('
        self.enter()
        arg, height = self.expression()
        self.leave()
        closing = self.peek()
        if not (closing.kind == "OP" and closing.text == ")"):
            raise self.fail(("')'",))
        self.advance()
        return self._built(Unary(fn, arg), height + 1)


def reference_parse(text: str) -> Expression:
    """`parse` as the one-token-at-a-time tokenizer and peek/advance
    parser did it."""
    parser = _Parser(text)
    node, _ = parser.expression()
    if parser.peek().kind != "END":
        raise parser.fail(("operator", "end of input"))
    return node


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
        return Constant(math.pi)
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


# -- the reference sampler and experiment runner ------------------------------
# VariableDomain.sample and run_experiment as they were before each domain
# and environment kept a precomputed plan: the draws and the checks must
# match them bit for bit.

def reference_sample(domain, rng: random.Random) -> float:
    log = domain.log_scaled()
    lo, hi = (math.log(domain.lower), math.log(domain.upper)) if log else (domain.lower, domain.upper)
    span = hi - lo
    for _ in range(64):
        v = lo + span * rng.random()  # random.uniform(lo, hi)
        if log:
            v = math.exp(v)
        if domain.contains(v):
            return v
    return (domain.lower + domain.upper) / 2.0


def _holds(constraint, assignment, evaluate) -> bool:
    a = evaluate(constraint.left, assignment)
    b = evaluate(constraint.right, assignment)
    if isinstance(a, DomainError) or isinstance(b, DomainError):
        return False
    if constraint.op == "<":
        return a.value < b.value
    if constraint.op == "<=":
        return a.value <= b.value
    if constraint.op == ">":
        return a.value > b.value
    return a.value >= b.value


def reference_run_experiment(env, assignment: Mapping[str, float], evaluate=evaluate):
    """run_experiment's old body, the law and the constraint sides computed
    by `evaluate` (`walk_evaluate` for a twin independent of the compiler)."""
    controllables = env.controllables()
    expected = {v.name for v in controllables}
    if assignment.keys() != expected:
        raise ValueError(
            f"{env.env_id}: assignment must bind exactly {sorted(expected)}, "
            f"got {sorted(assignment, key=str)}"
        )
    inputs_only = {}
    for v in controllables:
        value = assignment[v.name]
        if type(value) is not float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return DomainError("out-of-domain", f"{v.name} must be a number")
            try:
                value = float(value)
            except OverflowError:  # an int beyond float range
                value = math.inf if value > 0 else -math.inf
        if not v.domain.contains(value):
            return DomainError(
                "out-of-domain",
                f"{v.name} = {value!r} outside its admissible range",
            )
        inputs_only[v.name] = value
    for constraint in env.validity:
        if not _holds(constraint, inputs_only, evaluate):
            return DomainError("validity", f"constraint {constraint.text} violated")
    return evaluate(env.equation, inputs_only)


def _value_problem(name: str, value) -> str | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"value for {name} must be a number"
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond float range
        finite = False
    return None if finite else f"value for {name} must be a finite number"


def _reference_entry(proposal, names: list[str]) -> dict | str:
    if not isinstance(proposal, Mapping):
        return "proposal must be an object of variable assignments"
    if proposal.keys() != set(names):
        missing = sorted(set(names) - proposal.keys(), key=str)
        extra = sorted(proposal.keys() - set(names), key=str)
        parts = [f"missing {missing}"] if missing else []
        if extra:
            parts.append(f"unknown {extra}")
        return "bad variable set: " + ", ".join(parts)
    for name, value in proposal.items():  # the first bad value in the proposal's order
        problem = _value_problem(name, value)
        if problem is not None:
            return problem
    return {name: float(proposal[name]) for name in names}


def reference_experiments(env, remaining: int, proposals: list):
    """The experiment loop of Session.submit_turn as it was before one pass
    checked and ran each experiment: the entry built and checked, then
    run_experiment (the reference above) on it.  `env` is the environment
    in the names the session shows.  Returns (entries, notices, malformed,
    dropped, remaining)."""
    names = [v.name for v in env.controllables()]
    entries, notices, malformed, dropped = [], [], 0, 0
    for i, proposal in enumerate(proposals):
        if remaining <= 0:
            dropped = len(proposals) - i
            notices.append(f"{dropped} experiment proposal(s) dropped: experiment quota exhausted")
            break
        entry = _reference_entry(proposal, names)
        if isinstance(entry, str):
            malformed += 1
            notices.append(f"experiment proposal skipped: {entry}")
            continue
        outcome = reference_run_experiment(env, entry)
        remaining -= 1
        if isinstance(outcome, Value):
            entry[env.output.name] = outcome.value
        else:
            entry["invalid"] = f"{outcome.reason}: {outcome.detail}"
        entries.append(entry)
    return entries, notices, malformed, dropped, remaining


# -- flat JSON objects ---------------------------------------------------------
# Values whose JSON text is easy to get wrong: non-finite and extreme
# floats, ints past 64 bits, and text that needs escaping, including
# control characters, non-ASCII text and lone surrogates.

FLAT_SCALARS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e300, 5e-324,
                0.1, 1.5e-7, 2**63, -(2**64) - 1, 10**40, 0, -1, True, False, None)
TEXT_PIECES = ('"', "\\", "\x00", "\x1f", "\n", "\t", "\r", "\x7f", "/", "é", "円",
               "\u2028", "\U0001d53c", "\ud800", "\udfff", "x", " ", "key")


def random_text(rng: random.Random, pieces: int = 4) -> str:
    return "".join(rng.choice(TEXT_PIECES) for _ in range(rng.randrange(pieces + 1)))


def random_flat_object(rng: random.Random, size: int = 5) -> dict:
    """A non-empty dict of str/int/float/bool/None values."""
    obj = {}
    while not obj or rng.random() < 1 - 1 / size:
        obj[random_text(rng)] = (
            rng.choice(FLAT_SCALARS) if rng.random() < 0.6 else random_text(rng)
        )
    return obj


# -- environments ----------------------------------------------------------------
# Seeded environment documents for fuzzing the platform: 1-5 inputs over
# log, linear (some negative) and zero-based open domains, a dummy in
# about 30% of them, an `a < b` constraint in about 30%, and a law scaled
# by 1e-25 to 1e25.  The names end in "_g" so that no word of a
# transcript can match one.

_STEMS = ("mass", "rho", "theta", "flux", "volt", "drag", "span", "load", "temp")


def _random_domain(rng: random.Random) -> dict:
    kind = rng.choice(("log", "linear", "zero-open"))
    if kind == "log":
        lower = 10.0 ** rng.uniform(-3.0, 1.0)
        return {"lower": lower, "upper": lower * 10.0 ** rng.uniform(1.0, 4.0), "scale": "log"}
    if kind == "linear":
        lower = round(rng.uniform(-5.0, 5.0), 3)
        return {"lower": lower, "upper": lower + round(rng.uniform(0.5, 10.0), 3),
                "scale": "linear"}
    return {"lower": 0.0, "upper": round(rng.uniform(1.0, 100.0), 3), "lower_closed": False}


def random_environment_document(rng: random.Random, env_id: str) -> dict:
    """A random environment in the JSON form `load_spec` reads."""
    constrained = rng.random() < 0.3
    names = [f"{stem}_g" for stem in rng.sample(_STEMS, rng.randint(1 + constrained, 5))]
    variables = [{"name": name, "description": f"The input {name} (arbitrary units).",
                  "role": "input", "domain": _random_domain(rng)} for name in names]
    variables.append({"name": "yield_g", "description": "The output yield_g.",
                      "role": "output"})
    if rng.random() < 0.3:
        variables.append({"name": "spare_g", "description": "An input the law ignores.",
                          "role": "dummy", "domain": _random_domain(rng)})
    scale = 10.0 ** rng.uniform(-25.0, 25.0)
    law = Binary("mul", Constant(scale), random_expression(rng, tuple(names), depth=3))
    document = {
        "id": env_id,
        "context": f"How yield_g depends on {', '.join(names)}.",
        "variables": variables,
        "equation": render(law),
    }
    if constrained:
        document["validity"] = [f"{names[0]} < {names[1]}"]
    return document
