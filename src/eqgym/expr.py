"""Expression trees for physics formulas: parsing, evaluation, canonical
forms, and a seeded numeric equivalence oracle.

The surface syntax is a small Python-expression subset (`F / k`,
`2*np.pi*np.sqrt(l/g)`); `np.pi` is the only named constant and `np.`
is the only namespace prefix a function may carry.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

UNARY_OPS = frozenset({
    "neg", "sqrt", "abs", "sin", "cos", "tan", "asin", "acos", "atan",
    "sinh", "cosh", "tanh", "exp", "log",
})
BINARY_OPS = frozenset({"add", "sub", "mul", "div", "pow"})

# Magnitudes beyond this are treated as overflow even when the float is finite.
HUGE = 1e300

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Function spellings accepted in formulas.  Bare names and np.-prefixed
# names map to the same ops; any other prefix is rejected.
_FUNCTION_OPS = {name: name for name in UNARY_OPS if name != "neg"}


class ExpressionError(ValueError):
    """Base class for expression failures."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed formula text.

    Carries the byte offset of the offending token and the token kinds
    that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.offset = offset
        self.expected = expected


class UnknownFunctionError(ExpressionError):
    """A call to a function outside the fixed vocabulary."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown function {name!r} at byte {offset}")
        self.name = name
        self.offset = offset


class UnboundVariableError(ExpressionError):
    """Raised by helpers that require a binding for every free variable."""

    def __init__(self, name: str):
        super().__init__(f"no binding for variable {name!r}")
        self.name = name


@dataclass(frozen=True)
class Constant:
    value: float

    def __post_init__(self):
        v = float(self.value)
        if not math.isfinite(v):
            raise ValueError(f"constant must be finite, got {self.value!r}")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class NamedConstant:
    name: str

    def __post_init__(self):
        if self.name not in ("pi",):
            raise ValueError(f"unknown named constant {self.name!r}")


@dataclass(frozen=True)
class Variable:
    name: str

    def __post_init__(self):
        if not _IDENT_RE.match(self.name):
            raise ValueError(f"invalid variable name {self.name!r}")


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Expression"

    def __post_init__(self):
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {self.op!r}")


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expression"
    right: "Expression"

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {self.op!r}")


Expression = Union[Constant, NamedConstant, Variable, Unary, Binary]


@dataclass(frozen=True)
class Value:
    value: float


@dataclass(frozen=True)
class DomainError:
    """A point where the expression is undefined (or a rejected experiment).

    `reason` is a stable tag; `detail` is human-readable; `subject` names
    the variable or constraint involved, when there is one, so callers can
    re-render the message in a different naming scheme.
    """

    reason: str
    detail: str = ""
    subject: str = ""


EvalOutcome = Union[Value, DomainError]


# --------------------------------------------------------------------------
# Tokenizer / parser

_NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*")

# Bounds both the parser's recursion and the height of the tree it
# returns, so every recursive tree walk stays far below the interpreter's
# recursion limit.
_MAX_DEPTH = 200


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER NAME OP END
    text: str
    offset: int  # byte offset into the UTF-8 encoding of the source


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        byte_off = len(text[:pos].encode("utf-8"))
        if text.startswith("**", pos):
            tokens.append(_Token("OP", "**", byte_off))
            pos += 2
            continue
        if ch in "+-*/()":
            tokens.append(_Token("OP", ch, byte_off))
            pos += 1
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            tokens.append(_Token("NUMBER", m.group(), byte_off))
            pos = m.end()
            continue
        m = _NAME_RE.match(text, pos)
        if m:
            tokens.append(_Token("NAME", m.group(), byte_off))
            pos = m.end()
            continue
        raise ExpressionSyntaxError(
            f"unexpected character {ch!r} at byte {byte_off}",
            byte_off,
            ("number", "identifier", "operator", "'('", "')'"),
        )
    tokens.append(_Token("END", "", len(text.encode("utf-8"))))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> _Token:
        i = min(self.index + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        if tok.kind != "END":
            self.index += 1
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

    def expression(self) -> Expression:
        self.enter()
        node = self.multiplicative()
        while self.peek().kind == "OP" and self.peek().text in ("+", "-"):
            op = "add" if self.advance().text == "+" else "sub"
            node = Binary(op, node, self.multiplicative())
        self.leave()
        return node

    def multiplicative(self) -> Expression:
        node = self.unary()
        while self.peek().kind == "OP" and self.peek().text in ("*", "/"):
            op = "mul" if self.advance().text == "*" else "div"
            node = Binary(op, node, self.unary())
        return node

    def unary(self) -> Expression:
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
                    return Constant(-self._number(nxt))
                return Unary("neg", self.unary())
            return self.power()
        finally:
            self.leave()

    def power(self) -> Expression:
        base = self.atom()
        if self.peek().kind == "OP" and self.peek().text == "**":
            self.advance()
            return Binary("pow", base, self.unary())
        return base

    def atom(self) -> Expression:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Constant(self._number(tok))
        if tok.kind == "NAME":
            self.advance()
            return self._name(tok)
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            self.enter()
            node = self.expression()
            self.leave()
            closing = self.peek()
            if closing.kind == "OP" and closing.text == ")":
                self.advance()
                return node
            raise self.fail(("')'",))
        raise self.fail(("number", "identifier", "'('", "'-'"))

    def _number(self, tok: _Token) -> float:
        v = float(tok.text)
        if not math.isfinite(v):
            raise ExpressionSyntaxError(
                f"number literal out of range at byte {tok.offset}", tok.offset, ()
            )
        return v

    def _name(self, tok: _Token) -> Expression:
        name = tok.text
        calls = self.peek().kind == "OP" and self.peek().text == "("
        if name == "np.pi":
            if calls:
                raise UnknownFunctionError(name, tok.offset)
            return NamedConstant("pi")
        if "." in name:
            prefix, _, fn = name.partition(".")
            if prefix != "np" or fn not in _FUNCTION_OPS or not calls:
                raise UnknownFunctionError(name, tok.offset)
            return self._call(fn)
        if calls:
            if name not in _FUNCTION_OPS:
                raise UnknownFunctionError(name, tok.offset)
            return self._call(name)
        return Variable(name)

    def _call(self, fn: str) -> Expression:
        self.advance()  # consume '('
        self.enter()
        arg = self.expression()
        self.leave()
        closing = self.peek()
        if not (closing.kind == "OP" and closing.text == ")"):
            raise self.fail(("')'",))
        self.advance()
        return Unary(_FUNCTION_OPS[fn], arg)


def parse(text: str) -> Expression:
    """Parse formula text into an expression tree.

    Raises ExpressionSyntaxError (with byte offset and expected-token set)
    or UnknownFunctionError; never returns a partial tree.
    """
    parser = _Parser(_tokenize(text))
    node = parser.expression()
    if parser.peek().kind != "END":
        raise parser.fail(("operator", "end of input"))
    if _taller_than(node, _MAX_DEPTH):
        # A long flat chain such as `a+b+...` is built by a loop, not by
        # recursion, so only the finished tree shows its height.
        raise ExpressionSyntaxError(
            f"expression nested too deeply: tree height exceeds {_MAX_DEPTH}", 0, ()
        )
    return node


def _taller_than(expr: Expression, limit: int) -> bool:
    # Level by level, without recursion, so any tree can be measured.
    level = [expr]
    for _ in range(limit):
        children: list[Expression] = []
        for node in level:
            if isinstance(node, Unary):
                children.append(node.operand)
            elif isinstance(node, Binary):
                children += (node.left, node.right)
        if not children:
            return False
        level = children
    return True


# --------------------------------------------------------------------------
# Rendering

_BINARY_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "**"}


def render(expr: Expression) -> str:
    """Render to parseable text; parse(render(e)) reproduces e exactly."""
    if isinstance(expr, Constant):
        # Negative constants are parenthesized so the text re-parses as a
        # constant rather than a unary minus.
        if math.copysign(1.0, expr.value) < 0:
            return f"(-{expr.value * -1!r})"
        return repr(expr.value)
    if isinstance(expr, NamedConstant):
        return "np.pi"
    if isinstance(expr, Variable):
        return expr.name
    if isinstance(expr, Unary):
        if expr.op == "neg":
            inner = render(expr.operand)
            # A literal directly after the minus would fold back into a
            # negative constant; parens keep the neg node explicit.
            if isinstance(expr.operand, Constant):
                inner = f"({inner})"
            return f"(-{inner})"
        return f"np.{expr.op}({render(expr.operand)})"
    return f"({render(expr.left)} {_BINARY_SYMBOL[expr.op]} {render(expr.right)})"


def free_variables(expr: Expression) -> frozenset[str]:
    if isinstance(expr, Variable):
        return frozenset((expr.name,))
    if isinstance(expr, Unary):
        return free_variables(expr.operand)
    if isinstance(expr, Binary):
        return free_variables(expr.left) | free_variables(expr.right)
    return frozenset()


def rename_variables(expr: Expression, mapping: Mapping[str, str]) -> Expression:
    """Rewrite variable names; names absent from the mapping are kept."""
    if isinstance(expr, Variable):
        new = mapping.get(expr.name)
        return Variable(new) if new is not None else expr
    if isinstance(expr, Unary):
        return Unary(expr.op, rename_variables(expr.operand, mapping))
    if isinstance(expr, Binary):
        return Binary(
            expr.op,
            rename_variables(expr.left, mapping),
            rename_variables(expr.right, mapping),
        )
    return expr


# --------------------------------------------------------------------------
# Evaluation

class _DomainSignal(Exception):
    def __init__(self, reason: str, detail: str = "", subject: str = ""):
        super().__init__(reason)
        self.reason = reason
        self.detail = detail
        self.subject = subject


def _checked(v: float, context: str) -> float:
    if not math.isfinite(v) or abs(v) > HUGE:
        raise _DomainSignal("overflow", context)
    return v


def _apply_unary(op: str, x: float) -> float:
    if op == "neg":
        return -x
    if op == "abs":
        return abs(x)
    if op == "sqrt":
        if x < 0:
            raise _DomainSignal("negative-sqrt", f"sqrt of {x!r}")
        return math.sqrt(x)
    if op == "log":
        if x <= 0:
            raise _DomainSignal("log-nonpositive", f"log of {x!r}")
        return math.log(x)
    if op in ("asin", "acos"):
        if x < -1.0 or x > 1.0:
            raise _DomainSignal("asin-acos-out-of-range", f"{op} of {x!r}")
    fn = getattr(math, op)
    try:
        return fn(x)
    except OverflowError:
        raise _DomainSignal("overflow", f"{op} of {x!r}") from None
    except ValueError:
        raise _DomainSignal("overflow", f"{op} of {x!r}") from None


def _apply_binary(op: str, a: float, b: float) -> float:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b == 0:
            raise _DomainSignal("division-by-zero", f"{a!r} / 0")
        return a / b
    # pow: negative base demands an integer exponent, zero base a
    # non-negative one; (-2)**2 stays exact.
    if a < 0 and not b.is_integer():
        raise _DomainSignal("pow-domain", f"{a!r} ** {b!r} with negative base")
    if a == 0 and b < 0:
        raise _DomainSignal("division-by-zero", f"0 ** {b!r}")
    try:
        return a ** b
    except OverflowError:
        raise _DomainSignal("overflow", f"{a!r} ** {b!r}") from None


def _eval(expr: Expression, bindings: Mapping[str, float]) -> float:
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
        x = _eval(expr.operand, bindings)
        return _checked(_apply_unary(expr.op, x), expr.op)
    a = _eval(expr.left, bindings)
    b = _eval(expr.right, bindings)
    return _checked(_apply_binary(expr.op, a, b), expr.op)


def evaluate(expr: Expression, bindings: Mapping[str, float]) -> EvalOutcome:
    """Evaluate at a point.  Returns Value or DomainError; never raises."""
    try:
        return Value(_eval(expr, bindings))
    except _DomainSignal as sig:
        return DomainError(sig.reason, sig.detail, sig.subject)


# --------------------------------------------------------------------------
# Canonicalization

def _sort_key(expr: Expression) -> tuple:
    if isinstance(expr, Constant):
        return (0, "", render(expr))
    if isinstance(expr, NamedConstant):
        return (1, expr.name, "")
    if isinstance(expr, Variable):
        return (2, expr.name, "")
    if isinstance(expr, Unary):
        return (3, expr.op, render(expr))
    return (4, expr.op, render(expr))


_TOTAL_UNARY = frozenset({
    "neg", "abs", "sin", "cos", "tan", "atan", "sinh", "cosh", "tanh", "exp",
})


def _is_total(expr: Expression) -> bool:
    # True when no point of R^n can make the subtree raise a domain error
    # (overflow aside).  Used to decide whether a zero-coefficient term may
    # be dropped without erasing an error region.
    if isinstance(expr, (Constant, NamedConstant, Variable)):
        return True
    if isinstance(expr, Unary):
        return expr.op in _TOTAL_UNARY and _is_total(expr.operand)
    if expr.op in ("add", "sub", "mul"):
        return _is_total(expr.left) and _is_total(expr.right)
    if expr.op == "pow":
        return (
            isinstance(expr.right, Constant)
            and expr.right.value >= 0
            and expr.right.value.is_integer()
            and _is_total(expr.left)
        )
    return False


def _flatten(op: str, expr: Expression) -> list[Expression]:
    if isinstance(expr, Binary) and expr.op == op:
        return _flatten(op, expr.left) + _flatten(op, expr.right)
    return [expr]


def _chain(op: str, parts: list[Expression]) -> Expression:
    node = parts[0]
    for part in parts[1:]:
        node = Binary(op, node, part)
    return node


def _split_coefficient(term: Expression) -> tuple[float, Expression]:
    if isinstance(term, Binary) and term.op == "mul":
        factors = _flatten("mul", term)
        if isinstance(factors[0], Constant):
            coeff = factors[0].value
            rest = factors[1:]
            if rest:
                return coeff, _chain("mul", rest)
    return 1.0, term


def _with_coefficient(coeff: float, core: Expression) -> Expression:
    factors = [Constant(coeff)] + _flatten("mul", core)
    factors.sort(key=_sort_key)
    return _chain("mul", factors)


def _fold_constants(values: list[float], combine) -> tuple[float | None, list[float]]:
    # Fold while the running value stays finite; on overflow give the
    # originals back so evaluation semantics are preserved.
    if not values:
        return None, []
    acc = values[0]
    for v in values[1:]:
        nxt = combine(acc, v)
        if not math.isfinite(nxt) or abs(nxt) > HUGE:
            return None, values
        acc = nxt
    return acc, []


def _canon_add(parts: list[Expression]) -> Expression:
    constants: list[float] = []
    order: list[Expression] = []  # cores in first-seen order
    coeffs: dict[Expression, float] = {}
    for part in parts:
        if isinstance(part, Constant):
            constants.append(part.value)
            continue
        coeff, core = _split_coefficient(part)
        if core in coeffs:
            coeffs[core] += coeff
        else:
            order.append(core)
            coeffs[core] = coeff
    terms: list[Expression] = []
    for core in order:
        coeff = coeffs[core]
        if coeff == 0.0:
            if _is_total(core):
                continue
            terms.append(_with_coefficient(0.0, core))
        elif coeff == 1.0:
            terms.append(core)
        else:
            terms.append(_with_coefficient(coeff, core))
    folded, leftover = _fold_constants(constants, lambda a, b: a + b)
    if folded is not None and folded != 0.0:
        terms.append(Constant(folded))
    terms.extend(Constant(v) for v in leftover)
    if not terms:
        return Constant(folded if folded is not None else 0.0)
    terms.sort(key=_sort_key)
    return _chain("add", terms)


def _canon_mul(parts: list[Expression]) -> Expression:
    constants: list[float] = []
    rest: list[Expression] = []
    for part in parts:
        if isinstance(part, Constant):
            constants.append(part.value)
        else:
            rest.append(part)
    folded, leftover = _fold_constants(constants, lambda a, b: a * b)
    factors = list(rest)
    if folded is not None and folded != 1.0:
        factors.append(Constant(folded))
    factors.extend(Constant(v) for v in leftover)
    if not factors:
        return Constant(folded if folded is not None else 1.0)
    factors.sort(key=_sort_key)
    return _chain("mul", factors)


def canonicalize(expr: Expression) -> Expression:
    """Rewrite to the canonical form used for structural equality.

    Subtraction becomes addition of a (-1)-scaled term, division becomes
    multiplication by a (-1) power, nested sums/products are flattened and
    sorted, constants fold, like terms merge.  Idempotent.
    """
    if isinstance(expr, (Constant, NamedConstant, Variable)):
        return expr
    if isinstance(expr, Unary):
        child = canonicalize(expr.operand)
        if expr.op == "neg":
            return _canon_mul(_flatten("mul", _with_coefficient(-1.0, child)))
        if isinstance(child, Constant):
            try:
                folded = _checked(_apply_unary(expr.op, child.value), expr.op)
            except _DomainSignal:
                return Unary(expr.op, child)
            return Constant(folded)
        return Unary(expr.op, child)
    if expr.op == "sub":
        return canonicalize(Binary("add", expr.left, Unary("neg", expr.right)))
    if expr.op == "div":
        return canonicalize(
            Binary("mul", expr.left, Binary("pow", expr.right, Constant(-1.0)))
        )
    if expr.op == "add":
        left = canonicalize(expr.left)
        right = canonicalize(expr.right)
        return _canon_add(_flatten("add", left) + _flatten("add", right))
    if expr.op == "mul":
        left = canonicalize(expr.left)
        right = canonicalize(expr.right)
        return _canon_mul(_flatten("mul", left) + _flatten("mul", right))
    base = canonicalize(expr.left)
    exponent = canonicalize(expr.right)
    if isinstance(exponent, Constant) and exponent.value == 1.0:
        return base
    if isinstance(base, Constant) and isinstance(exponent, Constant):
        try:
            folded = _checked(
                _apply_binary("pow", base.value, exponent.value), "pow"
            )
        except _DomainSignal:
            return Binary("pow", base, exponent)
        return Constant(folded)
    return Binary("pow", base, exponent)


# --------------------------------------------------------------------------
# Domains and numeric equivalence

# The numeric oracle compares EQUIV_POINTS seeded points and needs at least
# EQUIV_MIN_VALID of them valid on both sides; a point agrees when the
# relative error, against max(|truth|, EQUIV_ABS_FLOOR), is at most
# EQUIV_REL_TOL.
EQUIV_REL_TOL = 1e-6
EQUIV_ABS_FLOOR = 1e-12
EQUIV_POINTS = 200
EQUIV_MIN_VALID = 50


@dataclass(frozen=True)
class VariableDomain:
    """An interval of admissible values, with optional open bounds and a
    sampling-scale hint ("auto" picks log-uniform for positive domains
    spanning more than two decades)."""

    lower: float
    upper: float
    lower_closed: bool = True
    upper_closed: bool = True
    scale_hint: str = "auto"

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("domain bounds must be finite")
        if self.lower >= self.upper:
            raise ValueError(f"empty domain [{self.lower}, {self.upper}]")
        if self.scale_hint not in ("auto", "linear", "log"):
            raise ValueError(f"unknown scale hint {self.scale_hint!r}")
        if self.scale_hint == "log" and self.lower <= 0:
            raise ValueError("log scale requires a positive lower bound")

    def contains(self, value: float) -> bool:
        if not math.isfinite(value):
            return False
        if value < self.lower or (value == self.lower and not self.lower_closed):
            return False
        if value > self.upper or (value == self.upper and not self.upper_closed):
            return False
        return True

    def log_scaled(self) -> bool:
        if self.scale_hint == "log":
            return True
        if self.scale_hint == "linear":
            return False
        return self.lower > 0 and self.upper / self.lower > 100.0

    def sample(self, rng: random.Random) -> float:
        for _ in range(64):
            if self.log_scaled():
                v = math.exp(rng.uniform(math.log(self.lower), math.log(self.upper)))
            else:
                v = rng.uniform(self.lower, self.upper)
            if self.contains(v):
                return v
        return (self.lower + self.upper) / 2.0


def sample_assignments(
    domains: Mapping[str, VariableDomain], n: int, seed: int
) -> list[dict[str, float]]:
    """Draw n assignment points, deterministically for a given seed."""
    rng = random.Random(seed)
    names = sorted(domains)
    return [{name: domains[name].sample(rng) for name in names} for _ in range(n)]


def sample_columns(
    domains: Mapping[str, VariableDomain], n: int, seed: int
) -> dict[str, np.ndarray]:
    """The points of sample_assignments(domains, n, seed), bit for bit, as
    one read-only array per variable.  Cached per (domains, n, seed)."""
    key = tuple(sorted(domains.items()))
    return dict(zip(sorted(domains), _sampled(key, n, seed)))


@functools.lru_cache(maxsize=64)
def _sampled(key: tuple, n: int, seed: int) -> tuple[np.ndarray, ...]:
    # The same random() draws in the same order as sample_assignments,
    # mapped through the same arithmetic as random.uniform and sample().
    draw = random.Random(seed).random
    draws = np.array([draw() for _ in range(n * len(key))]).reshape(n, len(key))
    columns = []
    for j, (_, domain) in enumerate(key):
        if domain.log_scaled():
            lo, hi = math.log(domain.lower), math.log(domain.upper)
            column = _map_math(math.exp, lo + (hi - lo) * draws[:, j])
        else:
            column = domain.lower + (domain.upper - domain.lower) * draws[:, j]
        # VariableDomain.contains over the column; NaN and inf fail both sides.
        above = column >= domain.lower if domain.lower_closed else column > domain.lower
        below = column <= domain.upper if domain.upper_closed else column < domain.upper
        if not np.all(above & below):
            # A rejected draw shifts every later draw; replay it point by point.
            points = sample_assignments(dict(key), n, seed)
            columns = [np.array([p[name] for p in points], dtype=float) for name, _ in key]
            break
        columns.append(column)
    for column in columns:
        column.flags.writeable = False
    return tuple(columns)


# Stands in for points that are already invalid before a math function is
# mapped over a column: inside the domain of every unary op, and a base
# and exponent that `**` accepts.
_SAFE_INPUT = 0.5


def _or_inf(fn, *args: float) -> float:
    try:
        return fn(*args)
    except (OverflowError, ValueError):
        return math.inf  # the HUGE check marks the point invalid


def _map_math(fn, *columns: np.ndarray) -> np.ndarray:
    args = [column.tolist() for column in columns]
    try:
        return np.array(list(map(fn, *args)), dtype=float)
    except (OverflowError, ValueError):
        return np.array(list(map(functools.partial(_or_inf, fn), *args)), dtype=float)


def evaluate_columns(
    expr: Expression, columns: Mapping[str, np.ndarray], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate at n points given as one array per free variable.

    Returns (values, valid).  valid[i] is False exactly where evaluate()
    returns a DomainError at point i; elsewhere values[i] equals its
    value bit for bit.  numpy computes only the correctly rounded ops
    (neg, abs, sqrt, + - * /); every other function is the scalar path's
    own, mapped over the column, because numpy's vector kernels differ
    from libm in the last bits.
    """
    with np.errstate(all="ignore"):
        return _eval_columns(expr, columns, n)


def _eval_columns(expr, columns, n):
    if isinstance(expr, (Constant, NamedConstant)):
        values = np.full(n, expr.value if isinstance(expr, Constant) else math.pi)
        valid = np.ones(n, dtype=bool)
    elif isinstance(expr, Variable):
        values = columns[expr.name]
        valid = np.ones(n, dtype=bool)
    elif isinstance(expr, Unary):
        x, valid = _eval_columns(expr.operand, columns, n)
        op = expr.op
        if op == "neg":
            values = -x
        elif op == "abs":
            values = np.abs(x)
        elif op == "sqrt":
            valid = valid & (x >= 0)
            values = np.sqrt(x)
        else:
            if op == "log":
                valid = valid & (x > 0)
            elif op in ("asin", "acos"):
                valid = valid & (x >= -1.0) & (x <= 1.0)
            values = _map_math(getattr(math, op), np.where(valid, x, _SAFE_INPUT))
    else:
        a, valid_a = _eval_columns(expr.left, columns, n)
        b, valid_b = _eval_columns(expr.right, columns, n)
        valid = valid_a & valid_b
        op = expr.op
        if op == "add":
            values = a + b
        elif op == "sub":
            values = a - b
        elif op == "mul":
            values = a * b
        elif op == "div":
            valid = valid & (b != 0)
            values = a / b
        else:
            # Same rules as _apply_binary, then Python's own float `**`.
            valid = valid & ~(((a < 0) & (np.floor(b) != b)) | ((a == 0) & (b < 0)))
            values = _map_math(
                operator.pow,
                np.where(valid, a, _SAFE_INPUT),
                np.where(valid, b, _SAFE_INPUT),
            )
    # _checked: NaN and infinity fail the comparison too.
    return values, valid & (np.abs(values) <= HUGE)


@functools.lru_cache(maxsize=64)
def _canonical_truth(truth: Expression) -> Expression:
    return canonicalize(truth)


@functools.lru_cache(maxsize=64)
def _truth_columns(
    truth: Expression, key: tuple, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    values, valid = evaluate_columns(truth, sample_columns(dict(key), n, seed), n)
    values.flags.writeable = False
    valid.flags.writeable = False
    return values, valid


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    method: str  # "canonical" | "numeric" | "none"
    points_compared: int
    max_rel_error: float | None = None
    detail: str = ""


def equivalent(
    hypothesis: Expression,
    truth: Expression,
    domains: Mapping[str, VariableDomain],
    seed: int = 0,
) -> EquivalenceVerdict:
    """Judge whether two expressions agree over the given domains.

    Structural identity of canonical forms decides immediately; otherwise
    both sides are compared on a seeded sample, skipping points where
    either side has a domain error.  Too few shared-validity points yield
    a non-equivalent verdict with method "none".  The truth's canonical
    form, the sample points and the truth's values are cached, so repeated
    tests against one truth with one seed work on the hypothesis alone.
    """
    missing = (free_variables(hypothesis) | free_variables(truth)) - set(domains)
    if missing:
        raise UnboundVariableError(sorted(missing)[0])
    if canonicalize(hypothesis) == _canonical_truth(truth):
        return EquivalenceVerdict(True, "canonical", 0, None, "identical canonical form")
    key = tuple(sorted(domains.items()))
    t_values, t_valid = _truth_columns(truth, key, EQUIV_POINTS, seed)
    h_values, h_valid = evaluate_columns(
        hypothesis, sample_columns(domains, EQUIV_POINTS, seed), EQUIV_POINTS
    )
    shared = h_valid & t_valid
    t = t_values[shared]
    rel = np.abs(h_values[shared] - t) / np.maximum(np.abs(t), EQUIV_ABS_FLOOR)
    valid = int(np.count_nonzero(shared))
    if valid < EQUIV_MIN_VALID:
        return EquivalenceVerdict(
            False, "none", valid, None, "insufficient domain overlap"
        )
    max_rel = float(rel.max()) if valid else 0.0
    agree = not bool(np.any(rel > EQUIV_REL_TOL))
    detail = "" if agree else f"max relative error {max_rel:.3g}"
    return EquivalenceVerdict(agree, "numeric", valid, max_rel, detail)
