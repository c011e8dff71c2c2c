"""Expression trees for physics formulas: parsing, evaluation, canonical
forms, and a seeded numeric equivalence oracle.

The surface syntax is a small Python-expression subset (`F / k`,
`2*np.pi*np.sqrt(l/g)`); `np.pi`, the only named constant, parses to the
number π, and `np.` is the only namespace prefix a function may carry.

`evaluate` compiles each formula once into one generated Python function,
whose source holds no text from the formula, caches it, and matches a
plain recursive walk over the tree bit for bit.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import re
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import repeat, starmap
from typing import Union

UNARY_OPS = frozenset({
    "neg", "sqrt", "abs", "sin", "cos", "tan", "asin", "acos", "atan",
    "sinh", "cosh", "tanh", "exp", "log",
})
BINARY_OPS = frozenset({"add", "sub", "mul", "div", "pow"})

# Magnitudes beyond this are treated as overflow even when the float is finite.
HUGE = 1e300

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Function names accepted in formulas, bare or np.-prefixed; any other
# prefix is rejected.
_FUNCTIONS = UNARY_OPS - {"neg"}


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


Expression = Union[Constant, Variable, Unary, Binary]


@dataclass(frozen=True)
class Value:
    value: float


@dataclass(frozen=True)
class DomainError:
    """A point where the expression is undefined (or a rejected experiment).

    `reason` is a stable tag; `detail` is human-readable and names
    variables and constraints as the evaluated tree does.
    """

    reason: str
    detail: str = ""


EvalOutcome = Union[Value, DomainError]


# --------------------------------------------------------------------------
# Tokenizer / parser

# One token per match: whitespace (str.isspace), then a token whose kind is
# the name of its group: an op, NUMBER, NAME, or END at the end of the
# text.  No group matches at a character that starts no token.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<pow>\*\*)|(?P<add>\+)|(?P<sub>-)|(?P<mul>\*)|(?P<div>/)"
    r"|(?P<open>\()|(?P<close>\))"
    r"|(?P<NUMBER>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)"
    r"|(?P<END>\Z))?"
)
_ADD_OPS = frozenset({"add", "sub"})
_MUL_OPS = frozenset({"mul", "div"})

# Bounds both the parser's recursion and the height of the tree it
# returns, so every recursive tree walk stays far below the interpreter's
# recursion limit.
_MAX_DEPTH = 200
_TOO_TALL = f"expression nested too deeply: tree height exceeds {_MAX_DEPTH}"


def _tokenize(text: str) -> Iterator[re.Match]:
    """The token matches of `text`, each where the last ended, on demand:
    a parse that fails early never scans the rest of the text."""
    return _TOKEN_RE.finditer(text)


# The parser builds its nodes without the public constructors' checks,
# which every token has passed already: ops come from fixed tables, a
# name is an identifier and a number a finite float.  Each returns the
# node with its tree height, checked against _MAX_DEPTH.
_new = object.__new__


def _leaf(cls, field: str, value) -> tuple[Expression, int]:
    node = _new(cls)
    node.__dict__[field] = value
    return node, 1


def _unary(op: str, operand: Expression, height: int) -> tuple[Expression, int]:
    if height >= _MAX_DEPTH:
        raise ExpressionSyntaxError(_TOO_TALL, 0, ())
    node = _new(Unary)
    fields = node.__dict__
    fields["op"], fields["operand"] = op, operand
    return node, height + 1


def _binary(op: str, left: Expression, left_height: int,
            right: Expression, right_height: int) -> tuple[Expression, int]:
    height = left_height if left_height > right_height else right_height
    if height >= _MAX_DEPTH:
        raise ExpressionSyntaxError(_TOO_TALL, 0, ())
    node = _new(Binary)
    fields = node.__dict__
    fields["op"], fields["left"], fields["right"] = op, left, right
    return node, height + 1


class _Parser:
    """Recursive descent over a lazy token stream, holding one token of
    lookahead in `tok` and its kind in `kind`.

    Each rule returns its node with the node's tree height (a leaf is 1),
    and every node built is checked against _MAX_DEPTH at once: a long
    flat chain such as `a+b+...` is built by a loop, not by recursion, so
    the recursion cap alone would not bound it.  Whatever can fail is
    checked before the next token is read, so the first problem in the
    text is the one reported.  END is never consumed: every rule checks
    the kind first.
    """

    def __init__(self, text: str):
        self.text = text
        self._next = _tokenize(text).__next__
        self.depth = 0
        self.advance()

    def advance(self) -> None:
        tok = self._next()
        kind = tok.lastgroup
        if kind is None:
            raise self.error(f"unexpected character {self.text[tok.end()]!r}", tok,
                             ("number", "identifier", "operator", "'('", "')'"))
        self.tok, self.kind = tok, kind

    def offset(self, tok: re.Match) -> int:
        # The byte offset of a token or of a character that starts none: errors only.
        start = tok.start(tok.lastgroup) if tok.lastgroup else tok.end()
        return len(self.text[:start].encode("utf-8"))

    def error(self, what: str, tok: re.Match, expected: tuple[str, ...] = ()):
        offset = self.offset(tok)
        return ExpressionSyntaxError(f"{what} at byte {offset}", offset, expected)

    def fail(self, expected: tuple[str, ...]) -> ExpressionSyntaxError:
        offset = self.offset(self.tok)
        found = "end of input" if self.kind == "END" else repr(self.tok[self.kind])
        return ExpressionSyntaxError(
            f"syntax error at byte {offset}: unexpected {found}, "
            f"expected one of: {', '.join(expected)}",
            offset,
            expected,
        )

    def enter(self, tok: re.Match | None = None) -> None:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise self.error("expression nested too deeply", self.tok if tok is None else tok)

    def expression(self) -> tuple[Expression, int]:
        self.enter()
        node, height = self.multiplicative()
        while (op := self.kind) in _ADD_OPS:
            self.advance()
            node, height = _binary(op, node, height, *self.multiplicative())
        self.depth -= 1
        return node, height

    def multiplicative(self) -> tuple[Expression, int]:
        node, height = self.unary()
        while (op := self.kind) in _MUL_OPS:
            self.advance()
            node, height = _binary(op, node, height, *self.unary())
        return node, height

    def unary(self) -> tuple[Expression, int]:
        # unary: '-' unary | atom ['**' unary], where a minus directly over a
        # number folds into a negative constant unless `**` follows: -3**2 is -(3**2).
        tok, kind = self.tok, self.kind
        self.depth = depth = self.depth + 1
        if depth > _MAX_DEPTH:
            raise self.error("expression nested too deeply", tok)
        if kind == "NUMBER":
            built = _leaf(Constant, "value", self._number(tok))
            self.advance()
        elif kind == "NAME":
            self.advance()
            built = self._name(tok)
        elif kind == "open":
            self.advance()
            self.enter()
            built = self.expression()
            self.depth -= 1
            if self.kind != "close":
                raise self.fail(("')'",))
            self.advance()
        elif kind != "sub":
            raise self.fail(("number", "identifier", "'('", "'-'"))
        else:
            self.advance()
            number = self.tok
            if self.kind != "NUMBER":
                built = _unary("neg", *self.unary())
            else:
                self.advance()
                if self.kind != "pow":
                    self.depth -= 1
                    return _leaf(Constant, "value", -self._number(number))
                self.enter(number)  # the power is one level deeper
                constant = _leaf(Constant, "value", self._number(number))
                built = _unary("neg", *self.power(*constant))
                self.depth -= 1
            self.depth -= 1
            return built
        if self.kind == "pow":
            built = self.power(*built)
        self.depth -= 1
        return built

    def power(self, base: Expression, height: int) -> tuple[Expression, int]:
        self.advance()  # consume '**'
        return _binary("pow", base, height, *self.unary())

    def _number(self, tok: re.Match) -> float:
        v = float(tok["NUMBER"])
        if not math.isfinite(v):
            raise self.error("number literal out of range", tok)
        return v

    def _name(self, tok: re.Match) -> tuple[Expression, int]:
        name = tok["NAME"]
        calls = self.kind == "open"
        if name == "np.pi":
            if calls:
                raise UnknownFunctionError(name, self.offset(tok))
            return _leaf(Constant, "value", math.pi)
        if "." in name:
            prefix, _, fn = name.partition(".")
            if prefix != "np" or fn not in _FUNCTIONS or not calls:
                raise UnknownFunctionError(name, self.offset(tok))
            return self._call(fn)
        if calls:
            if name not in _FUNCTIONS:
                raise UnknownFunctionError(name, self.offset(tok))
            return self._call(name)
        return _leaf(Variable, "name", name)

    def _call(self, fn: str) -> tuple[Expression, int]:
        self.advance()  # consume '('
        self.enter()
        arg, height = self.expression()
        self.depth -= 1
        if self.kind != "close":
            raise self.fail(("')'",))
        built = _unary(fn, arg, height)
        self.advance()
        return built


def parse(text: str) -> Expression:
    """Parse formula text into an expression tree.

    Raises ExpressionSyntaxError (with byte offset and expected-token set)
    or UnknownFunctionError; never returns a partial tree.  The text is
    read only as far as the first problem, which is the one reported.
    """
    parser = _Parser(text)
    node, _ = parser.expression()
    if parser.kind != "END":
        raise parser.fail(("operator", "end of input"))
    return node


# --------------------------------------------------------------------------
# Rendering

_BINARY_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "**"}


def render(expr: Expression) -> str:
    """Render to parseable text, π as `np.pi`; parse(render(e)) reproduces e
    exactly."""
    if isinstance(expr, Constant):
        if expr.value == math.pi:
            return "np.pi"
        # Negative constants are parenthesized so the text re-parses as a
        # constant rather than a unary minus.
        if math.copysign(1.0, expr.value) < 0:
            return f"(-{expr.value * -1!r})"
        return repr(expr.value)
    if isinstance(expr, Variable):
        return expr.name
    if isinstance(expr, Unary):
        if expr.op == "neg":
            inner = render(expr.operand)
            # A number directly after the minus would fold back into a
            # negative constant; parens keep the neg node explicit.
            if isinstance(expr.operand, Constant) and inner != "np.pi":
                inner = f"({inner})"
            return f"(-{inner})"
        return f"np.{expr.op}({render(expr.operand)})"
    return f"({render(expr.left)} {_BINARY_SYMBOL[expr.op]} {render(expr.right)})"


def free_variables(expr: Expression) -> frozenset[str]:
    """The variable names in a tree.  Trees are immutable, so the set is
    kept on the root after the first query; rename_variables renames a
    kept set along with the tree."""
    free = expr.__dict__.get("_free")
    if free is None:
        free = expr.__dict__["_free"] = _variable_names(expr)
    return free


def _variable_names(expr: Expression) -> frozenset[str]:
    names, stack = set(), [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Variable):
            names.add(node.name)
        elif isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, Binary):
            stack += (node.left, node.right)
    return frozenset(names)


def rename_variables(expr: Expression, mapping: Mapping[str, str]) -> Expression:
    """Rewrite variable names; names absent from the mapping are kept.  A
    tree whose names all stay comes back itself, since trees are immutable."""
    free = free_variables(expr)
    if all(mapping.get(name, name) == name for name in free):
        return expr
    renamed = _renamed(expr, mapping)
    renamed.__dict__["_free"] = frozenset(mapping.get(name, name) for name in free)
    return renamed


def _renamed(expr: Expression, mapping: Mapping[str, str]) -> Expression:
    if isinstance(expr, Variable):
        new = mapping.get(expr.name)
        return Variable(new) if new is not None else expr
    if isinstance(expr, Unary):
        return Unary(expr.op, _renamed(expr.operand, mapping))
    if isinstance(expr, Binary):
        return Binary(expr.op, _renamed(expr.left, mapping), _renamed(expr.right, mapping))
    return expr


# --------------------------------------------------------------------------
# Evaluation

class _DomainSignal(Exception):
    def __init__(self, reason: str, detail: str = ""):
        super().__init__(reason)
        self.reason = reason
        self.detail = detail


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


def _unreadable(bindings, names) -> None:
    """Raise the _DomainSignal of the first of `names` whose binding float()
    cannot read, if any."""
    for name in names:
        try:
            float(bindings[name])
        except KeyError:
            raise _DomainSignal("unbound-variable", f"no value for {name!r}") from None
        except OverflowError:  # an int beyond float range
            raise _DomainSignal("overflow", name) from None
        except (TypeError, ValueError):  # a binding float() cannot take
            raise _DomainSignal("not-a-number", f"value for {name!r} is not a number") from None


# Each op's code over its operands {0} and {1}.  The domain rule's helper
# call, {rule}, runs only where `/` or math's own function {fn} could fail;
# ops not listed always call it.
_OP_CODE = {
    "neg": "-{0}", "abs": "abs({0})", "add": "{0} + {1}", "sub": "{0} - {1}",
    "mul": "{0} * {1}", "div": "{0} / {1} if {1} else {rule}",
    "sqrt": "{fn}({0}) if {0} >= 0 else {rule}", "log": "{fn}({0}) if {0} > 0 else {rule}",
    "asin": "{fn}({0}) if -1.0 <= {0} <= 1.0 else {rule}",
    "acos": "{fn}({0}) if -1.0 <= {0} <= 1.0 else {rule}",
    **dict.fromkeys(("sin", "cos", "tan", "atan", "tanh"), "{fn}({0})"),
}
_HELPERS = {"_checked": _checked, "_apply_unary": _apply_unary,
            "_apply_binary": _apply_binary, "_unreadable": _unreadable}


def _compile(expr: Expression):
    """The tree as one generated function of the bindings, returning the
    tree's float or raising _DomainSignal.  Its statements compute the
    nodes in the walk's order, left operand first, each into a new
    temporary that must pass the _checked test (`-HUGE <= r <= HUGE` is
    false for NaN and infinity too); neg and abs keep a checked operand in
    range.  A variable is read where the walk first reaches it; should a
    read fail, _unreadable reads them all again in that order to name the
    binding.  Names, constants and ops are bound as the function's globals
    g<n>, so the source holds no text from the formula.  A subtree without
    variables is computed here, once, by the scalar rules, and bound as its
    value; one that raises stays in the code, where its error keeps its
    place in the walk's order."""
    namespace = dict(_HELPERS)
    lines: list[str] = []
    reads: dict[str, str] = {}  # variable name -> its temporary
    folded: dict[str, float] = {}  # global name -> a variable-free value

    def bind(value) -> str:
        name = f"g{len(namespace)}"
        namespace[name] = value
        return name

    def constant(value: float) -> str:
        name = bind(value)
        folded[name] = value
        return name

    def assign(code: str) -> str:
        t = f"t{len(lines)}"
        lines.append(f"{t} = {code}")
        return t

    def checked(code: str, context: str) -> str:
        t = assign(code)
        lines.append(f"if not {-HUGE!r} <= {t} <= {HUGE!r}: _checked({t}, {context})")
        return t

    def node(e) -> str:
        if isinstance(e, Variable):
            if e.name not in reads:
                name = bind(e.name)
                reads[e.name] = checked(f"float(b[{name}])", name)
            return reads[e.name]
        if isinstance(e, Constant):
            if -HUGE <= e.value <= HUGE:
                return constant(e.value)
            name = bind(e.value)
            lines.append(f"_checked({name}, 'constant')")
            return name
        operands = (e.operand,) if isinstance(e, Unary) else (e.left, e.right)
        args = [node(o) for o in operands]
        helper = "_apply_unary" if len(args) == 1 else "_apply_binary"
        if all(a in folded for a in args):
            try:
                return constant(_checked(_HELPERS[helper](e.op, *map(folded.get, args)), e.op))
            except _DomainSignal:
                pass
        op, code = bind(e.op), _OP_CODE.get(e.op, "{rule}")
        code = code.format(*args, rule=f"{helper}({op}, {', '.join(args)})",
                           fn=bind(getattr(math, e.op)) if "{fn}" in code else "")
        # A checked operand keeps neg and abs in range.
        return assign(code) if e.op in ("neg", "abs") else checked(code, op)

    result = node(expr)
    body = "\n  ".join(lines + [f"return {result}"])
    exec(f"def f(b):\n try:\n  {body}\n except (KeyError, OverflowError, TypeError, ValueError):\n"
         f"  _unreadable(b, {bind(tuple(reads))})\n  raise\n", namespace)
    return namespace["f"]


# id(tree) -> (tree, function).  Holding the tree keeps its id from being
# reused while the entry lives; keying on the tree itself would hash it,
# which costs as much as a walk.  Threads that race on it can at worst
# compile one tree twice.
_COMPILED: dict[int, tuple[Expression, object]] = {}
_COMPILED_MAX = 256


def compiled(expr: Expression):
    """The tree's generated function (see _compile), compiled on first use
    and cached by the tree's identity."""
    entry = _COMPILED.get(id(expr))
    if entry is None:
        if len(_COMPILED) >= _COMPILED_MAX:
            _COMPILED.clear()
        entry = _COMPILED[id(expr)] = (expr, _compile(expr))
    return entry[1]


def evaluate(expr: Expression, bindings: Mapping[str, float]) -> EvalOutcome:
    """Evaluate at a point.  Returns Value or DomainError; never raises.

    The tree runs as its compiled function, whose source holds no text from
    the formula, so repeated evaluations of one law cost little more than
    its arithmetic."""
    try:
        return Value(compiled(expr)(bindings))
    except _DomainSignal as sig:
        return DomainError(sig.reason, sig.detail)


# --------------------------------------------------------------------------
# Canonicalization

def _sort_key(expr: Expression) -> tuple:
    if isinstance(expr, Constant):
        return (0, "", render(expr))
    if isinstance(expr, Variable):
        return (1, expr.name, "")
    if isinstance(expr, Unary):
        return (2, expr.op, render(expr))
    return (3, expr.op, render(expr))


_TOTAL_UNARY = frozenset({
    "neg", "abs", "sin", "cos", "tan", "atan", "sinh", "cosh", "tanh", "exp",
})


def _is_total(expr: Expression) -> bool:
    # True when no point of R^n can make the subtree raise a domain error
    # (overflow aside).  Used to decide whether a zero-coefficient term may
    # be dropped without erasing an error region.
    if isinstance(expr, (Constant, Variable)):
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
    # Balanced, so a chain of n parts adds only ceil(log2 n) levels and the
    # recursive walks over canonical trees stay shallow.
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return Binary(op, _chain(op, parts[:mid]), _chain(op, parts[mid:]))


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
    coeffs: dict[Expression, list[float]] = {}  # cores in first-seen order
    for part in parts:
        if isinstance(part, Constant):
            constants.append(part.value)
            continue
        coeff, core = _split_coefficient(part)
        coeffs.setdefault(core, []).append(coeff)
    terms: list[Expression] = []
    for core, values in coeffs.items():
        # Like terms whose coefficients overflow when summed stay apart.
        folded, leftover = _fold_constants(values, lambda a, b: a + b)
        for coeff in leftover or [folded]:
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
    if isinstance(expr, (Constant, Variable)):
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
# EQUIV_MIN_VALID of them where the truth is defined; a point agrees when
# the hypothesis is defined there too and the relative error, against
# max(|truth|, EQUIV_ABS_FLOOR), is at most EQUIV_REL_TOL.
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
        # NaN and infinity fail every comparison with the finite bounds.
        if self.lower < value < self.upper:
            return True
        return (value == self.lower and self.lower_closed) or (
            value == self.upper and self.upper_closed
        )

    def log_scaled(self) -> bool:
        if self.scale_hint == "log":
            return True
        if self.scale_hint == "linear":
            return False
        return self.lower > 0 and self.upper / self.lower > 100.0

    @functools.cached_property
    def draw_plan(self) -> tuple:
        """(lo, span, log, lower, upper, domain): random.uniform's bounds,
        on the log scale when log_scaled(), worked out on first use."""
        log = self.log_scaled()
        lo, hi = (math.log(self.lower), math.log(self.upper)) if log else (self.lower, self.upper)
        return lo, hi - lo, log, self.lower, self.upper, self

    def sample(self, rng: random.Random) -> float:
        return draw(self.draw_plan, rng.random)


def draw(plan: tuple, uniform) -> float:
    """A value from a domain's draw_plan and a random.Random's random method:
    up to 64 draws until the domain contains one, else its midpoint."""
    lo, span, log, lower, upper, domain = plan
    attempts = 64
    while attempts:
        v = lo + span * uniform()  # random.uniform(lo, hi)
        if log:
            v = math.exp(v)
        if lower < v < upper or domain.contains(v):
            return v
        attempts -= 1
    return (lower + upper) / 2.0


def sample_assignments(
    domains: Mapping[str, VariableDomain], n: int, seed: int
) -> list[dict[str, float]]:
    """Draw n assignment points, deterministically for a given seed."""
    uniform = random.Random(seed).random
    plans = [(name, domains[name].draw_plan) for name in sorted(domains)]
    return [{name: draw(plan, uniform) for name, plan in plans} for _ in range(n)]


# numpy, bound by _numpy() where the column section is entered, so that
# importing eqgym and running sessions that judge nothing never load it.
np = None


def _numpy() -> None:
    global np
    if np is None:
        import numpy as np


def sample_columns(
    domains: Mapping[str, VariableDomain], n: int, seed: int
) -> dict[str, np.ndarray]:
    """The points of sample_assignments(domains, n, seed), bit for bit, as
    one read-only array per variable.

    The same random.Random(seed).random() draws, in the same row-major
    order, are mapped column by column through draw()'s arithmetic (libm's
    exp, not np.exp, which differs in the last bit).  A draw that its
    domain rejects shifts every later draw, so then sample_assignments is
    replayed."""
    _numpy()
    key = sorted(domains.items())
    count = n * len(key)
    # random.Random(seed).random(), count times, each call made from C.
    uniform = starmap(random.Random(seed).random, repeat((), count))
    draws = np.fromiter(uniform, float, count).reshape(n, len(key))
    columns = []
    for j, (_, domain) in enumerate(key):
        lo, span, log = domain.draw_plan[:3]
        column = lo + span * draws[:, j]
        if log:
            column = np.fromiter(map(math.exp, column.tolist()), float, n)
        # A domain is an interval, and a NaN anywhere makes min and max NaN.
        if n > 0 and not (domain.contains(column.min()) and domain.contains(column.max())):
            points = sample_assignments(domains, n, seed)
            columns = [np.array([p[name] for p in points], dtype=float) for name, _ in key]
            break
        columns.append(column)
    for column in columns:
        column.flags.writeable = False
    return {name: column for (name, _), column in zip(key, columns)}


# Stands in for points that are already invalid before a math function is
# mapped over a column: inside the domain of every unary op, and a base
# and exponent that `**` accepts.
_SAFE_INPUT = 0.5


def _or_inf(fn, *args: float) -> float:
    try:
        return fn(*args)
    except (OverflowError, ValueError):
        return math.inf  # the HUGE check marks the point invalid


def _map_math(fn, n: int, *columns) -> np.ndarray:
    # A float operand stands for a constant column.
    args = [[c] * n if type(c) is float else c.tolist() for c in columns]
    try:
        return np.fromiter(map(fn, *args), float, n)
    except (OverflowError, ValueError):
        return np.fromiter(map(functools.partial(_or_inf, fn), *args), float, n)


def evaluate_columns(
    expr: Expression, columns: Mapping[str, np.ndarray], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate at n points given as one array per free variable.

    Returns (values, valid).  valid[i] is False exactly where evaluate()
    returns a DomainError at point i; elsewhere values[i] equals its
    value bit for bit.  Subtrees without variables fold to one float by
    evaluate's own scalar rules.  numpy computes only the correctly
    rounded ops (neg, abs, sqrt, + - * /); every other function is the
    scalar path's own, mapped over the column, because numpy's vector
    kernels differ from libm in the last bits.  Every node's column is
    tested against HUGE once, at the end, so a point that overflows at an
    inner node reaches the outer ones unmasked (`_map_math` maps a libm
    failure to inf).  A mask is built only where some point fails.
    """
    _numpy()
    nodes: list[np.ndarray] = []
    with np.errstate(all="ignore"):
        try:
            values, valid = _eval_columns(expr, columns, n, nodes)
        except _DomainSignal:  # a constant subtree is undefined everywhere
            return np.zeros(n), np.zeros(n, dtype=bool)
        if nodes:  # _checked: NaN and infinity fail the comparison too
            valid = _restrict(valid, (np.abs(np.array(nodes)) <= HUGE).all(axis=0))
    if type(values) is float:
        values = np.full(n, values)
    return values, np.ones(n, dtype=bool) if valid is None else valid


def _restrict(valid, ok: np.ndarray):
    # valid narrowed to the points of ok; None stands for every point.
    if ok.all():
        return valid
    return ok if valid is None else valid & ok


def _safe(x, valid):
    return x if valid is None else np.where(valid, x, _SAFE_INPUT)


def _eval_columns(expr, columns, n, nodes):
    # (values, valid): a float and None for a subtree without variables,
    # else an array and a mask (None if every point is valid), which is
    # also appended to nodes for evaluate_columns' HUGE test.
    if isinstance(expr, Constant):
        return _checked(expr.value, "constant"), None
    if isinstance(expr, Variable):
        values, valid = columns[expr.name], None
    elif isinstance(expr, Unary):
        x, valid = _eval_columns(expr.operand, columns, n, nodes)
        op = expr.op
        if type(x) is float:
            return _checked(_apply_unary(op, x), op), None
        if op == "neg":
            values = -x
        elif op == "abs":
            values = np.abs(x)
        elif op == "sqrt":
            valid = _restrict(valid, x >= 0)
            values = np.sqrt(x)
        else:
            if op == "log":
                valid = _restrict(valid, x > 0)
            elif op in ("asin", "acos"):
                valid = _restrict(valid, (x >= -1.0) & (x <= 1.0))
            values = _map_math(getattr(math, op), n, _safe(x, valid))
    else:
        a, valid = _eval_columns(expr.left, columns, n, nodes)
        b, valid_b = _eval_columns(expr.right, columns, n, nodes)
        op = expr.op
        if type(a) is float and type(b) is float:
            return _checked(_apply_binary(op, a, b), op), None
        if valid_b is not None:
            valid = valid_b if valid is None else valid & valid_b
        if op == "add":
            values = a + b
        elif op == "sub":
            values = a - b
        elif op == "mul":
            values = a * b
        elif op == "div":
            if type(b) is float and b == 0:
                raise _DomainSignal("division-by-zero")
            values = a / b
            if type(b) is not float:
                valid = _restrict(valid, b != 0)
        elif type(b) is float:
            # _apply_binary's rules for one exponent: a fractional one
            # needs a base >= 0, a negative one a nonzero base.
            if not b.is_integer():
                valid = _restrict(valid, a > 0 if b < 0 else a >= 0)
            elif b < 0:
                valid = _restrict(valid, a != 0)
            values = _map_math(operator.pow, n, _safe(a, valid), b)
        else:
            # Same rules as _apply_binary, then Python's own float `**`.
            valid = _restrict(valid, ~(((a < 0) & (np.floor(b) != b)) | ((a == 0) & (b < 0))))
            values = _map_math(operator.pow, n, _safe(a, valid), _safe(b, valid))
    nodes.append(values)
    return values, valid


# (id(truth), domains key, seed) -> (truth, columns, values, valid mask, valid
# count).  Holding the truth pins its id; keying on the tree itself would
# hash it, which costs as much as a walk.  A run judges every level and
# agent of one environment replicate on one seed, so those cells share an
# entry.  Cells come back to each replicate in turn, so the bound holds a
# plan's replicates (6-24 KiB an entry); one clear is atomic under threads.
_TRUTHS: dict[tuple, tuple] = {}
_TRUTHS_MAX = 256


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    method: str  # "numeric" | "none"
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

    Every verdict is decided on a seeded sample, at the points where the
    truth is defined, even for a hypothesis that is the truth rewritten:
    `F/k + 0*exp(1000*F)` reduces to `F/k` on paper but overflows at most
    points.  Too few such points yield a non-equivalent verdict with
    method "none".  A point where the truth is defined and the hypothesis
    is not counts as a disagreement, and `max_rel_error` is taken over
    the points where both are defined (None if there are none).  The
    sample points and the truth's values are cached, so repeated tests
    against one truth with one seed work on the hypothesis alone.
    """
    missing = (free_variables(hypothesis) | free_variables(truth)) - set(domains)
    if missing:
        raise UnboundVariableError(sorted(missing)[0])
    key = (id(truth), tuple(sorted(domains.items())), seed)
    entry = _TRUTHS.get(key)
    if entry is None:
        columns = sample_columns(domains, EQUIV_POINTS, seed)
        t_values, t_valid = evaluate_columns(truth, columns, EQUIV_POINTS)
        t_values.flags.writeable = t_valid.flags.writeable = False
        if len(_TRUTHS) >= _TRUTHS_MAX:
            _TRUTHS.clear()
        entry = _TRUTHS[key] = (
            truth, columns, t_values, t_valid, int(np.count_nonzero(t_valid))
        )
    _, columns, t_values, t_valid, valid = entry
    if valid < EQUIV_MIN_VALID:
        return EquivalenceVerdict(
            False, "none", valid, None, "insufficient domain overlap"
        )
    h_values, h_valid = evaluate_columns(hypothesis, columns, EQUIV_POINTS)
    shared = h_valid & t_valid
    undefined = valid - int(np.count_nonzero(shared))
    t = t_values[shared]
    rel = np.abs(h_values[shared] - t) / np.maximum(np.abs(t), EQUIV_ABS_FLOOR)
    max_rel = float(rel.max()) if rel.size else None
    if undefined:
        detail = f"hypothesis undefined at {undefined} of {valid} points"
        return EquivalenceVerdict(False, "numeric", valid, max_rel, detail)
    agree = not bool(np.any(rel > EQUIV_REL_TOL))
    detail = "" if agree else f"max relative error {max_rel:.3g}"
    return EquivalenceVerdict(agree, "numeric", valid, max_rel, detail)
