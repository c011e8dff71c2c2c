import math
import random
import time

import pytest

from eqgym.expr import (
    Binary,
    Constant,
    ExpressionError,
    ExpressionSyntaxError,
    Unary,
    UnknownFunctionError,
    Variable,
    _tokenize,
    parse,
    render,
)
from gen import random_expression, reference_parse


def test_division_shape():
    assert parse("F / k") == Binary("div", Variable("F"), Variable("k"))


def test_full_formula_shape():
    got = parse("2*np.pi*np.sqrt(l/g)")
    want = Binary(
        "mul",
        Binary("mul", Constant(2.0), Constant(math.pi)),
        Unary("sqrt", Binary("div", Variable("l"), Variable("g"))),
    )
    assert got == want


def test_named_constant_and_function_spellings():
    assert parse("np.pi") == Constant(math.pi)
    assert parse("np.sqrt(x)") == parse("sqrt(x)") == Unary("sqrt", Variable("x"))
    assert parse("np.abs(x)") == Unary("abs", Variable("x"))


@pytest.mark.parametrize("text", ["math.sqrt(x)", "numpy.sqrt(x)", "np.exp2(x)",
                                  "np.linalg(x)", "foo(x)", "np.pi(x)"])
def test_unknown_functions_rejected(text):
    with pytest.raises(UnknownFunctionError):
        parse(text)


def test_power_binds_tighter_than_unary_minus():
    assert parse("-3**2") == Unary("neg", Binary("pow", Constant(3.0), Constant(2.0)))
    assert parse("2**-3") == Binary("pow", Constant(2.0), Constant(-3.0))
    assert parse("2 ** -x") == Binary("pow", Constant(2.0), Unary("neg", Variable("x")))


def test_power_right_associative():
    assert parse("2**3**2") == Binary(
        "pow", Constant(2.0), Binary("pow", Constant(3.0), Constant(2.0))
    )


def test_left_associativity():
    assert parse("a - b - c") == Binary(
        "sub", Binary("sub", Variable("a"), Variable("b")), Variable("c")
    )
    assert parse("a / b * c") == Binary(
        "mul", Binary("div", Variable("a"), Variable("b")), Variable("c")
    )


def test_precedence_mul_over_add():
    assert parse("a + b*c") == Binary(
        "add", Variable("a"), Binary("mul", Variable("b"), Variable("c"))
    )


def test_negative_literal_folds():
    assert parse("-3.5") == Constant(-3.5)
    assert parse("x + -2") == Binary("add", Variable("x"), Constant(-2.0))
    assert parse("(-2)**2") == Binary("pow", Constant(-2.0), Constant(2.0))


@pytest.mark.parametrize(
    "text,value",
    [("1e-06", 1e-06), ("2.5e3", 2500.0), (".5", 0.5), ("5.", 5.0), ("1E+2", 100.0)],
)
def test_scientific_literals(text, value):
    assert parse(text) == Constant(value)


def test_syntax_error_carries_byte_offset():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("a + * b")
    assert err.value.offset == 4
    assert err.value.expected


def test_byte_offset_counts_utf8_bytes():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("π + x")  # 2-byte character up front
    assert err.value.offset == 0
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("x π")
    assert err.value.offset == 2


def test_byte_offset_after_a_wide_space():
    # U+3000 is whitespace of three UTF-8 bytes.
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("x\u3000+ * y")
    assert err.value.offset == 6


def test_long_input_is_rejected_in_linear_time():
    # 4 MB, far too tall a tree.  Tokens are pulled as the parser needs
    # them and the chain is rejected once it passes the cap, so neither
    # the rest of the text nor a bad character at its end is read.
    text = "F/k" + "+0*F" * 1_000_000
    for probe in (text, text + " $"):
        started = time.perf_counter()
        with pytest.raises(ExpressionSyntaxError, match="tree height exceeds 200") as info:
            parse(probe)
        assert time.perf_counter() - started < 2
        assert info.value.offset == 0


def balanced_formula(height: int) -> str:
    """A formula of 2**height leaves whose tree is only height + 1 tall,
    so the parser reads all of it.  The U+3000 spaces (three UTF-8 bytes
    each) keep byte offsets apart from character offsets."""
    text = "x"
    for _ in range(height):
        text = "(" + text + " +\u3000" + text + ")"
    return text


def test_whole_text_is_tokenized_in_linear_time():
    # 300 KB, read to its end: a per-token re-encoding of the text read
    # so far takes tens of seconds on either probe.
    text = "F +\u3000" * 50_000 + "F"
    started = time.perf_counter()
    assert sum(1 for _ in _tokenize(text)) == 100_002
    assert time.perf_counter() - started < 5
    text = balanced_formula(15)
    started = time.perf_counter()
    with pytest.raises(ExpressionSyntaxError, match="unexpected character") as info:
        parse(text + " $")
    assert time.perf_counter() - started < 5
    assert info.value.offset == len((text + " ").encode("utf-8"))


def test_first_problem_in_the_text_is_reported():
    with pytest.raises(UnknownFunctionError):
        parse("foo(x) $")
    with pytest.raises(ExpressionSyntaxError, match="unexpected character"):
        parse("$ foo(x)")
    with pytest.raises(ExpressionSyntaxError, match="syntax error at byte 2"):
        parse("x ) $")


@pytest.mark.parametrize("text", ["", "(a", "a b", "a +", "()", "a ** ", "1e999", "x!"])
def test_malformed_inputs_rejected(text):
    with pytest.raises(ExpressionSyntaxError):
        parse(text)


def test_nesting_depth_capped():
    deep = "(" * 500 + "x" + ")" * 500
    with pytest.raises(ExpressionSyntaxError):
        parse(deep)


def test_tree_height_capped():
    # A flat chain needs no parser recursion, but its tree is as tall as
    # it is long: "F/k" has height 2 and each "+0*F" adds one level.
    assert parse("F/k" + "+0*F" * 198) is not None  # height 200
    for text in ("F/k" + "+0*F" * 199, "F/k" + "+0*F" * 3000,
                 "-(" + "F/k" + "+0*F" * 198 + ")", "F*" * 200 + "F)"):
        with pytest.raises(ExpressionSyntaxError, match="tree height exceeds 200"):
            parse(text)


def test_node_validation():
    with pytest.raises(ValueError):
        Constant(float("inf"))
    with pytest.raises(ValueError):
        Constant(float("nan"))
    with pytest.raises(ValueError):
        Variable("2x")
    with pytest.raises(ValueError):
        Variable("np.pi")
    with pytest.raises(ValueError):
        Unary("foo", Constant(1.0))
    with pytest.raises(ValueError):
        Binary("mod", Constant(1.0), Constant(2.0))


def test_render_golden():
    assert render(parse("F / k")) == "(F / k)"
    assert render(Constant(-3.0)) == "(-3.0)"
    assert render(Unary("neg", Constant(3.0))) == "(-(3.0))"


@pytest.mark.parametrize("text, rendered", [
    ("np.pi", "np.pi"),
    ("-np.pi", "(-np.pi)"),
    ("np.pi**-np.pi", "(np.pi ** (-np.pi))"),
    ("2*np.pi*np.sqrt(l/g)", "((2.0 * np.pi) * np.sqrt((l / g)))"),
    # π spelled as a number is the same constant, so it renders by name.
    ("3.141592653589793", "np.pi"),
    ("-3.141592653589793", "(-3.141592653589793)"),
])
def test_pi_renders_by_name(text, rendered):
    assert render(parse(text)) == rendered
    assert parse(rendered) == parse(text)


def test_round_trip_seeded():
    rng = random.Random(20240817)
    names = ("x", "y", "z", "F", "k")
    for _ in range(400):
        expr = random_expression(rng, names, depth=5, tame=False)
        assert parse(render(expr)) == expr


# --------------------------------------------------------------------------
# The parser against its reference twin


def _outcome(parse_fn, text):
    try:
        return parse_fn(text)
    except ExpressionError as exc:
        return type(exc), str(exc), exc.offset, getattr(exc, "expected", None)


_TRICKY = [
    "-3**2", "-3", "--3", "- 3 ** -2", "-1e999", "-1e999**2", "-1e999 $", "1e999 $",
    "np.pi", "np.pi(x)", "np.foo(x)", "foo(x)", "x.y", "sqrt", "np.sqrt", "np.sqrt(x",
    "2*np.sqrt(l/g)", ".5e-3*x", "5.e+3", "x**-2**3", "( x )", "x ) $", "", "   ",
    "\u3000x\u3000", "x\u3000+ * y", "π + x", "x π", "\ud800", "x + \ud800",
    "٣*x", "x $ 1e999", "np.sqrt(x)$", "(x))", "((x)", "x**", "**x", "x y",
]
for _k in (198, 199, 200, 201):
    _TRICKY += [
        "-" * _k + "3**2", "-" * _k + "x", "-" * _k + "3", "(" * _k + "x" + ")" * _k,
        "(" * _k + "-3**2" + ")" * _k, "np.sqrt(" * _k + "x" + ")" * _k,
        "x**" * _k + "2", "x+" * _k + "x", "np.sqrt(" * _k + "x" + ")" * _k + " $",
        # A flat chain inside a call or a minus: the outer node is too tall.
        "np.sqrt(" + "x+" * (_k - 1) + "x) $", "-(" + "x+" * (_k - 1) + "x) $",
        "-(" + "x+" * (_k - 1) + "x)**2 $", "-2**(" + "x+" * (_k - 1) + "x) $",
    ]

_INSERTS = "()+-*/.eE0123456789xyz_ np$!,^π٣"
_WIDE_SPACES = ("\u3000", "\xa0", "\u2009", "\u2028", "\x85", "\t")


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        r = rng.random()
        if r < 0.3 and i < len(text):
            text = text[:i] + text[i + 1:]  # delete
        elif r < 0.55 and i < len(text):
            text = text[:i] + text[i] + text[i:]  # double
        elif r < 0.85:
            text = text[:i] + rng.choice(_INSERTS) + text[i:]
        else:
            text = text[:i] + rng.choice(_WIDE_SPACES) + text[i:]
    return text


def test_parse_matches_the_reference_parser():
    rng = random.Random(2026)
    corpus = list(_TRICKY)
    for i in range(400):
        expr = random_expression(rng, ("x", "y", "F_1"), depth=5, tame=i % 2 == 0)
        corpus.append(render(expr))
    texts = corpus + [_mutate(rng, rng.choice(corpus)) for _ in range(20_000)]
    errors = set()
    for text in texts:
        expected = _outcome(reference_parse, text)
        assert _outcome(parse, text) == expected, text
        if isinstance(expected, tuple):
            errors.add(expected[0].__name__ + ":" + expected[1].split(" at byte")[0].split(":")[0])
    # Every kind of failure was exercised.
    assert {"ExpressionSyntaxError:unexpected character '$'", "ExpressionSyntaxError:syntax error",
            "UnknownFunctionError:unknown function 'foo'",
            "ExpressionSyntaxError:number literal out of range",
            "ExpressionSyntaxError:expression nested too deeply"} <= errors, errors


def _preorder(expr):
    nodes, stack = [], [expr]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, Binary):
            stack += (node.right, node.left)
    return nodes


def test_parsed_nodes_match_the_public_constructors():
    # The parser builds its nodes without the constructors' checks; no
    # caller may see a difference from the checked nodes that the
    # reference parser builds.
    rng = random.Random(515)
    for i in range(400):
        text = render(random_expression(rng, ("x", "y", "F_1"), depth=5, tame=i % 2 == 0))
        pairs = zip(_preorder(parse(text)), _preorder(reference_parse(text)), strict=True)
        for parsed, checked in pairs:
            assert type(parsed) is type(checked)
            assert parsed == checked
            assert hash(parsed) == hash(checked)
            assert repr(parsed) == repr(checked)
            assert vars(parsed) == vars(checked)
    # The public constructors still check their fields.
    with pytest.raises(ValueError):
        Constant(math.inf)
    with pytest.raises(ValueError):
        Variable("1x")
    with pytest.raises(ValueError):
        Unary("bogus", Constant(1.0))
