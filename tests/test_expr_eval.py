import math
import random

import pytest

from eqgym.expr import DomainError, Value, evaluate, parse

MIRROR_FORMULA = (
    "((np.sqrt((1 + beta_0)/(1 - beta_0)) + 2*E/(m*299792458**2))**2 - 1)"
    " / ((np.sqrt((1 + beta_0)/(1 - beta_0)) + 2*E/(m*299792458**2))**2 + 1)"
)
DISK_FORMULA = "2*epsilon_0*E_0*a/np.sqrt(a**2 - r**2)"
TUBE_FORMULA = "4*np.sqrt(13*k*q*Q/(23*m*L**3))"


def val(text, **bindings):
    return evaluate(parse(text), bindings)


def test_simple_values():
    assert val("F / k", F=10.0, k=20.0) == Value(0.5)
    assert val("2**-3") == Value(0.125)
    assert val("np.pi") == Value(math.pi)
    assert val("(-2)**2") == Value(4.0)
    assert val("-3**2") == Value(-9.0)


def test_disk_field_example():
    assert val(DISK_FORMULA, epsilon_0=1.0, E_0=1.0, a=2.0, r=0.0) == Value(2.0)


def test_disk_field_error_region():
    out = val(DISK_FORMULA, epsilon_0=1.0, E_0=1.0, a=1.0, r=2.0)
    assert isinstance(out, DomainError)
    assert out.reason == "negative-sqrt"


def test_tube_constant():
    out = val(TUBE_FORMULA, k=1.0, q=1.0, Q=1.0, m=1.0, L=1.0)
    assert isinstance(out, Value)
    assert out.value == pytest.approx(4 * math.sqrt(13 / 23), rel=1e-15)


def test_mirror_zero_energy_reduces_to_initial_velocity():
    rng = random.Random(310)
    expr = parse(MIRROR_FORMULA)
    for _ in range(100):
        beta = rng.uniform(-0.99, 0.99)
        out = evaluate(expr, {"beta_0": beta, "E": 0.0, "m": 5.0})
        assert isinstance(out, Value)
        assert abs(out.value - beta) <= 1e-12


@pytest.mark.parametrize(
    "text,bindings,reason",
    [
        ("x / y", {"x": 1.0, "y": 0.0}, "division-by-zero"),
        ("np.sqrt(x)", {"x": -4.0}, "negative-sqrt"),
        ("np.log(x)", {"x": 0.0}, "log-nonpositive"),
        ("np.log(x)", {"x": -1.0}, "log-nonpositive"),
        ("np.asin(x)", {"x": 2.0}, "asin-acos-out-of-range"),
        ("np.acos(x)", {"x": -1.5}, "asin-acos-out-of-range"),
        ("x ** 0.5", {"x": -2.0}, "pow-domain"),
        ("x ** y", {"x": 0.0, "y": -1.0}, "division-by-zero"),
        ("np.exp(x)", {"x": 1000.0}, "overflow"),
        ("x * x", {"x": 1e200}, "overflow"),
        ("x + y", {"x": 1.0}, "unbound-variable"),
    ],
)
def test_domain_errors(text, bindings, reason):
    out = val(text, **bindings)
    assert isinstance(out, DomainError)
    assert out.reason == reason


def test_unbound_variable_names_subject():
    out = val("x + y", x=1.0)
    assert isinstance(out, DomainError)
    assert out.detail == "no value for 'y'"


def test_magnitude_cutoff():
    assert val("x * 10", x=1e299) == Value(1e300)
    out = val("x * 10", x=2e299)
    assert isinstance(out, DomainError)
    assert out.reason == "overflow"


def test_nonfinite_binding_is_overflow():
    out = val("x", x=float("nan"))
    assert isinstance(out, DomainError)
    assert out.reason == "overflow"


def test_evaluate_never_raises_on_fuzz():
    import gen

    rng = random.Random(99)
    names = ("x", "y")
    for _ in range(300):
        expr = gen.random_expression(rng, names, depth=5, tame=False)
        point = {"x": rng.uniform(-50, 50), "y": rng.uniform(-50, 50)}
        out = evaluate(expr, point)
        assert isinstance(out, (Value, DomainError))
        if isinstance(out, Value):
            assert math.isfinite(out.value) and abs(out.value) <= 1e300


@pytest.mark.parametrize("big", [10**400, -10**400, 10**5000],
                         ids=["1e400", "-1e400", "1e5000"])
def test_int_binding_beyond_float_range_is_overflow(big):
    # 10**5000 has more digits than the interpreter converts to text.
    assert val("x*2", x=big) == DomainError("overflow", "x")


@pytest.mark.parametrize("binding", ["a", None, [1], {}, object()],
                         ids=["str", "None", "list", "dict", "object"])
def test_binding_that_is_not_a_number_is_a_domain_error(binding):
    out = val("x*2", x=binding)
    assert isinstance(out, DomainError)
    assert out.reason == "not-a-number"
    assert out.detail == "value for 'x' is not a number"
