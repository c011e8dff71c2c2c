import math
import random
import sys
import threading

import numpy as np
import pytest

from eqgym.environment import bundled_environments
from eqgym.expr import (
    EQUIV_ABS_FLOOR,
    EQUIV_MIN_VALID,
    EQUIV_POINTS,
    EQUIV_REL_TOL,
    DomainError,
    EquivalenceVerdict,
    UnboundVariableError,
    VariableDomain,
    equivalent,
    evaluate,
    evaluate_columns,
    free_variables,
    parse,
    sample_assignments,
    sample_columns,
)
from gen import perturb, random_expression, rewrite

TUBE_FORMULA = "4*np.sqrt(13*k*q*Q/(23*m*L**3))"
TUBE_DOMAINS = {
    "k": VariableDomain(1e8, 1e11, scale_hint="log"),
    "q": VariableDomain(1e-8, 1e-4, scale_hint="log"),
    "Q": VariableDomain(1e-8, 1e-4, scale_hint="log"),
    "m": VariableDomain(1e-4, 1.0, scale_hint="log"),
    "L": VariableDomain(0.01, 10.0, scale_hint="log"),
}


def test_canonical_short_circuit():
    # Forms that share a canonical tree are judged on the seeded points
    # like any other pair, so the verdict carries its evidence.
    verdict = equivalent(
        parse("F / k"),
        parse("F * k**-1"),
        {"F": VariableDomain(0.01, 100.0), "k": VariableDomain(0.1, 1000.0)},
    )
    assert verdict.equivalent
    assert verdict.method == "numeric"
    assert verdict.points_compared == EQUIV_POINTS
    assert verdict.max_rel_error is not None and verdict.max_rel_error <= EQUIV_REL_TOL


def test_numeric_equivalence_through_algebra():
    # Same function, different factoring: the constant pulled out of the root.
    verdict = equivalent(
        parse("np.sqrt(208/23) * np.sqrt(k*q*Q/(m*L**3))"),
        parse(TUBE_FORMULA),
        TUBE_DOMAINS,
    )
    assert verdict.equivalent
    assert verdict.method == "numeric"
    assert verdict.points_compared >= 50
    assert verdict.max_rel_error < 1e-12


def test_close_constant_rejected():
    # Off in the fourth decimal: far beyond rel_tol.
    verdict = equivalent(
        parse("3*np.sqrt(k*q*Q/(m*L**3))"), parse(TUBE_FORMULA), TUBE_DOMAINS
    )
    assert not verdict.equivalent
    assert verdict.method == "numeric"
    expected = abs(3.0 - 4 * math.sqrt(13 / 23)) / (4 * math.sqrt(13 / 23))
    assert verdict.max_rel_error == pytest.approx(expected, rel=1e-6)


def test_very_close_constant_rejected():
    verdict = equivalent(
        parse("3.0072*np.sqrt(k*q*Q/(m*L**3))"), parse(TUBE_FORMULA), TUBE_DOMAINS
    )
    assert not verdict.equivalent


def test_within_tolerance_accepted():
    domains = {"x": VariableDomain(0.5, 2.0)}
    ok = equivalent(parse("x * (1 + 5e-7)"), parse("x"), domains)
    assert ok.equivalent and ok.method == "numeric"
    bad = equivalent(parse("x * (1 + 2e-6)"), parse("x"), domains)
    assert not bad.equivalent


def test_insufficient_overlap():
    domains = {"x": VariableDomain(-10.0, -0.1)}
    verdict = equivalent(parse("np.log(x)"), parse("np.log(x*x/x)"), domains)
    assert not verdict.equivalent
    assert verdict.method == "none"
    assert verdict.detail == "insufficient domain overlap"


def test_partial_overlap_counts_shared_points_only():
    domains = {"x": VariableDomain(-1.0, 1.0)}
    verdict = equivalent(parse("np.sqrt(x)"), parse("np.sqrt(x*x/x)"), domains)
    assert verdict.equivalent
    assert verdict.method == "numeric"
    assert 50 <= verdict.points_compared < 200


def test_deterministic_for_seed():
    domains = {"x": VariableDomain(0.1, 5.0)}
    a = equivalent(parse("np.sin(x)/np.cos(x)"), parse("np.tan(x)"), domains)
    b = equivalent(parse("np.sin(x)/np.cos(x)"), parse("np.tan(x)"), domains)
    assert a == b
    assert a.equivalent


def test_missing_domain_rejected():
    with pytest.raises(UnboundVariableError):
        equivalent(parse("x + y"), parse("x"), {"x": VariableDomain(0.0, 1.0)})


def test_log_sampling_covers_wide_domains():
    # A pair that only disagrees at small magnitudes: linear sampling over
    # (1e-8, 1e4) would almost never draw points below 1.
    domains = {"x": VariableDomain(1e-8, 1e4, scale_hint="auto")}
    verdict = equivalent(parse("x + 1e-7"), parse("x"), domains)
    assert not verdict.equivalent


def _survives(expr, names):
    # Generator hygiene for fuzz: enough shared-validity points and a
    # value scale the relative tolerance can see.
    domains = {n: VariableDomain(0.5, 2.0) for n in names}
    points = sample_assignments(domains, 200, seed=0)
    values = []
    for point in points:
        out = evaluate(expr, point)
        if isinstance(out, DomainError):
            continue
        values.append(abs(out.value))
    if len(values) < 150:
        return False
    values.sort()
    return values[len(values) // 2] > 1e-6


def test_rewrites_stay_equivalent_and_perturbations_do_not():
    rng = random.Random(2718)
    names = ("x", "y")
    domains = {n: VariableDomain(0.5, 2.0) for n in names}
    kept = 0
    while kept < 60:
        expr = random_expression(rng, names, depth=4, tame=True)
        if not _survives(expr, names):
            continue
        kept += 1
        same = rewrite(rng, expr, steps=3)
        verdict = equivalent(same, expr, domains)
        assert verdict.equivalent, (expr, same, verdict)
        off = perturb(rng, expr)
        verdict = equivalent(off, expr, domains)
        assert not verdict.equivalent, (expr, off, verdict)


# --------------------------------------------------------------------------
# The column path against its scalar twins


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _assert_same_points(domains, n, seed):
    points = sample_assignments(domains, n, seed)
    columns = sample_columns(domains, n, seed)
    assert sorted(columns) == sorted(domains)
    for name, column in columns.items():
        assert not column.flags.writeable
        assert _bits(column) == _bits([p[name] for p in points]), (name, seed)


@pytest.mark.parametrize("env", bundled_environments(), ids=lambda e: e.env_id)
def test_sample_columns_match_sample_assignments(env):
    domains = {v.name: v.domain for v in env.inputs + env.dummies}
    for seed in range(100):
        _assert_same_points(domains, 200, seed)


# No float lies strictly between 1.0 and its successor, so every draw for
# `b` is rejected and the rejections shift the draws for `c`.
_REJECTING_DOMAINS = {
    "a": VariableDomain(0.5, 2.0),
    "b": VariableDomain(1.0, math.nextafter(1.0, 2.0), lower_closed=False, upper_closed=False),
    "c": VariableDomain(1e-3, 1e3),
}


def test_sample_columns_fall_back_when_a_draw_is_rejected():
    for seed in range(5):
        _assert_same_points(_REJECTING_DOMAINS, 50, seed)


# Seeds of one, two, three and four 32-bit words, each side of a word
# boundary, and a negative one.
_EDGE_SEEDS = [0, 1, 99, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**100 + 3, -5]


def _twin_domain_sets():
    sets = [{v.name: v.domain for v in env.inputs + env.dummies}
            for env in bundled_environments()]
    return sets + [_REJECTING_DOMAINS]


def test_sample_columns_match_sample_assignments_over_seed_lengths():
    rng = random.Random(64)
    seeds = _EDGE_SEEDS + [rng.getrandbits(64) for _ in range(200)]
    for domains in _twin_domain_sets():
        for seed in seeds:
            _assert_same_points(domains, 200, seed)
        # An empty sample: one empty column per variable.
        _assert_same_points(domains, 0, seeds[0])
    # Seeds that are not ints take the same column path.
    for seed in (True, 2.5, "abc", b"abc"):
        _assert_same_points(_twin_domain_sets()[0], 50, seed)


def test_sample_columns_are_right_on_racing_threads():
    # Threads racing on sample_columns each get sample_assignments' points.
    domains = _twin_domain_sets()
    seeds = [[t * 1000 + i for i in range(40)] for t in range(8)]
    expected = {
        (t, i, j): sample_assignments(domains[j], 50, seed)
        for t, row in enumerate(seeds) for i, seed in enumerate(row)
        for j in range(len(domains))
    }
    start = threading.Barrier(8)
    got = {}

    def draw(t):
        start.wait()
        for i, seed in enumerate(seeds[t]):
            for j, d in enumerate(domains):
                got[t, i, j] = sample_columns(d, 50, seed)

    threads = [threading.Thread(target=draw, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads in the middle of each draw
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got.keys() == expected.keys()
    for k, points in expected.items():
        for name, column in got[k].items():
            assert _bits(column) == _bits([p[name] for p in points]), k


_TWIN_DOMAINS = {
    "moderate": (0.5, 2.0),
    "signed": (-3.0, 3.0),
    "wide": (1e-8, 1e6),
}


@pytest.mark.parametrize("tame", [True, False])
@pytest.mark.parametrize("span", sorted(_TWIN_DOMAINS))
def test_evaluate_columns_matches_evaluate(span, tame):
    names = ("x", "y")
    lower, upper = _TWIN_DOMAINS[span]
    domains = {n: VariableDomain(lower, upper) for n in names}
    rng = random.Random(f"{span}-{tame}")
    points = sample_assignments(domains, 200, seed=3)
    columns = sample_columns(domains, 200, seed=3)
    invalid = 0
    for _ in range(150):
        expr = random_expression(rng, names, depth=5, tame=tame)
        outcomes = [evaluate(expr, p) for p in points]
        values, valid = evaluate_columns(expr, columns, 200)
        expected = [not isinstance(o, DomainError) for o in outcomes]
        assert valid.tolist() == expected, expr
        assert _bits(values[valid]) == _bits(
            [o.value for o in outcomes if not isinstance(o, DomainError)]
        ), expr
        invalid += expected.count(False)
    assert invalid > 0  # the error paths were exercised


_EDGE_VALUES = [0.0, -0.0, -2.0, -0.5, 0.5, 3.0, -3.0, 1e300, -1e300, 1e200,
                -1e200, 1e155, 1e-200, 5e-324, 1.7e308, -1.7e308]


@pytest.mark.parametrize("template", [
    "x**{e}", "(x*y)**{e}", "(x - y)**{e}", "{e}**x", "(-{e})**x", "x**y*{e}",
    "np.sqrt(208/23)*x**{e}", "x + 1e200*1e200", "x*0 + np.log(-1)", "x/(1-1)",
    "x/{e}", "{e}/x", "x*y + np.exp({e})", "np.sqrt({e} - 1) + x", "-(x**{e})",
    "np.abs(x)**{e} - {e}**2", "np.exp(x*{e})", "0**x", "0**(-{e})*x",
])
@pytest.mark.parametrize("e", ["-1", "2", "0.5", "-0.5", "3", "1e308"])
def test_evaluate_columns_matches_evaluate_on_edge_values(template, e):
    text = template.format(e=e)
    expr = parse(text)
    xs = [x for x in _EDGE_VALUES for _ in _EDGE_VALUES]
    ys = [y for _ in _EDGE_VALUES for y in _EDGE_VALUES]
    n = len(xs)
    values, valid = evaluate_columns(expr, {"x": np.array(xs), "y": np.array(ys)}, n)
    outcomes = [evaluate(expr, {"x": x, "y": y}) for x, y in zip(xs, ys)]
    assert valid.tolist() == [not isinstance(o, DomainError) for o in outcomes], text
    assert _bits(values[valid]) == _bits(
        [o.value for o in outcomes if not isinstance(o, DomainError)]
    ), text


def _scalar_equivalent(hypothesis, truth, domains, seed=0):
    # The point-by-point oracle that the column path replaced.
    missing = (free_variables(hypothesis) | free_variables(truth)) - set(domains)
    if missing:
        raise UnboundVariableError(sorted(missing)[0])
    valid = 0
    undefined = 0
    max_rel = None
    agree = True
    for point in sample_assignments(domains, EQUIV_POINTS, seed):
        h = evaluate(hypothesis, point)
        t = evaluate(truth, point)
        if isinstance(t, DomainError):
            continue
        valid += 1
        if isinstance(h, DomainError):
            undefined += 1
            continue
        scale = max(abs(t.value), EQUIV_ABS_FLOOR)
        rel = abs(h.value - t.value) / scale
        if max_rel is None or rel > max_rel:
            max_rel = rel
        if rel > EQUIV_REL_TOL:
            agree = False
    if valid < EQUIV_MIN_VALID:
        return EquivalenceVerdict(
            False, "none", valid, None, "insufficient domain overlap"
        )
    if undefined:
        detail = f"hypothesis undefined at {undefined} of {valid} points"
        return EquivalenceVerdict(False, "numeric", valid, max_rel, detail)
    detail = "" if agree else f"max relative error {max_rel:.3g}"
    return EquivalenceVerdict(agree, "numeric", valid, max_rel, detail)


def _assert_same_verdict(hypothesis, truth, domains, seed=0):
    new = equivalent(hypothesis, truth, domains, seed)
    old = _scalar_equivalent(hypothesis, truth, domains, seed)
    assert new == old, (hypothesis, truth, new, old)
    if old.max_rel_error is not None:
        assert _bits([new.max_rel_error]) == _bits([old.max_rel_error])


@pytest.mark.parametrize("tame", [True, False])
@pytest.mark.parametrize("span", sorted(_TWIN_DOMAINS))
def test_equivalent_matches_scalar_oracle_on_random_pairs(span, tame):
    names = ("x", "y")
    lower, upper = _TWIN_DOMAINS[span]
    domains = {n: VariableDomain(lower, upper) for n in names}
    rng = random.Random(f"pairs-{span}-{tame}")
    for i in range(40):
        truth = random_expression(rng, names, depth=4, tame=tame)
        # Several hypotheses per truth, so the cached truth is reused.
        for hypothesis in (
            rewrite(rng, truth, steps=3),
            perturb(rng, truth),
            random_expression(rng, names, depth=4, tame=tame),
        ):
            _assert_same_verdict(hypothesis, truth, domains, seed=i % 3)


def test_equivalent_matches_scalar_oracle_on_bundled_environments():
    rng = random.Random(99)
    for env in bundled_environments():
        domains = env.domains()
        names = tuple(sorted(domains))
        for seed in (0, 7):
            for hypothesis in (
                rewrite(rng, env.equation, steps=3),
                perturb(rng, env.equation),
                random_expression(rng, names, depth=4, tame=True),
            ):
                _assert_same_verdict(hypothesis, env.equation, domains, seed)
