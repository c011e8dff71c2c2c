"""The draw and check plans against the code they replaced (tests/gen.py):
RandomAgent proposals and sample_assignments must match the old
VariableDomain.sample, run_experiment its old body, and the experiments of
Session.submit_turn its old loop, bit for bit."""

import dataclasses
import itertools
import math
import random
from types import MappingProxyType, SimpleNamespace

import pytest

from eqgym.agents import RandomAgent, RandomAgentFactory
from eqgym.environment import LEVELS, bundled_environments, run_experiment, shown_environment
from eqgym.expr import DomainError, Value, VariableDomain, sample_assignments
from eqgym.session import Session
from gen import reference_experiments, reference_run_experiment, reference_sample

QUOTA = 1600


def _log_upper_rounding_up() -> float:
    # An upper bound that exp(log(upper)) overshoots (1000 + 2 ulps).
    x = 1000.0
    while not math.exp(math.log(x)) > x:
        x = math.nextafter(x, math.inf)
    return x


_UPPER = _log_upper_rounding_up()

# Domains whose draws the rejection loop must handle as it always did.
EDGE_DOMAINS = {
    # lo + span*u rounds onto either bound; the lower one is open.
    "open_bound": VariableDomain(1e16, 1e16 + 4, lower_closed=False),
    # Draws that round to log(upper) come back above upper.
    "log_overshoot": VariableDomain(_UPPER * (1 - 1e-14), _UPPER, scale_hint="log"),
    # Holds no float: every draw is rejected and the midpoint is returned.
    "midpoint": VariableDomain(
        1.0, math.nextafter(1.0, 2.0), lower_closed=False, upper_closed=False
    ),
    "log_auto": VariableDomain(1e-3, 1e3),
    "linear": VariableDomain(-2.0, 3.0),
}


def _bits(rows):
    return [[(name, value.hex()) for name, value in row.items()] for row in rows]


def _reference_proposals(domains, rng, count):
    return [{name: reference_sample(d, rng) for name, d in domains.items()}
            for _ in range(count)]


def _assert_agent_matches(agent, domains, seed):
    rng = random.Random(seed)
    remaining = QUOTA
    while remaining:
        turn = agent.act(SimpleNamespace(quota={"experiments_quota": remaining}))
        expected = _reference_proposals(domains, rng, min(agent.batch, remaining))
        assert _bits(turn.next_experiments) == _bits(expected)
        remaining -= len(expected)


def test_edge_domains_reach_every_branch():
    rng = random.Random(1)
    assert any(EDGE_DOMAINS["open_bound"].lower + 4 * rng.random() == 1e16
               for _ in range(50))
    overshoot = EDGE_DOMAINS["log_overshoot"]
    lo, hi = math.log(overshoot.lower), math.log(overshoot.upper)
    assert math.exp(hi) > overshoot.upper
    draws = [lo + (hi - lo) * rng.random() for _ in range(500)]
    assert hi in draws and any(overshoot.contains(math.exp(v)) for v in draws)
    assert EDGE_DOMAINS["midpoint"].sample(rng) == 1.0


@pytest.mark.parametrize("level", ["L1", "L4"])
def test_random_agent_draws_match_the_reference(level):
    for env in bundled_environments():
        session = Session(env, level, experiments_quota=QUOTA, test_quota=0, seed=17)
        agent = RandomAgentFactory(batch=3).build(session)
        by_true = env.domains()
        domains = {d: by_true[t] for d, t in session.header.name_map.items()}
        _assert_agent_matches(agent, domains, session.seed)
        assert _bits(sample_assignments(domains, QUOTA, 23)) == _bits(
            _reference_proposals(dict(sorted(domains.items())), random.Random(23), QUOTA)
        )


def test_edge_domain_draws_match_the_reference():
    for seed in range(3):
        _assert_agent_matches(RandomAgent(EDGE_DOMAINS, seed, 3), EDGE_DOMAINS, seed)
        for name, domain in EDGE_DOMAINS.items():
            rng = random.Random(seed)
            assert _bits(sample_assignments({name: domain}, QUOTA, seed)) == _bits(
                [{name: reference_sample(domain, rng)} for _ in range(QUOTA)]
            )
            rng, twin = random.Random(seed), random.Random(seed)
            assert [domain.sample(rng).hex() for _ in range(200)] == [
                reference_sample(domain, twin).hex() for _ in range(200)
            ]


def _same(env, row):
    """Assert that run_experiment and the reference agree; return the
    reference's outcome."""
    try:
        expected = reference_run_experiment(env, row)
    except ValueError as err:
        with pytest.raises(ValueError) as raised:
            run_experiment(env, row)
        assert str(raised.value) == str(err)
        return err
    got = run_experiment(env, row)
    assert type(got) is type(expected)
    if isinstance(expected, Value):
        assert got.value.hex() == expected.value.hex()
    else:
        assert isinstance(got, DomainError)
        assert (got.reason, got.detail) == (expected.reason, expected.detail)
    return expected


_ODD_VALUES = [math.nan, math.inf, -math.inf, True, False, 10**400, -(10**400),
               "1.5", None, 0, 1, 10**6]


def _rows(env):
    names = [v.name for v in env.controllables()]
    domains = env.domains()
    base = sample_assignments(domains, 200, 5)
    rows = [{n: p[n] for n in names} for p in base]
    # Corners, and each variable at, just beyond and far beyond its bounds.
    for corner in itertools.product(*[(domains[n].lower, domains[n].upper) for n in names]):
        rows.append(dict(zip(names, corner)))
    middle = rows[0]
    for n in names:
        d = domains[n]
        for value in (d.lower, d.upper, math.nextafter(d.lower, -math.inf),
                      math.nextafter(d.upper, math.inf), d.lower - 1.0, d.upper * 2.0,
                      *_ODD_VALUES):
            rows.append({**middle, n: value})
    # Two bad values: the first out of domain in controllables order is
    # named, and a value that is not a number counts wherever it stands.
    for a, b in itertools.permutations(names, 2):
        below = domains[a].lower - (domains[a].upper - domains[a].lower)
        above = domains[b].upper + (domains[b].upper - domains[b].lower)
        for value in (above, math.nan, "1.5"):
            rows.append({**middle, a: below, b: value})
    # Every value converted, and a mapping that is not a dict.
    rows.append({n: math.ceil(d.lower) for n, d in domains.items()})
    rows.append(MappingProxyType(middle))
    # The wrong variable set, with the same message.
    rows.append({n: middle[n] for n in names[1:]})
    rows.append({**middle, "extra": 1.0})
    return rows


def test_run_experiment_matches_the_reference():
    for env in bundled_environments():
        for row in _rows(env):
            _same(env, row)


def test_run_experiment_matches_the_reference_on_validity_violations():
    env = next(e for e in bundled_environments() if e.env_id == "env_409")
    violations = 0
    for row in sample_assignments(env.domains(), 400, 9):
        row = {v.name: row[v.name] for v in env.controllables()}
        for r in (row["r"], row["a"], math.nextafter(row["a"], math.inf)):
            outcome = _same(env, {**row, "r": r})
            violations += getattr(outcome, "reason", None) == "validity"
    assert violations >= 400


def _validity_rows(env, names):
    """env_409 rows with r below, at and just above a (r < a is its
    constraint), in the names `names` maps the true ones to."""
    rows = []
    for row in sample_assignments(env.domains(), 400, 9):
        for r in (row["r"], row["a"], math.nextafter(row["a"], math.inf)):
            rows.append({names[v.name]: {**row, "r": r}[v.name] for v in env.controllables()})
    return rows


def _bits_or_text(entries):
    return [[(k, v.hex() if type(v) is float else v) for k, v in e.items()] for e in entries]


@pytest.mark.parametrize("level", ["L1", "L4"])
def test_submit_turn_matches_the_reference(level):
    """Each turn's experiments against the old loop: its entry built and
    checked, then the old run_experiment.  The quota runs out part way
    through the last turns, so proposals are dropped too."""
    for env in bundled_environments():
        shown = shown_environment(env, LEVELS[level])
        rows = _rows(shown) + [[1.0], None, "F=1", MappingProxyType({})]
        if env.env_id == "env_409":
            to_shown = {t: d for d, t in
                        Session(env, level).header.name_map.items()}
            rows += _validity_rows(env, to_shown)
        runnable = len(rows) - reference_experiments(shown, len(rows), rows)[4]
        quota = runnable - 5  # the last 5 runnable rows are dropped
        session = Session(env, level, experiments_quota=quota, test_quota=1)
        remaining, skipped = quota, 0
        for start in range(0, len(rows), 7):
            batch = rows[start:start + 7]
            entries, notices, malformed, dropped, remaining = reference_experiments(
                shown, remaining, batch)
            out = session.submit_turn(SimpleNamespace(
                next_experiments=batch, test_hypothesis_flag=False,
                current_hypothesis_formula=""))
            assert _bits_or_text(out.executed) == _bits_or_text(entries), (env.env_id, batch)
            assert (out.notices, out.malformed, out.dropped) == (notices, malformed, dropped)
            assert session.experiments_remaining == remaining
            skipped += malformed
        assert remaining == 0 and out.dropped > 0 and skipped > 0
        history = session.transcript()["experiments"]
        assert _bits_or_text(history) == _bits_or_text(reference_experiments(shown, quota, rows)[0])
        reasons = {e["invalid"].split(":")[0] for e in history if "invalid" in e}
        assert "out-of-domain" in reasons and any(shown.output.name in e for e in history)
        assert ("validity" in reasons) == (env.env_id == "env_409")


def test_a_replaced_environment_gets_its_own_plan():
    env = next(e for e in bundled_environments() if e.env_id == "hooke")
    row = {"F": 50.0, "k": 100.0}
    assert isinstance(run_experiment(env, row), Value)  # plan built for env
    narrow = dataclasses.replace(env, inputs=tuple(
        dataclasses.replace(v, domain=VariableDomain(v.domain.lower, 10.0))
        for v in env.inputs
    ))
    for twin in (narrow, env):
        _same(twin, row)
    assert isinstance(run_experiment(narrow, row), DomainError)
    renamed = dataclasses.replace(env, inputs=(
        dataclasses.replace(env.inputs[0], name="G"), env.inputs[1]
    ))
    _same(renamed, row)
    _same(renamed, {"G": 50.0, "k": 100.0})
