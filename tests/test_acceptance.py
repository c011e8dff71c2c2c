"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with its runtime against the allowed budget."""

from __future__ import annotations

import json
import math
import random
import re
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from conftest import ACCEPTANCE_RESULTS
from gen import perturb, random_expression, rewrite

from eqgym.agents import (
    PowerLawAgentFactory,
    RandomAgentFactory,
    parse_turn,
    serialize_turn,
)
from eqgym.environment import bundled_environments, run_experiment
from eqgym.evaluation import difficulty, fit_report, oracle_test
from eqgym.expr import (
    DomainError,
    Value,
    Variable,
    VariableDomain,
    equivalent,
    evaluate,
    parse,
    sample_assignments,
)
from eqgym.harness import build_plan, execute
from eqgym.session import ACTIVE, ObservationPacket, Session, TerminalSession

ENVS = {env.env_id: env for env in bundled_environments()}


def _announce(line: str) -> None:
    ACCEPTANCE_RESULTS.append(line)
    print(line, flush=True)


@contextmanager
def criterion(number: int, label: str, budget: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        _announce(f"[FAIL] criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - started
    if elapsed > budget:
        _announce(
            f"[FAIL] criterion {number}: {label} "
            f"(took {elapsed:.2f}s, budget {budget:.0f}s)"
        )
        raise AssertionError(f"criterion {number} exceeded its {budget:.0f}s budget")
    _announce(f"[PASS] criterion {number}: {label} ({elapsed:.2f}s / {budget:.0f}s)")


# --------------------------------------------------------------------------
# 1. Equivalence oracle fidelity on the anchor cases

def test_criterion_1_equivalence_oracle_fidelity():
    with criterion(1, "equivalence oracle fidelity on anchor cases", 1.0):
        disk = ENVS["env_409"]
        missing_factor = parse("epsilon_0*E_0*a/np.sqrt(a**2 - r**2)")
        assert not oracle_test(disk, missing_factor).equivalent

        for form in (
            "2*a*epsilon_0*E_0/np.sqrt(a**2 - r**2)",
            "a*(a**2 - r**2)**-0.5 * (2*epsilon_0*E_0)",
            "2*epsilon_0*E_0*a/np.sqrt((a - r)*(a + r))",
        ):
            verdict = oracle_test(disk, parse(form))
            assert verdict.equivalent, (form, verdict)

        tube = ENVS["env_716"]
        for text in (
            "3*np.sqrt(k*q*Q/(m*L**3))",
            "3.0072*np.sqrt(k*q*Q/(m*L**3))",
        ):
            assert not oracle_test(tube, parse(text)).equivalent, text

        mirror = ENVS["env_310"]
        rng = random.Random(310)
        for _ in range(100):
            beta = rng.uniform(-0.989, 0.989)
            out = run_experiment(mirror, {"beta_0": beta, "E": 0.0, "m": 1.0})
            assert isinstance(out, Value)
            assert abs(out.value - beta) <= 1e-12


# --------------------------------------------------------------------------
# 2. Randomized equivalence soundness

def _usable(expr, names) -> bool:
    # generator hygiene: enough valid points and a value scale the
    # relative tolerance can see, so every kept pair is decidable
    domains = {n: VariableDomain(0.5, 2.0) for n in names}
    values = []
    for point in sample_assignments(domains, 200, seed=0):
        out = evaluate(expr, point)
        if isinstance(out, DomainError):
            continue
        values.append(abs(out.value))
    if len(values) < 150:
        return False
    values.sort()
    return values[len(values) // 2] > 1e-6


def test_criterion_2_randomized_equivalence_soundness():
    with criterion(2, "randomized equivalence soundness on 600 pairs", 30.0):
        rng = random.Random(97)
        names = ("x", "y")
        domains = {n: VariableDomain(0.5, 2.0) for n in names}
        false_negatives = []
        false_positives = []
        kept = 0
        while kept < 300:
            expr = random_expression(rng, names, depth=4, tame=True)
            if not _usable(expr, names):
                continue
            kept += 1
            same = rewrite(rng, expr, steps=3)
            verdict = equivalent(same, expr, domains)
            if not verdict.equivalent:
                false_negatives.append((expr, same, verdict))
            off = perturb(rng, expr)
            verdict = equivalent(off, expr, domains)
            if verdict.equivalent:
                false_positives.append((expr, off, verdict))
        assert not false_negatives, false_negatives[:3]
        assert not false_positives, false_positives[:3]


# --------------------------------------------------------------------------
# 3. Metric correctness against a brute-force twin

def _brute_tau_b(x, y):
    n = len(x)
    concordant = discordant = tied_x = tied_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0:
                tied_x += 1
            if dy == 0:
                tied_y += 1
            if dx == 0 or dy == 0:
                continue
            if (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) // 2
    denominator = math.sqrt((n0 - tied_x) * (n0 - tied_y))
    if denominator == 0:
        return None
    return (concordant - discordant) / denominator


def _brute_metrics(pred, obs):
    n = len(pred)
    ss_res = sum((p - o) ** 2 for p, o in zip(pred, obs))
    mean = sum(obs) / n
    ss_tot = sum((o - mean) ** 2 for o in obs)
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-18 else None
    else:
        r2 = 1.0 - ss_res / ss_tot
    mse = ss_res / n
    tau = _brute_tau_b(pred, obs) if n >= 2 else None
    ratios = [abs(p - o) / abs(o) for p, o in zip(pred, obs) if abs(o) > 1e-12]
    mape = sum(ratios) / len(ratios) if ratios else None
    return r2, mse, tau, mape


def _close(a, b):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_criterion_3_metric_correctness():
    with criterion(3, "fit metrics agree with a brute-force twin", 5.0):
        hypothesis = Variable("p")
        rng = random.Random(33)
        for case in range(1000):
            n = rng.randrange(2, 30)
            if case % 3 == 0:
                # heavy ties: small integer grids
                pred = [float(rng.randrange(-3, 4)) for _ in range(n)]
                obs = [float(rng.randrange(-3, 4)) for _ in range(n)]
            elif case % 7 == 0:
                # zero variance in the observations
                pred = [rng.uniform(-5, 5) for _ in range(n)]
                obs = [rng.choice([0.0, 2.5])] * n
            else:
                pred = [rng.uniform(-100, 100) for _ in range(n)]
                obs = [rng.uniform(-100, 100) for _ in range(n)]
            history = [({"p": p}, o) for p, o in zip(pred, obs)]
            report = fit_report(hypothesis, history)
            r2, mse, tau, mape = _brute_metrics(pred, obs)
            assert _close(report.r2, r2), (case, report.r2, r2)
            assert _close(report.mse, mse), (case, report.mse, mse)
            assert _close(report.kendall_tau, tau), (case, report.kendall_tau, tau)
            assert _close(report.mape, mape), (case, report.mape, mape)

        # hand-checked anchor: SS_res=56 against SS_tot=8 is R^2 = -6
        history = [({"p": 4.0}, 2.0), ({"p": -6.0}, 0.0), ({"p": 8.0}, 4.0)]
        assert fit_report(hypothesis, history).r2 == -6.0


# --------------------------------------------------------------------------
# 4. Session accounting invariants under fuzzed turns

def _random_turn(rng, names):
    proposals = []
    for _ in range(rng.randrange(0, 3)):
        roll = rng.random()
        if roll < 0.55:
            proposals.append({n: rng.uniform(-5.0, 5.0) for n in names})
        elif roll < 0.70:
            proposals.append({n: rng.choice([True, "oops", None]) for n in names})
        elif roll < 0.85:
            proposals.append({"alien_key": 1.0})
        else:
            proposals.append("not an object")
    formula = rng.choice(["", "", "1 +", " + ".join(names), f"{names[0]}**2"])
    return SimpleNamespace(
        next_experiments=proposals,
        test_hypothesis_flag=rng.random() < 0.15,
        current_hypothesis_formula=formula,
    )


def test_criterion_4_session_accounting_invariants():
    with criterion(4, "session accounting invariants over 10000 turns", 5.0):
        rng = random.Random(44)
        envs = list(ENVS.values())
        turns_done = 0
        session_index = 0
        while turns_done < 10_000:
            env = envs[session_index % len(envs)]
            session_index += 1
            session = Session(
                env,
                rng.choice(("L1", "L2", "L3", "L4")),
                experiments_quota=rng.randrange(0, 8),
                test_quota=rng.randrange(0, 3),
                seed=rng.randrange(1 << 16),
            )
            names = list(session.header.controllable_variables)
            statuses = [session.status]
            for _ in range(12):
                if session.status != ACTIVE:
                    break
                tests_used_before = session.test_quota - session.tests_remaining
                experiments_before = session.experiments_remaining
                history_before = list(session._history)
                outcome = session.submit_turn(_random_turn(rng, names))
                turns_done += 1
                # quota conservation
                assert (
                    session.experiments_remaining + len(session._history)
                    == session.experiments_quota
                )
                assert session.experiments_remaining >= 0
                assert session.tests_remaining >= 0
                assert (
                    session.experiments_remaining
                    == experiments_before - len(outcome.executed)
                )
                # test accounting
                tests_used = session.test_quota - session.tests_remaining
                spent = 1 if outcome.oracle is not None else 0
                assert tests_used == tests_used_before + spent
                # append-only history
                assert session._history[: len(history_before)] == history_before
                statuses.append(session.status)
            # monotone status: a single terminal state, never re-entered
            terminal = [s for s in statuses if s != ACTIVE]
            assert all(s == terminal[0] for s in terminal)
            if session.status != ACTIVE:
                with pytest.raises(TerminalSession):
                    session.submit_turn(_random_turn(rng, names))
        assert turns_done >= 10_000


# --------------------------------------------------------------------------
# 5. Masking leak-freedom

def test_criterion_5_masking_leak_freedom():
    with criterion(5, "L4 transcripts leak no true names; L2 hides context", 5.0):
        for env in ENVS.values():
            session = Session(env, "L4", experiments_quota=20,
                                  test_quota=2, seed=99)
            agent = RandomAgentFactory(batch=5).build(session)
            while session.status == ACTIVE and session.experiments_remaining > 0:
                session.submit_turn(agent.act(session.observation_packet()))
            assert len(session._history) == 20
            text = json.dumps(session.transcript())
            tokens = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
            true_names = {v.name for v in env.inputs + env.dummies} | {env.output.name}
            leaked = tokens & true_names
            assert not leaked, (env.env_id, sorted(leaked))
        for env in ENVS.values():
            packet = Session(env, "L2").observation_packet()
            assert packet.problem_description == "Unknown context."


# --------------------------------------------------------------------------
# 6. Deterministic scripted baseline, end to end

def test_criterion_6_deterministic_baseline(tmp_path):
    with criterion(6, "prior-blind power-law baseline, byte-identical logs", 60.0):
        levels = ("L1", "L2", "L3", "L4")
        plan = build_plan(
            list(ENVS.values()), levels, [PowerLawAgentFactory()], seed=616,
        )
        record = execute(plan, out_dir=tmp_path / "a")
        execute(plan, out_dir=tmp_path / "b")
        assert (
            (tmp_path / "a" / "run.jsonl").read_bytes()
            == (tmp_path / "b" / "run.jsonl").read_bytes()
        )
        assert len(record.transcripts) == 40
        assert record.errors == []

        by_cell = {(t["env_id"], t["level"]): t for t in record.transcripts}
        for level in levels:
            for env_id in ("hooke", "env_716"):
                t = by_cell[(env_id, level)]
                assert t["solved"], (env_id, level)
                assert t["experiments_used"] <= 12
                assert t["tests_used"] <= 2
            assert not by_cell[("env_409", level)]["solved"]

        solved_sets = {
            level: {
                t["env_id"] for t in record.transcripts
                if t["level"] == level and t["solved"]
            }
            for level in levels
        }
        assert len(set(map(frozenset, solved_sets.values()))) == 1, solved_sets


# --------------------------------------------------------------------------
# 7. Wire-protocol golden documents

GOLDEN_INPUT = {
    "problem_description": (
        "Investigating the relationship between the extension x of an ideal "
        "spring (within its elastic limit) and the applied force F. The "
        "spring constant is k."
    ),
    "controllable_variables": {
        "F": "The applied force on the ideal spring in Newtons (N).",
        "k": "The spring constant in Newtons per meter (N/m).",
    },
    "observable_variable": {
        "x": "The extension of the spring in meters (m).",
    },
    "historical_experiments": [],
    "quota": {
        "experiments_quota": 10,
        "test_quota": 2,
    },
}

GOLDEN_OUTPUT = {
    "next_experiments": [
        {"F": 0.5, "k": 10},
        {"F": 1.0, "k": 10},
        {"F": 2.0, "k": 10},
        {"F": 1.0, "k": 20},
        {"F": 1.0, "k": 5},
    ],
    "test_hypothesis_flag": False,
    "current_hypothesis_formula": "F / k",
}


def test_criterion_7_wire_protocol_golden():
    with criterion(7, "wire-protocol golden documents round-trip", 1.0):
        packet = ObservationPacket.from_wire(GOLDEN_INPUT)
        assert packet.to_wire() == GOLDEN_INPUT
        assert packet.problem_description == GOLDEN_INPUT["problem_description"]
        assert packet.quota == {"experiments_quota": 10, "test_quota": 2}
        assert packet.last_oracle_result is None

        fresh = Session(
            ENVS["hooke"], "L1", experiments_quota=10, test_quota=2
        ).observation_packet()
        assert fresh.to_wire() == GOLDEN_INPUT

        turn = parse_turn(GOLDEN_OUTPUT)
        assert turn.next_experiments == GOLDEN_OUTPUT["next_experiments"]
        assert turn.test_hypothesis_flag is False
        assert turn.current_hypothesis_formula == "F / k"
        assert serialize_turn(turn) == GOLDEN_OUTPUT


# --------------------------------------------------------------------------
# 8. Difficulty bucketing

def test_criterion_8_difficulty_bucketing():
    with criterion(8, "difficulty buckets match declarations", 1.0):
        assert difficulty(ENVS["env_310"]).group == "1-3"
        assert difficulty(ENVS["env_409"]).group == "4-6"
        for env in ENVS.values():
            assert difficulty(env).group == env.difficulty_group, env.env_id
