"""The platform over seeded generated environments (see gen.py): the
scripted baselines at L1 and L4 must leave no error cell, leak no true
name at L4, see the same results through an environment's anonymous
twin, and write the same log on a rerun."""

from __future__ import annotations

import json
import math
import random
import re

import gen

from eqgym.agents import agent_from_spec
from eqgym.environment import load_spec, run_experiment
from eqgym.expr import DomainError, sample_assignments
from eqgym.harness import RunPlan, execute

SEED = 31
COUNT = 100
LOG_SWEEP_LIMIT = "has no usable positive range for a log sweep"


def _environments():
    rng = random.Random(SEED)
    return [load_spec(gen.random_environment_document(rng, f"gen_{i}")) for i in range(COUNT)]


def _outcome(result):
    """A run_experiment result without the names its detail text uses."""
    if isinstance(result, DomainError):
        return result.reason
    return result.value.hex()


def test_each_generated_environment_matches_its_anonymous_twin():
    for env in _environments():
        twin = env.anonymous
        naming = dict(zip(env.input_names(), twin.input_names()))
        points = sample_assignments(env.domains(), 20, SEED)
        points.append({name: 1.0 for name in env.input_names()})
        for point in points:
            renamed = {naming[name]: value for name, value in point.items()}
            assert _outcome(run_experiment(env, point)) == _outcome(
                run_experiment(twin, renamed)), (env.env_id, point)


def test_the_baselines_run_clean_on_generated_environments(tmp_path):
    envs = _environments()
    agents = (agent_from_spec("scripted:power_law"), agent_from_spec("scripted:random"))
    plan = RunPlan(envs, ("L1", "L4"), agents, seed=SEED, parallelism=1)
    record = execute(plan, tmp_path / "a")
    execute(plan, tmp_path / "b")
    log = (tmp_path / "a" / "run.jsonl").read_bytes()
    assert log == (tmp_path / "b" / "run.jsonl").read_bytes()
    kinds = [json.loads(line)["kind"] for line in log.splitlines()]
    assert "error" not in kinds and record.errors == []
    assert len(record.transcripts) == len(envs) * 2 * len(agents)

    true_names = {"yield_g", "spare_g"} | {name for env in envs for name in env.input_names()}
    for t in record.transcripts:
        if t["level"] == "L4":
            words = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", json.dumps(t)))
            assert not words & true_names, (t["env_id"], sorted(words & true_names))

    # The one expected protocol failure: the power-law baseline cannot lay
    # a log sweep over an input whose domain holds no positive range.  It
    # is counted apart, so that a rise in it, or any other failure, shows.
    failed = [t for t in record.transcripts if t["status"] == "protocol_failure"]
    assert all(t["agent"] == "power_law" and LOG_SWEEP_LIMIT in t["failure_reason"]
               for t in failed), failed
    no_positive_range = [env.env_id for env in envs
                         if any(v.domain.upper <= 0 for v in env.inputs)]
    assert sorted({t["env_id"] for t in failed}) == sorted(no_positive_range)
    assert len(failed) == 2 * len(no_positive_range)
