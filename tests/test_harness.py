from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import _ExecutorManagerThread
from dataclasses import dataclass, field, replace
from pathlib import Path

import pytest

import eqgym
from eqgym import evaluation, expr, harness
from eqgym.agents import HttpAgentFactory, PowerLawAgentFactory, RandomAgentFactory
from eqgym.environment import bundled_environments, load_spec, spec_to_dict
from eqgym.harness import (
    _LOG_ENCODER,
    HTTP_PARALLEL_CAP,
    EmptyRun,
    PlanError,
    RunPlan,
    _cells,
    _default_parallelism,
    _run_cells,
    _split_budget,
    build_plan,
    cell_seed,
    execute,
    judge_seed,
    load_run,
    main,
    plan_hash,
    report_text,
    run_session,
)

ENVS = {env.env_id: env for env in bundled_environments()}


class CrashOnBuild:
    name = "crash_build"

    def build(self, session):
        raise RuntimeError("refused to start")


class CrashOnAct:
    name = "crash_act"

    def build(self, session):
        return self

    def act(self, packet):
        raise RuntimeError("boom mid-session")

    def close(self):
        pass


# --------------------------------------------------------------------------
# Plans and seeding

def test_build_plan_rejects_unknown_level():
    with pytest.raises(PlanError, match="L5"):
        build_plan([ENVS["hooke"]], ["L1", "L5"], [PowerLawAgentFactory()])


@pytest.mark.parametrize("kwargs", [
    {"environments": [], "levels": ["L1"]},
    {"levels": []},
    {"agents": []},
    {"experiments_quota": -1},
    {"replicates": 0},
    {"parallelism": 0},
    {"environments": [ENVS["hooke"], ENVS["hooke"]]},
])
def test_build_plan_rejects(kwargs):
    base = {
        "environments": [ENVS["hooke"]],
        "levels": ["L1"],
        "agents": [PowerLawAgentFactory()],
    }
    base.update(kwargs)
    with pytest.raises(PlanError):
        build_plan(**base)
    with pytest.raises(PlanError):
        RunPlan(**base)


def test_build_plan_rejects_duplicate_agent_names():
    with pytest.raises(PlanError, match="duplicate agent"):
        build_plan([ENVS["hooke"]], ["L1"],
                   [RandomAgentFactory(), RandomAgentFactory()])


def test_cell_seed_is_stable_and_distinct():
    a = cell_seed(0, "hooke", "L1", "power_law", 0)
    assert a == cell_seed(0, "hooke", "L1", "power_law", 0)
    others = {
        cell_seed(0, "hooke", "L2", "power_law", 0),
        cell_seed(0, "env_716", "L1", "power_law", 0),
        cell_seed(0, "hooke", "L1", "random", 0),
        cell_seed(0, "hooke", "L1", "power_law", 1),
        cell_seed(1, "hooke", "L1", "power_law", 0),
    }
    assert a not in others
    assert len(others) == 5
    # The judge seed: one per (plan seed, environment, replicate), whatever
    # the level or agent, and never the seed of a cell.
    j = judge_seed(0, "hooke", 0)
    assert j == judge_seed(0, "hooke", 0)
    judges = {
        judge_seed(0, "env_716", 0),
        judge_seed(0, "hooke", 1),
        judge_seed(1, "hooke", 0),
    }
    assert j not in judges
    assert len(judges) == 3
    cells = {
        cell_seed(0, "hooke", level, agent, 0)
        for level in ("L1", "L2", "L3", "L4")
        for agent in ("power_law", "random")
    }
    assert j not in cells and a in cells


def test_plan_hash_tracks_content():
    plan_a = build_plan([ENVS["hooke"]], ["L1"], [PowerLawAgentFactory()])
    plan_b = build_plan([ENVS["hooke"]], ["L1"], [PowerLawAgentFactory()])
    plan_c = build_plan([ENVS["hooke"]], ["L2"], [PowerLawAgentFactory()])
    assert plan_hash(plan_a) == plan_hash(plan_b)
    assert plan_hash(plan_a) != plan_hash(plan_c)
    # Pinned: a changed hash changes the bytes of every run log.
    assert plan_hash(plan_a) == "c7d8d4747901a66c"


def test_plan_line_lists_the_hashed_fields(tmp_path):
    plan = RunPlan((ENVS["hooke"], ENVS["env_716"]), ("L1", "L4"),
                   (PowerLawAgentFactory(),), experiments_quota=7, test_quota=2,
                   seed=3, replicates=2, parallelism=1)
    record = execute(plan, tmp_path)
    line = json.loads((tmp_path / "run.jsonl").read_text().split("\n")[0])
    fields = {
        "environments": ["hooke", "env_716"],
        "levels": ["L1", "L4"],
        "agents": ["power_law"],
        "experiments_quota": 7,
        "test_quota": 2,
        "seed": 3,
        "replicates": 2,
    }
    assert line == {"kind": "plan", "plan_hash": plan_hash(plan),
                    "version": eqgym.__version__, **fields}
    assert list(line) == ["kind", "plan_hash", "version", *fields]
    assert record.plan_hash == plan_hash(plan)
    assert record.version == eqgym.__version__


def test_default_parallelism_honours_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert _default_parallelism() == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)))
    assert _default_parallelism() == 32
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _default_parallelism() == 64


@pytest.mark.parametrize("forked, http, budget, capped, split", [
    # No HTTP cell: the whole budget forks, and the threads go unused.
    (32, 0, 32, True, (32, 32)),
    # Only HTTP cells: threads, capped when the budget counts CPUs.
    (0, 32, 32, True, (0, HTTP_PARALLEL_CAP)),
    (0, 16, 16, False, (0, 16)),
    # Mixed: the pool and the threads each get the whole budget, which
    # _run_cells keeps them within together.
    (20, 20, 2, False, (2, 2)),
    (20, 20, 32, False, (20, 32)),
    (30, 10, 4, False, (4, 4)),
    (36, 4, 2, False, (2, 2)),
    (4, 36, 4, False, (4, 4)),
    # The cap bounds the threads, and the pool gets the budget, but no
    # more processes than forked cells.
    (200, 200, 32, True, (32, HTTP_PARALLEL_CAP)),
    (10, 90, 32, True, (10, HTTP_PARALLEL_CAP)),
    # One worker runs every cell on one thread.
    (1, 1, 1, False, (0, 1)),
    # No more processes than forked cells.
    (1, 36, 4, False, (1, 4)),
])
def test_fork_pool_and_threads_share_one_budget(forked, http, budget, capped, split):
    threaded = [False] * forked + [True] * http
    if sys.platform.startswith("linux") or split[0] == 0:
        assert _split_budget(threaded, budget, capped) == split
    else:
        assert _split_budget(threaded, budget, capped) == (0, split[1])


# --------------------------------------------------------------------------
# Single sessions

def test_run_session_solves_hooke():
    transcript = run_session(ENVS["hooke"], "L1", PowerLawAgentFactory(), seed=7)
    assert transcript["status"] == "solved"
    assert transcript["experiments_used"] == 5
    assert transcript["tests_used"] == 1


def test_run_session_build_crash_is_protocol_failure():
    transcript = run_session(ENVS["hooke"], "L1", CrashOnBuild(), seed=7)
    assert transcript["status"] == "protocol_failure"
    assert "refused to start" in transcript["failure_reason"]


def test_run_session_act_crash_is_protocol_failure():
    transcript = run_session(ENVS["hooke"], "L1", CrashOnAct(), seed=7)
    assert transcript["status"] == "protocol_failure"
    assert "boom" in transcript["failure_reason"]


def test_run_session_max_turns_forces_exhausted():
    @dataclass
    class Staller:
        name: str = "staller"

        def build(self, session):
            return self

        def act(self, packet):
            # keeps re-recording a hypothesis forever, never tests
            from eqgym.agents import AgentTurn
            return AgentTurn([], False, "F / k")

        def close(self):
            pass

    # The turn cap is experiments_quota + test_quota + 8.
    transcript = run_session(ENVS["hooke"], "L1", Staller(), seed=7,
                             experiments_quota=1, test_quota=0)
    assert transcript["status"] == "exhausted"
    assert transcript["turn_count"] == 9


def test_run_session_tall_formula_is_a_notice():
    @dataclass
    class TallFormula:
        name: str = "tall"

        def build(self, session):
            return self

        def act(self, packet):
            from eqgym.agents import AgentTurn
            return AgentTurn([], True, "F/k" + "+0*F" * 3000)

        def close(self):
            pass

    transcript = run_session(ENVS["hooke"], "L1", TallFormula(), seed=7,
                             experiments_quota=0, test_quota=1)
    assert transcript["kind"] == "transcript"
    assert transcript["status"] == "exhausted"
    assert transcript["tests_used"] == 0
    assert any(text.startswith("hypothesis not usable: expression nested too deeply")
               for _, text in transcript["notices"])


def test_run_session_non_finite_proposals_are_notices():
    @dataclass
    class NonFinite:
        name: str = "non_finite"

        def build(self, session):
            return self

        def act(self, packet):
            from eqgym.agents import AgentTurn
            proposals = json.loads(
                '[{"F": NaN, "k": 1.0}, {"F": 1e400, "k": 1.0},'
                ' {"F": 1' + "0" * 400 + ', "k": 1.0}, {"F": 1.0, "k": 10.0}]'
            )
            return AgentTurn(proposals, False, "")

        def close(self):
            pass

    # Two turns: each runs one experiment, which the quota allows.
    transcript = run_session(ENVS["hooke"], "L1", NonFinite(), seed=7,
                             experiments_quota=2, test_quota=0)
    assert transcript["kind"] == "transcript"
    assert transcript["status"] == "exhausted"
    assert transcript["experiments_used"] == 2
    assert transcript["experiments"] == [{"F": 1.0, "k": 10.0, "x": 0.1}] * 2
    skipped = [text for _, text in transcript["notices"] if "finite" in text]
    assert len(skipped) == 6
    json.dumps(transcript, allow_nan=False)


def test_run_session_mixed_type_proposal_keys_are_a_notice():
    @dataclass
    class MixedKeys:
        name: str = "mixed_keys"

        def build(self, session):
            return self

        def act(self, packet):
            from eqgym.agents import AgentTurn
            return AgentTurn([{"F": 1.0, 1: 2.0, "x": 3.0}, {"F": 1.0, "k": 10.0}],
                             False, "")

        def close(self):
            pass

    transcript = run_session(ENVS["hooke"], "L1", MixedKeys(), seed=7,
                             experiments_quota=2, test_quota=0)
    assert transcript["kind"] == "transcript"
    assert transcript["status"] == "exhausted"
    assert transcript["experiments"] == [{"F": 1.0, "k": 10.0, "x": 0.1}] * 2
    assert [text for _, text in transcript["notices"]] == [
        "experiment proposal skipped: bad variable set: missing ['k'], unknown [1, 'x']",
    ] * 2


class CrashOnClose:
    name = "crash_close"

    def build(self, session):
        return self

    def act(self, packet):
        from eqgym.agents import AgentTurn
        return AgentTurn([{"F": 1.0, "k": 10.0}], True, "F / k")

    def close(self):
        raise RuntimeError("close failed")


def test_an_agent_whose_close_raises_still_returns_its_transcript():
    transcript = run_session(ENVS["hooke"], "L1", CrashOnClose(), seed=7)
    assert transcript["kind"] == "transcript"
    assert transcript["status"] == "solved" and transcript["failure_reason"] is None


class MistypedTurn:
    """An in-process agent whose one turn proposes a number and submits a
    formula as bytes."""

    name = "mistyped"

    def build(self, session):
        return self

    def act(self, packet):
        from eqgym.agents import AgentTurn
        return AgentTurn(5, True, b"F / k")

    def close(self):
        pass


def test_a_mistyped_in_process_turn_is_logged_as_notices(tmp_path):
    plan = small_plan(environments=[ENVS["hooke"]], levels=["L1"],
                      agents=[MistypedTurn()], parallelism=1)
    record = execute(plan, out_dir=tmp_path / "run")
    assert record.errors == []
    log = (tmp_path / "run" / "run.jsonl").read_text().splitlines()
    [line] = [json.loads(line) for line in log if '"kind": "transcript"' in line]
    assert line == record.transcripts[0]
    assert line["status"] == "exhausted"
    assert (line["experiments_used"], line["tests_used"], line["hypotheses"]) == (0, 0, [])
    assert [text for _, text in line["notices"]] == [
        "experiment proposals skipped: next_experiments must be a list",
        "hypothesis not usable: current_hypothesis_formula must be a string or null",
        "test skipped: no hypothesis submitted this turn",
    ]


# --------------------------------------------------------------------------
# Full runs

def small_plan(**kwargs):
    defaults = dict(
        environments=[ENVS["hooke"], ENVS["env_716"], ENVS["env_409"]],
        levels=["L1", "L4"],
        agents=[PowerLawAgentFactory()],
        seed=3,
    )
    defaults.update(kwargs)
    return build_plan(**defaults)


def test_execute_covers_every_cell(tmp_path):
    record = execute(small_plan(), out_dir=tmp_path / "run")
    assert len(record.transcripts) == 6
    assert record.errors == []
    keys = {(t["env_id"], t["level"]) for t in record.transcripts}
    assert len(keys) == 6


def _judged_hooke(monkeypatch, replicates):
    """Run hooke x L1-L4 with the power-law agent on one thread, and return
    the record and the seeds that the judge's points were sampled for."""
    calls = []
    original = expr.sample_columns

    def counting(domains, n, seed):
        calls.append(seed)
        return original(domains, n, seed)

    monkeypatch.setattr(expr, "_TRUTHS", {})
    monkeypatch.setattr(expr, "sample_columns", counting)
    plan = build_plan([ENVS["hooke"]], ["L1", "L2", "L3", "L4"],
                      [PowerLawAgentFactory()], seed=3, replicates=replicates,
                      parallelism=1)
    record = execute(plan)
    assert len(record.transcripts) == 4 * replicates
    assert all(t["tests_used"] >= 1 for t in record.transcripts)
    return record, calls


def test_one_environment_replicate_samples_the_judges_points_once(monkeypatch):
    # Every level of one replicate is judged on one point set, so the truth
    # cache fills once per replicate, not once per cell.
    record, calls = _judged_hooke(monkeypatch, replicates=2)
    assert calls == [judge_seed(3, "hooke", 0), judge_seed(3, "hooke", 1)]
    for t in record.transcripts:
        assert t["seed"] == cell_seed(3, "hooke", t["level"], t["agent"], t["replicate"])


def test_many_replicates_sample_the_judges_points_once_each(monkeypatch):
    # Cells come back to each replicate in turn, so a truth cache that
    # cleared itself below the plan's replicate count would refill every
    # replicate on every test.
    _, calls = _judged_hooke(monkeypatch, replicates=70)
    assert sorted(calls) == sorted(judge_seed(3, "hooke", r) for r in range(70))


def test_the_judge_seed_follows_from_the_run_log(tmp_path, monkeypatch):
    judged = []
    original = evaluation.oracle_test

    def recording(env, hypothesis, seed=0):
        judged.append(seed)
        return original(env, hypothesis, seed=seed)

    monkeypatch.setattr(evaluation, "oracle_test", recording)
    plan = small_plan(agents=[PowerLawAgentFactory(), RandomAgentFactory()],
                      replicates=2, parallelism=1)
    execute(plan, out_dir=tmp_path / "run")
    lines = (tmp_path / "run" / "run.jsonl").read_text(encoding="utf-8").splitlines()
    documents = [json.loads(line) for line in lines]
    plan_line = documents[0]
    expected = [
        judge_seed(plan_line["seed"], t["env_id"], t["replicate"])
        for t in documents if t["kind"] == "transcript"
        for _ in range(t["tests_used"])
    ]
    assert len(expected) >= 12
    assert judged == expected


def test_execute_is_byte_identical_across_executions(tmp_path):
    logs = []
    for name in ("a", "b"):
        execute(small_plan(), out_dir=tmp_path / name)
        logs.append((tmp_path / name / "run.jsonl").read_bytes())
    assert logs[0] == logs[1]


def test_execute_parallelism_does_not_change_the_log(tmp_path):
    execute(small_plan(parallelism=1), out_dir=tmp_path / "serial")
    execute(small_plan(parallelism=4), out_dir=tmp_path / "pooled")
    assert (
        (tmp_path / "serial" / "run.jsonl").read_bytes()
        == (tmp_path / "pooled" / "run.jsonl").read_bytes()
    )


def test_each_log_line_is_json_dumps_of_its_document(tmp_path):
    plan = small_plan(agents=[PowerLawAgentFactory(), RandomAgentFactory(), CrashOnBuild()])
    execute(plan, out_dir=tmp_path / "run")
    lines = (tmp_path / "run" / "run.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 3 + 18  # the plan, its environments, its cells
    for line in lines:
        assert line == json.dumps(json.loads(line))


def test_execute_isolates_crashing_cells(tmp_path):
    plan = small_plan(agents=[CrashOnAct(), PowerLawAgentFactory()])
    record = execute(plan, out_dir=tmp_path / "run")
    assert len(record.transcripts) == 12
    failed = [t for t in record.transcripts if t["agent"] == "crash_act"]
    healthy = [t for t in record.transcripts if t["agent"] == "power_law"]
    assert all(t["status"] == "protocol_failure" for t in failed)
    assert {t["status"] for t in healthy} == {"solved", "exhausted"}


def test_execute_without_out_dir_returns_record_only():
    record = execute(small_plan())
    assert record.out_dir is None
    assert len(record.transcripts) == 6


def test_run_record_file_lists_every_cell(tmp_path):
    execute(small_plan(), out_dir=tmp_path / "run")
    summary = json.loads((tmp_path / "run" / "run_record.json").read_text())
    assert len(summary["cells"]) == 6
    assert summary["plan_hash"] == plan_hash(small_plan())


def test_run_record_lists_cells_in_log_order(tmp_path, monkeypatch):
    # An error document used to be listed after every transcript.
    run_session = eqgym.harness.run_session

    def failing_on_hooke(env, *args, **kwargs):
        if env.env_id == "hooke":
            raise RuntimeError("cell failed")
        return run_session(env, *args, **kwargs)

    monkeypatch.setattr(eqgym.harness, "run_session", failing_on_hooke)
    plan = small_plan(levels=["L1"], parallelism=1)
    record = execute(plan, out_dir=tmp_path / "run")
    assert len(record.errors) == 1 and len(record.transcripts) == 2
    summary = json.loads((tmp_path / "run" / "run_record.json").read_text())
    listed = [(c["env_id"], c["level"], c["agent"]) for c in summary["cells"]]
    assert listed == cell_order(tmp_path / "run", plan)
    assert [c["status"] for c in summary["cells"]][0] == "error"


# --------------------------------------------------------------------------
# Process pool

linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="the fork pool runs on Linux only"
)


@dataclass
class CountingPowerLaw:
    """A power-law factory that records each build in the process running it."""

    name: str = "power_law"
    builds: list = field(default_factory=list)

    def build(self, session):
        self.builds.append(session.seed)
        return PowerLawAgentFactory().build(session)


class ExitOnAct:
    name = "exit_act"

    def build(self, session):
        return self

    def act(self, packet):
        os._exit(3)

    def close(self):
        pass


@dataclass
class SlowPowerLaw:
    """A power-law factory whose agents take delay seconds per turn and
    append when each turn ran to log, from whichever process runs them."""

    log: Path
    delay: float
    name: str = "power_law"
    agent: object = None

    def build(self, session):
        return replace(self, agent=PowerLawAgentFactory().build(session))

    def act(self, packet):
        start = time.monotonic()
        time.sleep(self.delay)
        with open(self.log, "a") as log:
            log.write(f"{start} {time.monotonic()}\n")
        return self.agent.act(packet)

    def close(self):
        self.agent.close()

    def turns(self):
        return [tuple(map(float, line.split()))
                for line in self.log.read_text().splitlines()]


class ChatTransport:
    """An in-process HTTP endpoint: tests the hypothesis 2 until the test
    quota is spent, then idles.  Takes delay seconds per call and records
    the thread that served each call and when it ran."""

    def __init__(self, delay=0.0):
        self.delay = delay
        self.threads = []
        self.calls = []  # (start, end) on time.monotonic()
        self._lock = threading.Lock()

    def __call__(self, url, headers, body):
        start = time.monotonic()
        if self.delay:
            time.sleep(self.delay)
        with self._lock:
            self.threads.append(threading.current_thread().name)
            self.calls.append((start, time.monotonic()))
        spent = '"test_quota": 0' in json.loads(body)["messages"][0]["content"]
        content = json.dumps({
            "next_experiments": [],
            "test_hypothesis_flag": not spent,
            "current_hypothesis_formula": "" if spent else "2",
        })
        return json.dumps({"choices": [{"message": {"content": content}}]})


def most_at_once(intervals):
    """The largest number of the (start, end) intervals open at one time."""
    events = sorted([(start, 1) for start, _ in intervals]
                    + [(end, -1) for _, end in intervals])
    running = peak = 0
    for _, step in events:
        running += step
        peak = max(peak, running)
    return peak


def mixed_plan(agents, parallelism):
    return small_plan(agents=agents, test_quota=2, parallelism=parallelism)


def cell_lines(run_dir, plan):
    lines = (run_dir / "run.jsonl").read_text().splitlines()
    return lines[1 + len(plan.environments):]


def cell_order(run_dir, plan):
    cells = [json.loads(line) for line in cell_lines(run_dir, plan)]
    return [(d["env_id"], d["level"], d["agent"]) for d in cells]


def count_encodes(monkeypatch, path):
    """Make every process that runs _LOG_ENCODER.encode append its pid to
    path, and return a reader of those pids."""
    encode = _LOG_ENCODER.encode

    def counting(document):
        with open(path, "a", encoding="utf-8") as out:
            out.write(f"{os.getpid()}\n")
        return encode(document)

    monkeypatch.setattr(_LOG_ENCODER, "encode", counting)
    return lambda: [int(pid) for pid in path.read_text().split()] if path.exists() else []


@linux_only
def test_execute_fork_pool_writes_the_thread_pool_log(tmp_path):
    # 96 cells: at 2 workers a chunk holds 6 cells, so cells cross chunk
    # boundaries, and crashing agents sit between the healthy ones.
    def plan(factory, parallelism):
        return build_plan(
            [ENVS["hooke"], ENVS["env_716"], ENVS["env_409"]],
            ["L1", "L2", "L3", "L4"],
            [factory, RandomAgentFactory(), CrashOnBuild(), CrashOnAct()],
            experiments_quota=20, seed=11, replicates=2, parallelism=parallelism,
        )

    threaded, forked = CountingPowerLaw(), CountingPowerLaw()
    execute(plan(threaded, 1), out_dir=tmp_path / "threads")
    record = execute(plan(forked, 2), out_dir=tmp_path / "fork")
    assert (
        (tmp_path / "threads" / "run.jsonl").read_bytes()
        == (tmp_path / "fork" / "run.jsonl").read_bytes()
    )
    assert len(record.transcripts) == 96 and record.errors == []
    # Agents are built in the process that runs the cell: the caller's on
    # threads, a worker's on the pool, whose side effects stay there.
    assert len(threaded.builds) == 24
    assert forked.builds == []


@linux_only
def test_execute_encodes_each_cell_line_in_the_worker_that_ran_it(
        tmp_path, monkeypatch):
    def plan(parallelism):
        return small_plan(agents=[PowerLawAgentFactory(), RandomAgentFactory()],
                          parallelism=parallelism)

    execute(plan(1), out_dir=tmp_path / "threads")
    pids = count_encodes(monkeypatch, tmp_path / "encodes")
    forked = plan(2)
    record = execute(forked, out_dir=tmp_path / "fork")
    assert len(record.transcripts) == 12 and record.errors == []
    # The parent encodes the plan line and one line per environment; the
    # workers encode the 12 cell lines, with the same bytes.
    encoders = pids()
    assert encoders.count(os.getpid()) == 1 + len(forked.environments)
    assert len(encoders) == 1 + len(forked.environments) + 12
    assert (
        (tmp_path / "threads" / "run.jsonl").read_bytes()
        == (tmp_path / "fork" / "run.jsonl").read_bytes()
    )


@linux_only
@pytest.mark.parametrize("parallelism", [2, 1])
def test_execute_without_a_log_encodes_no_line(tmp_path, monkeypatch, parallelism):
    # Forked cells, HTTP cells on threads, and at 1 every cell on a thread.
    pids = count_encodes(monkeypatch, tmp_path / "encodes")
    http = HttpAgentFactory("inproc://test", transport=ChatTransport())
    record = execute(mixed_plan([PowerLawAgentFactory(), http], parallelism))
    assert len(record.transcripts) == 12 and record.errors == []
    assert pids() == []


def test_execute_keeps_http_plans_in_the_callers_process(tmp_path):
    exchanges = []
    idle = json.dumps({
        "next_experiments": [],
        "test_hypothesis_flag": False,
        "current_hypothesis_formula": "",
    })

    def transport(url, headers, body):
        exchanges.append(body)
        return json.dumps({"choices": [{"message": {"content": idle}}]})

    http = HttpAgentFactory("inproc://test", transport=transport)
    plan = small_plan(agents=[http, PowerLawAgentFactory()], replicates=2,
                      parallelism=2)
    record = execute(plan, out_dir=tmp_path / "run")
    sessions = [t for t in record.transcripts if t["agent"] == "http"]
    assert len(sessions) == 12
    assert sum(t["turn_count"] for t in sessions) == len(exchanges) == 12


@linux_only
def test_execute_survives_a_dying_pool_worker(tmp_path):
    plan = small_plan(agents=[PowerLawAgentFactory(), ExitOnAct()], parallelism=2)
    record = execute(plan, out_dir=tmp_path / "run")
    assert len(record.transcripts) + len(record.errors) == 12
    assert {t["agent"] for t in record.transcripts} <= {"power_law"}
    assert sum(e["agent"] == "exit_act" for e in record.errors) == 6
    for error in record.errors:
        assert error["error"].startswith("BrokenProcessPool: worker pid ")
        assert "exited with code 3 before this cell finished" in error["error"]
    assert cell_order(tmp_path / "run", plan) == [
        (env.env_id, level, factory.name)
        for env in plan.environments
        for level in plan.levels
        for factory in plan.agents
    ]
    # Every logged line, the parent's error documents too, is the log
    # encoder's bytes for one document of the record.
    assert sorted(cell_lines(tmp_path / "run", plan)) == sorted(
        map(_LOG_ENCODER.encode, record.transcripts + record.errors))
    summary = json.loads((tmp_path / "run" / "run_record.json").read_text())
    assert len(summary["cells"]) == 12


def test_closing_the_cell_stream_cancels_queued_thread_cells():
    # A cell takes 3 calls of 20 ms, far longer than the caller needs to
    # close the stream once it has read cell 0.
    transport = ChatTransport(delay=0.02)
    http = HttpAgentFactory("inproc://test", transport=transport)
    plan = build_plan(bundled_environments(), ["L1", "L2", "L3", "L4"], [http],
                      test_quota=2, parallelism=2)
    cells = list(_cells(plan))
    assert len(cells) == 40
    stream = _run_cells(plan, cells, 2, encode=True)
    document, line = next(stream)
    assert document["turn_count"] == 3
    assert line == _LOG_ENCODER.encode(document)
    stream.close()
    # Cells 0 and 1 started together, and each thread may have picked up
    # one more cell; none of the other 36 starts.
    assert len(transport.threads) <= 4 * 3


@linux_only
def test_closing_the_cell_stream_stops_threads_waiting_for_a_slot(tmp_path):
    transport = ChatTransport(delay=0.02)
    http = HttpAgentFactory("inproc://test", transport=transport)
    slow = SlowPowerLaw(tmp_path / "turns", delay=0.005)
    plan = build_plan(bundled_environments(), ["L1", "L2", "L3", "L4"],
                      [http, slow], test_quota=2, parallelism=2)
    cells = list(_cells(plan))
    assert len(cells) == 80
    # Two slots: the first chunk of forked cells holds one and cell 0 the
    # other.
    stream = _run_cells(plan, cells, 2, encode=True)
    document, line = next(stream)
    assert document["agent"] == "http"
    assert line == _LOG_ENCODER.encode(document)
    stream.close()
    # While the caller waited for cell 0, cell 2 took the chunk's slot
    # when the chunk ended.  The caller starts units only while it waits
    # for a document, so closing the stream after cell 0 starts no other.
    assert len(transport.threads) <= 2 * 3


def test_closing_the_cell_stream_starts_nothing_on_the_read_cells_slot(
        monkeypatch):
    # The pools' cancel on close would hide a cell started late, so count
    # the submits.  Cell 0 ends long before cell 1.
    submits = []
    submit = ThreadPoolExecutor.submit

    def recording(self, *args, **kwargs):
        submits.append(args)
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", recording)
    fast = HttpAgentFactory("inproc://fast", transport=ChatTransport(), name="fast")
    slow = HttpAgentFactory("inproc://slow", transport=ChatTransport(delay=0.1),
                            name="slow")
    plan = build_plan([ENVS["hooke"], ENVS["env_716"]], ["L1"], [fast, slow],
                      test_quota=2, parallelism=2)
    stream = _run_cells(plan, list(_cells(plan)), 2, encode=True)
    document, line = next(stream)
    assert document["agent"] == "fast"
    assert line == _LOG_ENCODER.encode(document)
    stream.close()
    assert len(submits) == 2


@linux_only
def test_mixed_plan_writes_the_same_log_at_any_parallelism(tmp_path):
    logs = []
    for parallelism in (2, 1):
        counting, transport = CountingPowerLaw(), ChatTransport()
        http = HttpAgentFactory("inproc://test", transport=transport)
        record = execute(mixed_plan([counting, http], parallelism),
                         out_dir=tmp_path / str(parallelism))
        logs.append((tmp_path / str(parallelism) / "run.jsonl").read_bytes())
        sessions = [t for t in record.transcripts if t["agent"] == "http"]
        assert len(sessions) == 6 and record.errors == []
        # The transport in the caller sees every HTTP turn.
        assert sum(t["turn_count"] for t in sessions) == len(transport.threads) == 18
        # Power-law cells run on the pool at 2 workers, in the caller at 1.
        assert len(counting.builds) == (0 if parallelism == 2 else 6)
    assert logs[0] == logs[1]


@linux_only
def test_mixed_plan_forks_before_any_thread_and_keeps_the_budget(tmp_path):
    forks = []
    armed = [True]

    def before_fork():
        if armed[0]:
            forks.append((threading.active_count(),
                          [t.name for t in threading.enumerate()]))

    os.register_at_fork(before=before_fork)
    # The forked cells end well before the HTTP cells.
    slow = SlowPowerLaw(tmp_path / "turns", delay=0.002)
    transport = ChatTransport(delay=0.025)
    http = HttpAgentFactory("inproc://test", transport=transport)
    plan = mixed_plan([slow, http], parallelism=2)
    threads_before = threading.active_count()
    try:
        record = execute(plan, out_dir=tmp_path / "run")
    finally:
        armed[0] = False
    assert len(record.transcripts) == 12 and record.errors == []
    # One fork per worker (the budget of 2), each while no thread of this
    # run, not even the pool's own, existed.
    assert len(forks) == 2
    for count, names in forks:
        assert count == threads_before
        assert not [name for name in names if name.startswith("eqgym-cell")]
    assert all(name.startswith("eqgym-cell") for name in transport.threads)
    # Never more than 2 turns at once on both pools together; once the
    # forked cells are done, the HTTP cells take the whole budget.
    assert most_at_once(slow.turns() + transport.calls) == 2
    assert most_at_once(transport.calls) == 2
    assert cell_lines(tmp_path / "run", plan) == [
        _LOG_ENCODER.encode(document) for document in record.transcripts]


@linux_only
def test_mixed_plan_hands_the_threads_budget_to_the_pool(tmp_path):
    # The mirror of the test above: twice as many forked cells as HTTP
    # cells, and they take far longer.
    turns = tmp_path / "turns"
    slow = [SlowPowerLaw(turns, delay=0.01, name=name) for name in ("slow_a", "slow_b")]
    transport = ChatTransport()
    http = HttpAgentFactory("inproc://test", transport=transport)
    record = execute(mixed_plan([http, *slow], parallelism=2),
                     out_dir=tmp_path / "run")
    assert len(record.transcripts) == 18 and record.errors == []
    forked = slow[0].turns()
    assert most_at_once(forked + transport.calls) == 2
    # Once the last HTTP cell is done, two forked cells run at once.
    http_done = max(end for _, end in transport.calls)
    assert most_at_once([turn for turn in forked if turn[0] > http_done]) == 2


@linux_only
def test_forked_plan_hands_every_chunk_to_the_pool_by_its_first_document(
        monkeypatch):
    # With no cell on a thread, no chunk waits for a slot: the pool has no
    # more workers than the budget.
    submits = []
    submit = ProcessPoolExecutor.submit

    def recording(self, *args, **kwargs):
        submits.append(args[1:])
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording)
    plan = small_plan(agents=[PowerLawAgentFactory(), RandomAgentFactory()],
                      parallelism=2)
    cells = list(_cells(plan))
    stream = _run_cells(plan, cells, 2, encode=True)
    pairs = [next(stream)]
    # 12 cells on 2 workers: 12 chunks of one cell, six times the budget.
    assert submits == [(index, index + 1) for index in range(12)]
    pairs.extend(stream)
    assert [d["kind"] for d, _ in pairs] == ["transcript"] * 12
    assert all(line == _LOG_ENCODER.encode(d) for d, line in pairs)


@linux_only
def test_mixed_plan_hands_every_chunk_left_to_the_pool_once_http_cells_end(
        tmp_path, monkeypatch):
    # The plan of test_mixed_plan_hands_the_threads_budget_to_the_pool,
    # its HTTP cells first so that every chunk is left when they end.
    on_threads, on_pool, waits = set(), [], []
    thread_submit, pool_submit, wait = (ThreadPoolExecutor.submit,
                                        ProcessPoolExecutor.submit, harness.wait)

    def thread_recording(self, *args, **kwargs):
        future = thread_submit(self, *args, **kwargs)
        on_threads.add(future)
        return future

    def pool_recording(self, *args, **kwargs):
        on_pool.append(pool_submit(self, *args, **kwargs))
        return on_pool[-1]

    def wait_recording(futures, **kwargs):
        waits.append((set(futures), len(on_threads), len(on_pool)))
        return wait(futures, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", thread_recording)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", pool_recording)
    monkeypatch.setattr(harness, "wait", wait_recording)
    turns = tmp_path / "turns"
    slow = [SlowPowerLaw(turns, delay=0.01, name=name) for name in ("slow_a", "slow_b")]
    transport = ChatTransport(delay=0.005)
    http = HttpAgentFactory("inproc://test", transport=transport)
    plan = mixed_plan([http, *slow], parallelism=2)
    cells = sorted(_cells(plan), key=lambda cell: cell[2] is not http)
    pairs = list(_run_cells(plan, cells, 2, encode=True))
    assert [d["kind"] for d, _ in pairs] == ["transcript"] * 18
    assert all(line == _LOG_ENCODER.encode(d) for d, line in pairs)
    assert len(on_threads) == 6 and len(on_pool) == 12
    # The first wait after the last HTTP cell ended holds every chunk not
    # yet done, more than the budget's two slots.
    futures, submitted = next((futures, submitted)
                              for futures, started, submitted in waits
                              if started == 6 and not futures & on_threads)
    assert submitted == 12
    assert len(futures) > 2
    # While the last HTTP cell runs, the chunks still need slots.
    assert most_at_once(slow[0].turns() + transport.calls) == 2


@linux_only
def test_http_cells_waiting_for_a_thread_leave_the_budget_to_the_pool(
        tmp_path, monkeypatch):
    # The default budget of 3 CPUs, with one thread for HTTP cells.
    monkeypatch.setattr(harness, "HTTP_PARALLEL_CAP", 1)
    monkeypatch.setattr(harness, "_default_parallelism", lambda: 3)
    slow = SlowPowerLaw(tmp_path / "turns", delay=0.005)
    transport = ChatTransport(delay=0.02)
    http = HttpAgentFactory("inproc://test", transport=transport)
    record = execute(mixed_plan([http, slow], parallelism=None),
                     out_dir=tmp_path / "run")
    assert len(record.transcripts) == 12 and record.errors == []
    forked = slow.turns()
    assert most_at_once(transport.calls) == 1
    assert most_at_once(forked + transport.calls) <= 3
    # While an HTTP cell runs and the next one waits for the thread, the
    # forked cells after it run on the other two slots.
    assert most_at_once(forked) >= 2
    assert any(
        most_at_once([(max(start, turn[0]), min(end, turn[1])) for turn in forked
                      if start < turn[1] and turn[0] < end]) >= 2
        for start, end in transport.calls
    )


@linux_only
def test_mixed_plan_keeps_its_budget_under_thread_switching(tmp_path):
    # More slots than CPUs, short cells and a switch after every few
    # bytecodes, while pool threads finish the futures the caller waits
    # on: a unit end the caller misses or counts twice either runs more
    # cells at once than the budget or never frees a slot again.
    slow = SlowPowerLaw(tmp_path / "turns", delay=0.001)
    transport = ChatTransport()
    http = HttpAgentFactory("inproc://test", transport=transport)
    plan = build_plan(bundled_environments(), ["L1", "L2", "L3", "L4"],
                      [slow, http], test_quota=2, parallelism=4)
    records = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: records.append(execute(plan)),
                                  daemon=True)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    (record,) = records
    assert len(record.transcripts) == 80 and record.errors == []
    assert most_at_once(slow.turns() + transport.calls) <= 4


@linux_only
def test_mixed_plan_hands_out_every_unit_from_the_callers_thread(tmp_path,
                                                                 monkeypatch):
    submits, started = [], []

    def recording(submit):
        def wrapper(self, *args, **kwargs):
            submits.append((type(self), threading.current_thread()))
            return submit(self, *args, **kwargs)
        return wrapper

    for pool in (ThreadPoolExecutor, ProcessPoolExecutor):
        monkeypatch.setattr(pool, "submit", recording(pool.submit))
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    slow = SlowPowerLaw(tmp_path / "turns", delay=0.002)
    http = HttpAgentFactory("inproc://test", transport=ChatTransport(delay=0.005))
    record = execute(mixed_plan([slow, http], parallelism=2))
    assert len(record.transcripts) == 12 and record.errors == []
    # Six HTTP cells and at least one chunk, all submitted by the caller.
    assert sum(pool is ThreadPoolExecutor for pool, _ in submits) == 6
    assert sum(pool is ProcessPoolExecutor for pool, _ in submits) >= 1
    assert {thread for _, thread in submits} == {threading.current_thread()}
    # The only threads are the cell threads and the process pool's own.
    assert started
    for thread in started:
        assert (thread.name.startswith("eqgym-cell")
                or isinstance(thread, _ExecutorManagerThread)
                or thread.name == "QueueFeederThread"), thread.name


@linux_only
def test_mixed_plan_survives_a_dying_pool_worker(tmp_path):
    transport = ChatTransport()
    http = HttpAgentFactory("inproc://test", transport=transport)
    plan = mixed_plan([PowerLawAgentFactory(), ExitOnAct(), http], parallelism=2)
    record = execute(plan, out_dir=tmp_path / "run")
    assert len(record.transcripts) + len(record.errors) == 18
    # HTTP cells run in the caller and finish whatever the pool does.
    sessions = [t for t in record.transcripts if t["agent"] == "http"]
    assert len(sessions) == 6
    assert sum(t["turn_count"] for t in sessions) == len(transport.threads)
    assert {e["agent"] for e in record.errors} <= {"power_law", "exit_act"}
    assert sum(e["agent"] == "exit_act" for e in record.errors) == 6
    for error in record.errors:
        assert error["error"].startswith("BrokenProcessPool: worker pid ")
        assert "exited with code 3 before this cell finished" in error["error"]
    assert cell_order(tmp_path / "run", plan) == [
        (env.env_id, level, factory.name)
        for env in plan.environments
        for level in plan.levels
        for factory in plan.agents
    ]
    # Every logged line, the parent's error documents too, is the log
    # encoder's bytes for one document of the record.
    assert sorted(cell_lines(tmp_path / "run", plan)) == sorted(
        map(_LOG_ENCODER.encode, record.transcripts + record.errors))


# --------------------------------------------------------------------------
# Loading and reporting

def test_load_run_round_trip(tmp_path):
    execute(small_plan(), out_dir=tmp_path / "run")
    transcripts, environments = load_run(tmp_path / "run")
    assert len(transcripts) == 6
    assert {e.env_id for e in environments} == {"hooke", "env_716", "env_409"}
    text = report_text(transcripts, environments,
                       by_difficulty=True, overlap=True)
    assert text.startswith("Model\tMode\t")
    assert "power_law" in text
    assert "Vars" in text
    assert "Solved at" in text


def test_load_run_prefix_of_killed_run_is_readable(tmp_path):
    execute(small_plan(), out_dir=tmp_path / "run")
    log = tmp_path / "run" / "run.jsonl"
    lines = log.read_text().splitlines()
    # drop the tail, as if the process had been killed mid-write
    log.write_text("\n".join(lines[:-2]) + "\n")
    transcripts, _ = load_run(tmp_path / "run")
    assert len(transcripts) == 4
    # killed in the middle of a line: the torn last line is skipped
    log.write_text("\n".join(lines) + "\n")
    log.write_bytes(log.read_bytes()[:-40])
    transcripts, _ = load_run(tmp_path / "run")
    assert len(transcripts) == 5


def test_load_run_rejects_a_malformed_line_that_was_written_whole(tmp_path):
    execute(small_plan(), out_dir=tmp_path / "run")
    log = tmp_path / "run" / "run.jsonl"
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines[:-1] + [lines[-1][:-40]]) + "\n")
    with pytest.raises(json.JSONDecodeError):
        load_run(tmp_path / "run")


HOOKE_TRANSCRIPT = {"kind": "transcript", "env_id": "hooke", "agent": "power_law",
                    "level": "L1", "solved": True, "experiments_used": 3, "tests_used": 1,
                    "turn_count": 2}
HOOKE_SPEC = spec_to_dict(ENVS["hooke"])
MALFORMED_LOG_LINES = {
    "not-an-object": ([1, 2], "not a JSON object"),
    "environment-without-spec": ({"kind": "environment"}, "environment lacks spec"),
    # The report reads every count of a solved transcript.
    **{f"transcript-without-{key}": (
        {k: v for k, v in HOOKE_TRANSCRIPT.items() if k != key}, f"transcript lacks {key}")
       for key in ("env_id", "agent", "level", "experiments_used", "tests_used",
                   "turn_count")},
    # ... with its JSON type: a mistyped one would crash the report or, for
    # solved, count as solved.
    **{f"transcript-with-{key}-{name}": (
        {**HOOKE_TRANSCRIPT, key: value}, f"transcript field {key!r} must be {kind}")
       for key, name, value, kind in (
           ("agent", "a-number", 1, "a string"),
           ("env_id", "a-list", ["hooke"], "a string"),
           ("level", "a-list", ["L1"], "a string"),
           ("experiments_used", "a-string", "3", "an integer"),
           ("tests_used", "a-float", 1.0, "an integer"),
           ("turn_count", "a-bool", True, "an integer"),
           ("solved", "a-string", "false", "true or false"),
           ("solved", "null", None, "true or false"),
       )},
    # ... and the formula of each of its hypotheses.
    **{f"transcript-with-{name}": (
        {**HOOKE_TRANSCRIPT, "hypotheses": hypotheses},
        "transcript hypotheses must be a list of objects with a string formula")
       for name, hypotheses in (
           ("a-hypothesis-without-formula", [{"formula": "F / k"}, {"turn": 1}]),
           ("a-formula-not-a-string", [{"formula": 2.5}]),
           ("a-hypothesis-not-an-object", ["F / k"]),
           ("hypotheses-not-a-list", {"formula": "F / k"}),
           ("null-hypotheses", None),
       )},
    "environment-without-context": (
        {"kind": "environment",
         "spec": {k: v for k, v in HOOKE_SPEC.items() if k != "context"}},
        "environment 'hooke': missing field 'context'"),
    "environment-with-a-bad-equation": (
        {"kind": "environment", "spec": {**HOOKE_SPEC, "equation": "F k"}},
        "environment 'hooke': bad equation: syntax error at byte 2: unexpected 'k', "
        "expected one of: operator, end of input"),
}


@pytest.mark.parametrize("line, message", MALFORMED_LOG_LINES.values(),
                         ids=MALFORMED_LOG_LINES)
def test_report_rejects_a_malformed_log_line_by_number(tmp_path, capsys, line, message):
    log = tmp_path / "run.jsonl"
    log.write_text("\n".join(json.dumps(d) for d in ({"kind": "plan"}, line, HOOKE_TRANSCRIPT)) + "\n")
    with pytest.raises(ValueError, match=f"run.jsonl:2: {message}$"):
        load_run(tmp_path)
    assert main(["report", "--run", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {log}:2: {message}\n"


UNDECODABLE_LOG_LINES = {
    "malformed-json": (b'{"kind": "transcript", }',
                       "Expecting property name enclosed in double quotes: "
                       "line 1 column 24 (char 23)"),
    "not-utf-8": (b'{"kind": "plan", "\xff": 1}',
                  "'utf-8' codec can't decode byte 0xff in position 18: invalid start byte"),
}


@pytest.mark.parametrize("line, message", UNDECODABLE_LOG_LINES.values(),
                         ids=UNDECODABLE_LOG_LINES)
def test_report_names_the_line_that_does_not_decode(tmp_path, capsys, line, message):
    log = tmp_path / "run.jsonl"
    transcript = json.dumps(HOOKE_TRANSCRIPT).encode()
    log.write_bytes(b"\n".join([b'{"kind": "plan"}', line, transcript]) + b"\n")
    with pytest.raises(ValueError, match=f"run.jsonl:2: {re.escape(message)}$"):
        load_run(tmp_path)
    assert main(["report", "--run", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {log}:2: {message}\n"
    # The same bytes torn off the end of a killed run are skipped.
    log.write_bytes(b"\n".join([b'{"kind": "plan"}', transcript, line]))
    assert load_run(tmp_path)[0] == [HOOKE_TRANSCRIPT]


def test_load_run_empty(tmp_path):
    with pytest.raises(EmptyRun):
        load_run(tmp_path)
    (tmp_path / "run.jsonl").write_text('{"kind": "plan"}\n')
    with pytest.raises(EmptyRun):
        load_run(tmp_path)


def test_spec_round_trips_through_dict():
    for env in bundled_environments():
        again = load_spec(spec_to_dict(env))
        assert again == env


def test_environment_metadata_survives_the_run_log(tmp_path):
    metadata = {"source": "Feynman I.12.1", "tags": ["mechanics"], "rank": 3}
    env = load_spec({**spec_to_dict(ENVS["hooke"]), "metadata": metadata})
    execute(build_plan([env], ["L1"], [RandomAgentFactory()], parallelism=1), tmp_path)
    _, (logged,) = load_run(tmp_path)
    assert logged.metadata == metadata and logged == env


# --------------------------------------------------------------------------
# CLI

def env_file(tmp_path, env_id="hooke"):
    path = tmp_path / f"{env_id}.json"
    path.write_text(json.dumps(spec_to_dict(ENVS[env_id])))
    return path


def test_cli_run_and_report(tmp_path, capsys):
    path = env_file(tmp_path)
    out = tmp_path / "out"
    code = main([
        "run", "--envs", str(path), "--levels", "L1,L4",
        "--agent", "scripted:power_law", "--out", str(out), "--seed", "5",
    ])
    assert code == 0
    assert "2 sessions (2 solved" in capsys.readouterr().out

    code = main(["report", "--run", str(out), "--by-difficulty", "--overlap"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("Model\tMode\t")
    assert "100.0" in text
    assert (out / "report.json").exists()


def test_cli_rejects_unknown_level(tmp_path, capsys):
    path = env_file(tmp_path)
    code = main([
        "run", "--envs", str(path), "--levels", "L5",
        "--agent", "scripted:random", "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "L5" in capsys.readouterr().err


def test_cli_run_rejects_a_missing_environment_path(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = main(["run", "--envs", str(missing), "--agent", "scripted:random",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: no environment file or directory at {missing}\n"
    assert not (tmp_path / "out").exists()


def test_cli_validate(tmp_path, capsys):
    path = env_file(tmp_path)
    assert main(["validate", "--envs", str(path)]) == 0
    assert "1 environments valid" in capsys.readouterr().out

    (tmp_path / "bad.json").write_text('{"id": "bad"}')
    assert main(["validate", "--envs", str(tmp_path)]) == 2
    assert "bad" in capsys.readouterr().err


def test_cli_play(tmp_path, capsys):
    path = env_file(tmp_path)
    code = main([
        "play", "--env", str(path), "--level", "L4",
        "--agent", "scripted:power_law", "--seed", "2",
    ])
    assert code == 0
    transcript = json.loads(capsys.readouterr().out)
    assert transcript["status"] == "solved"
    assert transcript["level"] == "L4"


def test_cli_play_resolves_bundled_id(capsys):
    code = main([
        "play", "--env", "hooke", "--level", "L1",
        "--agent", "power_law",
    ])
    assert code == 0
    transcript = json.loads(capsys.readouterr().out)
    assert transcript["env_id"] == "hooke"
    assert transcript["status"] == "solved"


def test_cli_play_unknown_env_fails_cleanly(capsys):
    assert main(["play", "--env", "einstein", "--level", "L1",
                 "--agent", "random"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "hooke" in err


def test_cli_report_missing_run(tmp_path, capsys):
    assert main(["report", "--run", str(tmp_path / "nope")]) == 2


# --------------------------------------------------------------------------
# Package entry points

def run_python(*args):
    src = str(Path(eqgym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def test_python_dash_m_eqgym_runs_the_cli():
    envs = Path(eqgym.__file__).resolve().parent / "envs"
    proc = run_python("-m", "eqgym", "validate", "--envs", str(envs))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "10 environments valid" in proc.stdout


def test_import_eqgym_leaves_scipy_stats_unloaded():
    # scipy is not a runtime dependency: with every scipy import blocked,
    # fit_report still scores a history with ties (tau-b = 4/5).
    proc = run_python("-c", (
        "import sys; sys.modules['scipy'] = None\n"
        "import eqgym\n"
        "history = [({'x': x}, o) for x, o in [(1, 1), (1, 2), (2, 3), (3, 3)]]\n"
        "print(eqgym.fit_report(eqgym.parse('x'), history).kendall_tau)"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0.8"


def test_import_eqgym_leaves_the_http_client_unloaded():
    # Only the default HTTP transport needs urllib.request, which loads
    # http.client, email and ssl; it imports them when it is first called.
    proc = run_python("-c", (
        "import sys\n"
        "import eqgym\n"
        "heavy = ('urllib.request', 'urllib.error', 'http.client', 'email', 'ssl')\n"
        "print(sorted(name for name in heavy if name in sys.modules))\n"
        "try:\n"
        "    eqgym.agents._urllib_transport('http://127.0.0.1:0/', {}, b'{}')\n"
        "except eqgym.agents.TransportError as err:\n"
        "    print(str(err).startswith('agent endpoint unreachable: '))\n"
        "print('urllib.request' in sys.modules)"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "True", "True", ""]


@pytest.mark.parametrize("blocked", [False, True], ids=["numpy-present", "numpy-blocked"])
def test_work_that_judges_nothing_leaves_numpy_unloaded(blocked):
    # numpy is imported by the column oracle and the power-law fit only;
    # with every numpy import blocked, the rest works, the report included.
    envs = Path(eqgym.__file__).resolve().parent / "envs"
    proc = run_python("-c", (
        "import sys\n"
        f"if {blocked}: sys.modules['numpy'] = None\n"
        "loaded = []\n"
        "def step(name): loaded.append(name) if sys.modules.get('numpy') else None\n"
        "import eqgym\n"
        "from eqgym.agents import parse_turn, serialize_turn\n"
        "from eqgym.session import ObservationPacket, Session\n"
        "step('import')\n"
        "envs = {env.env_id: env for env in eqgym.bundled_environments()}\n"
        "step('bundled_environments')\n"
        "agents = [eqgym.agent_from_spec(s) for s in ('scripted:power_law', 'scripted:random')]\n"
        "plan = eqgym.RunPlan(tuple(envs.values()), ('L1', 'L4'), agents)\n"
        "step('RunPlan')\n"
        "transcript = eqgym.harness.run_session(envs['hooke'], 'L1', agents[1], seed=3)\n"
        "step('run_session')\n"
        f"code = eqgym.harness.main(['validate', '--envs', {str(envs)!r}])\n"
        "step('validate')\n"
        "packet = Session(envs['kepler'], 'L2', seed=1).observation_packet()\n"
        "wire = ObservationPacket.from_wire(packet.to_wire()).to_wire()\n"
        "turn = parse_turn({'next_experiments': [{'x': 1.0}],\n"
        "                   'test_hypothesis_flag': True,\n"
        "                   'current_hypothesis_formula': 'x'})\n"
        "reply = serialize_turn(turn)\n"
        "step('wire')\n"
        "solved = dict(transcript, status='solved', solved=True)\n"
        "report = eqgym.harness.report_text([transcript, solved], list(envs.values()),\n"
        "                                   by_difficulty=True, overlap=True)\n"
        "step('report')\n"
        "print(loaded, code, transcript['status'], transcript['experiments_used'],\n"
        "      wire == packet.to_wire(), reply['current_hypothesis_formula'])\n"
        "print(report.split('\\n')[1])"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-3] == "[] 0 exhausted 100 True x"
    # The solved copy's means: 100 experiments, 0 tests, 35 turns.
    assert proc.stdout.split("\n")[-2] == "random\tL1\t50.0\t100.0\t0.0\t35.0\t0.0\t0.0"


@linux_only
def test_judging_leaves_numpy_random_unloaded():
    # The judge draws its points from random.Random, in the parent and in
    # every fork worker; a worker's later cells build their agents after
    # its earlier cells were judged.
    proc = run_python("-c", (
        "import sys\n"
        "import numpy\n"
        "if 'numpy.random' in sys.modules:\n"
        "    print('eager')\n"
        "    raise SystemExit\n"
        "from eqgym import build_plan, bundled_environments, evaluation, execute\n"
        "from eqgym.agents import PowerLawAgentFactory\n"
        "class NoNumpyRandom(PowerLawAgentFactory):\n"
        "    def build(self, session):\n"
        "        if 'numpy.random' in sys.modules:\n"
        "            raise RuntimeError('numpy.random is loaded')\n"
        "        return super().build(session)\n"
        "loaded = []\n"
        "def step(name): loaded.append(name) if 'numpy.random' in sys.modules else None\n"
        "envs = bundled_environments()[:3]\n"
        "verdict = evaluation.oracle_test(envs[0], envs[0].equation, seed=3)\n"
        "step('oracle_test')\n"
        "for parallelism in (1, 2):\n"
        "    plan = build_plan(envs, ['L1', 'L2', 'L3', 'L4'], [NoNumpyRandom()],\n"
        "                      parallelism=parallelism)\n"
        "    record = execute(plan)\n"
        "    step(parallelism)\n"
        "    print(len(record.transcripts), record.errors,\n"
        "          min(t['tests_used'] for t in record.transcripts))\n"
        "print(verdict.equivalent, loaded)"
    ))
    assert proc.returncode == 0, proc.stderr
    if proc.stdout == "eager\n":
        pytest.skip("this numpy imports numpy.random along with numpy")
    assert proc.stdout.split("\n") == ["12 [] 1", "12 [] 1", "True []", ""]


@linux_only
def test_fork_pool_workers_inherit_numpy(tmp_path):
    # A worker that imported numpy itself would pay for the import and
    # start its own OpenBLAS threads; the pool's first cells build their
    # agents before any hypothesis test could load it.
    proc = run_python("-c", (
        "import sys\n"
        "from eqgym import build_plan, bundled_environments, execute\n"
        "from eqgym.agents import PowerLawAgentFactory\n"
        "class NeedsNumpy(PowerLawAgentFactory):\n"
        "    def build(self, session):\n"
        "        if 'numpy' not in sys.modules:\n"
        "            raise RuntimeError('numpy was not loaded before the fork')\n"
        "        return super().build(session)\n"
        "plan = build_plan(bundled_environments()[:3], ['L1', 'L4'], [NeedsNumpy()],\n"
        "                  parallelism=2)\n"
        "print('numpy' in sys.modules)\n"
        "record = execute(plan)\n"
        "print(len(record.transcripts), record.errors,\n"
        "      [t['status'] for t in record.transcripts].count('protocol_failure'))"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["False", "6 [] 0", ""]
