from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest

import eqgym
from eqgym.agents import HttpAgentFactory, PowerLawAgentFactory, RandomAgentFactory
from eqgym.environment import bundled_environments, load_spec, spec_to_dict
from eqgym.harness import (
    HTTP_PARALLEL_CAP,
    EmptyRun,
    PlanError,
    _default_parallelism,
    build_plan,
    cell_seed,
    execute,
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


def test_plan_hash_tracks_content():
    plan_a = build_plan([ENVS["hooke"]], ["L1"], [PowerLawAgentFactory()])
    plan_b = build_plan([ENVS["hooke"]], ["L1"], [PowerLawAgentFactory()])
    plan_c = build_plan([ENVS["hooke"]], ["L2"], [PowerLawAgentFactory()])
    assert plan_hash(plan_a) == plan_hash(plan_b)
    assert plan_hash(plan_a) != plan_hash(plan_c)
    # Pinned: a changed hash changes the bytes of every run log.
    assert plan_hash(plan_a) == "c7d8d4747901a66c"


def test_default_parallelism_honours_cpu_affinity(monkeypatch):
    plan = build_plan([ENVS["hooke"]], ["L1"], [PowerLawAgentFactory()])
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert _default_parallelism(plan) == 2
    http = build_plan([ENVS["hooke"]], ["L1"], [HttpAgentFactory("http://localhost:1")])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)))
    assert _default_parallelism(http) == HTTP_PARALLEL_CAP
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _default_parallelism(plan) == 64


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

    transcript = run_session(ENVS["hooke"], "L1", Staller(), seed=7, max_turns=6)
    assert transcript["status"] == "exhausted"
    assert transcript["turn_count"] == 6


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
                             test_quota=1, max_turns=2)
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

    transcript = run_session(ENVS["hooke"], "L1", NonFinite(), seed=7,
                             experiments_quota=10, max_turns=2)
    assert transcript["kind"] == "transcript"
    assert transcript["status"] == "exhausted"
    assert transcript["experiments_used"] == 2
    assert transcript["experiments"] == [{"F": 1.0, "k": 10.0, "x": 0.1}] * 2
    skipped = [text for _, text in transcript["notices"] if "finite" in text]
    assert len(skipped) == 6
    json.dumps(transcript, allow_nan=False)


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
    lines = (tmp_path / "run" / "run.jsonl").read_text().splitlines()
    cells = [json.loads(line) for line in lines][1 + len(plan.environments):]
    assert [(d["env_id"], d["level"], d["agent"]) for d in cells] == [
        (env.env_id, level, factory.name)
        for env in plan.environments
        for level in plan.levels
        for factory in plan.agents
    ]
    summary = json.loads((tmp_path / "run" / "run_record.json").read_text())
    assert len(summary["cells"]) == 12


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
    proc = run_python("-c", "import sys, eqgym; print('scipy.stats' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
