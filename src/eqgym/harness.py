"""Run orchestration, persistence, and the command line.

A run is a grid of cells (environment x prior level x agent x replicate).
Cells execute on a worker pool but the log is flushed strictly in cell
order, so two executions of the same plan produce byte-identical logs and
a killed run leaves a readable prefix.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .agents import HttpAgentFactory, agent_from_spec
from .environment import (
    LEVELS,
    EnvironmentSpec,
    SchemaError,
    ValidationError,
    bundled_environments,
    load_directory,
    load_file,
    load_spec,
    spec_to_dict,
)
from .evaluation import AggregateReport, aggregate
from .session import (
    ACTIVE,
    DEFAULT_EXPERIMENTS_QUOTA,
    DEFAULT_TEST_QUOTA,
    new_session,
)

HTTP_PARALLEL_CAP = 8


class PlanError(ValueError):
    """The run plan cannot be executed as given."""


class EmptyRun(ValueError):
    """A run log with no session transcripts in it."""


@dataclass(frozen=True)
class RunPlan:
    environments: tuple[EnvironmentSpec, ...]
    levels: tuple[str, ...]
    agents: tuple
    experiments_quota: int = DEFAULT_EXPERIMENTS_QUOTA
    test_quota: int = DEFAULT_TEST_QUOTA
    seed: int = 0
    replicates: int = 1
    parallelism: int | None = None


def build_plan(
    environments: Sequence[EnvironmentSpec],
    levels: Sequence[str],
    agents: Sequence,
    experiments_quota: int = DEFAULT_EXPERIMENTS_QUOTA,
    test_quota: int = DEFAULT_TEST_QUOTA,
    seed: int = 0,
    replicates: int = 1,
    parallelism: int | None = None,
) -> RunPlan:
    if not environments:
        raise PlanError("empty environment set")
    seen_envs = set()
    for env in environments:
        if env.env_id in seen_envs:
            raise PlanError(f"duplicate environment id {env.env_id!r}")
        seen_envs.add(env.env_id)
    if not levels:
        raise PlanError("empty level set")
    for level in levels:
        if level not in LEVELS:
            raise PlanError(f"unknown prior level {level!r}")
    if not agents:
        raise PlanError("no agents configured")
    seen_agents = set()
    for factory in agents:
        if factory.name in seen_agents:
            raise PlanError(f"duplicate agent name {factory.name!r}")
        seen_agents.add(factory.name)
    if experiments_quota < 0 or test_quota < 0:
        raise PlanError("quotas must be >= 0")
    if replicates < 1:
        raise PlanError("replicates must be >= 1")
    if parallelism is not None and parallelism < 1:
        raise PlanError("parallelism must be >= 1")
    return RunPlan(
        environments=tuple(environments),
        levels=tuple(levels),
        agents=tuple(agents),
        experiments_quota=experiments_quota,
        test_quota=test_quota,
        seed=seed,
        replicates=replicates,
        parallelism=parallelism,
    )


def plan_hash(plan: RunPlan) -> str:
    document = json.dumps({
        "environments": [env.env_id for env in plan.environments],
        "levels": list(plan.levels),
        "agents": [factory.name for factory in plan.agents],
        "experiments_quota": plan.experiments_quota,
        "test_quota": plan.test_quota,
        "seed": plan.seed,
        "replicates": plan.replicates,
    }, sort_keys=True)
    return hashlib.sha256(document.encode("utf-8")).hexdigest()[:16]


def cell_seed(plan_seed: int, env_id: str, level: str, agent: str,
              replicate: int) -> int:
    # Stable across processes and plan composition: adding cells to a plan
    # never changes the seed of an existing cell.
    key = f"{plan_seed}\x1f{env_id}\x1f{level}\x1f{agent}\x1f{replicate}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class RunRecord:
    plan_hash: str
    transcripts: list[dict]
    errors: list[dict]
    wall_clock_seconds: float
    version: str
    out_dir: str | None


def run_session(
    env: EnvironmentSpec,
    level: str,
    factory,
    experiments_quota: int = DEFAULT_EXPERIMENTS_QUOTA,
    test_quota: int = DEFAULT_TEST_QUOTA,
    seed: int = 0,
    max_turns: int | None = None,
) -> dict:
    """Drive one agent/environment session to a terminal state.

    Any agent-side exception turns into a protocol_failure transcript;
    a turn that moves nothing (no experiments, no hypothesis, no test)
    ends the session as exhausted.
    """
    session = new_session(
        env, level,
        experiments_quota=experiments_quota,
        test_quota=test_quota,
        seed=seed,
        agent_name=factory.name,
    )
    agent = None
    try:
        agent = factory.build(session)
    except Exception as err:
        session.fail(f"agent construction failed: {err}")
        return session.transcript()
    limit = max_turns if max_turns is not None else (
        experiments_quota + test_quota + 8
    )
    try:
        for _ in range(limit):
            if session.status != ACTIVE:
                break
            try:
                turn = agent.act(session.observation_packet())
            except Exception as err:
                session.fail(f"agent failure: {err}")
                break
            outcome = session.submit_turn(turn)
            idle = (
                not outcome.executed
                and outcome.oracle is None
                and not outcome.hypothesis_recorded
                and outcome.dropped == 0
                and outcome.malformed == 0
            )
            if idle and session.status == ACTIVE:
                session.finish()
        if session.status == ACTIVE:
            session.finish()
    finally:
        try:
            agent.close()
        except Exception:
            pass
    return session.transcript()


def _cells(plan: RunPlan):
    for env in plan.environments:
        for level in plan.levels:
            for factory in plan.agents:
                for replicate in range(plan.replicates):
                    yield env, level, factory, replicate


def _run_cell(plan: RunPlan, env, level, factory, replicate) -> dict:
    seed = cell_seed(plan.seed, env.env_id, level, factory.name, replicate)
    try:
        transcript = run_session(
            env, level, factory,
            experiments_quota=plan.experiments_quota,
            test_quota=plan.test_quota,
            seed=seed,
        )
        transcript["replicate"] = replicate
        return transcript
    except Exception as err:
        return {
            "kind": "error",
            "env_id": env.env_id,
            "level": level,
            "agent": factory.name,
            "replicate": replicate,
            "seed": seed,
            "error": f"{type(err).__name__}: {err}",
        }


def _version() -> str:
    from . import __version__
    return __version__


def _default_parallelism(plan: RunPlan) -> int:
    # Count the CPUs this process may run on, which a container or taskset
    # can pin below os.cpu_count(); sched_getaffinity is absent on macOS
    # and Windows.
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    if any(isinstance(f, HttpAgentFactory) for f in plan.agents):
        workers = min(workers, HTTP_PARALLEL_CAP)
    return max(workers, 1)


def execute(plan: RunPlan, out_dir: str | Path | None = None) -> RunRecord:
    """Execute every cell of the plan.

    Cells run in parallel; the log sink is single-threaded and flushes in
    cell order after each result, so an interrupted run leaves a valid
    prefix.  Returns the record either way; files are written only when
    out_dir is given.
    """
    started = time.perf_counter()
    cells = list(_cells(plan))
    workers = plan.parallelism or _default_parallelism(plan)

    sink = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        sink = (out_path / "run.jsonl").open("w", encoding="utf-8")

    transcripts: list[dict] = []
    errors: list[dict] = []

    def emit(document: dict) -> None:
        if sink is not None:
            sink.write(json.dumps(document) + "\n")
            sink.flush()

    try:
        emit({
            "kind": "plan",
            "plan_hash": plan_hash(plan),
            "version": _version(),
            "environments": [env.env_id for env in plan.environments],
            "levels": list(plan.levels),
            "agents": [factory.name for factory in plan.agents],
            "experiments_quota": plan.experiments_quota,
            "test_quota": plan.test_quota,
            "seed": plan.seed,
            "replicates": plan.replicates,
        })
        for env in plan.environments:
            emit({
                "kind": "environment",
                "env_id": env.env_id,
                "spec": spec_to_dict(env),
            })
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_cell, plan, env, level, factory, replicate)
                for env, level, factory, replicate in cells
            ]
            for future in futures:
                document = future.result()
                if document.get("kind") == "transcript":
                    transcripts.append(document)
                else:
                    errors.append(document)
                emit(document)
    finally:
        if sink is not None:
            sink.close()

    wall = time.perf_counter() - started
    record = RunRecord(
        plan_hash=plan_hash(plan),
        transcripts=transcripts,
        errors=errors,
        wall_clock_seconds=wall,
        version=_version(),
        out_dir=str(out_dir) if out_dir is not None else None,
    )
    if out_dir is not None:
        summary = {
            "kind": "run_record",
            "plan_hash": record.plan_hash,
            "version": record.version,
            "wall_clock_seconds": record.wall_clock_seconds,
            "log": "run.jsonl",
            "cells": [
                {
                    "env_id": t["env_id"],
                    "level": t["level"],
                    "agent": t["agent"],
                    "replicate": t.get("replicate", 0),
                    "status": t.get("status", "error"),
                }
                for t in transcripts
            ] + [
                {
                    "env_id": e["env_id"],
                    "level": e["level"],
                    "agent": e["agent"],
                    "replicate": e["replicate"],
                    "status": "error",
                }
                for e in errors
            ],
        }
        (Path(out_dir) / "run_record.json").write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
    return record


# --------------------------------------------------------------------------
# Reporting

def load_run(run_dir: str | Path) -> tuple[list[dict], list[EnvironmentSpec]]:
    """Read transcripts and environment snapshots back from a run log."""
    path = Path(run_dir)
    log = path / "run.jsonl" if path.is_dir() else path
    if not log.exists():
        raise EmptyRun(f"no run log at {log}")
    transcripts: list[dict] = []
    environments: list[EnvironmentSpec] = []
    for line in log.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        document = json.loads(line)
        kind = document.get("kind")
        if kind == "transcript":
            transcripts.append(document)
        elif kind == "environment":
            environments.append(load_spec(document["spec"]))
    if not transcripts:
        raise EmptyRun(f"{log} holds no session transcripts")
    return transcripts, environments


def report_text(
    transcripts: Sequence[Mapping],
    environments: Sequence[EnvironmentSpec] = (),
    by_difficulty: bool = False,
    overlap: bool = False,
) -> str:
    return _render_report(
        aggregate(transcripts, environments), by_difficulty, overlap
    )


def _render_report(report: AggregateReport, by_difficulty: bool, overlap: bool) -> str:
    parts = [report.to_tsv()]
    if by_difficulty:
        parts.append("\n" + report.difficulty_tsv())
    if overlap:
        parts.append("\n" + report.overlap_tsv())
    return "".join(parts)


# --------------------------------------------------------------------------
# CLI

def _load_envs(arg: str | None) -> list[EnvironmentSpec]:
    if arg is None:
        return bundled_environments()
    path = Path(arg)
    if path.is_dir():
        return load_directory(path)
    if path.is_file():
        return [load_file(path)]
    raise PlanError(f"no environment file or directory at {arg}")


def _parse_levels(text: str) -> tuple[str, ...]:
    return tuple(token.strip() for token in text.split(",") if token.strip())


def _cmd_run(args) -> int:
    environments = _load_envs(args.envs)
    options = {"model": args.model, "api_key_env": args.api_key_env}
    factories = [agent_from_spec(spec, **options) for spec in args.agents]
    plan = build_plan(
        environments,
        _parse_levels(args.levels),
        factories,
        experiments_quota=args.experiments_quota,
        test_quota=args.test_quota,
        seed=args.seed,
        replicates=args.replicates,
        parallelism=args.parallel,
    )
    record = execute(plan, out_dir=args.out)
    solved = sum(1 for t in record.transcripts if t.get("solved"))
    print(
        f"{len(record.transcripts)} sessions ({solved} solved, "
        f"{len(record.errors)} errors) in {record.wall_clock_seconds:.1f}s "
        f"-> {Path(args.out) / 'run.jsonl'}"
    )
    return 0 if not record.errors else 1


def _cmd_report(args) -> int:
    transcripts, environments = load_run(args.run)
    report = aggregate(transcripts, environments)
    sys.stdout.write(_render_report(report, args.by_difficulty, args.overlap))
    out = Path(args.run)
    if out.is_dir():
        (out / "report.json").write_text(
            json.dumps(report.to_json_dict(), indent=2) + "\n",
            encoding="utf-8",
        )
    return 0


def _cmd_validate(args) -> int:
    environments = _load_envs(args.envs)
    for env in environments:
        print(f"{env.env_id}: ok")
    print(f"{len(environments)} environments valid")
    return 0


def _cmd_play(args) -> int:
    bundled = {e.env_id: e for e in bundled_environments()}
    if args.env in bundled:
        env = bundled[args.env]
    elif Path(args.env).is_file():
        env = load_file(args.env)
    else:
        known = ", ".join(sorted(bundled))
        raise PlanError(
            f"no environment file at {args.env!r} and no bundled "
            f"environment with that id (bundled: {known})"
        )
    factory = agent_from_spec(args.agent, model=args.model,
                              api_key_env=args.api_key_env)
    transcript = run_session(
        env, args.level, factory,
        experiments_quota=args.experiments_quota,
        test_quota=args.test_quota,
        seed=args.seed,
    )
    print(json.dumps(transcript, indent=2))
    return 0 if transcript.get("status") != "protocol_failure" else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqgym",
        description="Interactive equation-discovery benchmark runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an environments x levels x agents grid")
    run_p.add_argument("--envs", default=None,
                       help="environment file or directory (default: bundled set)")
    run_p.add_argument("--levels", default="L1,L2,L3,L4",
                       help="comma-separated prior levels")
    run_p.add_argument("--agent", dest="agents", action="append", required=True,
                       help='agent spec: scripted:<name>, subprocess:"<cmd>", '
                            "or http:<endpoint>; repeatable")
    run_p.add_argument("--experiments-quota", type=int,
                       default=DEFAULT_EXPERIMENTS_QUOTA)
    run_p.add_argument("--test-quota", type=int, default=DEFAULT_TEST_QUOTA)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--replicates", type=int, default=1)
    run_p.add_argument("--parallel", type=int, default=None,
                       help="worker count (default: usable CPU count, capped for HTTP)")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--model", default=None, help="model name for http agents")
    run_p.add_argument("--api-key-env", default=None,
                       help="environment variable holding the http agent API key")
    run_p.set_defaults(handler=_cmd_run)

    report_p = sub.add_parser("report", help="summarize a finished run")
    report_p.add_argument("--run", required=True, help="run directory or log file")
    report_p.add_argument("--by-difficulty", action="store_true")
    report_p.add_argument("--overlap", action="store_true")
    report_p.set_defaults(handler=_cmd_report)

    validate_p = sub.add_parser("validate", help="schema-check environment files")
    validate_p.add_argument("--envs", required=True)
    validate_p.set_defaults(handler=_cmd_validate)

    play_p = sub.add_parser("play", help="run one session and print the transcript")
    play_p.add_argument("--env", required=True, help="environment file")
    play_p.add_argument("--level", default="L1")
    play_p.add_argument("--agent", default="scripted:power_law")
    play_p.add_argument("--experiments-quota", type=int,
                        default=DEFAULT_EXPERIMENTS_QUOTA)
    play_p.add_argument("--test-quota", type=int, default=DEFAULT_TEST_QUOTA)
    play_p.add_argument("--seed", type=int, default=0)
    play_p.add_argument("--model", default=None)
    play_p.add_argument("--api-key-env", default=None)
    play_p.set_defaults(handler=_cmd_play)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (PlanError, EmptyRun, SchemaError, ValidationError, ValueError,
            OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
