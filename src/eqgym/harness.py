"""Run orchestration, persistence, and the command line.

A run is a grid of cells (environment x prior level x agent x replicate).
Cells execute on a worker pool but the log is flushed strictly in cell
order, so two executions of the same plan produce byte-identical logs and
a killed run leaves a readable prefix.

Scripted and subprocess cells are CPU-bound Python, so on Linux they run
on a fork-started process pool; HTTP cells wait on I/O and run on threads
in the caller's process, where a custom transport's state stays visible.
A mixed plan runs both at once, and they share one worker budget; the
thread that reads the documents starts the cells, in cell order, while it
waits for the next one.  The harness starts no thread of its own.

Each cell's log line is encoded where the cell ran, in the worker process
or on the cell thread, by the one module-level encoder, so the bytes do
not depend on where a cell ran.  The caller writes the lines in cell
order and keeps the documents for the run's record; it encodes only the
plan and environment lines.  A run without a log encodes no line at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import signal
import sys
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

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
    Session,
)

HTTP_PARALLEL_CAP = 8


class PlanError(ValueError):
    """The run plan cannot be executed as given."""


class EmptyRun(ValueError):
    """A run log with no session transcripts in it."""


@dataclass(frozen=True)
class RunPlan:
    """A run's grid and budgets, its sequences kept as tuples; a plan that
    cannot run raises PlanError when it is made."""

    environments: tuple[EnvironmentSpec, ...]
    levels: tuple[str, ...]
    agents: tuple
    experiments_quota: int = DEFAULT_EXPERIMENTS_QUOTA
    test_quota: int = DEFAULT_TEST_QUOTA
    seed: int = 0
    replicates: int = 1
    parallelism: int | None = None

    def __post_init__(self):
        for name in ("environments", "levels", "agents"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.environments:
            raise PlanError("empty environment set")
        seen_envs = set()
        for env in self.environments:
            if env.env_id in seen_envs:
                raise PlanError(f"duplicate environment id {env.env_id!r}")
            seen_envs.add(env.env_id)
        if not self.levels:
            raise PlanError("empty level set")
        for level in self.levels:
            if level not in LEVELS:
                raise PlanError(f"unknown prior level {level!r}")
        if not self.agents:
            raise PlanError("no agents configured")
        seen_agents = set()
        for factory in self.agents:
            if factory.name in seen_agents:
                raise PlanError(f"duplicate agent name {factory.name!r}")
            seen_agents.add(factory.name)
        if self.experiments_quota < 0 or self.test_quota < 0:
            raise PlanError("quotas must be >= 0")
        if self.replicates < 1:
            raise PlanError("replicates must be >= 1")
        if self.parallelism is not None and self.parallelism < 1:
            raise PlanError("parallelism must be >= 1")

    def identity(self) -> dict:
        """The fields that decide the log's content, in the plan line's
        order; the worker budget is not one of them."""
        return {
            "environments": [env.env_id for env in self.environments],
            "levels": list(self.levels),
            "agents": [factory.name for factory in self.agents],
            "experiments_quota": self.experiments_quota,
            "test_quota": self.test_quota,
            "seed": self.seed,
            "replicates": self.replicates,
        }


build_plan = RunPlan


def plan_hash(plan: RunPlan) -> str:
    document = json.dumps(plan.identity(), sort_keys=True)
    return hashlib.sha256(document.encode("utf-8")).hexdigest()[:16]


def _seed(*parts) -> int:
    # Stable across processes and plan composition: adding cells to a plan
    # never changes the seed of an existing cell.
    key = "\x1f".join(map(str, parts))
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def cell_seed(plan_seed: int, env_id: str, level: str, agent: str,
              replicate: int) -> int:
    """The agent's seed, logged as a transcript's `seed`."""
    return _seed(plan_seed, env_id, level, agent, replicate)


def judge_seed(plan_seed: int, env_id: str, replicate: int) -> int:
    """The oracle's seed, shared by every level and agent of one
    environment replicate; no cell seed's key starts with "judge"."""
    return _seed("judge", plan_seed, env_id, replicate)


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
    judge_seed: int | None = None,
) -> dict:
    """Drive one agent/environment session to a terminal state; the oracle
    judges on `judge_seed`, or on `seed` when it is None.

    Any agent-side exception turns into a protocol_failure transcript;
    a turn that moves nothing (no experiments, no hypothesis, no test)
    ends the session as exhausted, and so does reaching
    experiments_quota + test_quota + 8 turns.
    """
    session = Session(
        env, level,
        experiments_quota=experiments_quota,
        test_quota=test_quota,
        seed=seed,
        agent_name=factory.name,
        judge_seed=judge_seed,
    )
    agent = None
    try:
        agent = factory.build(session)
    except Exception as err:
        session.fail(f"agent construction failed: {err}")
        return session.transcript()
    try:
        for _ in range(experiments_quota + test_quota + 8):
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


def _run_cell(plan: RunPlan, encode: bool, env, level, factory,
              replicate) -> Logged:
    seed = cell_seed(plan.seed, env.env_id, level, factory.name, replicate)
    try:
        document = run_session(
            env, level, factory,
            experiments_quota=plan.experiments_quota,
            test_quota=plan.test_quota,
            seed=seed,
            judge_seed=judge_seed(plan.seed, env.env_id, replicate),
        )
        document["replicate"] = replicate
    except Exception as err:
        document = _error_document(plan, env, level, factory, replicate,
                                   f"{type(err).__name__}: {err}")
    return _logged(document, encode)


# json.dumps's own encoder without its cycle bookkeeping: no logged
# document contains itself.
_LOG_ENCODER = json.JSONEncoder(check_circular=False)

# A cell's document and its log line, None when no log is written.
Logged = tuple[dict, str | None]


def _logged(document: dict, encode: bool) -> Logged:
    return document, _LOG_ENCODER.encode(document) if encode else None


def _error_document(plan: RunPlan, env, level, factory, replicate,
                    error: str) -> dict:
    return {
        "kind": "error",
        "env_id": env.env_id,
        "level": level,
        "agent": factory.name,
        "replicate": replicate,
        "seed": cell_seed(plan.seed, env.env_id, level, factory.name, replicate),
        "error": error,
    }


def _version() -> str:
    from . import __version__
    return __version__


def _default_parallelism() -> int:
    # Count the CPUs this process may run on, which a container or taskset
    # can pin below os.cpu_count(); sched_getaffinity is absent on macOS
    # and Windows.
    if hasattr(os, "sched_getaffinity"):
        return max(len(os.sched_getaffinity(0)), 1)
    return os.cpu_count() or 1


def _split_budget(threaded: list[bool], budget: int,
                  capped: bool) -> tuple[int, int]:
    """Return the fork pool's processes and the caller's cell threads.

    threaded marks the cells that must run in the caller (HTTP cells).  On
    Linux with a budget above one, the other cells go to the fork pool,
    which gets the budget but no more processes than forked cells;
    otherwise every cell runs on a thread.  There are as many threads as
    the budget, except that when it is the default CPU count (capped),
    which says nothing of how many requests an endpoint should take at
    once, HTTP_PARALLEL_CAP bounds the threads of a plan with HTTP cells.
    The processes and threads may outnumber the budget: _run_cells runs no
    more than budget cells at once on both together.
    """
    http = sum(threaded)
    threads = min(budget, HTTP_PARALLEL_CAP) if http and capped else budget
    if budget > 1 and sys.platform.startswith("linux") and http < len(threaded):
        return min(budget, len(threaded) - http), threads
    return 0, threads


def _run_cells(plan: RunPlan, cells: list, budget: int,
               encode: bool) -> Iterator[Logged]:
    """Yield every cell's document with its log line, in cell order.

    On Linux with a budget above one, the non-HTTP cells run in chunks on
    a fork-started process pool (see _split_budget).  HTTP cells run on
    threads in the caller, where a custom transport's state stays visible,
    and so does every cell when there is no pool.  Where a cell runs, its
    line is encoded too (None unless encode), so the caller only writes
    it; a dead worker's cells get error documents encoded here.

    The caller schedules while it waits for its next document.  It starts
    units (a cell on a thread, or a chunk) in cell order, each while it
    holds one of budget slots and, for a cell on a thread, one of the
    threads.  An HTTP cell waiting for a thread does not hold back the
    chunks after it, and chunks that run out first leave every slot to the
    threads.  A chunk needs a slot only while a cell on a thread waits or
    runs.  After that (from the start, in a plan without HTTP cells), the
    caller submits every chunk left the next time it waits: the pool has
    no more workers than the budget, so a chunk queued on it takes no slot
    from any cell.  Nothing starts while the caller is away, so a caller
    that stops reading starts no more units.
    """
    threaded = [isinstance(cell[2], HttpAgentFactory) for cell in cells]
    processes, threads = _split_budget(threaded, budget, plan.parallelism is None)
    if not processes:
        threaded = [True] * len(cells)
    forked_at = [index for index, on_thread in enumerate(threaded) if not on_thread]
    forked_cells = [cells[index] for index in forked_at]
    ranges = _chunk_ranges(len(forked_cells), processes) if processes else []
    # The units not started yet, each named by its first cell's index.
    http = deque(index for index, on_thread in enumerate(threaded) if on_thread)
    chunks = deque(forked_at[start] for start, _ in ranges)
    chunk_at = {forked_at[start]: (start, stop) for start, stop in ranges}
    started: dict[int, Future] = {}
    running: dict[Future, bool] = {}  # started, not seen done; True on a thread
    thread_pool = ThreadPoolExecutor(max_workers=threads,
                                     thread_name_prefix="eqgym-cell")
    fork_pool = None

    def start(on_thread: bool) -> None:
        index = (http if on_thread else chunks).popleft()
        try:
            if on_thread:
                future = thread_pool.submit(_run_cell, plan, encode, *cells[index])
            else:
                future = fork_pool.submit(_run_indexed_cells, *chunk_at[index])
        except RuntimeError as err:  # a broken or shut-down pool
            future = Future()
            future.set_exception(err)
        started[index] = future
        running[future] = on_thread

    def result(index: int) -> Logged | list[Logged]:
        while True:
            for future in [future for future in running if future.done()]:
                del running[future]
            if index in started and started[index].done():
                return started.pop(index).result()
            while True:
                on_threads = sum(running.values())
                free_thread = bool(http) and on_threads < threads
                # A chunk needs a slot only while a cell on a thread waits or runs.
                free_slot = len(running) < budget or not (http or on_threads)
                if not (free_slot and (chunks or free_thread)):
                    break
                start(free_thread and not (chunks and chunks[0] < http[0]))
            wait(running, return_when=FIRST_COMPLETED)

    try:
        if processes:
            # Fork first: the pool forks all its workers on its first
            # submit, before any thread of this run starts, so no worker
            # inherits a lock that one of them held at the fork.
            fork_pool = _fork_pool(plan, forked_cells, processes, encode)
            forked = _forked_documents(plan, forked_cells, fork_pool, encode,
                                       map(result, list(chunks)))
            start(on_thread=False)
        for index, on_thread in enumerate(threaded):
            yield result(index) if on_thread else next(forked)
    finally:
        # Cancel what has not started in either pool before waiting on
        # either, so an interrupted run stops soon.
        thread_pool.shutdown(wait=False, cancel_futures=True)
        if fork_pool is not None:
            fork_pool.shutdown(cancel_futures=True)
        thread_pool.shutdown()


# The plan, its cells and whether to encode their lines inside a forked
# pool worker, set once by the pool's initializer; tasks are ranges of
# cell indexes into it.
_worker_cells: tuple[RunPlan, list, bool] | None = None


def _adopt_cells(plan: RunPlan, cells: list, encode: bool) -> None:
    global _worker_cells
    _worker_cells = (plan, cells, encode)


def _run_indexed_cells(start: int, stop: int) -> list[Logged]:
    plan, cells, encode = _worker_cells
    return [_run_cell(plan, encode, *cells[index]) for index in range(start, stop)]


def _fork_pool(plan: RunPlan, cells: list, workers: int,
               encode: bool) -> ProcessPoolExecutor:
    # Fork, named explicitly: spawn and forkserver (the Linux default from
    # Python 3.14) re-import numpy and eqgym in every worker of every run.
    # A forked worker inherits the plan through initargs, so factories,
    # environments and transports are never pickled; only index ranges go
    # out and lists of (transcript dict, line) pairs come back.  numpy is
    # loaded here, before the fork, so that the workers share one loaded
    # copy instead of each importing it and starting its own OpenBLAS
    # threads.
    import numpy

    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt_cells,
        initargs=(plan, cells, encode),
    )


def _chunk_ranges(count: int, workers: int) -> list[tuple[int, int]]:
    # Chunks amortise the per-task round trip, which costs a fifth of a
    # short cell.
    size = max(1, count // (8 * workers))
    return [(start, min(start + size, count)) for start in range(0, count, size)]


def _forked_documents(plan: RunPlan, cells: list, pool: ProcessPoolExecutor,
                      encode: bool, chunks: Iterator[list[Logged]]) -> Iterator[Logged]:
    """Yield the (document, line) pairs of each chunk's results, in order."""
    done = 0
    try:
        for chunk in chunks:
            for pair in chunk:
                yield pair
                done += 1
    except BrokenProcessPool:
        # A worker died (os._exit, a signal, the OOM killer) and broke the
        # pool; the cells without a result are logged as errors.
        # BrokenProcessPool does not say which worker died; the pool keeps
        # its worker processes in _processes until shutdown.
        forked = sorted(pool._processes.values(), key=lambda p: p.pid)
        pool.shutdown(cancel_futures=True)
        dead = ", ".join(
            f"worker pid {p.pid} exited with code {p.exitcode}"
            for p in forked if p.exitcode not in (0, -signal.SIGTERM)
        ) or "a pool worker died"
        for cell in cells[done:]:
            yield _logged(_error_document(
                plan, *cell, f"BrokenProcessPool: {dead} before this cell finished"
            ), encode)


def execute(plan: RunPlan, out_dir: str | Path | None = None) -> RunRecord:
    """Execute every cell of the plan.

    Cells run in parallel, and each cell's log line is encoded where it
    ran.  This thread writes the lines in cell order and flushes after
    each, so an interrupted run leaves a valid prefix; it keeps the
    documents for the record.  Returns the record either way; files are
    written, and lines encoded, only when out_dir is given.
    """
    started = time.perf_counter()
    cells = list(_cells(plan))
    workers = min(plan.parallelism or _default_parallelism(), len(cells))

    sink = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        sink = (out_path / "run.jsonl").open("w", encoding="utf-8")

    documents: list[dict] = []  # transcripts and error documents, in cell order

    def write(line: str) -> None:
        sink.write(line + "\n")
        sink.flush()

    digest, version = plan_hash(plan), _version()
    try:
        if sink is not None:
            write(_LOG_ENCODER.encode({"kind": "plan", "plan_hash": digest,
                                       "version": version, **plan.identity()}))
            for env in plan.environments:
                write(_LOG_ENCODER.encode({
                    "kind": "environment",
                    "env_id": env.env_id,
                    "spec": spec_to_dict(env),
                }))
        for document, line in _run_cells(plan, cells, workers, sink is not None):
            documents.append(document)
            if sink is not None:
                write(line)
    finally:
        if sink is not None:
            sink.close()

    wall = time.perf_counter() - started
    record = RunRecord(
        plan_hash=digest,
        transcripts=[d for d in documents if d.get("kind") == "transcript"],
        errors=[d for d in documents if d.get("kind") != "transcript"],
        wall_clock_seconds=wall,
        version=version,
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
                    "env_id": d["env_id"],
                    "level": d["level"],
                    "agent": d["agent"],
                    "replicate": d["replicate"],
                    "status": d.get("status", "error"),
                }
                for d in documents
            ],
        }
        (Path(out_dir) / "run_record.json").write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
    return record


# --------------------------------------------------------------------------
# Reporting

# The transcript fields the report reads without a default, with their
# JSON types, and `solved`, which it reads when present.
_REPORTED_FIELDS = {"env_id": str, "agent": str, "level": str,
                    "experiments_used": int, "tests_used": int, "turn_count": int}
_TYPE_NAMES = {str: "a string", int: "an integer", bool: "true or false"}


def load_run(run_dir: str | Path) -> tuple[list[dict], list[EnvironmentSpec]]:
    """Read transcripts and environment snapshots back from a run log."""
    path = Path(run_dir)
    log = path / "run.jsonl" if path.is_dir() else path
    if not log.exists():
        raise EmptyRun(f"no run log at {log}")
    transcripts: list[dict] = []
    environments: list[EnvironmentSpec] = []
    lines = log.read_bytes().split(b"\n")
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            document = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            # A run killed mid-write leaves a last line with no newline.
            if number == len(lines):
                break
            if isinstance(err, UnicodeDecodeError):
                raise ValueError(f"{log}:{number}: {err}") from None
            raise json.JSONDecodeError(f"{log}:{number}: {err.msg}", err.doc, err.pos) from None
        if not isinstance(document, dict):
            raise ValueError(f"{log}:{number}: not a JSON object")
        kind = document.get("kind")
        if kind == "transcript":
            missing = [k for k in _REPORTED_FIELDS if k not in document]
            if missing:
                raise ValueError(f"{log}:{number}: transcript lacks {', '.join(missing)}")
            fields = [(k, document[k], t) for k, t in _REPORTED_FIELDS.items()]
            fields.append(("solved", document.get("solved", False), bool))
            for key, value, expected in fields:
                if type(value) is not expected:  # exact, so that true is no integer
                    raise ValueError(f"{log}:{number}: transcript field {key!r} "
                                     f"must be {_TYPE_NAMES[expected]}")
            hypotheses = document.get("hypotheses", [])
            if not isinstance(hypotheses, list) or not all(
                    isinstance(h, dict) and isinstance(h.get("formula"), str) for h in hypotheses):
                raise ValueError(f"{log}:{number}: transcript hypotheses must be a list "
                                 "of objects with a string formula")
            transcripts.append(document)
        elif kind == "environment":
            if "spec" not in document:
                raise ValueError(f"{log}:{number}: environment lacks spec")
            try:
                environments.append(load_spec(document["spec"]))
            except ValueError as err:
                raise ValueError(f"{log}:{number}: {err}") from None
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
    plan = RunPlan(
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

    session_p = argparse.ArgumentParser(add_help=False)
    session_p.add_argument("--experiments-quota", type=int,
                           default=DEFAULT_EXPERIMENTS_QUOTA)
    session_p.add_argument("--test-quota", type=int, default=DEFAULT_TEST_QUOTA)
    session_p.add_argument("--seed", type=int, default=0)
    session_p.add_argument("--model", default=None, help="model name for http agents")
    session_p.add_argument("--api-key-env", default=None,
                           help="environment variable holding the http agent API key")

    run_p = sub.add_parser("run", parents=[session_p],
                           help="execute an environments x levels x agents grid")
    run_p.add_argument("--envs", default=None,
                       help="environment file or directory (default: bundled set)")
    run_p.add_argument("--levels", default=",".join(LEVELS),
                       help="comma-separated prior levels")
    run_p.add_argument("--agent", dest="agents", action="append", required=True,
                       help='agent spec: scripted:<name>, subprocess:"<cmd>", '
                            "or an http(s):// endpoint URL (also as http:<url>); "
                            "repeatable")
    run_p.add_argument("--replicates", type=int, default=1)
    run_p.add_argument("--parallel", type=int, default=None,
                       help="worker budget: how many cells run at once "
                            "(default: usable CPU count); on Linux non-HTTP cells "
                            "run on forked worker processes and HTTP cells on "
                            "threads, started in cell order as the budget frees "
                            "up; the default caps the threads at "
                            f"{HTTP_PARALLEL_CAP}")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.set_defaults(handler=_cmd_run)

    report_p = sub.add_parser("report", help="summarize a finished run")
    report_p.add_argument("--run", required=True, help="run directory or log file")
    report_p.add_argument("--by-difficulty", action="store_true")
    report_p.add_argument("--overlap", action="store_true")
    report_p.set_defaults(handler=_cmd_report)

    validate_p = sub.add_parser("validate", help="schema-check environment files")
    validate_p.add_argument("--envs", required=True)
    validate_p.set_defaults(handler=_cmd_validate)

    play_p = sub.add_parser("play", parents=[session_p],
                            help="run one session and print the transcript")
    play_p.add_argument("--env", required=True,
                        help="bundled environment id or environment file")
    play_p.add_argument("--level", default="L1")
    play_p.add_argument("--agent", default="scripted:power_law")
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
