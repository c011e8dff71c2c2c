"""eqgym benchmark: three grid workloads driven through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the benchmark imports eqgym from the ``src``
directory next to this one and writes only under ``.perfbench/`` there.

``--trace 0`` measures in rounds for ``--seconds`` (at least two rounds).
Each round executes the whole plan with ``execute(plan, out_dir)`` at
parallelism = nproc, a closed loop where each pool worker pulls the next
cell.  Printed:

- ``setup_s``: median over three fresh interpreters of the time from
  process start to ``import eqgym``, ``bundled_environments()`` and
  ``build_plan`` done.
- ``cells_per_s``: sessions finished / wall time, over all executions.
- ``peak_rss_mb``: max RSS of this process.
- ``turn_gap_p50_us``, ``turn_gap_p99_us``: the platform's time per turn as
  the agent sees it, from sending a reply to receiving the next packet,
  with the sample count in the info line.  On agent_transports the bench
  agent timestamps every turn of the executions itself, in the child
  process or in the in-process transport.  On the scripted workloads the
  plan's cells (one level of them on long_random) are replayed once,
  serially through ``harness.run_session`` with a thin proxy around the
  scripted agent taking the timestamps, so ``execute`` itself always sees
  the real factories.

Every timing is scaled to a reference machine speed, because a shared
machine's speed drifts by a fifth or more over seconds to minutes (see
speed.py).  Set-up probes and executions are multiplied by
``REFERENCE_KERNEL_S`` / the speed monitor's mean kernel time over the same
window.  The serial replay runs on one core, which the cross-core monitor
tracks less well, so there the proxy times the kernel itself just before
each reply, and each gap is scaled by the mean of the last
``KERNEL_WINDOW`` such samples.  The unscaled values are in the info line.

``--trace 1`` makes one traced pass instead and prints the per-layer
metrics, named ``<module>.<function>.<stat>``: every cell is run serially
through ``harness.run_session`` with ``harness.cell_seed``, with timing
wrappers installed on the eqgym modules (see tracer.py), next to an
untraced serial loop and one untraced ``execute``.  It runs once,
whatever ``--seconds`` says.

Both modes check the outputs and fail the run when a check fails:
``run.jsonl`` is byte-identical across executions at one seed, serially
replayed transcripts equal the logged ones, no cell is a ``kind:"error"``
document, and every transcript stays within its quotas.  Cells counted as
failed (error documents and ``protocol_failure`` sessions) are reported
through ``attempted``/``failed``, whose ratio is the failed share.

The last line of stdout is the JSON result; the line before it records
the machine, the seed, the parallelism and why the workload exists.
``--tiny`` shrinks every workload for the smoke test (smoke_test.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import bench_agent
import speed
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

LEVELS = ("L1", "L2", "L3", "L4")
SETUP_SAMPLES = 3
MIN_ROUNDS = 2
KERNEL_WINDOW = 8
PROBE_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, a probe failed)."""


@dataclass(frozen=True)
class Workload:
    why: str
    agents: str  # "power_law" | "random" | "transports"
    experiments_quota: int
    test_quota: int
    replicates: int = 1
    # Levels of the serial turn-gap pass for scripted agents; None when
    # the bench agent reports its own gaps.
    gap_levels: tuple[str, ...] | None = None


WORKLOADS = {
    "grid_power_law": Workload(
        why=(
            "README quick-start baseline: short 2-4 turn sessions, most tests "
            "take the numeric oracle path, so evaluation.oracle_test dominates "
            "cell time and session history costs almost nothing."
        ),
        agents="power_law",
        experiments_quota=100,
        test_quota=5,
        replicates=10,
        gap_levels=LEVELS,
    ),
    "long_random": Workload(
        why=(
            "Long sessions that never call the oracle: observation_packet "
            "rebuilds the whole history every turn and run_experiment runs "
            "64,000 experiments; an oracle change must leave it unchanged."
        ),
        agents="random",
        experiments_quota=1600,
        test_quota=0,
        # Per-turn cost does not depend on the prior level for this agent.
        gap_levels=("L1",),
    ),
    "agent_transports": Workload(
        why=(
            "Real agent plumbing: process spawn, pipe round trips, "
            "to_wire/build_prompt over a growing history, parse_turn and "
            "retries; a picklable subprocess factory beside an unpicklable "
            "HTTP one."
        ),
        agents="transports",
        experiments_quota=200,
        test_quota=5,
    ),
}

TINY = {
    "envs": 2,
    "levels": ("L1", "L4"),
    "replicates": 1,
    "experiments_quota": {"power_law": 100, "random": 60, "transports": 30},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "peak_rss_mb": "MiB",
    "turn_gap_p50_us": "us",
    "turn_gap_p99_us": "us",
}


# --------------------------------------------------------------------------
# Plans

def import_eqgym():
    if not (SRC / "eqgym" / "__init__.py").is_file():
        raise BenchError(f"no eqgym sources at {SRC / 'eqgym'}")
    sys.path.insert(0, str(SRC))
    import eqgym

    if Path(eqgym.__file__).resolve().parent != SRC / "eqgym":
        raise BenchError(f"imported eqgym from {eqgym.__file__}, not {SRC}")
    return eqgym


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class Setup:
    plan: object
    transport: bench_agent.ChatTransport | None
    gaps_dir: Path


def build(eqgym, name: str, seed: int, tiny: bool, work: Path) -> Setup:
    """Load the bundled environments and build the workload's plan."""
    workload = WORKLOADS[name]
    environments = eqgym.bundled_environments()
    levels = LEVELS
    replicates = workload.replicates
    experiments_quota = workload.experiments_quota
    if tiny:
        environments = environments[: TINY["envs"]]
        levels = TINY["levels"]
        replicates = TINY["replicates"]
        experiments_quota = TINY["experiments_quota"][workload.agents]
    gaps_dir = work / "gaps"
    transport = None
    if workload.agents == "power_law":
        agents = [eqgym.agent_from_spec("scripted:power_law")]
    elif workload.agents == "random":
        agents = [eqgym.agent_from_spec("scripted:random", batch=3)]
    else:
        command = " ".join(shlex.quote(part) for part in (
            sys.executable, str(HERE / "bench_agent.py"),
            "--seed", str(seed), "--gaps", str(gaps_dir),
        ))
        transport = bench_agent.ChatTransport(seed)
        agents = [
            eqgym.agent_from_spec(f"subprocess:{command}", name="subprocess"),
            eqgym.agents.HttpAgentFactory(
                "inproc://bench-agent", model="bench", transport=transport,
                name="http",
            ),
        ]
    plan = eqgym.build_plan(
        environments, levels, agents,
        experiments_quota=experiments_quota,
        test_quota=workload.test_quota,
        seed=seed,
        replicates=replicates,
        parallelism=nproc(),
    )
    return Setup(plan, transport, gaps_dir)


def cells(plan, levels=None):
    for env in plan.environments:
        for level in plan.levels:
            if levels is not None and level not in levels:
                continue
            for factory in plan.agents:
                for replicate in range(plan.replicates):
                    yield env, level, factory, replicate


def cell_key(document: dict) -> tuple:
    return (document["env_id"], document["level"], document["agent"],
            document.get("replicate", 0))


def run_serial(eqgym, plan, selected, wrap_factory=None) -> dict:
    """Run cells one by one through harness.run_session, as execute would."""
    harness = eqgym.harness
    transcripts = {}
    for env, level, factory, replicate in selected:
        seed = harness.cell_seed(plan.seed, env.env_id, level, factory.name, replicate)
        transcript = harness.run_session(
            env, level, wrap_factory(factory) if wrap_factory else factory,
            experiments_quota=plan.experiments_quota,
            test_quota=plan.test_quota,
            seed=seed,
        )
        transcript["replicate"] = replicate
        transcripts[cell_key(transcript)] = json.loads(json.dumps(transcript))
    return transcripts


def warm_up(eqgym, setup: Setup, work: Path) -> None:
    plan = setup.plan
    small = eqgym.build_plan(
        plan.environments[:1], plan.levels[:1], plan.agents,
        experiments_quota=plan.experiments_quota, test_quota=plan.test_quota,
        seed=plan.seed, parallelism=plan.parallelism,
    )
    eqgym.execute(small, work / "warm")
    collect_gaps(setup)


def collect_gaps(setup: Setup) -> list[int]:
    gaps = []
    if setup.transport is not None:
        gaps.extend(setup.transport.take_gaps())
        gaps.extend(bench_agent.read_gap_files(str(setup.gaps_dir)))
    return gaps


# --------------------------------------------------------------------------
# Output checks

class Checks:
    def __init__(self, plan):
        self.plan = plan
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.logged: dict | None = None
        self.log_digest: str | None = None

    def fail(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def transcripts(self, documents) -> None:
        plan = self.plan
        for doc in documents:
            self.attempted += 1
            if doc.get("kind") != "transcript":
                self.failed += 1
                self.fail(f"error cell {cell_key(doc)}: {doc.get('error')}")
                continue
            if doc["status"] == "protocol_failure":
                self.failed += 1
            if not 0 <= doc["experiments_used"] <= plan.experiments_quota:
                self.fail(f"{cell_key(doc)} used {doc['experiments_used']} experiments")
            if doc["experiments_used"] != len(doc["experiments"]):
                self.fail(f"{cell_key(doc)} experiment count disagrees with its log")
            if not 0 <= doc["tests_used"] <= plan.test_quota:
                self.fail(f"{cell_key(doc)} used {doc['tests_used']} tests")

    def run_log(self, out_dir: Path) -> None:
        """run.jsonl must repeat byte for byte across executions."""
        data = (out_dir / "run.jsonl").read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.log_digest is None:
            self.log_digest = digest
            self.logged = {}
            for line in data.decode("utf-8").splitlines():
                doc = json.loads(line)
                if doc.get("kind") in ("transcript", "error"):
                    self.logged[cell_key(doc)] = doc
        elif digest != self.log_digest:
            self.fail("run.jsonl differs between executions of one plan")

    def replayed(self, transcripts: dict, what: str) -> None:
        """Serially replayed transcripts must equal the logged ones."""
        for key, transcript in transcripts.items():
            if self.logged.get(key) != transcript:
                self.fail(f"{what} transcript for {key} differs from run.jsonl")


# --------------------------------------------------------------------------
# Statistics

def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "eqgym").glob("*.py"))
    )


# --------------------------------------------------------------------------
# Timed pass (--trace 0)

def probe_setup_once(args) -> float:
    """Wall time of a fresh interpreter importing eqgym and building the plan."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--probe-setup",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--tiny"] if args.tiny else [])
    started = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        try:
            child.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
    if line.strip() != "ready" or child.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {child.returncode})")
    return elapsed


class GapTimedAgent:
    """Times the platform between a scripted agent's reply and its next packet.

    Just before each reply it also times the speed kernel, in agent time
    outside the gap, so every gap has a speed sample taken on the same core
    a moment before it.
    """

    def __init__(self, agent, step: "Step"):
        self.agent = agent
        self.step = step
        self.sent = None
        self.kernel_s = 0.0

    def act(self, packet):
        received = time.perf_counter_ns()
        if self.sent is not None:
            self.step.gaps.append(received - self.sent)
            self.step.kernels.append(self.kernel_s)
        turn = self.agent.act(packet)
        cpu = time.thread_time()
        speed.kernel()
        self.kernel_s = time.thread_time() - cpu
        self.sent = time.perf_counter_ns()
        return turn

    def close(self) -> None:
        self.agent.close()


class GapTimedFactory:
    def __init__(self, factory, step: "Step"):
        self.factory = factory
        self.name = factory.name
        self.step = step

    def build(self, session) -> GapTimedAgent:
        return GapTimedAgent(self.factory.build(session), self.step)


@dataclass
class Step:
    """One measured stretch of time and what was measured in it."""

    start: float
    end: float
    seconds: float = 0.0  # set-up probe time or execute wall time
    cells: int = 0
    gaps: list[int] = field(default_factory=list)  # ns
    kernels: list[float] = field(default_factory=list)  # s, one per gap if taken

    def scaled_gaps(self, monitor: speed.SpeedMonitor) -> list[float]:
        if not self.kernels:
            scale = monitor.scale(self.start, self.end)
            return [gap * scale for gap in self.gaps]
        # Each gap against the mean of the KERNEL_WINDOW samples up to it.
        scaled = []
        for i, gap in enumerate(self.gaps):
            recent = self.kernels[max(0, i + 1 - KERNEL_WINDOW): i + 1]
            scaled.append(gap * speed.REFERENCE_KERNEL_S * len(recent) / sum(recent))
        return scaled


def timed_pass(eqgym, args, work: Path, info: dict) -> tuple[Checks, dict]:
    monitor = speed.SpeedMonitor(work / "speed.txt")
    try:
        checks, steps = measure(eqgym, args, work)
    finally:
        monitor.stop()
    if not monitor.cpu:
        raise BenchError("the speed monitor recorded nothing")

    setup_s, raw_setup, gaps, raw_gaps = [], [], [], []
    cells_done, wall, scaled_wall = 0, 0.0, 0.0
    for step in steps:
        scale = monitor.scale(step.start, step.end)
        if step.cells:
            cells_done += step.cells
            wall += step.seconds
            scaled_wall += step.seconds * scale
        elif step.seconds:
            raw_setup.append(step.seconds)
            setup_s.append(step.seconds * scale)
        raw_gaps.extend(step.gaps)
        gaps.extend(step.scaled_gaps(monitor))
    if not gaps:
        checks.fail("no turn gaps were recorded")
        raw_gaps = gaps = [0]

    info.update(
        executions=sum(1 for step in steps if step.cells),
        setup_samples=len(setup_s),
        turn_gap_samples=len(gaps),
        speed_samples=len(monitor.cpu),
        raw={
            "setup_s": statistics.median(raw_setup),
            "cells_per_s": cells_done / wall,
            "turn_gap_p50_us": percentile(raw_gaps, 50) / 1000.0,
            "turn_gap_p99_us": percentile(raw_gaps, 99) / 1000.0,
        },
    )
    metrics = {
        "setup_s": statistics.median(setup_s),
        "cells_per_s": cells_done / scaled_wall,
        "peak_rss_mb": peak_rss_mb(),
        "turn_gap_p50_us": percentile(gaps, 50) / 1000.0,
        "turn_gap_p99_us": percentile(gaps, 99) / 1000.0,
    }
    return checks, {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}


def measure(eqgym, args, work: Path) -> tuple[Checks, list[Step]]:
    """Set-up probes, the scripted gap replay, then executions for --seconds."""
    steps = []
    for _ in range(1 if args.tiny else SETUP_SAMPLES):
        started = time.perf_counter()
        elapsed = probe_setup_once(args)
        steps.append(Step(started, time.perf_counter(), seconds=elapsed))

    setup = build(eqgym, args.workload, args.seed, args.tiny, work)
    setup.gaps_dir.mkdir(parents=True, exist_ok=True)
    plan = setup.plan
    workload = WORKLOADS[args.workload]
    checks = Checks(plan)
    warm_up(eqgym, setup, work)

    # Scripted agents: time the turn gaps in one serial replay of the gap
    # cells, through harness.run_session with a proxy around each agent.
    replayed = {}
    if workload.gap_levels is not None:
        step = Step(time.perf_counter(), 0.0)
        replayed = run_serial(eqgym, plan, cells(plan, workload.gap_levels),
                              lambda factory: GapTimedFactory(factory, step))
        step.end = time.perf_counter()
        steps.append(step)
        checks.transcripts(replayed.values())

    out_dir = work / "out"
    rounds = 0
    started = time.perf_counter()
    while True:
        step = Step(time.perf_counter(), 0.0)
        record = eqgym.execute(plan, out_dir)
        step.end = time.perf_counter()
        step.seconds = record.wall_clock_seconds
        step.cells = len(record.transcripts)
        step.gaps = collect_gaps(setup)
        steps.append(step)
        rounds += 1
        checks.transcripts(record.transcripts + record.errors)
        checks.run_log(out_dir)
        # Start another round only while it should end within --seconds.
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now - started + (now - step.start) > args.seconds:
            break
    checks.replayed(replayed, "turn-gap pass")
    return checks, steps


# --------------------------------------------------------------------------
# Traced pass (--trace 1)

def install_wrappers(eqgym, trace: tracer.Tracer) -> tracer.Installed:
    from eqgym import agents, environment, evaluation, expr, harness, session

    def on_evaluate(t, args, kwargs, result, error, seconds):
        t.counts["expr.evaluate.domain_errors"] += isinstance(result, expr.DomainError)

    def on_sample(t, args, kwargs, result, error, seconds):
        t.counts["expr.sample_assignments.points"] += len(result or ())

    def on_experiment(t, args, kwargs, result, error, seconds):
        t.counts["environment.run_experiment.invalid"] += isinstance(
            result, expr.DomainError
        )

    def on_oracle(t, args, kwargs, result, error, seconds):
        t.by_key[args[0].env_id].append(seconds)
        if result is not None:
            t.counts["oracle.canonical"] += result.method == "canonical"
            t.counts["oracle.equivalent"] += bool(result.equivalent)
            if result.method != "canonical":
                t.counts["oracle.points_compared"] += result.points_compared

    def on_submit(t, args, kwargs, result, error, seconds):
        t.counts["session.notices"] += len(result.notices) if result else 0

    def on_act(t, args, kwargs, result, error, seconds):
        t.counts["agents.protocol_errors"] += isinstance(error, agents.ProtocolError)

    def on_exchange(t, args, kwargs, result, error, seconds):
        document = args[1]
        t.counts["agents.exchanges"] += 1
        t.counts["agents.retries"] += "error_notice" in document
        t.counts["agents.wire_bytes"] += len(json.dumps(document)) + 1

    def on_prompt(t, args, kwargs, result, error, seconds):
        notice = args[2] if len(args) > 2 else kwargs.get("error_notice")
        t.counts["agents.exchanges"] += 1
        t.counts["agents.retries"] += bool(notice)
        t.counts["agents.wire_bytes"] += len((result or "").encode("utf-8"))

    installed = tracer.Installed()
    for module, name, layer, hook in (
        (expr, "parse", "expr.parse", None),
        (expr, "canonicalize", "expr.canonicalize", None),
        (expr, "render", "expr.render", None),
        (expr, "evaluate", "expr.evaluate", on_evaluate),
        (expr, "sample_assignments", "expr.sample_assignments", on_sample),
        (expr, "equivalent", "expr.equivalent", None),
        (environment, "run_experiment", "environment.run_experiment", on_experiment),
        (environment, "render_observation", "environment.render_observation", None),
        (environment, "load_file", "environment.load", None),
        (evaluation, "oracle_test", "evaluation.oracle_test", on_oracle),
        (evaluation, "aggregate", "evaluation.aggregate", None),
        (agents, "build_prompt", "agents.build_prompt", on_prompt),
        (harness, "run_session", "harness.run_session", None),
        (harness, "load_run", "harness.load_run", None),
    ):
        installed.function(trace, module, name, layer, hook)
    for cls, name, layer, hook in (
        (session.Session, "submit_turn", "session.submit_turn", on_submit),
        (session.Session, "observation_packet", "session.observation_packet", None),
        (session.Session, "transcript", "session.transcript", None),
        (session.ObservationPacket, "to_wire", "session.to_wire", None),
        (agents.SubprocessAgent, "_exchange", "agents.exchange", on_exchange),
    ):
        installed.method(trace, cls, name, layer, hook)
    factories = (agents.RandomAgentFactory, agents.PowerLawAgentFactory,
                 agents.SubprocessAgentFactory, agents.HttpAgentFactory)
    for cls in factories:
        installed.method(trace, cls, "build", "agents.build")
    for cls in (agents.RandomAgent, agents.PowerLawAgent,
                agents.SubprocessAgent, agents.HttpAgent):
        installed.method(trace, cls, "act", "agents.act", on_act)
        installed.method(trace, cls, "close", "agents.close")
    return installed


def traced_pass(eqgym, args, work: Path, info: dict) -> tuple[Checks, dict]:
    setup = build(eqgym, args.workload, args.seed, args.tiny, work)
    setup.gaps_dir.mkdir(parents=True, exist_ok=True)
    plan = setup.plan
    checks = Checks(plan)
    warm_up(eqgym, setup, work)
    out_dir = work / "out"

    record = eqgym.execute(plan, out_dir)
    checks.transcripts(record.transcripts + record.errors)
    checks.run_log(out_dir)
    execute_wall = record.wall_clock_seconds

    started = time.perf_counter()
    untraced = run_serial(eqgym, plan, cells(plan))
    serial_wall = time.perf_counter() - started

    trace = tracer.Tracer()
    with install_wrappers(eqgym, trace):
        started = time.perf_counter()
        traced = run_serial(eqgym, plan, cells(plan))
        traced_wall = time.perf_counter() - started
        environments = eqgym.environment.bundled_environments()
        loaded, snapshots = eqgym.harness.load_run(out_dir)
        eqgym.harness.report_text(loaded, snapshots, by_difficulty=True, overlap=True)
    leftovers = tracer.leftover_wrappers()
    if leftovers:
        checks.fail(f"tracing wrappers left installed: {leftovers}")
    collect_gaps(setup)

    checks.transcripts(untraced.values())
    checks.transcripts(traced.values())
    checks.replayed(untraced, "serial")
    checks.replayed(traced, "traced")
    info.update(cells=len(traced), execute_wall_s=execute_wall,
                serial_wall_s=serial_wall, traced_wall_s=traced_wall)
    metrics = layer_metrics(trace, [env.env_id for env in environments])
    metrics.update({
        "harness.log_bytes": ((out_dir / "run.jsonl").stat().st_size, "bytes"),
        "harness.parallel_speedup": (serial_wall / execute_wall, "x"),
        "trace.overhead_share": (traced_wall / serial_wall - 1.0, "ratio"),
        "code.src_lines": (src_lines(), "lines"),
    })
    return checks, metrics


def layer_metrics(trace: tracer.Tracer, env_ids) -> dict:
    spans, counts = trace.spans, trace.counts
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    def total_ms(layer):
        return 1000.0 * sum(spans.get(layer, ()))

    def calls(layer):
        return len(spans.get(layer, ()))

    def quantile_us(layer, q):
        values = spans.get(layer)
        return 1e6 * percentile(values, q) if values else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    def timing(layer, stats):
        for stat in stats:
            if stat == "calls":
                put(f"{layer}.calls", calls(layer), "count")
            elif stat == "ms":
                put(f"{layer}.ms", total_ms(layer), "ms")
            else:
                put(f"{layer}.{stat}_us", quantile_us(layer, int(stat[1:])), "us")

    run_ms = total_ms("harness.run_session")
    full = ("calls", "ms", "p50", "p99")

    timing("evaluation.oracle_test", full)
    for env_id in env_ids:
        values = trace.by_key.get(env_id)
        put(f"evaluation.oracle_test.{env_id}.p50_us",
            1e6 * statistics.median(values) if values else 0.0, "us")
    oracle_calls = calls("evaluation.oracle_test")
    put("evaluation.oracle.canonical_share",
        share(counts["oracle.canonical"], oracle_calls), "ratio")
    put("evaluation.oracle.points_used_share",
        share(counts["oracle.points_compared"], counts["expr.sample_assignments.points"]),
        "ratio")
    put("evaluation.oracle.equivalent", counts["oracle.equivalent"], "count")
    timing("evaluation.aggregate", ("ms",))

    for fn in ("parse", "canonicalize", "render", "evaluate",
               "sample_assignments", "equivalent"):
        timing(f"expr.{fn}", ("calls", "ms"))
    put("expr.evaluate.domain_error_share",
        share(counts["expr.evaluate.domain_errors"], calls("expr.evaluate")), "ratio")

    timing("session.submit_turn", full)
    timing("session.observation_packet", full)
    timing("session.to_wire", ("ms",))
    timing("session.transcript", ("ms",))
    put("session.notices", counts["session.notices"], "count")

    timing("environment.run_experiment", ("calls", "ms"))
    put("environment.run_experiment.invalid_share",
        share(counts["environment.run_experiment.invalid"],
              calls("environment.run_experiment")), "ratio")
    timing("environment.render_observation", ("ms",))
    timing("environment.load", ("ms",))

    timing("agents.build", ("ms",))
    builds = spans.get("agents.build")
    put("agents.build.p50_ms", 1e3 * statistics.median(builds) if builds else 0.0, "ms")
    timing("agents.act", full)
    put("agents.parse_turn.failures",
        counts["agents.retries"] + counts["agents.protocol_errors"], "count")
    put("agents.retry_share", share(counts["agents.retries"], counts["agents.exchanges"]),
        "ratio")
    put("agents.wire_bytes", counts["agents.wire_bytes"], "bytes")
    timing("agents.close", ("ms",))

    put("harness.run_session.calls", calls("harness.run_session"), "count")
    put("harness.run_session.ms", run_ms, "ms")
    put("harness.run_session.p50_ms", quantile_us("harness.run_session", 50) / 1e3, "ms")
    put("harness.run_session.p99_ms", quantile_us("harness.run_session", 99) / 1e3, "ms")
    timing("harness.load_run", ("ms",))

    for layer in ("evaluation.oracle_test", "session.observation_packet",
                  "environment.run_experiment", "agents.build", "agents.act"):
        put(f"{layer}.run_share", share(total_ms(layer), run_ms), "ratio")
    return metrics


# --------------------------------------------------------------------------
# Entry point

def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def probe_setup(args) -> int:
    import_eqgym()
    import eqgym

    build(eqgym, args.workload, args.seed, args.tiny, WORK / "probe")
    print("ready", flush=True)
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description="eqgym benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (smoke test only)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.probe_setup:
            return probe_setup(args)
        eqgym = import_eqgym()
        work = WORK / f"{args.workload}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        info = {
            "workload": args.workload,
            "why": WORKLOADS[args.workload].why,
            "seed": args.seed,
            "trace": args.trace,
            "tiny": args.tiny,
            "parallelism": nproc(),
            "machine": machine(),
        }
        try:
            run = traced_pass if args.trace else timed_pass
            checks, metrics = run(eqgym, args, work, info)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    info["failed_share"] = checks.failed / checks.attempted if checks.attempted else 0.0
    info["problems"] = checks.problems
    print(json.dumps({"info": info}))
    correct = not checks.problems
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
