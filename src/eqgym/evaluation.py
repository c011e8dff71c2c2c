"""Judging and scoring: the hypothesis oracle, data-fit metrics,
difficulty classification, and benchmark aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .environment import LEVELS, EnvironmentSpec
from .expr import (
    DomainError,
    EquivalenceVerdict,
    Expression,
    ExpressionError,
    canonicalize,
    equivalent,
    evaluate,
    parse,
    render,
)

def oracle_test(
    env: EnvironmentSpec, hypothesis: Expression, seed: int = 0
) -> EquivalenceVerdict:
    """Judge a hypothesis (true-name space) against the hidden equation,
    over every variable the agent controls."""
    return equivalent(hypothesis, env.equation, env.domains(), seed)


# --------------------------------------------------------------------------
# Fit metrics

@dataclass(frozen=True)
class FitReport:
    """How well a hypothesis tracks observed experiment outcomes.

    Metrics are None when undefined: r2 on zero variance with nonzero
    residue, tau on fewer than two points, mape when every observation is
    within 1e-12 of zero, and everything when the hypothesis fails to
    evaluate on more than half of the history.
    """

    r2: float | None
    mse: float | None
    kendall_tau: float | None
    mape: float | None
    n_points: int
    n_skipped: int


def fit_report(
    hypothesis: Expression,
    history: Sequence[tuple[Mapping[str, float], float]],
) -> FitReport:
    """Score a hypothesis against (assignment, observed value) pairs.

    The hypothesis and the assignments must share a naming scheme; the
    caller picks which side of the masking that is.
    """
    if not history:
        raise ValueError("empty history: nothing to fit")
    predictions: list[float] = []
    observations: list[float] = []
    skipped = 0
    for assignment, observed in history:
        out = evaluate(hypothesis, assignment)
        if isinstance(out, DomainError):
            skipped += 1
            continue
        predictions.append(out.value)
        observations.append(float(observed))
    n = len(predictions)
    if skipped > len(history) / 2 or n == 0:
        return FitReport(None, None, None, None, n, skipped)
    import numpy as np

    pred = np.asarray(predictions)
    obs = np.asarray(observations)
    ss_res = float(np.sum((pred - obs) ** 2))
    ss_tot = float(np.sum((obs - np.mean(obs)) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-18 else None
    else:
        r2 = 1.0 - ss_res / ss_tot
    mse = ss_res / n
    tau = _kendall_tau_b(pred, obs)
    keep = np.abs(obs) > 1e-12
    if np.any(keep):
        mape = float(np.mean(np.abs(pred[keep] - obs[keep]) / np.abs(obs[keep])))
    else:
        mape = None
    return FitReport(r2, mse, tau, mape, n, skipped)


def _kendall_tau_b(x: np.ndarray, y: np.ndarray) -> float | None:
    # (concordant - discordant) / sqrt(pairs untied in x * pairs untied in y),
    # one row of pairs at a time so memory stays linear in the history.
    # None when either side is constant or holds a NaN, where scipy's
    # kendalltau gives NaN.
    import numpy as np

    s, untied_x, untied_y = 0.0, 0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(x) - 1):
            dx = np.sign(x[i + 1:] - x[i])
            dy = np.sign(y[i + 1:] - y[i])
            s += float(dx @ dy)
            untied_x += np.count_nonzero(dx)
            untied_y += np.count_nonzero(dy)
    if math.isnan(s) or untied_x == 0 or untied_y == 0:
        return None
    return s / math.sqrt(untied_x * untied_y)


# --------------------------------------------------------------------------
# Difficulty

DIFFICULTY_GROUPS = ("1-3", "4-6", "7-9", "10+")


@dataclass(frozen=True)
class Difficulty:
    variable_count: int
    group: str


def difficulty(env: EnvironmentSpec) -> Difficulty:
    """Classify by input count."""
    count = len(env.inputs)
    if count <= 3:
        group = "1-3"
    elif count <= 6:
        group = "4-6"
    elif count <= 9:
        group = "7-9"
    else:
        group = "10+"
    return Difficulty(count, group)


# --------------------------------------------------------------------------
# Aggregation

def unique_hypotheses(formulas: Iterable[str]) -> int:
    """Count distinct hypotheses, collapsing algebraically identical forms.

    Parseable formulas are keyed by canonical rendering; unparseable ones
    by their raw text.
    """
    keys: set[tuple[str, str]] = set()
    for formula in formulas:
        try:
            keys.add(("canon", render(canonicalize(parse(formula)))))
        except ExpressionError:
            keys.add(("raw", formula.strip()))
    return len(keys)


@dataclass(frozen=True)
class GroupStats:
    agent: str
    level: str
    n_runs: int
    n_solved: int
    # Means over the solved subset only; None when nothing was solved.
    mean_experiments: float | None
    mean_tests: float | None
    mean_turns: float | None
    mean_unique_hypotheses: float | None
    mean_total_hypotheses: float | None


@dataclass(frozen=True)
class DifficultyStats:
    agent: str
    level: str
    group: str
    n_runs: int
    n_solved: int


@dataclass
class AggregateReport:
    groups: list[GroupStats]
    by_difficulty: list[DifficultyStats]
    solved_by_level: dict[str, dict[str, list[str]]]  # agent -> env -> levels

    def to_tsv(self) -> str:
        return _tsv(
            ["Model", "Mode", "Acc (%)", "Experiments", "Tests", "Turns",
             "(U)Hyps", "Total Hyps"],
            ([g.agent, g.level, _acc(g), _cell(g.mean_experiments),
              _cell(g.mean_tests), _cell(g.mean_turns),
              _cell(g.mean_unique_hypotheses), _cell(g.mean_total_hypotheses)]
             for g in self.groups),
        )

    def difficulty_tsv(self) -> str:
        return _tsv(
            ["Model", "Mode", "Vars", "Runs", "Solved", "Acc (%)"],
            ([d.agent, d.level, d.group, str(d.n_runs), str(d.n_solved), _acc(d)]
             for d in self.by_difficulty),
        )

    def overlap_tsv(self) -> str:
        return _tsv(
            ["Model", "Environment", "Solved at"],
            ([agent, env_id, ",".join(levels) or "-"]
             for agent, envs in sorted(self.solved_by_level.items())
             for env_id, levels in sorted(envs.items())),
        )

    def to_json_dict(self) -> dict:
        return {
            "groups": [vars(g) for g in self.groups],
            "by_difficulty": [vars(d) for d in self.by_difficulty],
            "solved_by_level": self.solved_by_level,
        }


def _tsv(header: list[str], rows: Iterable[list[str]]) -> str:
    return "".join("\t".join(row) + "\n" for row in (header, *rows))


def _acc(stats: GroupStats | DifficultyStats) -> str:
    return f"{100.0 * (stats.n_solved / stats.n_runs):.1f}"


def _cell(value: float | None) -> str:
    return "-" if value is None else f"{value:.1f}"


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


LEVEL_ORDER = {label: i for i, label in enumerate([*LEVELS, "custom"])}


def _level_key(label: str) -> tuple[int, str]:
    return (LEVEL_ORDER.get(label, 9), label)


def aggregate(
    transcripts: Sequence[Mapping],
    environments: Sequence[EnvironmentSpec] = (),
) -> AggregateReport:
    """Summarize transcripts per (agent x prior level).

    Mean resource numbers cover solved runs only.  The by-difficulty
    breakdown needs the environment specs to classify; it is empty when
    they are not given.
    """
    if not transcripts:
        raise ValueError("no transcripts to aggregate")
    env_group = {env.env_id: difficulty(env).group for env in environments}
    by_group: dict[tuple[str, str], list[Mapping]] = {}
    for t in transcripts:
        by_group.setdefault((t["agent"], t["level"]), []).append(t)

    groups: list[GroupStats] = []
    by_difficulty: list[DifficultyStats] = []
    # Agents in the order the log first names them.  An agent's groups come
    # in level order, so each environment's solved-at list is built in order.
    solved_by_level: dict[str, dict[str, list[str]]] = {agent: {} for agent, _ in by_group}
    for (agent, level), runs in sorted(
        by_group.items(), key=lambda kv: (kv[0][0], _level_key(kv[0][1]))
    ):
        solved_runs = [t for t in runs if t.get("solved")]
        agent_envs = solved_by_level[agent]
        for t in runs:
            levels = agent_envs.setdefault(t["env_id"], [])
            if t.get("solved") and level not in levels:
                levels.append(level)
        groups.append(GroupStats(
            agent=agent,
            level=level,
            n_runs=len(runs),
            n_solved=len(solved_runs),
            mean_experiments=_mean([t["experiments_used"] for t in solved_runs]),
            mean_tests=_mean([t["tests_used"] for t in solved_runs]),
            mean_turns=_mean([t["turn_count"] for t in solved_runs]),
            mean_unique_hypotheses=_mean([
                float(unique_hypotheses(h["formula"] for h in t.get("hypotheses", ())))
                for t in solved_runs
            ]),
            mean_total_hypotheses=_mean(
                [float(len(t.get("hypotheses", ()))) for t in solved_runs]
            ),
        ))
        if env_group:
            per: dict[str, list[Mapping]] = {}
            for t in runs:
                group = env_group.get(t["env_id"])
                if group is not None:
                    per.setdefault(group, []).append(t)
            for group in DIFFICULTY_GROUPS:
                if group not in per:
                    continue
                bucket = per[group]
                won = sum(1 for t in bucket if t.get("solved"))
                by_difficulty.append(DifficultyStats(agent, level, group, len(bucket), won))

    return AggregateReport(groups, by_difficulty, solved_by_level)
