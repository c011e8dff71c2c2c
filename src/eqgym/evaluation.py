"""Judging and scoring: the hypothesis oracle, data-fit metrics,
difficulty classification, and benchmark aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .environment import EnvironmentSpec
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
    env: EnvironmentSpec,
    hypothesis: Expression,
    seed: int = 0,
    expose_dummies: bool = False,
) -> EquivalenceVerdict:
    """Judge a hypothesis (true-name space) against the hidden equation,
    over every variable the agent controls."""
    return equivalent(hypothesis, env.equation, env.domains(expose_dummies), seed)


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
    pred = np.asarray(predictions)
    obs = np.asarray(observations)
    ss_res = float(np.sum((pred - obs) ** 2))
    ss_tot = float(np.sum((obs - np.mean(obs)) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-18 else None
    else:
        r2 = 1.0 - ss_res / ss_tot
    mse = ss_res / n
    if n >= 2:
        # Imported here: scipy.stats takes most of `import eqgym`, and no
        # run calls fit_report.
        from scipy.stats import kendalltau

        tau = kendalltau(pred, obs, variant="b").statistic
        tau = None if math.isnan(tau) else float(tau)
    else:
        tau = None
    keep = np.abs(obs) > 1e-12
    if np.any(keep):
        mape = float(np.mean(np.abs(pred[keep] - obs[keep]) / np.abs(obs[keep])))
    else:
        mape = None
    return FitReport(r2, mse, tau, mape, n, skipped)


# --------------------------------------------------------------------------
# Difficulty

DIFFICULTY_GROUPS = ("1-3", "4-6", "7-9", "10+")


@dataclass(frozen=True)
class Difficulty:
    variable_count: int
    equation_length: int
    group: str


def difficulty(env: EnvironmentSpec) -> Difficulty:
    """Classify by input count; equation length is measured on the
    canonical rendering so formatting choices cannot move an environment
    between buckets."""
    count = len(env.inputs)
    if count <= 3:
        group = "1-3"
    elif count <= 6:
        group = "4-6"
    elif count <= 9:
        group = "7-9"
    else:
        group = "10+"
    return Difficulty(count, len(render(canonicalize(env.equation))), group)


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
    success_rate: float
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
    success_rate: float


@dataclass
class AggregateReport:
    groups: list[GroupStats]
    by_difficulty: list[DifficultyStats]
    solved_by_level: dict[str, dict[str, list[str]]]  # agent -> env -> levels

    def to_tsv(self) -> str:
        headers = [
            "Model", "Mode", "Acc (%)", "Experiments", "Tests", "Turns",
            "(U)Hyps", "Total Hyps",
        ]
        lines = ["\t".join(headers)]
        for g in self.groups:
            lines.append("\t".join([
                g.agent,
                g.level,
                f"{100.0 * g.success_rate:.1f}",
                _cell(g.mean_experiments),
                _cell(g.mean_tests),
                _cell(g.mean_turns),
                _cell(g.mean_unique_hypotheses),
                _cell(g.mean_total_hypotheses),
            ]))
        return "\n".join(lines) + "\n"

    def difficulty_tsv(self) -> str:
        lines = ["\t".join(["Model", "Mode", "Vars", "Runs", "Solved", "Acc (%)"])]
        for d in self.by_difficulty:
            lines.append("\t".join([
                d.agent, d.level, d.group, str(d.n_runs), str(d.n_solved),
                f"{100.0 * d.success_rate:.1f}",
            ]))
        return "\n".join(lines) + "\n"

    def overlap_tsv(self) -> str:
        lines = ["\t".join(["Model", "Environment", "Solved at"])]
        for agent in sorted(self.solved_by_level):
            for env_id in sorted(self.solved_by_level[agent]):
                levels = self.solved_by_level[agent][env_id]
                lines.append("\t".join([
                    agent, env_id, ",".join(levels) if levels else "-",
                ]))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "groups": [vars(g) for g in self.groups],
            "by_difficulty": [vars(d) for d in self.by_difficulty],
            "solved_by_level": self.solved_by_level,
        }


def _cell(value: float | None) -> str:
    return "-" if value is None else f"{value:.1f}"


def _mean(values: list[float]) -> float | None:
    return float(np.mean(values)) if values else None


LEVEL_ORDER = {"L1": 0, "L2": 1, "L3": 2, "L4": 3, "custom": 4}


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
    solved_by_level: dict[str, dict[str, list[str]]] = {}

    for (agent, level), runs in sorted(
        by_group.items(), key=lambda kv: (kv[0][0], _level_key(kv[0][1]))
    ):
        solved_runs = [t for t in runs if t.get("solved")]
        groups.append(GroupStats(
            agent=agent,
            level=level,
            n_runs=len(runs),
            n_solved=len(solved_runs),
            success_rate=len(solved_runs) / len(runs),
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
                by_difficulty.append(DifficultyStats(
                    agent, level, group, len(bucket), won, won / len(bucket)
                ))

    for t in transcripts:
        agent_envs = solved_by_level.setdefault(t["agent"], {})
        levels = agent_envs.setdefault(t["env_id"], [])
        if t.get("solved") and t["level"] not in levels:
            levels.append(t["level"])
    for agent_envs in solved_by_level.values():
        for levels in agent_envs.values():
            levels.sort(key=_level_key)

    return AggregateReport(groups, by_difficulty, solved_by_level)
