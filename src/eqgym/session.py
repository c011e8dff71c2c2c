"""One discovery session: an agent probes a hidden equation under an
experiment quota and a test quota, submitting hypotheses the platform
judges against the ground truth.

Everything an agent sees or submits lives in display space (masked
names), experiment reasons included; only the oracle works in true
names, through a translation the session owns and never serializes.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass

from . import evaluation
from .environment import (
    LEVELS, EnvironmentSpec, PriorMask, render_observation, run_experiment, shown_environment,
)
from .expr import (
    EquivalenceVerdict,
    Expression,
    ExpressionError,
    Value,
    free_variables,
    parse,
    rename_variables,
)

DEFAULT_EXPERIMENTS_QUOTA = 100
DEFAULT_TEST_QUOTA = 5

ACTIVE = "active"
SOLVED = "solved"
EXHAUSTED = "exhausted"
PROTOCOL_FAILURE = "protocol_failure"


class TerminalSession(RuntimeError):
    """submit_turn called on a session that already ended."""


class WireFormatError(ValueError):
    """A wire document does not have the required shape."""


@dataclass(frozen=True)
class ObservationPacket:
    """The full agent-facing state document for one turn.

    `historical_experiments` is a fresh list, but its entries are the
    session's own history dicts, the same ones that each turn's
    `TurnOutcome.executed` returned and that every later packet and the
    transcript share: in-process callers must treat them as read-only.
    `to_wire` copies them.  Remote agents' encoders (`agents.PacketEncoder`)
    keep the JSON text of each entry they sent (escaped for the request on
    HTTP), matched by identity, so a mutated entry would leave it stale.
    """

    problem_description: str
    controllable_variables: dict[str, str]
    observable_variable: dict[str, str]
    historical_experiments: list[dict]
    quota: dict[str, int]
    last_oracle_result: dict | None = None

    def to_wire(self) -> dict:
        doc = {
            "problem_description": self.problem_description,
            "controllable_variables": dict(self.controllable_variables),
            "observable_variable": dict(self.observable_variable),
            "historical_experiments": [dict(h) for h in self.historical_experiments],
            "quota": dict(self.quota),
        }
        if self.last_oracle_result is not None:
            doc["last_oracle_result"] = dict(self.last_oracle_result)
        return doc

    @classmethod
    def from_wire(cls, data: Mapping) -> "ObservationPacket":
        if not isinstance(data, Mapping):
            raise WireFormatError("packet must be an object")
        for key, kind in (
            ("problem_description", str),
            ("controllable_variables", Mapping),
            ("observable_variable", Mapping),
            ("historical_experiments", list),
            ("quota", Mapping),
        ):
            if key not in data:
                raise WireFormatError(f"packet missing field {key!r}")
            if not isinstance(data[key], kind):
                raise WireFormatError(f"packet field {key!r} has the wrong type")
        quota = data["quota"]
        for key in ("experiments_quota", "test_quota"):
            if key not in quota:
                raise WireFormatError(f"quota missing field {key!r}")
            if not isinstance(quota[key], int) or isinstance(quota[key], bool):
                raise WireFormatError(f"quota field {key!r} must be an integer")
            if quota[key] < 0:
                raise WireFormatError(f"quota field {key!r} must be >= 0")
        oracle = data.get("last_oracle_result")
        if oracle is not None and not isinstance(oracle, Mapping):
            raise WireFormatError("last_oracle_result must be an object")
        return cls(
            problem_description=data["problem_description"],
            controllable_variables=dict(data["controllable_variables"]),
            observable_variable=dict(data["observable_variable"]),
            historical_experiments=[dict(h) for h in data["historical_experiments"]],
            quota=dict(quota),
            last_oracle_result=dict(oracle) if oracle is not None else None,
        )


@dataclass
class HypothesisRecord:
    formula: str
    turn_index: int
    parsed: Expression | None
    error: str | None = None
    verdict: EquivalenceVerdict | None = None  # set when the oracle tested it


@dataclass
class TurnOutcome:
    """What one turn did.

    `executed` holds the history entries this turn appended, in display
    space: the assignment, then the output's value or an `"invalid"`
    reason.  They are the very dicts that every later packet and the
    transcript share, so in-process callers must treat them as read-only.
    """

    executed: list[dict]
    dropped: int
    malformed: int
    hypothesis_recorded: bool
    parse_failure: str | None
    oracle: EquivalenceVerdict | None
    notices: list[str]
    status: str
    turn_index: int


def _value_problem(name: str, value) -> str | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"value for {name} must be a number"
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond float range
        finite = False
    return None if finite else f"value for {name} must be a finite number"


class Session:
    """Mutable state machine for one agent/environment episode; `mask` may
    be a PriorMask or a level label."""

    def __init__(
        self,
        env: EnvironmentSpec,
        mask: PriorMask | str = "L1",
        experiments_quota: int = DEFAULT_EXPERIMENTS_QUOTA,
        test_quota: int = DEFAULT_TEST_QUOTA,
        seed: int = 0,
        agent_name: str = "",
    ):
        if isinstance(mask, str):
            if mask not in LEVELS:
                raise ValueError(f"unknown prior level {mask!r}")
            mask = LEVELS[mask]
        if experiments_quota < 0 or test_quota < 0:
            raise ValueError("quotas must be >= 0")
        self.env = env
        self.mask = mask
        # The environment in the names the agent sees; experiments run on it.
        self.shown_env = shown_environment(env, mask)
        self.header = render_observation(env, mask)
        self.seed = seed
        self.agent_name = agent_name
        self.experiments_quota = experiments_quota
        self.test_quota = test_quota
        self.experiments_remaining = experiments_quota
        self.tests_remaining = test_quota
        # One entry per experiment, in display space.  Packets and the
        # transcript take shallow copies that share these entries, so no
        # turn rebuilds the history.
        self._history: list[dict] = []
        self.hypotheses: list[HypothesisRecord] = []
        self.status = ACTIVE
        self.turn_index = 0
        self.last_tested: HypothesisRecord | None = None
        self.notices: list[tuple[int, str]] = []
        self.failure_reason: str | None = None
        # display name -> true name, for the oracle
        self._to_true = dict(self.header.name_map)

    # -- agent-facing view ---------------------------------------------------

    def observation_packet(self) -> ObservationPacket:
        return ObservationPacket(
            problem_description=self.header.problem_description,
            controllable_variables=dict(self.header.controllable_variables),
            observable_variable=dict(self.header.observable_variable),
            historical_experiments=list(self._history),
            quota={
                "experiments_quota": self.experiments_remaining,
                "test_quota": self.tests_remaining,
            },
            last_oracle_result=(
                {
                    "formula": self.last_tested.formula,
                    "equivalent": self.last_tested.verdict.equivalent,
                }
                if self.last_tested is not None
                else None
            ),
        )

    # -- turn processing -----------------------------------------------------

    def submit_turn(self, turn) -> TurnOutcome:
        """Process one agent turn: experiments, hypothesis, optional test.

        `turn` needs attributes next_experiments, test_hypothesis_flag and
        current_hypothesis_formula.  Experiments consume quota whether the
        outcome is a value or an invalid result; malformed proposals are
        dropped with a notice and cost nothing.
        """
        if self.status != ACTIVE:
            raise TerminalSession(f"session is {self.status}")
        notices: list[str] = []
        executed: list[dict] = []
        dropped = 0
        malformed = 0

        proposals = list(turn.next_experiments or [])
        for i, proposal in enumerate(proposals):
            if self.experiments_remaining <= 0:
                dropped = len(proposals) - i
                notices.append(
                    f"{dropped} experiment proposal(s) dropped: experiment quota exhausted"
                )
                break
            entry = self._entry(proposal)
            if type(entry) is str:
                malformed += 1
                notices.append(f"experiment proposal skipped: {entry}")
                continue
            outcome = run_experiment(self.shown_env, entry)
            self.experiments_remaining -= 1
            if isinstance(outcome, Value):
                entry[self.shown_env.output.name] = outcome.value
            else:
                entry["invalid"] = f"{outcome.reason}: {outcome.detail}"
            self._history.append(entry)
            executed.append(entry)

        formula = (getattr(turn, "current_hypothesis_formula", "") or "").strip()
        hypothesis: HypothesisRecord | None = None
        parse_failure: str | None = None
        if formula:
            hypothesis = self._record_hypothesis(formula)
            parse_failure = hypothesis.error
            if parse_failure is not None:
                notices.append(f"hypothesis not usable: {parse_failure}")

        oracle: EquivalenceVerdict | None = None
        if getattr(turn, "test_hypothesis_flag", False):
            if hypothesis is None:
                notices.append("test skipped: no hypothesis submitted this turn")
            elif hypothesis.parsed is None:
                notices.append("test skipped: hypothesis did not parse")
            elif self.tests_remaining <= 0:
                notices.append("test skipped: test quota exhausted")
            else:
                oracle = self._run_oracle(hypothesis)

        if self.status == ACTIVE and self.experiments_remaining == 0 and self.tests_remaining == 0:
            self.status = EXHAUSTED
        for text in notices:
            self.notices.append((self.turn_index, text))
        outcome = TurnOutcome(
            executed=executed,
            dropped=dropped,
            malformed=malformed,
            hypothesis_recorded=hypothesis is not None,
            parse_failure=parse_failure,
            oracle=oracle,
            notices=notices,
            status=self.status,
            turn_index=self.turn_index,
        )
        self.turn_index += 1
        return outcome

    def _entry(self, proposal) -> dict | str:
        """The proposal's history entry, its values as floats in the
        controllables' order, or why the proposal is malformed."""
        if type(proposal) is not dict and not isinstance(proposal, Mapping):
            return "proposal must be an object of variable assignments"
        expected = self._to_true.keys()
        if proposal.keys() != expected:
            missing = sorted(expected - proposal.keys())
            extra = sorted(proposal.keys() - expected)
            parts = []
            if missing:
                parts.append(f"missing {missing}")
            if extra:
                parts.append(f"unknown {extra}")
            return "bad variable set: " + ", ".join(parts)
        entry = {}
        for name in expected:
            value = proposal[name]
            if type(value) is not float or value - value != 0.0:  # not a finite float
                if _value_problem(name, value) is not None:
                    # Name the first bad value in the proposal's own order.
                    return next(filter(None, itertools.starmap(_value_problem, proposal.items())))
                value = float(value)
            entry[name] = value
        return entry

    def _record_hypothesis(self, formula: str) -> HypothesisRecord:
        record = HypothesisRecord(formula, self.turn_index, None)
        try:
            parsed = parse(formula)
        except ExpressionError as exc:
            record.error = str(exc)
        else:
            unknown = free_variables(parsed) - set(self._to_true)
            if unknown:
                record.error = f"unknown identifiers: {', '.join(sorted(unknown))}"
            else:
                record.parsed = parsed
        self.hypotheses.append(record)
        return record

    def _run_oracle(self, hypothesis: HypothesisRecord) -> EquivalenceVerdict:
        self.tests_remaining -= 1
        true_expr = rename_variables(hypothesis.parsed, self._to_true)
        verdict = evaluation.oracle_test(self.env, true_expr, seed=self.seed)
        hypothesis.verdict = verdict
        self.last_tested = hypothesis
        if verdict.equivalent:
            self.status = SOLVED
        return verdict

    # -- termination ----------------------------------------------------------

    def finish(self) -> None:
        """Force an active session to end as exhausted (runner policy for
        agents that stop making progress)."""
        if self.status == ACTIVE:
            self.status = EXHAUSTED

    def fail(self, reason: str) -> None:
        if self.status == ACTIVE:
            self.status = PROTOCOL_FAILURE
            self.failure_reason = reason

    # -- persistence ----------------------------------------------------------

    def transcript(self) -> dict:
        """Serializable session record, display space only.

        Deliberately excludes the name map, so it leaks no hidden priors;
        the same session replays byte-identically.
        """
        return {
            "kind": "transcript",
            "env_id": self.env.env_id,
            "agent": self.agent_name,
            "level": self.mask.level_label() or "custom",
            "mask": {
                "show_context": self.mask.show_context,
                "show_names": self.mask.show_names,
                "show_descriptions": self.mask.show_descriptions,
            },
            # Always false since dummies cannot be shown; the key stays
            # until the next change to the log format.
            "expose_dummies": False,
            "seed": self.seed,
            "quota": {
                "experiments_quota": self.experiments_quota,
                "test_quota": self.test_quota,
            },
            "status": self.status,
            "solved": self.status == SOLVED,
            "turn_count": self.turn_index,
            "experiments_used": len(self._history),
            "tests_used": self.test_quota - self.tests_remaining,
            "experiments": list(self._history),
            "hypotheses": [
                {
                    "formula": h.formula,
                    "turn": h.turn_index,
                    "parsed": h.parsed is not None,
                    "error": h.error,
                    "tested": h.verdict is not None,
                    "equivalent": None if h.verdict is None else h.verdict.equivalent,
                    "method": None if h.verdict is None else h.verdict.method,
                }
                for h in self.hypotheses
            ],
            "notices": [[turn, text] for turn, text in self.notices],
            "failure_reason": self.failure_reason,
        }


new_session = Session
