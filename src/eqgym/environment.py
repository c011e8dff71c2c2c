"""Environment definitions: a hidden equation over typed variable domains,
context prose, optional dummy variables and validity constraints, plus the
prior-masked view an agent is allowed to see."""

from __future__ import annotations

import functools
import json
import math
import operator
import re
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from pathlib import Path

from .expr import (
    DomainError,
    EvalOutcome,
    Expression,
    ExpressionError,
    Value,
    VariableDomain,
    compiled,
    free_variables,
    parse,
    render,
    rename_variables,
    _DomainSignal,
    _IDENT_RE,
)

PLACEHOLDER_CONTEXT = "Unknown context."
PLACEHOLDER_CONTROLLABLE = "A controllable physical quantity."
PLACEHOLDER_OBSERVABLE = "An observable physical quantity."

_ID_RE = re.compile(r"[A-Za-z0-9_\-]+\Z")
_COMPARATOR_RE = re.compile(r"(<=|>=|<|>)")
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class SchemaError(ValueError):
    """Structurally malformed environment data (missing/mistyped fields)."""


class ValidationError(ValueError):
    """Well-formed but inconsistent environment data."""


@dataclass(frozen=True)
class VariableSpec:
    name: str
    description: str
    domain: VariableDomain | None = None  # outputs carry no domain


@dataclass(frozen=True)
class PriorMask:
    """Which priors the agent sees: context prose, true variable names,
    variable descriptions.  Hidden parts are replaced by fixed
    placeholders / anonymized names, never omitted."""

    show_context: bool
    show_names: bool
    show_descriptions: bool

    def level_label(self) -> str | None:
        for label, mask in LEVELS.items():
            if mask == self:
                return label
        return None


LEVELS: dict[str, PriorMask] = {
    "L1": PriorMask(True, True, True),
    "L2": PriorMask(False, True, True),
    "L3": PriorMask(False, False, True),
    "L4": PriorMask(False, False, False),
}


@dataclass(frozen=True)
class Constraint:
    """A validity comparison between two expressions over the inputs."""

    left: Expression
    op: str  # < <= > >=
    right: Expression

    @functools.cached_property
    def text(self) -> str:
        """The constraint in its own names, rendered on first use."""
        return f"{render(self.left)} {self.op} {render(self.right)}"


def parse_constraint(text: str) -> Constraint:
    parts = _COMPARATOR_RE.split(text)
    if len(parts) != 3:
        raise ValidationError(
            f"constraint must be a single comparison, got {text!r}"
        )
    left, op, right = parts
    return Constraint(parse(left), op, parse(right))


@dataclass(frozen=True)
class EnvironmentSpec:
    env_id: str
    context: str
    inputs: tuple[VariableSpec, ...]
    output: VariableSpec
    equation: Expression
    equation_text: str
    dummies: tuple[VariableSpec, ...] = ()
    validity: tuple[Constraint, ...] = ()
    difficulty_group: str | None = None
    metadata: dict = field(default_factory=dict)

    def input_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.inputs)

    def controllables(self) -> tuple[VariableSpec, ...]:
        # Dummies only pad the context: each one shown would add two
        # experiments to the power-law baseline's first turn.
        return self.inputs

    def domains(self) -> dict[str, VariableDomain]:
        return {v.name: v.domain for v in self.controllables()}

    @functools.cached_property
    def check_plan(self) -> tuple:
        """experiment's constants, worked out on first use: the names to
        bind, (name, domain, lower, upper) for each controllable, the law's
        compiled function, and (left, compare, right, constraint) for each
        constraint, its sides compiled."""
        controllables = self.controllables()
        return (
            frozenset(v.name for v in controllables),
            tuple((v.name, v.domain, v.domain.lower, v.domain.upper) for v in controllables),
            compiled(self.equation),
            tuple((compiled(c.left), _COMPARE[c.op], compiled(c.right), c)
                  for c in self.validity),
        )

    @functools.cached_property
    def anonymous(self) -> EnvironmentSpec:
        """This environment in the names L3 and L4 show: the controllables
        become var_1 ... var_n in order and the output var_out, also in the
        equation and the constraints.  Dummies are never shown, so left out."""
        naming = {v.name: f"var_{i}" for i, v in enumerate(self.controllables(), 1)}
        equation = rename_variables(self.equation, naming)
        return replace(
            self,
            inputs=tuple(replace(v, name=naming[v.name]) for v in self.inputs),
            output=replace(self.output, name="var_out"),
            equation=equation,
            equation_text=render(equation),
            dummies=(),
            validity=tuple(
                Constraint(rename_variables(c.left, naming), c.op,
                           rename_variables(c.right, naming))
                for c in self.validity
            ),
        )


def shown_environment(env: EnvironmentSpec, mask: PriorMask) -> EnvironmentSpec:
    """The environment in the variable names `mask` shows the agent."""
    return env if mask.show_names else env.anonymous


def _validate(env: EnvironmentSpec) -> EnvironmentSpec:
    if not _ID_RE.match(env.env_id):
        raise ValidationError(f"bad environment id {env.env_id!r}")
    names = [v.name for v in env.inputs] + [env.output.name] + [
        v.name for v in env.dummies
    ]
    for name in names:  # a history entry keys a failed experiment's reason by "invalid"
        if not _IDENT_RE.match(name) or name == "invalid":
            why = "reserved" if name == "invalid" else "not an identifier"
            raise ValidationError(f"{env.env_id}: variable name {name!r} is {why}")
    if len(set(names)) != len(names):
        raise ValidationError(f"{env.env_id}: duplicate variable names")
    if not env.inputs:
        raise ValidationError(f"{env.env_id}: at least one input required")
    input_names = set(env.input_names())
    loose = free_variables(env.equation) - input_names
    if loose:
        raise ValidationError(
            f"{env.env_id}: equation references non-input variables {sorted(loose)}"
        )
    for constraint in env.validity:
        used = free_variables(constraint.left) | free_variables(constraint.right)
        if used - input_names:
            raise ValidationError(
                f"{env.env_id}: validity constraint references non-input "
                f"variables {sorted(used - input_names)}"
            )
    return env


def _require(data: Mapping, key: str, kind, where: str, default=None):
    """data[key], checked to be a `kind` (a type or a tuple of types), or
    `default`, if one is given, when the field is absent."""
    if key not in data:
        if default is not None:
            return default
        raise SchemaError(f"{where}: missing field {key!r}")
    value = data[key]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    # JSON true and false are no numbers, though bool is an int subclass.
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise SchemaError(f"{where}: field {key!r} must be {names}")
    return value


def _load_domain(data, where: str) -> VariableDomain:
    if not isinstance(data, Mapping):
        raise SchemaError(f"{where}: domain must be an object")
    lower = _require(data, "lower", (int, float), where)
    upper = _require(data, "upper", (int, float), where)
    lower_closed = _require(data, "lower_closed", bool, where, True)
    upper_closed = _require(data, "upper_closed", bool, where, True)
    scale = data.get("scale", "auto")
    if scale not in ("auto", "linear", "log"):
        raise SchemaError(f"{where}: unknown scale {scale!r}")
    try:
        return VariableDomain(
            float(lower),
            float(upper),
            lower_closed=lower_closed,
            upper_closed=upper_closed,
            scale_hint=scale,
        )
    except (ValueError, OverflowError) as err:  # an int bound beyond float range
        raise SchemaError(f"{where}: {err}") from None


def load_spec(data: Mapping) -> EnvironmentSpec:
    """Build an EnvironmentSpec from parsed JSON data.

    SchemaError for shape problems, ValidationError for inconsistencies
    (duplicate names, equation over undeclared variables, ...).
    """
    if not isinstance(data, Mapping):
        raise SchemaError("environment must be a JSON object")
    env_id = _require(data, "id", str, "environment")
    where = f"environment {env_id!r}"
    context = _require(data, "context", str, where)
    variables = _require(data, "variables", list, where)
    equation_text = _require(data, "equation", str, where)
    inputs: list[VariableSpec] = []
    output: VariableSpec | None = None
    dummies: list[VariableSpec] = []
    for i, entry in enumerate(variables):
        vw = f"{where}.variables[{i}]"
        if not isinstance(entry, Mapping):
            raise SchemaError(f"{vw}: must be an object")
        name = _require(entry, "name", str, vw)
        description = _require(entry, "description", str, vw)
        role = _require(entry, "role", str, vw)
        if role not in ("input", "output", "dummy"):
            raise SchemaError(f"{vw}: unknown role {role!r}")
        domain = None
        if role in ("input", "dummy"):
            domain = _load_domain(_require(entry, "domain", Mapping, vw), vw)
        elif "domain" in entry:
            domain = _load_domain(entry["domain"], vw)
        spec = VariableSpec(name, description, domain)
        if role == "input":
            inputs.append(spec)
        elif role == "dummy":
            dummies.append(spec)
        elif output is not None:
            raise SchemaError(f"{where}: more than one output variable")
        else:
            output = spec
    if output is None:
        raise SchemaError(f"{where}: no output variable")
    try:
        equation = parse(equation_text)
    except ExpressionError as err:
        raise SchemaError(f"{where}: bad equation: {err}") from None
    validity = []
    for i, text in enumerate(_require(data, "validity", list, where, [])):
        if not isinstance(text, str):
            raise SchemaError(f"{where}.validity[{i}]: must be a string")
        try:
            validity.append(parse_constraint(text))
        except ExpressionError as err:
            raise SchemaError(f"{where}.validity[{i}]: {err}") from None
    group = data.get("difficulty_group")
    if group is not None and not isinstance(group, str):
        raise SchemaError(f"{where}: difficulty_group must be a string")
    metadata = data.get("metadata", {})
    if not isinstance(metadata, Mapping):
        raise SchemaError(f"{where}: metadata must be an object")
    return _validate(
        EnvironmentSpec(
            env_id=env_id,
            context=context,
            inputs=tuple(inputs),
            output=output,
            equation=equation,
            equation_text=equation_text,
            dummies=tuple(dummies),
            validity=tuple(validity),
            difficulty_group=group,
            metadata=dict(metadata),
        )
    )


def load_file(path: str | Path) -> EnvironmentSpec:
    raw = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}: not valid JSON: {err}") from None
    return load_spec(data)


def _domain_to_dict(domain: VariableDomain) -> dict:
    return {
        "lower": domain.lower,
        "upper": domain.upper,
        "lower_closed": domain.lower_closed,
        "upper_closed": domain.upper_closed,
        "scale": domain.scale_hint,
    }


def spec_to_dict(env: EnvironmentSpec) -> dict:
    """Inverse of load_spec: the JSON document form of an environment."""
    variables = []
    roles = (("input", env.inputs), ("output", (env.output,)), ("dummy", env.dummies))
    for role, specs in roles:
        for v in specs:
            entry = {"name": v.name, "description": v.description, "role": role}
            if v.domain is not None:
                entry["domain"] = _domain_to_dict(v.domain)
            variables.append(entry)
    data = {
        "id": env.env_id,
        "context": env.context,
        "variables": variables,
        "equation": env.equation_text,
    }
    if env.validity:
        data["validity"] = [c.text for c in env.validity]
    if env.difficulty_group is not None:
        data["difficulty_group"] = env.difficulty_group
    if env.metadata:
        data["metadata"] = dict(env.metadata)
    return data


def load_directory(path: str | Path) -> list[EnvironmentSpec]:
    """Load every *.json environment in a directory, sorted by id."""
    envs = [load_file(p) for p in sorted(Path(path).glob("*.json"))]
    seen: set[str] = set()
    for env in envs:
        if env.env_id in seen:
            raise ValidationError(f"duplicate environment id {env.env_id!r}")
        seen.add(env.env_id)
    return sorted(envs, key=lambda e: e.env_id)


def bundled_environments() -> list[EnvironmentSpec]:
    return load_directory(Path(__file__).parent / "envs")


def experiment(env: EnvironmentSpec, assignment: Mapping, inputs: dict):
    """Check and run one experiment in a single pass: the law's float, or
    why it is rejected as a DomainError; None if `assignment` does not bind
    exactly `env`'s controllables.

    Each value goes into `inputs` as a float, in controllables order.  The
    first value outside its domain, in that order, rejects the experiment,
    then the first constraint violated, then the law's own domain error.
    A value that is not a finite number ends the pass before it is stored,
    so `inputs` is left short; what returns then is the first rejection up
    to it, counting a value that is not a number as one.
    """
    names, checks, law, constraints = env.check_plan
    if assignment.keys() != names:
        return None
    rejection = None
    for name, domain, lower, upper in checks:
        value = assignment[name]
        if type(value) is not float or not lower < value < upper:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return rejection or DomainError("out-of-domain", f"{name} must be a number")
            try:
                value = float(value)
            except OverflowError:  # an int beyond float range
                value = math.inf if value > 0 else -math.inf
            if rejection is None and not domain.contains(value):
                rejection = DomainError(
                    "out-of-domain", f"{name} = {value!r} outside its admissible range")
            if not math.isfinite(value):
                return rejection
        inputs[name] = value
    if rejection is not None:
        return rejection
    for left, compare, right, constraint in constraints:
        try:
            holds = compare(left(inputs), right(inputs))
        except _DomainSignal:
            holds = False
        if not holds:
            return DomainError("validity", f"constraint {constraint.text} violated")
    try:
        return law(inputs)
    except _DomainSignal as sig:
        return DomainError(sig.reason, sig.detail)


def run_experiment(env: EnvironmentSpec, assignment: Mapping[str, float]) -> EvalOutcome:
    """Execute one experiment against the hidden equation.

    The assignment must bind exactly the controllable variables, in
    `env`'s names (`env.anonymous` takes var_1 ...).  Out-of-domain values
    and validity violations come back as DomainError whose detail names
    the offending variable/constraint; otherwise the equation's own
    outcome is returned.
    """
    outcome = experiment(env, assignment, {})
    if outcome is None:
        raise ValueError(
            f"{env.env_id}: assignment must bind exactly {sorted(env.check_plan[0])}, "
            f"got {sorted(assignment, key=str)}"
        )
    return outcome if isinstance(outcome, DomainError) else Value(outcome)


@dataclass(frozen=True)
class ObservationHeader:
    """The agent-facing view of an environment under a prior mask.

    `name_map` (display name -> true name) never leaves the platform; it
    is what the session uses to translate hypotheses back for the oracle.
    """

    problem_description: str
    controllable_variables: dict[str, str]
    observable_variable: dict[str, str]
    name_map: dict[str, str]


def render_observation(env: EnvironmentSpec, mask: PriorMask) -> ObservationHeader:
    shown = shown_environment(env, mask)
    display_names = [v.name for v in shown.controllables()]
    if mask.show_descriptions:
        descriptions = [v.description for v in shown.controllables()]
        output_description = shown.output.description
    else:
        descriptions = [PLACEHOLDER_CONTROLLABLE] * len(display_names)
        output_description = PLACEHOLDER_OBSERVABLE
    return ObservationHeader(
        problem_description=env.context if mask.show_context else PLACEHOLDER_CONTEXT,
        controllable_variables=dict(zip(display_names, descriptions)),
        observable_variable={shown.output.name: output_description},
        name_map=dict(zip(display_names, env.input_names())),
    )
