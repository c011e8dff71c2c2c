"""Agents and their transports.

Scripted baselines (random, power_law) are platform-side: they are built
with the environment's domains keyed by display name, which is exactly
the knowledge a masked observation grants plus the platform's own
sampling ranges.  Subprocess and HTTP agents see nothing but packets.
"""

from __future__ import annotations

import json
import math
import os
import re
import shlex
import subprocess
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable, Mapping, Sequence

import numpy as np

from .expr import VariableDomain
from .session import ObservationPacket


class MalformedTurn(ValueError):
    """An agent reply that does not follow the turn wire format."""


class ProtocolError(RuntimeError):
    """The agent kept replying out of protocol after retries."""


class TransportError(RuntimeError):
    """The channel to the agent broke (process death, HTTP failure)."""


class DegenerateDesign(ValueError):
    """A scripted design cannot be laid out on the given domains."""


@dataclass
class AgentTurn:
    next_experiments: list[dict]
    test_hypothesis_flag: bool
    current_hypothesis_formula: str


def parse_turn(data) -> AgentTurn:
    """Validate a decoded turn document.  Extra fields are ignored;
    missing or mistyped required fields raise MalformedTurn."""
    if not isinstance(data, Mapping):
        raise MalformedTurn("turn must be a JSON object")
    problems = []
    experiments = data.get("next_experiments")
    if not isinstance(experiments, list):
        problems.append("next_experiments must be a list")
        experiments = []
    flag = data.get("test_hypothesis_flag")
    if not isinstance(flag, bool):
        problems.append("test_hypothesis_flag must be true or false")
        flag = False
    formula = data.get("current_hypothesis_formula")
    if formula is None:
        formula = ""
    if not isinstance(formula, str):
        problems.append("current_hypothesis_formula must be a string or null")
        formula = ""
    if problems:
        raise MalformedTurn("; ".join(problems))
    return AgentTurn(list(experiments), flag, formula)


def serialize_turn(turn: AgentTurn) -> dict:
    return {
        "next_experiments": [dict(e) for e in turn.next_experiments],
        "test_hypothesis_flag": turn.test_hypothesis_flag,
        "current_hypothesis_formula": turn.current_hypothesis_formula,
    }


def _noop() -> AgentTurn:
    return AgentTurn([], False, "")


# --------------------------------------------------------------------------
# Scripted baselines

class RandomAgent:
    """Proposes in-domain random experiments and never hypothesizes."""

    def __init__(self, domains: Mapping[str, VariableDomain], seed: int, batch: int):
        self.domains = dict(domains)
        self.rng = Random(seed)
        self.batch = batch

    def act(self, packet: ObservationPacket) -> AgentTurn:
        remaining = packet.quota["experiments_quota"]
        if remaining <= 0:
            return _noop()
        count = min(self.batch, remaining)
        proposals = [
            {name: domain.sample(self.rng) for name, domain in self.domains.items()}
            for _ in range(count)
        ]
        return AgentTurn(proposals, False, "")

    def close(self) -> None:
        pass


def _positive_grid(name: str, domain: VariableDomain) -> tuple[float, float, float]:
    # Three distinct positive points at the interior quarter positions of
    # the (positive part of the) domain, log spaced.
    hi = domain.upper
    lo = domain.lower if domain.lower > 0 else hi / 1e4
    if hi <= 0 or not math.isfinite(lo) or hi <= lo * (1 + 1e-9):
        raise DegenerateDesign(
            f"variable {name} has no usable positive range for a log sweep"
        )
    la, lb = math.log(lo), math.log(hi)
    low, mid, high = (math.exp(la + (lb - la) * f) for f in (0.25, 0.5, 0.75))
    if not (low < mid < high):
        raise DegenerateDesign(f"variable {name} cannot host three distinct points")
    return low, mid, high


class PowerLawAgent:
    """One-factor-at-a-time log sweeps, then a least-squares monomial fit.

    Turn 1 proposes the whole design (1 + 2n experiments), turn 2 fits
    and tests a rounded law (half-integer exponents, small-rational or
    square-root constants), turn 3 retries with the raw fit if the oracle
    said no.  Blind to prose, so its behavior is identical at every
    masking level.
    """

    def __init__(self, domains: Mapping[str, VariableDomain], output_name: str):
        self.names = list(domains)
        self.output_name = output_name
        grids = {name: _positive_grid(name, domains[name]) for name in self.names}
        base = {name: grids[name][1] for name in self.names}
        design = [dict(base)]
        for name in self.names:
            for position in (0, 2):
                point = dict(base)
                point[name] = grids[name][position]
                design.append(point)
        self.design = design
        self.phase = 0
        self.rounded_formula: str | None = None
        self.raw_formula: str | None = None

    def act(self, packet: ObservationPacket) -> AgentTurn:
        phase = self.phase
        self.phase += 1
        if phase == 0:
            budget = packet.quota["experiments_quota"]
            return AgentTurn(self.design[:budget], False, "")
        if phase == 1:
            self._fit(packet.historical_experiments)
            if self.rounded_formula is None or packet.quota["test_quota"] <= 0:
                return _noop()
            return AgentTurn([], True, self.rounded_formula)
        if phase == 2:
            # Reached only if the rounded law was rejected.
            if (
                self.raw_formula is None
                or self.raw_formula == self.rounded_formula
                or packet.quota["test_quota"] <= 0
            ):
                return _noop()
            return AgentTurn([], True, self.raw_formula)
        return _noop()

    def close(self) -> None:
        pass

    def _fit(self, history: Sequence[Mapping]) -> None:
        rows = []
        for entry in history:
            if "invalid" in entry:
                continue
            y = entry.get(self.output_name)
            if y is None or not all(
                isinstance(entry.get(n), (int, float)) and entry[n] > 0
                for n in self.names
            ):
                continue
            rows.append((tuple(float(entry[n]) for n in self.names), float(y)))
        signs = {math.copysign(1.0, y) for _, y in rows if abs(y) > 1e-300}
        sign = -1.0 if signs == {-1.0} else 1.0
        rows = [(xs, y) for xs, y in rows if sign * y > 1e-300]
        if len(rows) < len(self.names) + 1:
            return
        a = np.array([[1.0, *(math.log(x) for x in xs)] for xs, _ in rows])
        b = np.array([math.log(sign * y) for _, y in rows])
        coef, *_ = np.linalg.lstsq(a, b, rcond=None)
        constant = sign * math.exp(float(coef[0]))
        exponents = [float(p) for p in coef[1:]]
        rounded = [self._round_exponent(p) for p in exponents]
        self.rounded_formula = self._formula(constant, rounded, rational=True)
        self.raw_formula = self._formula(constant, exponents, rational=False)

    @staticmethod
    def _round_exponent(p: float) -> float:
        nearest = round(p * 2.0) / 2.0
        return nearest if abs(p - nearest) <= 1e-3 else p

    def _formula(self, constant: float, exponents: Sequence[float], rational: bool) -> str:
        parts = []
        for name, p in zip(self.names, exponents):
            if abs(p) < 1e-12:
                continue
            if p == 1.0:
                parts.append(name)
            elif float(p).is_integer():
                parts.append(f"{name}**{int(p)}")
            else:
                parts.append(f"{name}**{p!r}")
        constant_text = None
        if not parts or abs(constant - 1.0) > 1e-6 * abs(constant):
            constant_text = (
                _rationalized(constant) if rational else repr(constant)
            )
        if constant_text is not None:
            parts.insert(0, constant_text)
        return " * ".join(parts)


def _rationalized(c: float) -> str:
    """Render c as a small rational or the square root of one when that is
    accurate to 1e-6 relative; otherwise as a bare float literal."""
    if c <= 0:
        return repr(c)
    frac = Fraction(c).limit_denominator(64)
    if frac > 0 and abs(float(frac) - c) <= 1e-6 * c:
        if frac.denominator == 1:
            return str(frac.numerator)
        return f"{frac.numerator}/{frac.denominator}"
    square = Fraction(c * c).limit_denominator(64)
    if square > 0:
        root = math.sqrt(square.numerator / square.denominator)
        if abs(root - c) <= 1e-6 * c:
            if square.denominator == 1:
                return f"np.sqrt({square.numerator})"
            return f"np.sqrt({square.numerator}/{square.denominator})"
    return repr(c)


def _display_domains(session) -> dict[str, VariableDomain]:
    by_true = session.env.domains(session.expose_dummies)
    return {
        display: by_true[true] for display, true in session.header.name_map.items()
    }


@dataclass
class RandomAgentFactory:
    batch: int = 3
    name: str = "random"

    def build(self, session) -> RandomAgent:
        return RandomAgent(_display_domains(session), session.seed, self.batch)


@dataclass
class PowerLawAgentFactory:
    name: str = "power_law"

    def build(self, session) -> PowerLawAgent:
        output_name = next(iter(session.header.observable_variable))
        return PowerLawAgent(_display_domains(session), output_name)


# --------------------------------------------------------------------------
# Subprocess transport: one process per session, line-delimited JSON

# How long an agent may take over one reply, on either transport.
AGENT_TIMEOUT_S = 120.0


class SubprocessAgent:
    def __init__(self, command: str, retry_budget: int = 3):
        self.command = command
        self.retry_budget = retry_budget
        self.process = subprocess.Popen(
            shlex.split(command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        # A watchdog thread enforces the per-exchange deadline by killing
        # the child, which ends a blocked write or readline (unless a process
        # the child started still holds the pipes).  Polling the pipes
        # instead would add a GIL release to every turn, and under a thread
        # pool each release can hand the interpreter to a busy cell.
        self._deadline: float | None = None
        self._timed_out = False
        self._closed = threading.Event()
        self._watchdog = threading.Thread(target=self._watch, daemon=True)
        self._watchdog.start()

    def _watch(self) -> None:
        while True:
            deadline = self._deadline
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                self._timed_out = True
                self.process.kill()
                return
            wait = AGENT_TIMEOUT_S if deadline is None else deadline - now
            if self._closed.wait(wait):
                return

    def _exchange(self, document: dict) -> str:
        if self.process.poll() is not None:
            raise TransportError(
                f"agent process exited with code {self.process.returncode}"
            )
        self._deadline = time.monotonic() + AGENT_TIMEOUT_S
        try:
            self.process.stdin.write(json.dumps(document) + "\n")
            self.process.stdin.flush()
            line = self.process.stdout.readline()
        except OSError as err:
            problem = f"agent process unreachable: {err}"
        else:
            problem = None if line else "agent process closed its output"
        finally:
            self._deadline = None
        if self._timed_out:
            self.process.wait()
            problem = f"agent process did not answer within {AGENT_TIMEOUT_S:g} s"
        if problem is not None:
            raise TransportError(problem)
        return line

    def act(self, packet: ObservationPacket) -> AgentTurn:
        document = packet.to_wire()
        last_error = "no reply"
        for _ in range(self.retry_budget):
            line = self._exchange(document)
            try:
                return parse_turn(json.loads(line))
            except (json.JSONDecodeError, MalformedTurn) as err:
                last_error = str(err)
                document = packet.to_wire()
                document["error_notice"] = (
                    f"previous reply was not a valid turn: {last_error}"
                )
        raise ProtocolError(f"agent kept replying out of protocol: {last_error}")

    def close(self) -> None:
        self._closed.set()
        self._watchdog.join()
        # Close both pipes and reap the child even when it already exited,
        # so no file descriptor or zombie outlives the session.
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self.process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.process.terminate()
            try:
                self.process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


@dataclass
class SubprocessAgentFactory:
    command: str
    retry_budget: int = 3
    name: str = "subprocess"

    def build(self, session) -> SubprocessAgent:
        return SubprocessAgent(self.command, self.retry_budget)


# --------------------------------------------------------------------------
# HTTP transport: chat-completion shaped endpoint

PROMPT_DIR = Path(__file__).parent / "prompts"

# (url, headers, body-bytes) -> response text
Transport = Callable[[str, Mapping[str, str], bytes], str]


def load_prompt(path: str | Path | None = None) -> str:
    target = Path(path) if path is not None else PROMPT_DIR / "researcher.md"
    return target.read_text(encoding="utf-8")


def build_prompt(
    template: str, packet: ObservationPacket, error_notice: str | None = None
) -> str:
    parts = [template, "\n# Current Input\n"]
    parts.append("```json\n" + json.dumps(packet.to_wire(), indent=2) + "\n```\n")
    if error_notice:
        parts.append(f"\n# Notice\n\n{error_notice}\n")
    return "\n".join(parts)


def extract_json_object(text: str) -> dict:
    """Pull the first JSON object out of a model reply, tolerating code
    fences and surrounding chatter."""
    fenced = re.search(r"```(?:json)?\s*(\{.*?\})\s*```", text, re.DOTALL)
    candidates = [fenced.group(1)] if fenced else []
    start = text.find("{")
    if start >= 0:
        depth = 0
        in_string = False
        escaped = False
        for i in range(start, len(text)):
            ch = text[i]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
                continue
            if ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    candidates.append(text[start : i + 1])
                    break
    for candidate in candidates:
        try:
            decoded = json.loads(candidate)
        except json.JSONDecodeError:
            continue
        if isinstance(decoded, dict):
            return decoded
    raise MalformedTurn("no JSON object found in reply")


def _urllib_transport(url: str, headers: Mapping[str, str], body: bytes) -> str:
    request = urllib.request.Request(url, data=body, headers=dict(headers))
    try:
        with urllib.request.urlopen(request, timeout=AGENT_TIMEOUT_S) as response:
            return response.read().decode("utf-8")
    except urllib.error.HTTPError as err:
        raise TransportError(f"HTTP {err.code} from agent endpoint") from None
    except (urllib.error.URLError, OSError) as err:
        raise TransportError(f"agent endpoint unreachable: {err}") from None


class HttpAgent:
    def __init__(
        self,
        endpoint: str,
        model: str,
        template: str,
        temperature: float = 0.3,
        max_tokens: int = 4096,
        api_key_env: str = "EQGYM_API_KEY",
        retry_budget: int = 3,
        transport: Transport | None = None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.template = template
        self.temperature = temperature
        self.max_tokens = max_tokens
        self.api_key_env = api_key_env
        self.retry_budget = retry_budget
        self.transport = transport if transport is not None else _urllib_transport

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _complete(self, prompt: str) -> str:
        body = json.dumps({
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }).encode("utf-8")
        reply = self.transport(self.endpoint, self._headers(), body)
        try:
            decoded = json.loads(reply)
            content = decoded["choices"][0]["message"]["content"]
        except (json.JSONDecodeError, KeyError, IndexError, TypeError):
            raise TransportError("endpoint reply was not chat-completion shaped") from None
        if not isinstance(content, str):
            raise TransportError("endpoint reply content was not text")
        return content

    def act(self, packet: ObservationPacket) -> AgentTurn:
        error_notice = None
        last_error = "no reply"
        for _ in range(self.retry_budget):
            content = self._complete(build_prompt(self.template, packet, error_notice))
            try:
                return parse_turn(extract_json_object(content))
            except MalformedTurn as err:
                last_error = str(err)
                error_notice = f"Your previous reply was not a valid turn: {err}"
        raise ProtocolError(f"agent kept replying out of protocol: {last_error}")

    def close(self) -> None:
        pass


@dataclass
class HttpAgentFactory:
    endpoint: str
    model: str = ""
    temperature: float = 0.3
    max_tokens: int = 4096
    api_key_env: str = "EQGYM_API_KEY"
    retry_budget: int = 3
    prompt_path: str | None = None
    transport: Transport | None = None
    name: str = "http"

    def build(self, session) -> HttpAgent:
        return HttpAgent(
            self.endpoint,
            self.model,
            load_prompt(self.prompt_path),
            temperature=self.temperature,
            max_tokens=self.max_tokens,
            api_key_env=self.api_key_env,
            retry_budget=self.retry_budget,
            transport=self.transport,
        )


def agent_from_spec(text: str, **options):
    """Build an agent factory from a CLI spec.

    Forms: "scripted:random", "scripted:power_law",
    "subprocess:<command>", "http:<endpoint>".  The scripted names are
    also accepted bare.  Options feed the matching factory's fields.
    """
    head, _, rest = text.partition(":")
    if head == "scripted":
        head, rest = rest, ""
    if head == "random":
        return RandomAgentFactory(**_picked(options, ("batch", "name")))
    if head == "power_law":
        return PowerLawAgentFactory(**_picked(options, ("name",)))
    if head == "subprocess":
        if not rest:
            raise ValueError("subprocess agent needs a command: subprocess:<command>")
        return SubprocessAgentFactory(
            rest, **_picked(options, ("retry_budget", "name"))
        )
    if head == "http":
        if not rest:
            raise ValueError("http agent needs an endpoint: http:<url>")
        picked = _picked(
            options,
            ("model", "temperature", "max_tokens", "api_key_env",
             "retry_budget", "prompt_path", "name"),
        )
        # Distinct models must not collide on the default agent name.
        if "name" not in picked and picked.get("model"):
            picked["name"] = picked["model"]
        return HttpAgentFactory(rest, **picked)
    raise ValueError(f"unknown agent spec {text!r}")


def _picked(options: Mapping, keys: Sequence[str]) -> dict:
    return {k: options[k] for k in keys if k in options and options[k] is not None}
