"""Agents and their transports.

Scripted baselines (random, power_law) are platform-side: they are built
with the environment's domains keyed by display name, which is exactly
the knowledge a masked observation grants plus the platform's own
sampling ranges.  Subprocess and HTTP agents see nothing but packets.
"""

from __future__ import annotations

import json
import math
import operator
import os
import re
import shlex
import subprocess
import threading
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from random import Random

from .expr import VariableDomain, draw
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
        self.plans = [(name, domain.draw_plan) for name, domain in domains.items()]
        self.rng = Random(seed)
        self.batch = batch

    def act(self, packet: ObservationPacket) -> AgentTurn:
        remaining = packet.quota["experiments_quota"]
        if remaining <= 0:
            return _noop()
        count = min(self.batch, remaining)
        # VariableDomain.sample's draws, from one stream.
        uniform, plans = self.rng.random, self.plans
        proposals = [{name: draw(plan, uniform) for name, plan in plans} for _ in range(count)]
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
        import numpy as np

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
    """Render |c|, signed as c, as a small rational or the square root of one
    when that is accurate to 1e-6 relative; otherwise as a bare float literal."""
    if c < 0:
        return "-" + _rationalized(-c)
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


@dataclass
class RandomAgentFactory:
    batch: int = 3
    name: str = "random"

    def build(self, session) -> RandomAgent:
        return RandomAgent(session.shown_env.domains(), session.seed, self.batch)


@dataclass
class PowerLawAgentFactory:
    name: str = "power_law"

    def build(self, session) -> PowerLawAgent:
        shown = session.shown_env
        return PowerLawAgent(shown.domains(), shown.output.name)


# --------------------------------------------------------------------------
# Packet wire text, shared by the subprocess and HTTP transports

# Value types that the C encoder writes as the indenting one does.
_FLAT = (str, int, float, bool, type(None))


class PacketEncoder:
    """One session's packets as JSON text, each shared object encoded once.

    `encode(packet, error_notice)` returns `json.dumps(doc, indent=indent)`
    byte for byte, where doc is `packet.to_wire()` with `error_notice`
    appended when one is given.  A session's packets share its read-only
    history entries, header dicts and last verdict (see ObservationPacket),
    so each entry or member that is the same object as the one sent in its
    place last time keeps its text; only new objects are encoded, and
    nothing is compared by value.  A packet from `ObservationPacket.from_wire`
    is thus encoded afresh.  A flat object (every history entry, and most
    other members) is encoded by the C encoder, the indentation as its
    separator.

    A `quoted` encoder returns every text in `form`: escaped as the inside
    of a JSON string literal, ready to be placed between quotes.
    """

    def __init__(self, indent: int | None = None, quoted: bool = False):
        self.indent = indent
        self.quoted = quoted
        self._sent: list[dict] = []  # history entries encoded so far, in order
        self._texts: list[str] = []  # their text, indented for the history array
        members = [*ObservationPacket.__dataclass_fields__, "error_notice"]
        self._keys = {key: self.form(f'"{key}": ') for key in members}
        # Per shared member: the object sent last, and its text.
        self._members: dict[str, tuple] = {}
        self._kept = ("", "")  # the last text given to kept_form, and its form
        # The line break that indents each depth, in form.
        self._breaks = [self.form("\n" + " " * ((indent or 0) * depth)) for depth in range(3)]

    def form(self, text: str) -> str:
        """`text` unchanged, or for a quoted encoder `json.dumps(text)[1:-1]`.
        Escaping goes one character at a time, so the form of a
        concatenation is the concatenation of its pieces' forms."""
        return json.dumps(text)[1:-1] if self.quoted else text

    def kept_form(self, text: str) -> str:
        """`form(text)`, escaped once while the same text comes back."""
        if text != self._kept[0]:
            self._kept = (text, self.form(text))
        return self._kept[1]

    def encode(self, packet: ObservationPacket, error_notice: str | None = None) -> str:
        history, keys = packet.historical_experiments, self._keys
        sent, texts = self._sent, self._texts
        kept = min(len(sent), len(history))
        if not all(map(operator.is_, sent, history)):
            kept = next(i for i, (a, b) in enumerate(zip(sent, history)) if a is not b)
        del sent[kept:], texts[kept:]
        for entry in history[kept:]:
            sent.append(entry)
            texts.append(self._dumps(entry, 2))
        members = [
            self._member("problem_description", packet.problem_description),
            self._member("controllable_variables", packet.controllable_variables),
            self._member("observable_variable", packet.observable_variable),
            self._join("[]", texts, 1, keys["historical_experiments"]),
            keys["quota"] + self._dumps(packet.quota, 1),
        ]
        if packet.last_oracle_result is not None:
            members.append(self._member("last_oracle_result", packet.last_oracle_result))
        if error_notice is not None:
            members.append(keys["error_notice"] + self._dumps(error_notice, 1))
        return self._join("{}", members, 0)

    def _member(self, key: str, value) -> str:
        # Holding the object keeps its identity from passing to another.
        kept = self._members.get(key)
        if kept is None or kept[0] is not value:
            kept = self._members[key] = (value, self._keys[key] + self._dumps(value, 1))
        return kept[1]

    def _dumps(self, value, depth: int) -> str:
        if self.indent is None:
            return self.form(json.dumps(value))
        # JSON text holds no raw newline outside its indentation, so the
        # value's own lines can be shifted to its nesting depth.
        outer = "\n" + " " * (self.indent * depth)
        inner = outer + " " * self.indent
        if type(value) is dict and value and all(type(v) in _FLAT for v in value.values()):
            text = "{" + inner + json.dumps(value, separators=("," + inner, ": "))[1:-1]
            return self.form(text + outer + "}")
        return self.form(json.dumps(value, indent=self.indent).replace("\n", outer))

    def _join(self, brackets: str, items: list[str], depth: int, key: str = "") -> str:
        if not items:
            return key + brackets
        if self.indent is None:
            return f"{key}{brackets[0]}{', '.join(items)}{brackets[1]}"
        inner, outer = self._breaks[depth + 1], self._breaks[depth]
        return f"{key}{brackets[0]}{inner}{(',' + inner).join(items)}{outer}{brackets[1]}"


# --------------------------------------------------------------------------
# Replies: one deadline, retry budget and retry loop for both transports

# How long an agent may take over one reply, on either transport.
AGENT_TIMEOUT_S = 120.0
# How many replies an agent gets per turn before the session ends as a
# protocol failure, on either transport.
RETRY_BUDGET = 3


def _act_with_retries(send: Callable[[str | None], str],
                      decode: Callable[[str], object], prefix: str) -> AgentTurn:
    """Ask for one turn, up to RETRY_BUDGET replies.  `send(notice)`
    delivers the packet, with the notice about the previous reply on a
    retry, and returns the reply text; `decode` turns that text into a
    turn document.  Each malformed reply is answered with `prefix` and
    its reason."""
    notice = None
    problem = "no reply"
    for _ in range(RETRY_BUDGET):
        reply = send(notice)
        try:
            document = decode(reply)
        except (json.JSONDecodeError, MalformedTurn) as err:
            problem = str(err)
        except ValueError:
            # An integer past the interpreter's digit limit for conversion.
            problem = "reply holds a number too long to read"
        except RecursionError:
            # The interpreter's own text differs between versions.
            problem = "reply nested too deeply"
        else:
            try:
                return parse_turn(document)
            except MalformedTurn as err:
                problem = str(err)
        notice = prefix + problem
    raise ProtocolError(f"agent kept replying out of protocol: {problem}")


# --------------------------------------------------------------------------
# Subprocess transport: one process per session, line-delimited JSON

# How long close() gives a child to exit after its input ends, and again
# after SIGTERM, before SIGKILL.
_CLOSE_GRACE_S = 5.0


class SubprocessAgent:
    def __init__(self, command: str):
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
        # pool each release can hand the interpreter to a busy cell.  It
        # also bounds close(), which blocks until the child exits.
        self._deadline: float | None = None
        self._timed_out = False
        self._closing = threading.Event()
        self._reaped = threading.Event()
        self._watchdog = threading.Thread(target=self._watch, daemon=True)
        self._watchdog.start()
        self._encoder = PacketEncoder()

    def _watch(self) -> None:
        while True:
            deadline = self._deadline
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                self._timed_out = True
                self.process.kill()
                return
            wait = AGENT_TIMEOUT_S if deadline is None else deadline - now
            if self._closing.wait(wait):
                break
        for stop in (self.process.terminate, self.process.kill):
            if self._reaped.wait(_CLOSE_GRACE_S):
                return
            stop()

    def _exchange(self, line: str) -> str:
        """Send one encoded packet line (no newline); return the reply line."""
        if self.process.poll() is not None:
            raise TransportError(
                f"agent process exited with code {self.process.returncode}"
            )
        self._deadline = time.monotonic() + AGENT_TIMEOUT_S
        try:
            self.process.stdin.write(line + "\n")
            self.process.stdin.flush()
            reply = self.process.stdout.readline()
        except OSError as err:
            problem = f"agent process unreachable: {err}"
        else:
            problem = None if reply else "agent process closed its output"
        finally:
            self._deadline = None
        if self._timed_out:
            self.process.wait()
            problem = f"agent process did not answer within {AGENT_TIMEOUT_S:g} s"
        if problem is not None:
            raise TransportError(problem)
        return reply

    def act(self, packet: ObservationPacket) -> AgentTurn:
        return _act_with_retries(
            lambda notice: self._exchange(self._encoder.encode(packet, notice)),
            json.loads,
            "previous reply was not a valid turn: ",
        )

    def close(self) -> None:
        # Close both pipes and reap the child even when it already exited,
        # so no file descriptor or zombie outlives the session.  The child
        # sees the end of its input; one that does not exit on it gets
        # SIGTERM from the watchdog, and then SIGKILL.
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except OSError:
                pass
        self._closing.set()
        self.process.wait()
        self._reaped.set()
        self._watchdog.join()


@dataclass
class SubprocessAgentFactory:
    command: str
    name: str = "subprocess"

    def build(self, session) -> SubprocessAgent:
        return SubprocessAgent(self.command)


# --------------------------------------------------------------------------
# HTTP transport: chat-completion shaped endpoint

# The request's sampling settings and the researcher template are part of
# the protocol (PROTOCOL.md), so every HTTP agent uses the same ones.
TEMPERATURE = 0.3
MAX_TOKENS = 4096
PROMPT_PATH = Path(__file__).parent / "prompts" / "researcher.md"

# (url, headers, body-bytes) -> response text
Transport = Callable[[str, Mapping[str, str], bytes], str]


@cache
def load_prompt() -> str:
    """The researcher template, read once so that every cell sees the same."""
    return PROMPT_PATH.read_text(encoding="utf-8")


def build_prompt(template: str, packet: ObservationPacket,
                 error_notice: str | None, encoder: PacketEncoder) -> str:
    """The prompt for one HTTP exchange, in `encoder.form`.  `encoder` is the
    agent's `PacketEncoder(indent=2, quoted=True)`: it holds the session's
    encoded history, and escapes the prompt for the request's `content`."""
    notice = f"\n\n# Notice\n\n{error_notice}\n" if error_notice else ""
    return "".join((
        encoder.kept_form(template + "\n\n# Current Input\n\n```json\n"),
        encoder.encode(packet),
        encoder.form("\n```\n" + notice),
    ))


_FENCE_OPEN = re.compile(r"```(?:json)?\s*\{")
_FENCE_CLOSE = re.compile(r"\s*```")
_DECODER = json.JSONDecoder()


def extract_json_object(text: str) -> dict:
    """Decode the turn object in a model reply.  The object that opens the
    first fenced code block wins if the fence closes right after it;
    otherwise the object that starts at the reply's first `{`.  Chatter
    around it is ignored.  Too deep a nesting raises RecursionError."""
    fence = _FENCE_OPEN.search(text)
    if fence:
        try:
            decoded, end = _DECODER.raw_decode(text, fence.end() - 1)
        except json.JSONDecodeError:
            pass
        else:
            if _FENCE_CLOSE.match(text, end):
                return decoded
    start = text.find("{")
    if start >= 0:
        try:
            return _DECODER.raw_decode(text, start)[0]
        except json.JSONDecodeError:
            pass
    raise MalformedTurn("no JSON object found in reply")


def _urllib_transport(url: str, headers: Mapping[str, str], body: bytes) -> str:
    # Imported here: urllib.request loads http.client, email and ssl.
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, data=body, headers=dict(headers))
    try:
        with urllib.request.urlopen(request, timeout=AGENT_TIMEOUT_S) as response:
            return response.read().decode("utf-8")
    except urllib.error.HTTPError as err:
        err.close()  # it holds the response, socket and all
        raise TransportError(f"HTTP {err.code} from agent endpoint") from None
    except (urllib.error.URLError, OSError) as err:
        raise TransportError(f"agent endpoint unreachable: {err}") from None


class HttpAgent:
    def __init__(self, config: HttpAgentFactory, template: str):
        self.config = config
        self.template = template
        self._encoder = PacketEncoder(indent=2, quoted=True)
        # The request with an empty prompt, split where the escaped prompt
        # goes: after it come only numbers, so the last "" is the content.
        request = json.dumps({
            "model": config.model,
            "messages": [{"role": "user", "content": ""}],
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
        })
        head, _, tail = request.rpartition('""')
        self._head, self._tail = head + '"', '"' + tail

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.config.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _complete(self, prompt: str) -> str:
        body = "".join((self._head, prompt, self._tail)).encode("utf-8")
        reply = self.config.transport(self.config.endpoint, self._headers(), body)
        try:
            decoded = json.loads(reply)
            content = decoded["choices"][0]["message"]["content"]
        except (ValueError, RecursionError, KeyError, IndexError, TypeError):
            raise TransportError("endpoint reply was not chat-completion shaped") from None
        if not isinstance(content, str):
            raise TransportError("endpoint reply content was not text")
        return content

    def act(self, packet: ObservationPacket) -> AgentTurn:
        return _act_with_retries(
            lambda notice: self._complete(
                build_prompt(self.template, packet, notice, self._encoder)
            ),
            extract_json_object,
            "Your previous reply was not a valid turn: ",
        )

    def close(self) -> None:
        pass


@dataclass
class HttpAgentFactory:
    endpoint: str
    model: str = ""
    api_key_env: str = "EQGYM_API_KEY"
    transport: Transport = _urllib_transport
    name: str = "http"

    def build(self, session) -> HttpAgent:
        return HttpAgent(self, load_prompt())


def agent_from_spec(text: str, *, batch: int | None = None, name: str | None = None,
                    model: str | None = None, api_key_env: str | None = None):
    """Build an agent factory from a CLI spec.

    Forms: "scripted:random", "scripted:power_law",
    "subprocess:<command>", "http:<endpoint>".  The scripted names are
    also accepted bare, and an http:// or https:// URL is taken as the
    endpoint itself.  Each option that is not None feeds the matching
    factory's field; factories without that field ignore it.
    """
    options = dict(batch=batch, name=name, model=model, api_key_env=api_key_env)
    head, _, rest = text.partition(":")
    if head in ("http", "https") and rest.startswith("//"):
        head, rest = "http", text
    if head == "scripted":
        head, rest = rest, ""
    if head == "random":
        return RandomAgentFactory(**_picked(options, ("batch", "name")))
    if head == "power_law":
        return PowerLawAgentFactory(**_picked(options, ("name",)))
    if head == "subprocess":
        if not rest:
            raise ValueError("subprocess agent needs a command: subprocess:<command>")
        return SubprocessAgentFactory(rest, **_picked(options, ("name",)))
    if head == "http":
        if not rest:
            raise ValueError("http agent needs an endpoint: http:<url>")
        picked = _picked(options, ("model", "api_key_env", "name"))
        # Distinct models must not collide on the default agent name.
        if "name" not in picked and picked.get("model"):
            picked["name"] = picked["model"]
        return HttpAgentFactory(rest, **picked)
    raise ValueError(f"unknown agent spec {text!r}")


def _picked(options: Mapping, keys: Sequence[str]) -> dict:
    return {k: options[k] for k in keys if options[k] is not None}
