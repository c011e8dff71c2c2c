"""Deterministic stand-in for a remote agent, used by the benchmark's
agent_transports workload.  Standard library only.

Two ways to plug it in:

- as a subprocess agent: ``python3 bench_agent.py --seed N --gaps DIR``
  speaks the line-delimited JSON protocol on stdin/stdout;
- as an in-process HTTP transport: ``ChatTransport(seed)`` is a callable
  ``(url, headers, body) -> response text`` that answers in
  chat-completion shape.

Both run the same policy, which depends only on the seed, the packet and
the turn index, so a rerun replays byte for byte.  Along the way it
exercises the platform's awkward paths: out-of-domain values, an
occasional malformed proposal, an occasional unparseable or unknown-name
formula, a hypothesis test every third turn, and one non-JSON reply every
seventh turn (answered correctly on the retry, so the retry budget is
never exhausted).

Both also timestamp the platform's time per turn as the agent sees it:
from sending a reply to receiving the next packet.  The subprocess writes
its gaps to a file in DIR when its stdin closes, so they survive any
worker model; the transport keeps them in memory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import threading
import time
import zlib

BATCH = 5
TEST_EVERY = 3
NON_JSON_EVERY = 7
RECENT = 60  # history entries the policy looks back over
MALFORMED_SHARE = 0.05
BAD_FORMULA_SHARE = 0.1
# Decade exponents tried, in order, for a variable with no known-good value.
LADDER = [0] + [s * k for k in range(3, 36, 3) for s in (-1, 1)]
NON_JSON_REPLY = "I need a moment to think about these results."


def _rng(seed: int, turn: int, packet: dict) -> random.Random:
    key = f"{seed}|{turn}|{len(packet['historical_experiments'])}|" + ",".join(
        packet["controllable_variables"]
    )
    return random.Random(zlib.crc32(key.encode("utf-8")))


def _decade(value) -> int | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
        return None
    return 3 * math.floor(math.log10(value) / 3)


def _known_exponents(names: list[str], history: list[dict]):
    """Per variable: decades seen in range, and decades reported out of
    range, over the recent history."""
    good = {name: set() for name in names}
    bad = {name: set() for name in names}
    for entry in history[-RECENT:]:
        reason = entry.get("invalid")
        culprit = None
        if reason is not None and reason.startswith("out-of-domain: "):
            culprit = reason[len("out-of-domain: "):].split(" = ", 1)[0]
        for name in names:
            decade = _decade(entry.get(name))
            if decade is None:
                continue
            if name == culprit:
                bad[name].add(decade)
                break  # variables after the culprit were never checked
            good[name].add(decade)
    return good, bad


def _explore(names, known, rng: random.Random, index: int) -> dict:
    good, bad = known
    point = {}
    for name in names:
        if good[name]:
            decade = rng.choice(sorted(good[name]))
        else:
            untried = [e for e in LADDER if e not in bad[name]] or LADDER
            decade = untried[min(index, len(untried) - 1)]
        point[name] = (1.0 + rng.random()) * 10.0 ** decade
    return point


def _malformed(point: dict, rng: random.Random) -> dict:
    broken = dict(point)
    first = next(iter(broken))
    kind = rng.randrange(3)
    if kind == 0:
        del broken[first]
    elif kind == 1:
        broken[first] = str(broken[first])
    else:
        broken["bogus_input"] = 1.0
    return broken


def _formula(names, rng: random.Random) -> str:
    roll = rng.random()
    if roll < BAD_FORMULA_SHARE / 2:
        return f"({names[0]} * "
    if roll < BAD_FORMULA_SHARE:
        return f"{names[0]} * zeta_unknown"
    picked = rng.sample(names, min(len(names), rng.randint(1, 3)))
    factors = [f"{n}**{rng.choice((-1, 1, 2, 0.5))}" for n in picked]
    return f"{rng.uniform(0.5, 5.0):.4g} * " + " * ".join(factors)


def decide(packet: dict, turn: int, seed: int) -> dict:
    """The turn document for this packet at this turn index."""
    names = list(packet["controllable_variables"])
    history = packet["historical_experiments"]
    rng = _rng(seed, turn, packet)
    valid = [h for h in history[-RECENT:] if "invalid" not in h]
    known = None
    proposals = []
    for i in range(min(BATCH, packet["quota"]["experiments_quota"])):
        if valid and rng.random() < 0.85:
            base = rng.choice(valid)
            point = {n: base[n] * math.exp(rng.gauss(0.0, 0.5)) for n in names}
        else:
            known = known or _known_exponents(names, history)
            point = _explore(names, known, rng, i)
        # Turn 0 stays well formed, so every later packet has history.
        if turn > 0 and rng.random() < MALFORMED_SHARE:
            point = _malformed(point, rng)
        proposals.append(point)
    return {
        "next_experiments": proposals,
        "test_hypothesis_flag": turn % TEST_EVERY == TEST_EVERY - 1,
        "current_hypothesis_formula": _formula(names, rng),
    }


def answers_non_json(turn: int, retry: bool) -> bool:
    return not retry and turn % NON_JSON_EVERY == NON_JSON_EVERY - 1


# --------------------------------------------------------------------------
# Subprocess agent

def serve(seed: int, gaps_dir: str) -> None:
    turn = 0
    sent = None
    gaps = []
    for line in sys.stdin:
        received = time.perf_counter_ns()
        if sent is not None:
            gaps.append(received - sent)
        packet = json.loads(line)
        retry = "error_notice" in packet
        if answers_non_json(turn, retry):
            reply = NON_JSON_REPLY
        else:
            reply = json.dumps(decide(packet, turn, seed))
            turn += 1
        sys.stdout.write(reply + "\n")
        sys.stdout.flush()
        sent = time.perf_counter_ns()
    name = f"gaps-{os.getpid()}-{time.time_ns()}"
    path = os.path.join(gaps_dir, name)
    with open(path + ".tmp", "w", encoding="utf-8") as out:
        out.write("".join(f"{g}\n" for g in gaps))
    os.replace(path + ".tmp", path + ".txt")


def read_gap_files(gaps_dir: str) -> list[int]:
    """Collect and delete the gap files the subprocess agents wrote (ns)."""
    gaps = []
    for name in sorted(os.listdir(gaps_dir)):
        if not name.endswith(".txt"):
            continue
        path = os.path.join(gaps_dir, name)
        with open(path, encoding="utf-8") as src:
            gaps.extend(int(line) for line in src if line.strip())
        os.remove(path)
    return gaps


# --------------------------------------------------------------------------
# In-process HTTP transport

def _packet_from_prompt(prompt: str) -> tuple[dict, bool]:
    # The prompt is "<template>\n# Current Input\n```json\n<packet>\n```\n"
    # plus a "# Notice" section on retries; the template has its own
    # examples, so the packet is after the last heading.
    _, _, tail = prompt.rpartition("\n# Current Input\n")
    body = tail.split("```json\n", 1)[1]
    document, _, rest = body.partition("\n```")
    return json.loads(document), "\n# Notice\n" in rest


class ChatTransport:
    """HttpAgent transport answering from the bench policy in process.

    Sessions are told apart per worker thread: a cell runs on one thread
    from start to end, and its first packet is the only one with an empty
    history (turn 0 always runs at least one experiment).  Holds a lock,
    so it does not pickle.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.gaps: list[int] = []  # ns
        self._lock = threading.Lock()
        self._state: dict[int, tuple[int, int]] = {}  # thread -> (turn, sent)

    def __call__(self, url, headers, body: bytes) -> str:
        received = time.perf_counter_ns()
        prompt = json.loads(body)["messages"][0]["content"]
        packet, retry = _packet_from_prompt(prompt)
        thread = threading.get_ident()
        fresh = not packet["historical_experiments"] and not retry
        turn, sent = (0, None) if fresh else self._state[thread]
        if sent is not None:
            with self._lock:
                self.gaps.append(received - sent)
        if answers_non_json(turn, retry):
            content = NON_JSON_REPLY
        else:
            content = (
                "Here is my next step.\n```json\n"
                + json.dumps(decide(packet, turn, self.seed))
                + "\n```\nI will refine the hypothesis as data comes in."
            )
            turn += 1
        reply = json.dumps({"choices": [{"message": {"content": content}}]})
        self._state[thread] = (turn, time.perf_counter_ns())
        return reply

    def take_gaps(self) -> list[int]:
        with self._lock:
            gaps, self.gaps = self.gaps, []
        return gaps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--gaps", required=True, help="directory for turn-gap files")
    args = parser.parse_args(argv)
    serve(args.seed, args.gaps)
    return 0


if __name__ == "__main__":
    sys.exit(main())
