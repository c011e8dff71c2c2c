from __future__ import annotations

import json
import math
import random
import signal
import socket
import sys
import textwrap
import threading
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import gen
import pytest
from chat_stub import ChatStub

from eqgym import agents
from eqgym.agents import (
    AgentTurn,
    DegenerateDesign,
    HttpAgentFactory,
    MalformedTurn,
    PowerLawAgentFactory,
    ProtocolError,
    RandomAgentFactory,
    SubprocessAgent,
    SubprocessAgentFactory,
    TransportError,
    _positive_grid,
    _rationalized,
    agent_from_spec,
    build_prompt,
    extract_json_object,
    load_prompt,
    parse_turn,
    serialize_turn,
)
from eqgym.environment import bundled_environments, load_spec, spec_to_dict
from eqgym.expr import VariableDomain
from eqgym.harness import build_plan, execute, run_session
from eqgym.session import ACTIVE, SOLVED, ObservationPacket, Session

ENVS = {env.env_id: env for env in bundled_environments()}


def drive(env, factory, mask="L1", max_turns=15, **kwargs):
    """Run a session to completion the way the harness does."""
    session = Session(env, mask, agent_name=factory.name, **kwargs)
    agent = factory.build(session)
    try:
        for _ in range(max_turns):
            if session.status != ACTIVE:
                break
            outcome = session.submit_turn(agent.act(session.observation_packet()))
            idle = (
                not outcome.executed
                and outcome.oracle is None
                and not outcome.hypothesis_recorded
                and outcome.dropped == 0
                and outcome.malformed == 0
            )
            if idle and session.status == ACTIVE:
                session.finish()
    finally:
        agent.close()
    if session.status == ACTIVE:
        session.finish()
    return session


# --------------------------------------------------------------------------
# Turn wire format

def test_parse_turn_round_trip():
    data = {
        "next_experiments": [{"F": 1.5, "k": 10.0}],
        "test_hypothesis_flag": True,
        "current_hypothesis_formula": "F / k",
    }
    turn = parse_turn(data)
    assert turn.next_experiments == [{"F": 1.5, "k": 10.0}]
    assert turn.test_hypothesis_flag is True
    assert serialize_turn(turn) == data


def test_parse_turn_null_formula_becomes_empty():
    turn = parse_turn({
        "next_experiments": [],
        "test_hypothesis_flag": False,
        "current_hypothesis_formula": None,
    })
    assert turn.current_hypothesis_formula == ""


def test_parse_turn_ignores_extras():
    turn = parse_turn({
        "next_experiments": [],
        "test_hypothesis_flag": False,
        "current_hypothesis_formula": "",
        "reasoning": "because",
    })
    assert turn.next_experiments == []


@pytest.mark.parametrize("bad", [
    "not an object",
    {"next_experiments": {}, "test_hypothesis_flag": False,
     "current_hypothesis_formula": ""},
    {"next_experiments": [], "test_hypothesis_flag": 1,
     "current_hypothesis_formula": ""},
    {"next_experiments": [], "test_hypothesis_flag": False,
     "current_hypothesis_formula": 7},
    {},
])
def test_parse_turn_rejects(bad):
    with pytest.raises(MalformedTurn):
        parse_turn(bad)


def test_parse_turn_reports_every_problem():
    with pytest.raises(MalformedTurn) as err:
        parse_turn({"next_experiments": 3, "test_hypothesis_flag": "yes"})
    message = str(err.value)
    assert "next_experiments" in message
    assert "test_hypothesis_flag" in message


# --------------------------------------------------------------------------
# Reply extraction

def test_extract_plain_object():
    assert extract_json_object('{"a": 1}') == {"a": 1}


def test_extract_fenced_json():
    text = 'Here you go:\n```json\n{"a": [1, 2]}\n```\nDone.'
    assert extract_json_object(text) == {"a": [1, 2]}


def test_extract_bare_fence():
    text = '```\n{"a": 1}\n```'
    assert extract_json_object(text) == {"a": 1}


def test_extract_object_with_chatter_and_braces_in_strings():
    text = 'I think {"formula": "f(x) = {weird}", "n": 3} covers it'
    assert extract_json_object(text) == {"formula": "f(x) = {weird}", "n": 3}


def test_extract_no_object():
    with pytest.raises(MalformedTurn):
        extract_json_object("no json here")


TURN = '{"next_experiments": [], "test_hypothesis_flag": false, "current_hypothesis_formula": "F/k"}'


# With the tests above: a fence with and without the json tag, a bare
# object and braces inside strings.
@pytest.mark.parametrize("text", [
    f"```json {TURN}```",
    # No closing fence: the object at the first brace.
    f"Here it is:\n```json\n{TURN}\nand more.",
    # The fenced object wins over a stray brace in the chatter before it.
    f"Try {{x}} next.\n```json\n{TURN}\n```",
    # Chatter between the object and the closing fence: the first brace.
    f"```json\n{TURN} or so\n```",
    # Only the first fenced block counts.
    f"```json\n{TURN}\n```\n```json\n{{\"other\": 1}}\n```",
], ids=["one-line-fence", "unclosed-fence", "stray-brace-before-fence",
        "chatter-before-close", "first-fence"])
def test_extract_reply_shapes(text):
    assert extract_json_object(text) == json.loads(TURN)


def test_extract_fenced_object_holding_a_fence_in_a_string():
    turn = {"current_hypothesis_formula": "f(x) = {x} ```"}
    assert extract_json_object(f"Say {{hi}}.\n```json\n{json.dumps(turn)}\n```") == turn


@pytest.mark.parametrize("text", [
    # The reply's first brace opens no object, and no fence holds one.
    f"Try {{x}} next, then {TURN}",
    f"Try {{x}} next.\n```json\n{TURN}\nand more.",
    "```json\n[1, 2]\n```",
    "```json\n{\"a\": 1,}\n```",
], ids=["stray-brace-before-object", "stray-brace-before-unclosed-fence", "fenced-array",
        "trailing-comma"])
def test_extract_malformed_reply_shapes(text):
    with pytest.raises(MalformedTurn, match="no JSON object found in reply"):
        extract_json_object(text)


@pytest.mark.parametrize("text,error", [
    ("```{" * 75_000, MalformedTurn),
    ("{" * 300_000, MalformedTurn),
    ('```json\n{"a": "' + "x" * 300_000, MalformedTurn),
    ('{"a": "' + "{[}" * 100_000 + '"', MalformedTurn),
    ('```json\n' + '{"a": ' * 50_000, RecursionError),
    ("```json \n\t " * 25_000 + "{", MalformedTurn),
], ids=["fence-brace-runs", "open-braces", "unterminated-string",
        "braces-in-a-string", "nested-objects", "fences-then-whitespace"])
def test_extract_rejects_hostile_replies_in_linear_time(text, error):
    # About 300 KB each.  A lazy fence pattern that scans to the end from
    # every fence took 7.9 s on 64 KB of "```{" and grows with the square.
    started = time.perf_counter()
    with pytest.raises(error):
        extract_json_object(text)
    assert time.perf_counter() - started < 1


# --------------------------------------------------------------------------
# Constant rendering for the power-law baseline

@pytest.mark.parametrize("value,expected", [
    (2.0, "2"),
    (0.5, "1/2"),
    (-0.5, "-1/2"),
    (-0.9999999999999999, "-1"),
    (math.sqrt(2.0), "np.sqrt(2)"),
    (4.0 * math.sqrt(13.0 / 23.0), "np.sqrt(208/23)"),
])
def test_rationalized_exact(value, expected):
    assert _rationalized(value) == expected


def test_rationalized_falls_back_to_float():
    text = _rationalized(2.0 * math.pi)
    assert float(text) == 2.0 * math.pi


# --------------------------------------------------------------------------
# Random baseline

def test_random_agent_proposes_in_domain():
    env = ENVS["hooke"]
    session = Session(env, "L1", seed=11)
    agent = RandomAgentFactory(batch=4).build(session)
    turn = agent.act(session.observation_packet())
    assert len(turn.next_experiments) == 4
    domains = env.domains()
    for proposal in turn.next_experiments:
        assert set(proposal) == set(domains)
        for name, value in proposal.items():
            assert domains[name].contains(value)
    assert turn.test_hypothesis_flag is False
    assert turn.current_hypothesis_formula == ""


def test_random_agent_deterministic():
    env = ENVS["hooke"]
    turns = []
    for _ in range(2):
        session = Session(env, "L1", seed=42)
        agent = RandomAgentFactory().build(session)
        turns.append(serialize_turn(agent.act(session.observation_packet())))
    assert turns[0] == turns[1]


def test_random_agent_runs_down_quota_then_idles():
    env = ENVS["hooke"]
    session = drive(env, RandomAgentFactory(batch=3), experiments_quota=10,
                    test_quota=2, seed=3)
    assert session.status == "exhausted"
    assert len(session._history) == 10
    assert session.tests_remaining == 2
    assert session.hypotheses == []


# --------------------------------------------------------------------------
# Power-law baseline

def test_power_law_solves_hooke_at_every_level():
    env = ENVS["hooke"]
    for level in ("L1", "L2", "L3", "L4"):
        session = drive(env, PowerLawAgentFactory(), mask=level, seed=1)
        assert session.status == SOLVED, level
        assert len(session._history) == 5
        assert session.test_quota - session.tests_remaining == 1


def test_power_law_solves_tube_env():
    session = drive(ENVS["env_716"], PowerLawAgentFactory(), mask="L4", seed=1)
    assert session.status == SOLVED
    assert len(session._history) == 11
    assert session.test_quota - session.tests_remaining == 1
    # masked session: the winning formula speaks display names only
    formula = session.hypotheses[-1].formula
    assert "var_1" in formula
    assert "np.sqrt(208/23)" in formula


def test_power_law_gives_up_on_non_monomial():
    session = drive(ENVS["env_409"], PowerLawAgentFactory(), mask="L1", seed=1)
    assert session.status == "exhausted"
    assert session.test_quota - session.tests_remaining <= 2


def test_power_law_design_is_one_factor_at_a_time():
    env = ENVS["env_716"]
    session = Session(env, "L1", seed=0)
    agent = PowerLawAgentFactory().build(session)
    turn = agent.act(session.observation_packet())
    assert len(turn.next_experiments) == 11
    base = turn.next_experiments[0]
    for proposal in turn.next_experiments[1:]:
        changed = [n for n in base if proposal[n] != base[n]]
        assert len(changed) == 1


def test_power_law_degenerate_domain():
    with pytest.raises(DegenerateDesign):
        _positive_grid("w", VariableDomain(-5.0, -1.0))


def test_power_law_rounds_a_negative_constant():
    # -F/k fits to -0.9999999999999999 * F * k**-1; the rounded law keeps
    # the sign and solves it at the first test.
    data = spec_to_dict(ENVS["hooke"])
    data["equation"] = "-F / k"
    env = load_spec(data)
    for level, formula in (("L1", "-1 * F * k**-1"), ("L4", "-1 * var_1 * var_2**-1")):
        session = drive(env, PowerLawAgentFactory(), mask=level, seed=1)
        assert session.status == SOLVED, level
        assert [h.formula for h in session.hypotheses] == [formula]


def _fit_turn(history):
    """The power-law agent's fitting turn on a hooke history."""
    agent = PowerLawAgentFactory().build(Session(ENVS["hooke"], "L1", seed=0))
    agent.act(SimpleNamespace(quota={"experiments_quota": 5}))
    return agent.act(SimpleNamespace(quota={"test_quota": 5}, historical_experiments=history))


def test_power_law_fit_skips_invalid_and_non_positive_rows():
    law = [{"F": f, "k": k, "x": f / k} for f, k in ((1.0, 1.0), (4.0, 1.0), (1.0, 4.0))]
    junk = [
        {"F": 2.0, "k": 2.0, "x": 1e6, "invalid": "out-of-domain: F"},
        {"F": 0.0, "k": 2.0, "x": 3.0},
        {"F": -2.0, "k": 2.0, "x": 3.0},
        {"F": 2.0, "k": "2", "x": 3.0},
        {"F": 2.0, "k": 2.0},
    ]
    turn = _fit_turn(junk[:3] + law + junk[3:])
    assert turn.test_hypothesis_flag and turn.current_hypothesis_formula == "F * k**-1"
    # Two usable rows cannot fit a constant and two exponents.
    turn = _fit_turn(junk + law[:2])
    assert turn == AgentTurn([], False, "")


def test_power_law_respects_test_quota():
    session = drive(ENVS["hooke"], PowerLawAgentFactory(), test_quota=0, seed=1)
    assert session.status == "exhausted"
    assert session.hypotheses == []


# --------------------------------------------------------------------------
# Subprocess transport

def agent_script(tmp_path, body: str) -> str:
    path = tmp_path / "agent.py"
    path.write_text(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    doc = json.loads(line)\n"
        + textwrap.indent(body, "    ")
        + "    sys.stdout.flush()\n",
        encoding="utf-8",
    )
    return f"{sys.executable} {path}"


def test_subprocess_round_trip_is_byte_identical(tmp_path):
    # the child parrots the raw line back inside the formula field, so any
    # serialization drift between the two directions would show up here
    command = agent_script(tmp_path, textwrap.dedent("""\
        print(json.dumps({
            "next_experiments": [],
            "test_hypothesis_flag": False,
            "current_hypothesis_formula": json.dumps(doc),
        }))
        """))
    session = Session(ENVS["hooke"], "L1", seed=5)
    agent = SubprocessAgent(command)
    try:
        packet = session.observation_packet()
        turn = agent.act(packet)
    finally:
        agent.close()
    assert json.loads(turn.current_hypothesis_formula) == packet.to_wire()


def test_subprocess_retry_carries_error_notice(tmp_path):
    command = agent_script(tmp_path, textwrap.dedent("""\
        if "error_notice" in doc:
            print(json.dumps({
                "next_experiments": [],
                "test_hypothesis_flag": False,
                "current_hypothesis_formula": "F / k",
            }))
        else:
            print("garbage")
        """))
    session = Session(ENVS["hooke"], "L1", seed=5)
    agent = SubprocessAgent(command)
    try:
        turn = agent.act(session.observation_packet())
    finally:
        agent.close()
    assert turn.current_hypothesis_formula == "F / k"


def test_subprocess_protocol_error_after_retries(tmp_path):
    command = agent_script(tmp_path, 'print("never valid")\n')
    session = Session(ENVS["hooke"], "L1", seed=5)
    agent = SubprocessAgent(command)
    exchanges = []
    exchange = agent._exchange

    def counted(document):
        exchanges.append(document)
        return exchange(document)

    agent._exchange = counted
    try:
        with pytest.raises(ProtocolError):
            agent.act(session.observation_packet())
    finally:
        agent.close()
    assert agents.RETRY_BUDGET == 3
    assert len(exchanges) == agents.RETRY_BUDGET


def test_subprocess_reply_nested_too_deeply_is_retried(tmp_path):
    command = agent_script(tmp_path, textwrap.dedent("""\
        if "error_notice" in doc:
            print(json.dumps({
                "next_experiments": [],
                "test_hypothesis_flag": False,
                "current_hypothesis_formula": doc["error_notice"],
            }))
        else:
            print("[" * 100000)
        """))
    session = Session(ENVS["hooke"], "L1", seed=5)
    agent = SubprocessAgent(command)
    try:
        turn = agent.act(session.observation_packet())
    finally:
        agent.close()
    assert turn.current_hypothesis_formula == (
        "previous reply was not a valid turn: reply nested too deeply"
    )


# Python's limit on int-to-text conversion; a reply past it must be retried.
needs_int_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"
)
LONG_NUMBER_NOTICE = "reply holds a number too long to read"


@needs_int_digit_limit
def test_subprocess_reply_with_a_too_long_number_is_retried(tmp_path):
    command = agent_script(tmp_path, textwrap.dedent("""\
        if "error_notice" in doc:
            print(json.dumps({
                "next_experiments": [],
                "test_hypothesis_flag": False,
                "current_hypothesis_formula": doc["error_notice"],
            }))
        else:
            print('{"next_experiments": [{"F": ' + "9" * 5000 + '}]}')
        """))
    session = Session(ENVS["hooke"], "L1", seed=5)
    agent = SubprocessAgent(command)
    try:
        turn = agent.act(session.observation_packet())
    finally:
        agent.close()
    assert turn.current_hypothesis_formula == (
        "previous reply was not a valid turn: " + LONG_NUMBER_NOTICE
    )


_FLAG_PROBLEM = "test_hypothesis_flag must be true or false"
# Replies that decode as JSON but are not turns: each is retried, with
# parse_turn's message in the notice.  An HTTP reply is read from its first
# `{`, so only the subprocess transport can decode a list.
NOT_A_TURN = {
    "subprocess-list": ("subprocess", "[]", "turn must be a JSON object"),
    "subprocess-number-for-proposals": ("subprocess", '{"next_experiments": 3}',
                                        "next_experiments must be a list; " + _FLAG_PROBLEM),
    "http-number-for-proposals": ("http", '{"next_experiments": 3}',
                                  "next_experiments must be a list; " + _FLAG_PROBLEM),
    "http-number-for-formula": ("http", '{"next_experiments": [], "test_hypothesis_flag": false,'
                                        ' "current_hypothesis_formula": 5}',
                                "current_hypothesis_formula must be a string or null"),
}


@pytest.mark.parametrize("kind, reply, problem", NOT_A_TURN.values(), ids=NOT_A_TURN)
def test_a_reply_that_is_not_a_turn_is_retried_with_its_problem(tmp_path, kind, reply, problem):
    session = Session(ENVS["hooke"], "L1", seed=5)
    if kind == "subprocess":
        agent = SubprocessAgent(agent_script(tmp_path, textwrap.dedent(f"""\
            if "error_notice" in doc:
                print(json.dumps({{"next_experiments": [], "test_hypothesis_flag": False,
                                  "current_hypothesis_formula": doc["error_notice"]}}))
            else:
                print({reply!r})
            """)))
        notice = "previous reply was not a valid turn: " + problem
    else:
        prompts = []

        def transport(url, headers, body):
            prompts.append(json.loads(body)["messages"][0]["content"])
            notice = prompts[-1].partition("# Notice\n\n")[2].rstrip("\n")
            return chat_reply(json.dumps({
                "next_experiments": [], "test_hypothesis_flag": False,
                "current_hypothesis_formula": notice}) if notice else reply)

        agent = http_factory(transport).build(session)
        notice = "Your previous reply was not a valid turn: " + problem
    try:
        turn = agent.act(session.observation_packet())
    finally:
        agent.close()
    assert turn.current_hypothesis_formula == notice


def test_subprocess_act_after_the_child_exited_names_its_exit_code(tmp_path):
    path = tmp_path / "dead.py"
    path.write_text("import sys; sys.exit(3)\n", encoding="utf-8")
    session = Session(ENVS["hooke"], "L1", seed=5)
    agent = SubprocessAgent(f"{sys.executable} {path}")
    try:
        agent.process.wait()
        with pytest.raises(TransportError, match="^agent process exited with code 3$"):
            agent.act(session.observation_packet())
    finally:
        agent.close()


def test_subprocess_death_is_transport_error(tmp_path):
    path = tmp_path / "dead.py"
    path.write_text("import sys; sys.exit(3)\n", encoding="utf-8")
    session = Session(ENVS["hooke"], "L1", seed=5)
    agent = SubprocessAgent(f"{sys.executable} {path}")
    try:
        with pytest.raises(TransportError):
            agent.act(session.observation_packet())
    finally:
        agent.close()


def test_subprocess_hang_ends_the_session_as_a_transport_failure(tmp_path, monkeypatch):
    path = tmp_path / "hang.py"
    path.write_text("import sys, time\nsys.stdin.readline()\ntime.sleep(600)\n",
                    encoding="utf-8")
    monkeypatch.setattr(agents, "AGENT_TIMEOUT_S", 0.5)
    started = time.monotonic()
    transcript = run_session(
        ENVS["hooke"], "L1", SubprocessAgentFactory(f"{sys.executable} {path}"), seed=5
    )
    assert time.monotonic() - started < 10
    assert transcript["status"] == "protocol_failure"
    assert transcript["failure_reason"] == (
        "agent failure: agent process did not answer within 0.5 s"
    )


def test_subprocess_that_stops_reading_is_killed_at_the_deadline(tmp_path, monkeypatch):
    # A line larger than the pipe buffer blocks the write itself.
    path = tmp_path / "deaf.py"
    path.write_text("import time\ntime.sleep(600)\n", encoding="utf-8")
    monkeypatch.setattr(agents, "AGENT_TIMEOUT_S", 0.5)
    agent = SubprocessAgent(f"{sys.executable} {path}")
    started = time.monotonic()
    try:
        with pytest.raises(TransportError, match="did not answer within 0.5 s"):
            agent._exchange("x" * (1 << 20))
        assert agent.process.returncode is not None
    finally:
        agent.close()
    assert time.monotonic() - started < 10


@pytest.mark.parametrize("handler, exit_code", [
    ("signal.SIG_DFL", -signal.SIGTERM),
    ("signal.SIG_IGN", -signal.SIGKILL),
], ids=["honours-sigterm", "ignores-sigterm"])
def test_close_stops_a_child_that_outlives_its_input(tmp_path, monkeypatch,
                                                     handler, exit_code):
    path = tmp_path / "stubborn.py"
    path.write_text(textwrap.dedent(f"""\
        import signal, time
        signal.signal(signal.SIGTERM, {handler})
        print("ready", flush=True)
        time.sleep(600)
        """), encoding="utf-8")
    monkeypatch.setattr(agents, "_CLOSE_GRACE_S", 0.2)
    agent = SubprocessAgent(f"{sys.executable} {path}")
    assert agent.process.stdout.readline() == "ready\n"
    started = time.monotonic()
    agent.close()
    took = time.monotonic() - started
    # Reaped, with both pipes closed, after one grace period per signal.
    assert agent.process.returncode == exit_code
    assert agent.process.stdin.closed and agent.process.stdout.closed
    signals = 1 if exit_code == -signal.SIGTERM else 2
    assert 0.2 * signals <= took < 5
    assert not agent._watchdog.is_alive()


def test_close_reaps_a_child_that_exits_on_end_of_input(tmp_path, monkeypatch):
    path = tmp_path / "polite.py"
    path.write_text("import sys\nsys.stdin.read()\n", encoding="utf-8")
    agent = SubprocessAgent(f"{sys.executable} {path}")
    sleeps = []
    sleep = time.sleep
    monkeypatch.setattr(time, "sleep", lambda seconds: (sleeps.append(seconds),
                                                        sleep(seconds)))
    agent.close()
    monkeypatch.undo()
    assert agent.process.returncode == 0
    assert not agent._watchdog.is_alive()
    # Blocked until the child exited instead of polling for it.
    assert sleeps == []


# --------------------------------------------------------------------------
# HTTP transport

def chat_reply(content: str) -> str:
    return json.dumps({"choices": [{"message": {"content": content}}]})


def http_factory(transport, **kwargs):
    return HttpAgentFactory("https://example.invalid/v1/chat/completions",
                            model="test-model", transport=transport, **kwargs)


def test_http_agent_request_shape(monkeypatch):
    monkeypatch.setenv("EQGYM_API_KEY", "sk-test")
    seen = {}

    def transport(url, headers, body):
        seen["url"] = url
        seen["headers"] = dict(headers)
        seen["body"] = json.loads(body)
        return chat_reply(
            '```json\n{"next_experiments": [], "test_hypothesis_flag": false,'
            ' "current_hypothesis_formula": "F / k"}\n```'
        )

    session = Session(ENVS["hooke"], "L1", seed=5)
    agent = http_factory(transport).build(session)
    turn = agent.act(session.observation_packet())

    assert turn.current_hypothesis_formula == "F / k"
    assert seen["url"].endswith("/chat/completions")
    assert seen["headers"]["Authorization"] == "Bearer sk-test"
    assert seen["body"]["model"] == "test-model"
    assert seen["body"]["temperature"] == 0.3
    assert seen["body"]["max_tokens"] == 4096
    prompt = seen["body"]["messages"][0]["content"]
    researcher = Path(agents.__file__).parent / "prompts" / "researcher.md"
    assert prompt.startswith(researcher.read_text(encoding="utf-8"))
    assert "# Current Input" in prompt
    packet_json = json.dumps(session.observation_packet().to_wire(), indent=2)
    assert packet_json in prompt


def test_http_agent_retries_then_succeeds():
    replies = [
        chat_reply("I will think about it."),
        chat_reply('{"next_experiments": [], "test_hypothesis_flag": false,'
                   ' "current_hypothesis_formula": ""}'),
    ]
    prompts = []

    def transport(url, headers, body):
        prompts.append(json.loads(body)["messages"][0]["content"])
        return replies.pop(0)

    session = Session(ENVS["hooke"], "L1", seed=5)
    agent = http_factory(transport).build(session)
    turn = agent.act(session.observation_packet())
    assert turn.next_experiments == []
    assert len(prompts) == 2
    assert "# Notice" in prompts[1]


def test_http_agent_protocol_error():
    bodies = []

    def transport(url, headers, body):
        bodies.append(body)
        return chat_reply("still no json")

    session = Session(ENVS["hooke"], "L1", seed=5)
    agent = http_factory(transport).build(session)
    with pytest.raises(ProtocolError):
        agent.act(session.observation_packet())
    assert agents.RETRY_BUDGET == 3
    assert len(bodies) == agents.RETRY_BUDGET


def test_http_agent_bad_reply_shape_is_transport_error():
    def transport(url, headers, body):
        return json.dumps({"error": "overloaded"})

    session = Session(ENVS["hooke"], "L1", seed=5)
    agent = http_factory(transport).build(session)
    with pytest.raises(TransportError):
        agent.act(session.observation_packet())


def test_http_reply_content_that_is_not_text_is_a_transport_error():
    def transport(url, headers, body):
        return json.dumps({"choices": [{"message": {"content": {"next_experiments": []}}}]})

    session = Session(ENVS["hooke"], "L1", seed=5)
    agent = http_factory(transport).build(session)
    with pytest.raises(TransportError, match="^endpoint reply content was not text$"):
        agent.act(session.observation_packet())


def test_http_reply_nested_too_deeply_is_retried():
    prompts = []

    def transport(url, headers, body):
        prompts.append(json.loads(body)["messages"][0]["content"])
        return chat_reply('```json\n' + '{"a": ' * 100_000)

    transcript = run_session(ENVS["hooke"], "L1", http_factory(transport), seed=5)
    assert transcript["status"] == "protocol_failure"
    assert transcript["failure_reason"] == (
        "agent failure: agent kept replying out of protocol: reply nested too deeply"
    )
    assert len(prompts) == agents.RETRY_BUDGET
    notice = "Your previous reply was not a valid turn: reply nested too deeply"
    assert [notice in prompt for prompt in prompts] == [False, True, True]


def test_http_envelope_nested_too_deeply_is_a_transport_error():
    def transport(url, headers, body):
        return "[" * 100_000

    session = Session(ENVS["hooke"], "L1", seed=5)
    agent = http_factory(transport).build(session)
    with pytest.raises(TransportError, match="^endpoint reply was not chat-completion shaped$"):
        agent.act(session.observation_packet())


@needs_int_digit_limit
def test_http_reply_with_a_too_long_number_is_retried():
    prompts = []

    def transport(url, headers, body):
        prompts.append(json.loads(body)["messages"][0]["content"])
        return chat_reply('{"next_experiments": [{"F": ' + "9" * 5000 + "}]}")

    transcript = run_session(ENVS["hooke"], "L1", http_factory(transport), seed=5)
    assert transcript["status"] == "protocol_failure"
    assert transcript["failure_reason"] == (
        "agent failure: agent kept replying out of protocol: " + LONG_NUMBER_NOTICE
    )
    notice = "Your previous reply was not a valid turn: " + LONG_NUMBER_NOTICE
    assert [notice in prompt for prompt in prompts] == [False, True, True]


@needs_int_digit_limit
def test_http_envelope_with_a_too_long_number_is_a_transport_error():
    def transport(url, headers, body):
        return '{"choices": [{"message": {"content": "{}"}}], "id": ' + "9" * 5000 + "}"

    session = Session(ENVS["hooke"], "L1", seed=5)
    agent = http_factory(transport).build(session)
    with pytest.raises(TransportError, match="^endpoint reply was not chat-completion shaped$"):
        agent.act(session.observation_packet())


def test_build_prompt_includes_notice():
    session = Session(ENVS["hooke"], "L1", seed=5)
    text = build_prompt("TEMPLATE", session.observation_packet(), "try again",
                        agents.PacketEncoder(indent=2))
    assert text.startswith("TEMPLATE")
    assert "# Notice" in text and "try again" in text


def test_http_agents_read_the_template_once_per_process(monkeypatch):
    reads, read_text = [], Path.read_text

    def counting(path, *args, **kwargs):
        reads.append(path)
        return read_text(path, *args, **kwargs)

    agents.load_prompt.cache_clear()
    monkeypatch.setattr(Path, "read_text", counting)
    built = [factory.build(None) for factory in (http_factory(None), http_factory(None))
             for _ in range(3)]
    assert reads == [agents.PROMPT_PATH]
    assert all(agent.template is built[0].template for agent in built)


def test_bundled_prompt_loads_and_mentions_the_wire_fields():
    text = load_prompt()
    for token in ("next_experiments", "test_hypothesis_flag",
                  "current_hypothesis_formula", "quota"):
        assert token in text


# --------------------------------------------------------------------------
# The default HTTP transport, against the chat-completions stub on loopback

@pytest.fixture
def chat_stub():
    server = ChatStub()
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


@pytest.mark.parametrize("key", ["sk-test", ""])
def test_urllib_transport_sends_the_protocol_request(chat_stub, monkeypatch, key):
    monkeypatch.setenv("EQGYM_STUB_KEY", key)
    session = Session(ENVS["hooke"], "L1", seed=5)
    agent = HttpAgentFactory(chat_stub.url, model="stub",
                             api_key_env="EQGYM_STUB_KEY").build(session)
    packet = session.observation_packet()
    turn = agent.act(packet)
    assert len(turn.next_experiments) == 3
    [(headers, body)] = chat_stub.requests
    assert headers["Content-Type"] == "application/json"
    assert headers["Authorization"] == (f"Bearer {key}" if key else None)
    prompt = build_prompt(load_prompt(), packet, None, agents.PacketEncoder(indent=2))
    assert body == json.dumps({
        "model": "stub",
        "messages": [{"role": "user", "content": prompt}],
        "temperature": 0.3,
        "max_tokens": 4096,
    }).encode("utf-8")


@pytest.mark.parametrize("model", ['stub "content": "" \\ ☃', ""])
def test_urllib_transport_sends_the_protocol_request_on_every_turn(
        chat_stub, monkeypatch, model):
    # The body is assembled from escaped pieces; a model name that looks
    # like the content member or is empty, and a context that must be
    # escaped twice, are sent as json.dumps of the whole request would
    # send them.  The stub answers one reply per session with chatter, so
    # a retry's `# Notice` goes over the wire too.
    env = ENVS["hooke"]
    env = replace(env, context=env.context + " Près du ressort, k ≈ 2 N/m (弹簧) \U0001d53c.")
    build, wants = agents.build_prompt, []

    def recorded(template, packet, error_notice, encoder):
        prompt = reference_prompt(template, packet, error_notice)
        wants.append(protocol_request(prompt, model))
        return build(template, packet, error_notice, encoder)

    monkeypatch.setattr(agents, "build_prompt", recorded)
    session = drive(env, HttpAgentFactory(chat_stub.url, model=model), seed=5)
    assert session.status in (SOLVED, "exhausted")
    bodies = [body for _, body in chat_stub.requests]
    assert bodies == wants
    assert len(bodies) == session.turn_index + 1
    assert sum(b"# Notice" in body for body in bodies) == 1
    assert b"last_oracle_result" in bodies[-1]
    assert b"\\\\u00e8" in bodies[0]  # "è" escaped in the packet, then in the request


def test_urllib_transport_reports_an_http_error(chat_stub):
    with pytest.raises(TransportError) as info:
        agents._urllib_transport(chat_stub.url, {"Content-Type": "application/json"}, b"{}")
    assert str(info.value) == "HTTP 500 from agent endpoint"
    # The error response is closed, or its socket warns when collected.
    assert info.value.__context__.closed


def test_urllib_transport_reports_a_closed_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(TransportError, match="^agent endpoint unreachable: "):
        agents._urllib_transport(f"http://127.0.0.1:{port}/v1/chat/completions", {}, b"{}")


def test_http_plan_through_the_stub_writes_the_same_log_at_any_parallelism(
        chat_stub, tmp_path):
    logs = []
    for parallelism in (2, 1):
        plan = build_plan(
            [ENVS["hooke"], ENVS["env_409"]], ["L1", "L4"],
            [HttpAgentFactory(chat_stub.url, model="stub")],
            seed=3, parallelism=parallelism,
        )
        record = execute(plan, out_dir=tmp_path / str(parallelism))
        assert record.errors == []
        assert {t["status"] for t in record.transcripts} <= {"solved", "exhausted"}
        logs.append((tmp_path / str(parallelism) / "run.jsonl").read_bytes())
    assert logs[0] == logs[1]
    # Each session took the retry path once and tested one hypothesis.
    notices = [b"# Notice" in body for _, body in chat_stub.requests]
    assert sum(notices) == 8
    assert all(t["tests_used"] == 1 for t in record.transcripts)


# --------------------------------------------------------------------------
# Packet wire text

# One deterministic policy answers on both transports.  Its experiments
# fall in and out of the domains (and across env_409's r < a), every
# fourth turn carries a malformed proposal, every third turn tests a
# hypothesis, and every fifth turn, from turn 3, is first answered with a
# reply that is not a turn.
WIRE_POLICY = textwrap.dedent('''\
    import json
    import sys

    NOT_A_TURN = "not a turn"


    def reply(doc, turn, retry):
        if turn % 5 == 3 and not retry:
            return NOT_A_TURN
        names = list(doc["controllable_variables"])
        points = [
            {name: 10.0 ** ((turn + i) % 5 - 2) * (0.3 + 0.4 * (j if i == 2 else 3 - j))
             for j, name in enumerate(names)}
            for i in range(3)
        ]
        if turn % 4 == 1:
            del points[0][names[0]]
        return json.dumps({
            "next_experiments": points[: doc["quota"]["experiments_quota"]],
            "test_hypothesis_flag": turn % 3 == 2,
            "current_hypothesis_formula": f"{names[0]} * 2",
        })


    if __name__ == "__main__":
        turn = 0
        for line in sys.stdin:
            doc = json.loads(line)
            text = reply(doc, turn, "error_notice" in doc)
            turn += text != NOT_A_TURN
            sys.stdout.write(text + "\\n")
            sys.stdout.flush()
''')


def policy_agent(kind, tmp_path):
    """A subprocess or HTTP agent that answers from WIRE_POLICY."""
    if kind == "subprocess":
        path = tmp_path / "policy.py"
        path.write_text(WIRE_POLICY, encoding="utf-8")
        return SubprocessAgent(f"{sys.executable} {path}")
    policy = {"__name__": "wire_policy"}
    exec(WIRE_POLICY, policy)
    turns = [0]

    def transport(url, headers, body):
        prompt = json.loads(body)["messages"][0]["content"]
        tail = prompt.rpartition("\n# Current Input\n")[2]
        doc = json.loads(tail.split("```json\n", 1)[1].partition("\n```")[0])
        text = policy["reply"](doc, turns[0], "\n# Notice\n" in tail)
        turns[0] += text != policy["NOT_A_TURN"]
        return chat_reply(text)

    return http_factory(transport).build(None)


def drive_packets(agent, session, rebuild_every=0):
    """Run a session to its end; every `rebuild_every`-th packet goes to
    the agent through to_wire/from_wire.  Returns the packets acted on."""
    packets = []
    try:
        while session.status == ACTIVE and session.turn_index < 40:
            packet = session.observation_packet()
            if rebuild_every and session.turn_index % rebuild_every == 1:
                packet = ObservationPacket.from_wire(packet.to_wire())
            packets.append(packet)
            session.submit_turn(agent.act(packet))
    finally:
        agent.close()
    return packets


def protocol_request(prompt, model="test-model"):
    """The request body PROTOCOL.md specifies for one HTTP exchange."""
    return json.dumps({
        "model": model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": 0.3,
        "max_tokens": 4096,
    }).encode("utf-8")


def reference_prompt(template, packet, error_notice=None):
    parts = [template, "\n# Current Input\n"]
    parts.append("```json\n" + json.dumps(packet.to_wire(), indent=2) + "\n```\n")
    if error_notice:
        parts.append(f"\n# Notice\n\n{error_notice}\n")
    return "\n".join(parts)


@pytest.mark.parametrize("level", ["L1", "L4"])
@pytest.mark.parametrize("kind", ["subprocess", "http"])
def test_wire_text_is_the_json_of_to_wire_on_every_turn(tmp_path, monkeypatch, kind, level):
    env = ENVS["env_409"]
    env = replace(env, context=env.context + " Près du bord, ε₀ ≈ 8.85 pF/m (円盤).")
    session = Session(env, level, experiments_quota=40, test_quota=4, seed=5)
    agent = policy_agent(kind, tmp_path)
    sent = []  # (text, the same exchange encoded from to_wire)
    if kind == "subprocess":
        lines = []
        exchange = agent._exchange

        def recorded(line):
            lines.append(line)
            return exchange(line)

        agent._exchange = recorded
    else:
        # Each exchange's body against the request that holds the prompt
        # built from to_wire; build_prompt runs once per exchange, just
        # before the transport call.
        build, transport, wants = agents.build_prompt, agent.config.transport, []

        def recorded(template, packet, error_notice, encoder):
            wants.append(protocol_request(reference_prompt(template, packet, error_notice)))
            return build(template, packet, error_notice, encoder)

        def sending(url, headers, body):
            sent.append((body, wants[-1]))
            return transport(url, headers, body)

        monkeypatch.setattr(agents, "build_prompt", recorded)
        agent.config.transport = sending
    packets = drive_packets(agent, session, rebuild_every=3)
    if kind == "subprocess":
        index = -1
        for line in lines:
            notice = json.loads(line).get("error_notice")
            index += notice is None  # a retry resends the last packet
            doc = packets[index].to_wire()
            if notice is not None:
                doc["error_notice"] = notice
            sent.append((line, json.dumps(doc)))

    assert [text for text, _ in sent] == [want for _, want in sent]
    # The session went through every kind of packet content.
    assert len(sent) > len(packets) >= 9  # retries resent packets
    assert any(p.last_oracle_result for p in packets)
    assert any(not entry.get("invalid") for entry in session._history)
    assert {entry["invalid"].partition(":")[0]
            for entry in session._history if "invalid" in entry} == {
        "out-of-domain", "validity"}
    assert any("proposal skipped" in text for _, text in session.notices)
    if level == "L1":
        first = sent[0][0]
        if kind == "http":
            first = json.loads(first)["messages"][0]["content"]
        assert "\\u03b5\\u2080" in first


def test_packet_encoder_re_encodes_entries_it_did_not_send():
    session = Session(ENVS["hooke"], "L1", seed=5)
    first = session.observation_packet()
    session.submit_turn(AgentTurn([{"F": 1.0, "k": 2.0}, {"F": 3.0, "k": 4.0}], False, ""))
    packet = session.observation_packet()
    doc = packet.to_wire()
    doc["historical_experiments"][0]["F"] = 9.0
    edited = ObservationPacket.from_wire(doc)
    for indent in (None, 2):
        encoder = agents.PacketEncoder(indent)
        quoted = agents.PacketEncoder(indent, quoted=True)
        for sent in (packet, edited, packet, first, packet):
            text = encoder.encode(sent)
            assert text == json.dumps(sent.to_wire(), indent=indent)
            assert quoted.encode(sent) == json.dumps(text)[1:-1]


def test_packet_encoder_reuses_header_text_only_while_it_is_the_same_in_order():
    # The encoder keeps the text of each member while it is the same
    # object; each packet below must still be encoded as json.dumps would.
    session = Session(ENVS["hooke"], "L1", seed=5)
    session.submit_turn(AgentTurn([{"F": 1.0 + i, "k": 2.0} for i in range(3)], False, ""))
    packet = session.observation_packet()
    controllable = packet.controllable_variables
    (observable,) = packet.observable_variable
    history = packet.historical_experiments
    variants = [
        packet,
        # The same items in a new order: equal dicts, different JSON.
        replace(packet, controllable_variables=dict(reversed(controllable.items()))),
        packet,
        replace(packet, problem_description=packet.problem_description + " Again."),
        packet,
        replace(packet, historical_experiments=[history[0], dict(history[1]), history[2]]),
        replace(packet, historical_experiments=[history[0], {**history[1], "F": 9.0},
                                                history[2]]),
        packet,
        # Equal values of different types: 1 == 1.0 == True.
        replace(packet, observable_variable={observable: 1}),
        replace(packet, observable_variable={observable: 1.0}),
        replace(packet, observable_variable={observable: True}),
        replace(packet, problem_description=1.0),
        replace(packet, problem_description=1),
        packet,
    ]
    for indent in (None, 2):
        encoder = agents.PacketEncoder(indent)
        quoted = agents.PacketEncoder(indent, quoted=True)
        for sent in variants:
            text = encoder.encode(sent)
            assert text == json.dumps(sent.to_wire(), indent=indent)
            assert quoted.encode(sent) == json.dumps(text)[1:-1]


def test_build_prompt_escapes_each_template_it_is_given():
    session = Session(ENVS["hooke"], "L1", seed=5)
    packet = session.observation_packet()
    plain = agents.PacketEncoder(indent=2)
    quoted = agents.PacketEncoder(indent=2, quoted=True)
    for template, notice in [("T1 \"円\"", None), ("T2\n", "retry"), ("T1 \"円\"", "retry"),
                             (load_prompt(), None), ("T2\n", None)]:
        want = reference_prompt(template, packet, notice)
        assert build_prompt(template, packet, notice, plain) == want
        assert build_prompt(template, packet, notice, quoted) == json.dumps(want)[1:-1]


@pytest.mark.parametrize("kind", ["subprocess", "http"])
def test_header_members_and_template_are_encoded_once_per_agent(tmp_path, monkeypatch,
                                                                 kind):
    encoded = []
    dumps = json.dumps

    def counting(obj, *args, **kwargs):
        encoded.append(obj)
        return dumps(obj, *args, **kwargs)

    session = Session(ENVS["hooke"], "L1", experiments_quota=60, test_quota=3, seed=5)
    agent = policy_agent(kind, tmp_path)
    monkeypatch.setattr(json, "dumps", counting)
    try:
        while session.status == ACTIVE and session.turn_index < 40:
            session.submit_turn(agent.act(session.observation_packet()))
    finally:
        agent.close()
    monkeypatch.undo()
    assert session.turn_index > 10
    packet = session.observation_packet()
    for value in (packet.problem_description, packet.controllable_variables,
                  packet.observable_variable):
        assert sum(type(obj) is type(value) and obj == value for obj in encoded) == 1
    # Each test's verdict is encoded once, not on every later turn.
    verdicts = [obj for obj in encoded
                if type(obj) is dict and obj.keys() == {"formula", "equivalent"}]
    assert session.tests_remaining == 0
    assert len(verdicts) == session.test_quota
    escaped = sum(isinstance(obj, str) and load_prompt() in obj for obj in encoded)
    assert escaped == (1 if kind == "http" else 0)


def encoder_calls(monkeypatch):
    """Spy on json.dumps: the keyword arguments of every call."""
    calls, dumps = [], json.dumps

    def spying(obj, *args, **kwargs):
        calls.append(kwargs)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", spying)
    return calls


def test_packet_encoder_writes_flat_objects_as_the_indenting_encoder(monkeypatch):
    # The C encoder with the indentation as its item separator, twinned
    # with json.dumps(indent=2) shifted to the value's depth.
    rng = random.Random(1717)
    plain = agents.PacketEncoder(indent=2)
    quoted = agents.PacketEncoder(indent=2, quoted=True)
    cases = [gen.random_flat_object(rng) for _ in range(400)]
    cases.append({key: value for key, value in zip(gen.TEXT_PIECES, gen.FLAT_SCALARS)})
    for value in cases:
        for depth in range(3):
            want = json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)
            calls = encoder_calls(monkeypatch)
            text = plain._dumps(value, depth)
            monkeypatch.undo()
            assert [call.get("indent") for call in calls] == [None]  # the fast path
            assert text == want
            assert quoted._dumps(value, depth) == json.dumps(text)[1:-1]


class Count(int):
    pass


@pytest.mark.parametrize("value", [
    {}, {"a": {"b": 1.5}}, {"a": [1, "x"]}, {"a": 1, "b": Count(3)}, {"é": Count(-7)},
    [{"a": 1}], "text \"円\"", 2**70, None,
])
def test_packet_encoder_writes_other_values_with_the_indenting_encoder(monkeypatch, value):
    plain = agents.PacketEncoder(indent=2)
    quoted = agents.PacketEncoder(indent=2, quoted=True)
    for depth in range(3):
        calls = encoder_calls(monkeypatch)
        text = plain._dumps(value, depth)
        monkeypatch.undo()
        assert [call.get("indent") for call in calls] == [2]
        assert text == json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)
        assert quoted._dumps(value, depth) == json.dumps(text)[1:-1]


@pytest.mark.parametrize("kind", ["subprocess", "http"])
def test_each_history_entry_is_encoded_once_per_agent(tmp_path, monkeypatch, kind):
    # Re-encoding the whole history every turn made a session's wire cost
    # grow with turns × history.
    encoded = []
    dumps = json.dumps

    def counting(obj, *args, **kwargs):
        encoded.append(obj)
        return dumps(obj, *args, **kwargs)

    session = Session(ENVS["hooke"], "L1", experiments_quota=60, test_quota=3, seed=5)
    agent = policy_agent(kind, tmp_path)
    turns = []  # the turn of each history entry
    monkeypatch.setattr(json, "dumps", counting)
    try:
        while session.status == ACTIVE and session.turn_index < 40:
            outcome = session.submit_turn(agent.act(session.observation_packet()))
            turns += [outcome.turn_index] * len(outcome.executed)
    finally:
        agent.close()
    monkeypatch.undo()
    assert len(session._history) == 60
    # The last turn's experiments end the session and are never sent.
    last = session.turn_index - 1
    assert [sum(obj is entry for obj in encoded) for entry in session._history] == [
        int(turn < last) for turn in turns]


# --------------------------------------------------------------------------
# CLI specs

def test_agent_from_spec_forms():
    assert isinstance(agent_from_spec("scripted:random"), RandomAgentFactory)
    assert isinstance(agent_from_spec("scripted:power_law"), PowerLawAgentFactory)
    assert isinstance(agent_from_spec("random"), RandomAgentFactory)
    assert isinstance(agent_from_spec("power_law"), PowerLawAgentFactory)
    sub = agent_from_spec("subprocess:python3 agent.py --fast")
    assert isinstance(sub, SubprocessAgentFactory)
    assert sub.command == "python3 agent.py --fast"
    http = agent_from_spec("http:https://h/v1", model="m")
    assert isinstance(http, HttpAgentFactory)
    assert http.endpoint == "https://h/v1"
    assert http.model == "m"
    assert http.name == "m"
    assert agent_from_spec("http:https://h/v1").name == "http"
    assert agent_from_spec("http:https://h/v1", model="m", name="n").name == "n"


@pytest.mark.parametrize("url", ["http://127.0.0.1:9/v1/chat/completions",
                                 "https://h/v1"])
def test_agent_from_spec_takes_a_url_as_the_endpoint(url):
    bare = agent_from_spec(url, model="m")
    assert bare == agent_from_spec(f"http:{url}", model="m")
    assert bare.endpoint == url


@pytest.mark.parametrize("spec", ["", "subprocess:", "http:", "alien",
                                  "scripted:alien", "scripted:"])
def test_agent_from_spec_rejects(spec):
    with pytest.raises(ValueError):
        agent_from_spec(spec)


def test_agent_turn_is_plain_data():
    turn = AgentTurn([{"F": 1.0}], False, "")
    assert turn.next_experiments[0]["F"] == 1.0
