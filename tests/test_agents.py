from __future__ import annotations

import json
import math
import sys
import textwrap
import time

import pytest

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
from eqgym.environment import bundled_environments
from eqgym.expr import VariableDomain
from eqgym.harness import run_session
from eqgym.session import ACTIVE, SOLVED, new_session

ENVS = {env.env_id: env for env in bundled_environments()}


def drive(env, factory, mask="L1", max_turns=15, **kwargs):
    """Run a session to completion the way the harness does."""
    session = new_session(env, mask, agent_name=factory.name, **kwargs)
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


# --------------------------------------------------------------------------
# Constant rendering for the power-law baseline

@pytest.mark.parametrize("value,expected", [
    (2.0, "2"),
    (0.5, "1/2"),
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
    session = new_session(env, "L1", seed=11)
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
        session = new_session(env, "L1", seed=42)
        agent = RandomAgentFactory().build(session)
        turns.append(serialize_turn(agent.act(session.observation_packet())))
    assert turns[0] == turns[1]


def test_random_agent_runs_down_quota_then_idles():
    env = ENVS["hooke"]
    session = drive(env, RandomAgentFactory(batch=3), experiments_quota=10,
                    test_quota=2, seed=3)
    assert session.status == "exhausted"
    assert len(session.records) == 10
    assert session.tests_remaining == 2
    assert session.hypotheses == []


# --------------------------------------------------------------------------
# Power-law baseline

def test_power_law_solves_hooke_at_every_level():
    env = ENVS["hooke"]
    for level in ("L1", "L2", "L3", "L4"):
        session = drive(env, PowerLawAgentFactory(), mask=level, seed=1)
        assert session.status == SOLVED, level
        assert len(session.records) == 5
        assert session.test_quota - session.tests_remaining == 1


def test_power_law_solves_tube_env():
    session = drive(ENVS["env_716"], PowerLawAgentFactory(), mask="L4", seed=1)
    assert session.status == SOLVED
    assert len(session.records) == 11
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
    session = new_session(env, "L1", seed=0)
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
    session = new_session(ENVS["hooke"], "L1", seed=5)
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
    session = new_session(ENVS["hooke"], "L1", seed=5)
    agent = SubprocessAgent(command)
    try:
        turn = agent.act(session.observation_packet())
    finally:
        agent.close()
    assert turn.current_hypothesis_formula == "F / k"


def test_subprocess_protocol_error_after_retries(tmp_path):
    command = agent_script(tmp_path, 'print("never valid")\n')
    session = new_session(ENVS["hooke"], "L1", seed=5)
    agent = SubprocessAgent(command, retry_budget=3)
    try:
        with pytest.raises(ProtocolError):
            agent.act(session.observation_packet())
    finally:
        agent.close()


def test_subprocess_death_is_transport_error(tmp_path):
    path = tmp_path / "dead.py"
    path.write_text("import sys; sys.exit(3)\n", encoding="utf-8")
    session = new_session(ENVS["hooke"], "L1", seed=5)
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
    # A document larger than the pipe buffer blocks the write itself.
    path = tmp_path / "deaf.py"
    path.write_text("import time\ntime.sleep(600)\n", encoding="utf-8")
    monkeypatch.setattr(agents, "AGENT_TIMEOUT_S", 0.5)
    agent = SubprocessAgent(f"{sys.executable} {path}")
    started = time.monotonic()
    try:
        with pytest.raises(TransportError, match="did not answer within 0.5 s"):
            agent._exchange({"padding": "x" * (1 << 20)})
        assert agent.process.returncode is not None
    finally:
        agent.close()
    assert time.monotonic() - started < 10


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

    session = new_session(ENVS["hooke"], "L1", seed=5)
    agent = http_factory(transport).build(session)
    turn = agent.act(session.observation_packet())

    assert turn.current_hypothesis_formula == "F / k"
    assert seen["url"].endswith("/chat/completions")
    assert seen["headers"]["Authorization"] == "Bearer sk-test"
    assert seen["body"]["model"] == "test-model"
    assert seen["body"]["temperature"] == 0.3
    prompt = seen["body"]["messages"][0]["content"]
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

    session = new_session(ENVS["hooke"], "L1", seed=5)
    agent = http_factory(transport).build(session)
    turn = agent.act(session.observation_packet())
    assert turn.next_experiments == []
    assert len(prompts) == 2
    assert "# Notice" in prompts[1]


def test_http_agent_protocol_error():
    def transport(url, headers, body):
        return chat_reply("still no json")

    session = new_session(ENVS["hooke"], "L1", seed=5)
    agent = http_factory(transport, retry_budget=2).build(session)
    with pytest.raises(ProtocolError):
        agent.act(session.observation_packet())


def test_http_agent_bad_reply_shape_is_transport_error():
    def transport(url, headers, body):
        return json.dumps({"error": "overloaded"})

    session = new_session(ENVS["hooke"], "L1", seed=5)
    agent = http_factory(transport).build(session)
    with pytest.raises(TransportError):
        agent.act(session.observation_packet())


def test_build_prompt_includes_notice():
    session = new_session(ENVS["hooke"], "L1", seed=5)
    text = build_prompt("TEMPLATE", session.observation_packet(), "try again")
    assert text.startswith("TEMPLATE")
    assert "# Notice" in text and "try again" in text


def test_bundled_prompt_loads_and_mentions_the_wire_fields():
    text = load_prompt()
    for token in ("next_experiments", "test_hypothesis_flag",
                  "current_hypothesis_formula", "quota"):
        assert token in text


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


@pytest.mark.parametrize("spec", ["", "subprocess:", "http:", "alien",
                                  "scripted:alien", "scripted:"])
def test_agent_from_spec_rejects(spec):
    with pytest.raises(ValueError):
        agent_from_spec(spec)


def test_agent_turn_is_plain_data():
    turn = AgentTurn([{"F": 1.0}], False, "")
    assert turn.next_experiments[0]["F"] == 1.0
