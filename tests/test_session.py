import json
from types import SimpleNamespace

import pytest

from eqgym.environment import LEVELS, bundled_environments
from eqgym.session import (
    ObservationPacket,
    Session,
    TerminalSession,
    WireFormatError,
    new_session,
)


def env_by_id(env_id):
    return next(e for e in bundled_environments() if e.env_id == env_id)


def turn(experiments=None, flag=False, formula=""):
    return SimpleNamespace(
        next_experiments=experiments or [],
        test_hypothesis_flag=flag,
        current_hypothesis_formula=formula,
    )


def test_fresh_packet_echoes_quotas():
    session = new_session(env_by_id("hooke"), "L1", experiments_quota=10, test_quota=2)
    packet = session.observation_packet()
    assert packet.problem_description == env_by_id("hooke").context
    assert list(packet.controllable_variables) == ["F", "k"]
    assert packet.observable_variable == {
        "x": "The extension of the spring in meters (m)."}
    assert packet.historical_experiments == []
    assert packet.quota == {"experiments_quota": 10, "test_quota": 2}
    assert packet.last_oracle_result is None


def test_experiments_consume_quota_and_flatten():
    session = new_session(env_by_id("hooke"), "L1", experiments_quota=10, test_quota=2)
    out = session.submit_turn(turn([{"F": 1.0, "k": 10.0}, {"F": 2.0, "k": -1.0}]))
    assert len(out.executed) == 2
    assert session.experiments_remaining == 8
    packet = session.observation_packet()
    assert packet.historical_experiments[0] == {"F": 1.0, "k": 10.0, "x": 0.1}
    entry = packet.historical_experiments[1]
    assert entry["F"] == 2.0 and entry["k"] == -1.0
    assert "x" not in entry
    assert entry["invalid"].startswith("out-of-domain: k")


def test_malformed_proposals_cost_nothing():
    session = new_session(env_by_id("hooke"), "L1", experiments_quota=5, test_quota=2)
    out = session.submit_turn(turn([
        {"F": 1.0},                      # missing k
        {"F": 1.0, "k": 1.0, "z": 2.0},  # unknown name
        {"F": "high", "k": 1.0},         # not a number
        {"F": True, "k": 1.0},           # bool is not a number here
        "not a dict",
        {"F": 1.0, "k": 10.0},           # fine
    ]))
    assert out.malformed == 5
    assert len(out.executed) == 1
    assert session.experiments_remaining == 4
    assert len(out.notices) == 5


def test_non_finite_proposals_cost_nothing():
    session = new_session(env_by_id("hooke"), "L1", experiments_quota=5, test_quota=2)
    # Python's json decodes all of these; none is a finite float.
    decoded = json.loads(
        '[{"F": NaN, "k": 1.0}, {"F": 1.0, "k": Infinity}, {"F": -Infinity, "k": 1.0},'
        ' {"F": 1e400, "k": 1.0}, {"F": 1' + "0" * 400 + ', "k": 1.0},'
        ' {"F": 1.0, "k": 10.0}]'
    )
    out = session.submit_turn(turn(decoded))
    assert out.malformed == 5
    assert len(out.executed) == 1
    assert session.experiments_remaining == 4
    assert out.notices == [
        "experiment proposal skipped: value for F must be a finite number",
        "experiment proposal skipped: value for k must be a finite number",
        "experiment proposal skipped: value for F must be a finite number",
        "experiment proposal skipped: value for F must be a finite number",
        "experiment proposal skipped: value for F must be a finite number",
    ]
    # Everything the agent and the log see stays strict JSON.
    json.dumps(session.observation_packet().to_wire(), allow_nan=False)
    json.dumps(session.transcript(), allow_nan=False)


def test_overbudget_proposals_dropped_with_notice():
    session = new_session(env_by_id("hooke"), "L1", experiments_quota=3, test_quota=2)
    proposals = [{"F": float(i + 1), "k": 10.0} for i in range(5)]
    out = session.submit_turn(turn(proposals))
    assert len(out.executed) == 3
    assert out.dropped == 2
    assert any("dropped" in n for n in out.notices)
    assert session.experiments_remaining == 0


def test_hypothesis_parse_failure_not_fatal():
    session = new_session(env_by_id("hooke"), "L1")
    out = session.submit_turn(turn(formula="F / / k"))
    assert out.hypothesis_recorded
    assert out.parse_failure is not None
    assert session.status == "active"
    assert session.hypotheses[0].error is not None


def test_tall_formula_is_a_parse_failure():
    session = new_session(env_by_id("hooke"), "L1", test_quota=2)
    out = session.submit_turn(turn(flag=True, formula="F/k" + "+0*F" * 3000))
    assert out.oracle is None
    assert "too deeply" in out.parse_failure
    assert any(n.startswith("hypothesis not usable") for n in out.notices)
    # The tallest formula parse accepts still goes through the oracle.
    out = session.submit_turn(turn(flag=True, formula="F/k" + "-0*F" * 198))
    assert out.oracle is not None and out.oracle.equivalent
    assert session.status == "solved"


def test_true_names_are_unknown_under_l4():
    session = new_session(env_by_id("hooke"), "L4")
    out = session.submit_turn(turn(formula="F / k"))
    assert out.parse_failure is not None
    assert "unknown identifiers" in out.parse_failure
    ok = session.submit_turn(turn(formula="var_1 / var_2"))
    assert ok.parse_failure is None


def test_oracle_success_solves():
    session = new_session(env_by_id("hooke"), "L1", experiments_quota=10, test_quota=2)
    out = session.submit_turn(turn(flag=True, formula="F / k"))
    assert out.oracle is not None
    assert out.oracle.equivalent
    assert session.status == "solved"
    with pytest.raises(TerminalSession):
        session.submit_turn(turn())


def test_oracle_failure_reports_back():
    session = new_session(env_by_id("hooke"), "L1", test_quota=2)
    out = session.submit_turn(turn(flag=True, formula="F * k"))
    assert out.oracle is not None and not out.oracle.equivalent
    assert session.status == "active"
    assert session.tests_remaining == 1
    packet = session.observation_packet()
    assert packet.last_oracle_result == {"formula": "F * k", "equivalent": False}


def test_masked_oracle_uses_display_names():
    session = new_session(env_by_id("hooke"), "L4", test_quota=2)
    out = session.submit_turn(turn(flag=True, formula="var_1 / var_2"))
    assert out.oracle is not None
    assert out.oracle.equivalent
    assert session.status == "solved"


def test_exposed_dummy_is_judged_over_its_domain():
    session = new_session(env_by_id("pendulum"), "L1", test_quota=2,
                          expose_dummies=True)
    assert list(session.observation_packet().controllable_variables) == [
        "l", "g", "theta_0"]
    out = session.submit_turn(
        turn(flag=True, formula="2*np.pi*np.sqrt(l/g)*theta_0"))
    assert out.oracle is not None and not out.oracle.equivalent
    assert out.oracle.method == "numeric"
    out = session.submit_turn(
        turn(flag=True, formula="2*np.pi*np.sqrt(l/g)*theta_0/theta_0"))
    assert out.oracle is not None and out.oracle.equivalent
    assert out.oracle.method == "numeric"
    assert session.status == "solved"
    hypotheses = session.transcript()["hypotheses"]
    assert [(h["tested"], h["equivalent"], h["method"]) for h in hypotheses] == [
        (True, False, "numeric"), (True, True, "numeric")]


def test_test_skipped_notices():
    session = new_session(env_by_id("hooke"), "L1", test_quota=1)
    out = session.submit_turn(turn(flag=True))
    assert out.oracle is None
    assert any("no hypothesis" in n for n in out.notices)
    out = session.submit_turn(turn(flag=True, formula="F +"))
    assert out.oracle is None
    assert any("did not parse" in n for n in out.notices)
    session.submit_turn(turn(flag=True, formula="F * k"))  # consumes the only test
    out = session.submit_turn(turn(flag=True, formula="F / k"))
    assert out.oracle is None
    assert any("test quota exhausted" in n for n in out.notices)


def test_exhaustion_when_both_quotas_hit_zero():
    session = new_session(env_by_id("hooke"), "L1", experiments_quota=1, test_quota=1)
    out = session.submit_turn(turn(
        [{"F": 1.0, "k": 1.0}], flag=True, formula="F * k"))
    assert out.status == "exhausted"
    assert session.status == "exhausted"


def test_solved_wins_over_exhaustion():
    session = new_session(env_by_id("hooke"), "L1", experiments_quota=1, test_quota=1)
    out = session.submit_turn(turn(
        [{"F": 1.0, "k": 1.0}], flag=True, formula="F / k"))
    assert out.status == "solved"


def test_turn_index_counts_every_submit():
    session = new_session(env_by_id("hooke"), "L1")
    session.submit_turn(turn())
    session.submit_turn(turn())
    assert session.turn_index == 2
    assert session.transcript()["turn_count"] == 2


def test_display_space_validity_reason():
    import re

    session = new_session(env_by_id("env_409"), "L4", experiments_quota=10)
    proposal = {"var_1": 1.0, "var_2": 1.0, "var_3": 0.5, "var_4": 0.9}
    out = session.submit_turn(turn([proposal]))
    record = out.executed[0]
    assert record.invalid_reason is not None
    assert "var_4" in record.invalid_reason and "var_3" in record.invalid_reason
    # the true names r and a must not appear as standalone tokens
    tokens = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", record.invalid_reason))
    assert "r" not in tokens and "a" not in tokens


def test_transcript_excludes_priors_and_timing():
    session = new_session(env_by_id("hooke"), "L4", experiments_quota=5, test_quota=2,
                          seed=7, agent_name="tester")
    session.submit_turn(turn([{"var_1": 1.0, "var_2": 2.0}], formula="var_1"))
    doc = session.transcript()
    text = json.dumps(doc)
    assert "name_map" not in text
    assert "timing" not in text and "elapsed" not in text
    assert doc["level"] == "L4"
    assert doc["agent"] == "tester"
    assert doc["experiments_used"] == 1
    assert doc["hypotheses"][0]["formula"] == "var_1"
    assert session.turn_timings  # kept in memory, just not serialized


def test_finish_and_fail():
    session = new_session(env_by_id("hooke"), "L1")
    session.finish()
    assert session.status == "exhausted"
    session2 = new_session(env_by_id("hooke"), "L1")
    session2.fail("agent crashed")
    assert session2.status == "protocol_failure"
    assert session2.transcript()["failure_reason"] == "agent crashed"
    session2.fail("second call ignored")
    assert session2.transcript()["failure_reason"] == "agent crashed"


def test_packet_wire_round_trip():
    session = new_session(env_by_id("hooke"), "L1", experiments_quota=10, test_quota=2)
    session.submit_turn(turn([{"F": 1.0, "k": 10.0}], flag=True, formula="F * k"))
    packet = session.observation_packet()
    wire = packet.to_wire()
    again = ObservationPacket.from_wire(json.loads(json.dumps(wire)))
    assert again == packet
    assert list(wire) == [
        "problem_description", "controllable_variables", "observable_variable",
        "historical_experiments", "quota", "last_oracle_result",
    ]


@pytest.mark.parametrize(
    "broken",
    [
        "not an object",
        {},
        {"problem_description": "x"},
        {"problem_description": "x", "controllable_variables": {},
         "observable_variable": {}, "historical_experiments": [],
         "quota": {"experiments_quota": 1}},
        {"problem_description": "x", "controllable_variables": {},
         "observable_variable": {}, "historical_experiments": [],
         "quota": {"experiments_quota": -1, "test_quota": 0}},
        {"problem_description": "x", "controllable_variables": {},
         "observable_variable": {}, "historical_experiments": [],
         "quota": {"experiments_quota": True, "test_quota": 0}},
        {"problem_description": "x", "controllable_variables": {},
         "observable_variable": {}, "historical_experiments": {},
         "quota": {"experiments_quota": 1, "test_quota": 0}},
    ],
)
def test_packet_wire_errors(broken):
    with pytest.raises(WireFormatError):
        ObservationPacket.from_wire(broken)


def test_new_session_level_labels():
    session = new_session(env_by_id("hooke"), "L3")
    assert session.mask == LEVELS["L3"]
    with pytest.raises(ValueError):
        new_session(env_by_id("hooke"), "L5")
    direct = Session(env_by_id("hooke"), LEVELS["L2"])
    assert direct.mask == LEVELS["L2"]


def test_dummy_values_recorded_but_inert():
    session = new_session(env_by_id("pendulum"), "L1", expose_dummies=True)
    assert list(session.header.controllable_variables) == ["l", "g", "theta_0"]
    out = session.submit_turn(turn([
        {"l": 1.0, "g": 9.8, "theta_0": 0.1},
        {"l": 1.0, "g": 9.8, "theta_0": 0.2},
    ]))
    a, b = out.executed
    assert a.value == b.value
    assert a.assignment["theta_0"] == 0.1
