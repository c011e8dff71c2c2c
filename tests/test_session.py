import json
import math
import time
from types import SimpleNamespace

import pytest

from eqgym import environment, evaluation, expr
from eqgym.agents import agent_from_spec
from eqgym.environment import (
    LEVELS,
    bundled_environments,
    load_spec,
    spec_to_dict,
)
from eqgym.expr import EQUIV_POINTS
from eqgym.harness import cell_seed, judge_seed, run_session
from eqgym.session import (
    ObservationPacket,
    Session,
    TerminalSession,
    WireFormatError,
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
    session = Session(env_by_id("hooke"), "L1", experiments_quota=10, test_quota=2)
    packet = session.observation_packet()
    assert packet.problem_description == env_by_id("hooke").context
    assert list(packet.controllable_variables) == ["F", "k"]
    assert packet.observable_variable == {
        "x": "The extension of the spring in meters (m)."}
    assert packet.historical_experiments == []
    assert packet.quota == {"experiments_quota": 10, "test_quota": 2}
    assert packet.last_oracle_result is None


def test_experiments_consume_quota_and_flatten():
    session = Session(env_by_id("hooke"), "L1", experiments_quota=10, test_quota=2)
    out = session.submit_turn(turn([{"F": 1.0, "k": 10.0}, {"F": 2.0, "k": -1.0}]))
    assert len(out.executed) == 2
    assert session.experiments_remaining == 8
    packet = session.observation_packet()
    assert packet.historical_experiments[0] == {"F": 1.0, "k": 10.0, "x": 0.1}
    entry = packet.historical_experiments[1]
    assert entry["F"] == 2.0 and entry["k"] == -1.0
    assert "x" not in entry
    assert entry["invalid"].startswith("out-of-domain: k")




@pytest.mark.parametrize("env_id, level, turns", [
    ("hooke", "L1", [
        [{"F": 1.0, "k": 10.0}, {"F": 2.0, "k": -1.0}],   # valid, k < 0
        [{"F": 500.0, "k": 1.0}],                          # out of domain
        [],
        [{"F": 3.0, "k": 4.0}, {"F": 1.0}],                # valid, malformed
    ]),
    ("env_409", "L4", [
        [{"var_1": 1.0, "var_2": 1.0, "var_3": 2.0, "var_4": 0.5}],  # r < a
        [{"var_1": 1.0, "var_2": 1.0, "var_3": 0.5, "var_4": 0.9}],  # r > a
        [{"var_1": 1.0, "var_2": 1.0, "var_3": 2.0, "var_4": 5.0}],  # r outside
    ]),
])
def test_history_matches_records_after_every_turn(env_id, level, turns):
    session = Session(env_by_id(env_id), level, experiments_quota=20)
    expected = []
    for experiments in turns:
        expected += session.submit_turn(turn(experiments)).executed
        assert session.observation_packet().historical_experiments == expected
        assert session.transcript()["experiments"] == expected
    reasons = [e.get("invalid", "") for e in session.transcript()["experiments"]]
    assert any(r.startswith("out-of-domain") for r in reasons)
    assert any(r == "" for r in reasons)
    if env_id == "env_409":
        assert any(r.startswith("validity") for r in reasons)


def test_packet_list_is_not_the_history():
    session = Session(env_by_id("hooke"), "L1", experiments_quota=10)
    expected = session.submit_turn(
        turn([{"F": 1.0, "k": 10.0}, {"F": 2.0, "k": 5.0}])).executed
    assert expected == [{"F": 1.0, "k": 10.0, "x": 0.1}, {"F": 2.0, "k": 5.0, "x": 0.4}]
    first = session.observation_packet()
    first.historical_experiments.append({"F": 9.0, "k": 9.0, "x": 1.0})
    assert session.observation_packet().historical_experiments == expected
    assert session.transcript()["experiments"] == expected
    session.observation_packet().historical_experiments.clear()
    session.transcript()["experiments"].clear()
    assert session.observation_packet().historical_experiments == expected
    assert session.transcript()["experiments"] == expected


def test_each_experiment_is_recorded_once_as_its_history_entry():
    # One dict per experiment: the entry a turn returns is the one that
    # every later packet and the transcript carry, never a copy.
    def same_objects(got, want):
        return len(got) == len(want) and all(a is b for a, b in zip(got, want))

    session = Session(env_by_id("multi_energy"), "L1", experiments_quota=400, seed=11)
    agent = agent_from_spec("scripted:random").build(session)
    entries = []
    while session.experiments_remaining:
        packet = session.observation_packet()
        assert same_objects(packet.historical_experiments, entries)
        entries += session.submit_turn(agent.act(packet)).executed
    assert len(entries) == 400
    assert same_objects(session.observation_packet().historical_experiments, entries)
    assert same_objects(session.transcript()["experiments"], entries)


def test_packets_share_the_header_dicts_and_the_last_verdict_until_the_next_test():
    session = Session(env_by_id("hooke"), "L3", experiments_quota=10, test_quota=3)
    shared = ("problem_description", "controllable_variables", "observable_variable",
              "last_oracle_result")
    packets = [session.observation_packet()]
    for test in (False, True, False, False, True, False):
        session.submit_turn(turn([{"var_1": 1.0, "var_2": 2.0}], flag=test,
                                 formula="var_1 * var_2"))
        packets.append(session.observation_packet())
    assert [p.last_oracle_result for p in packets[:2]] == [None, None]
    verdicts = {id(p.last_oracle_result) for p in packets[2:]}
    assert len(verdicts) == 2
    for before, after in zip(packets, packets[1:]):
        tested = after.quota["test_quota"] < before.quota["test_quota"]
        for name in shared:
            same = getattr(before, name) is getattr(after, name)
            assert same == (name != "last_oracle_result" or not tested), name
    assert packets[-1].last_oracle_result == {"formula": "var_1 * var_2",
                                              "equivalent": False}


def test_a_mutated_wire_document_leaves_the_next_packet_unchanged():
    session = Session(env_by_id("hooke"), "L1", experiments_quota=10, test_quota=2)
    session.submit_turn(turn([{"F": 1.0, "k": 10.0}], flag=True, formula="F * k"))
    wire = session.observation_packet().to_wire()
    want = json.loads(json.dumps(wire))
    for value in wire.values():
        if isinstance(value, dict):
            value.clear()
    wire["historical_experiments"][0].clear()
    assert session.observation_packet().to_wire() == want


def test_each_hypothesis_is_walked_for_its_variables_once(monkeypatch):
    # The session's unknown-identifier check and the oracle's unbound-
    # variable check each walked a tested hypothesis for its free
    # variables.  The set is now kept on the tree and renamed with it.
    environments = bundled_environments()  # their laws are walked on load
    walks = []
    original = expr._variable_names

    def counting(tree):
        walks.append(tree)
        return original(tree)

    monkeypatch.setattr(expr, "_variable_names", counting)
    hypotheses = []
    for env in environments:
        for level in ("L1", "L4"):
            transcript = run_session(env, level, agent_from_spec("scripted:power_law"), seed=5)
            hypotheses += transcript["hypotheses"]
    assert sum(h["tested"] for h in hypotheses) >= 20
    assert len(walks) == len(hypotheses) == sum(h["parsed"] for h in hypotheses)


def test_each_validity_constraint_is_rendered_once(monkeypatch):
    # At L4 the session runs its experiments on the environment renamed to
    # display names, so a violated constraint is rendered once, in those
    # names, and its true-name text never.
    env = load_spec(spec_to_dict(env_by_id("env_409")))  # nothing rendered yet
    rendered = []
    original = environment.render

    def counting(tree):
        rendered.append(original(tree))
        return rendered[-1]

    monkeypatch.setattr(environment, "render", counting)
    transcript = run_session(env, "L4", agent_from_spec("scripted:random"),
                             experiments_quota=1600, seed=11)
    monkeypatch.undo()
    invalid = [e["invalid"] for e in transcript["experiments"] if "invalid" in e]
    assert len(invalid) >= 400
    assert set(invalid) == {"validity: constraint var_4 < var_3 violated"}
    # The renamed law's text, then each side of the renamed constraint once.
    assert rendered == [env.anonymous.equation_text, "var_4", "var_3"]
    assert "text" not in env.validity[0].__dict__
    assert [c.text for c in env.validity] == ["r < a"]


@pytest.mark.parametrize("level", ["L1", "L4"])
def test_a_fresh_environment_compiles_only_its_law_and_constraints(level, monkeypatch):
    # Experiments call the compiled functions the environment keeps, so a
    # power-law sweep compiles the law, and env_409's two constraint sides,
    # once per environment: a second session compiles nothing.
    compiled = []
    original = expr._compile

    def counting(tree):
        compiled.append(tree)
        return original(tree)

    monkeypatch.setattr(expr, "_compile", counting)
    for env in bundled_environments():
        fresh = load_spec(spec_to_dict(env))  # trees never compiled
        for first in (True, False):
            compiled.clear()
            session = Session(fresh, level)
            agent = agent_from_spec("scripted:power_law").build(session)
            out = session.submit_turn(agent.act(session.observation_packet()))
            assert len(out.executed) == 1 + 2 * len(env.inputs)
            shown = session.shown_env
            trees = [shown.equation] + [t for c in shown.validity for t in (c.left, c.right)]
            assert sorted(map(id, compiled)) == (sorted(map(id, trees)) if first else [])


@pytest.mark.parametrize("level", ["L1", "L4"])
def test_the_oracle_gets_the_parsed_tree_unless_names_change(level, monkeypatch):
    judged = []
    original = evaluation.oracle_test

    def recording(env, hypothesis, seed=0):
        judged.append(hypothesis)
        return original(env, hypothesis, seed=seed)

    monkeypatch.setattr(evaluation, "oracle_test", recording)
    session = Session(env_by_id("hooke"), level, test_quota=2)
    formula = "F / k" if level == "L1" else "var_1 / var_2"
    assert session.submit_turn(turn(flag=True, formula=formula)).oracle.equivalent
    parsed = session.hypotheses[0].parsed
    if level == "L1":  # display names are the true names: nothing to rename
        assert judged == [parsed] and judged[0] is parsed
    else:
        assert judged[0] is not parsed and judged[0] == expr.parse("F / k")
        assert judged[0].__dict__["_free"] == {"F", "k"}
        assert parsed.__dict__["_free"] == {"var_1", "var_2"}


def test_an_overflowing_input_is_named_in_display_names():
    # A domain may reach past the evaluator's 1e300 overflow limit; the
    # overflow's reason names the variable, and at L4 it must not be the
    # true name.
    env = load_spec({
        "id": "wide",
        "context": "A secret mass is doubled.",
        "variables": [
            {"name": "secret_mass", "description": "Mass (kg).", "role": "input",
             "domain": {"lower": 1.0, "upper": 1e308}},
            {"name": "doubled_mass", "description": "Twice the mass (kg).",
             "role": "output"},
        ],
        "equation": "2 * secret_mass",
    })
    session = Session(env, "L4", experiments_quota=5)
    out = session.submit_turn(turn([{"var_1": 1e301}, {"var_1": 3.0}]))
    assert out.executed == [
        {"var_1": 1e301, "invalid": "overflow: var_1"},
        {"var_1": 3.0, "var_out": 6.0},
    ]
    text = json.dumps(session.transcript())
    assert "secret" not in text and "doubled" not in text


def test_malformed_proposals_cost_nothing():
    session = Session(env_by_id("hooke"), "L1", experiments_quota=5, test_quota=2)
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
    session = Session(env_by_id("hooke"), "L1", experiments_quota=5, test_quota=2)
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


def test_proposal_notice_follows_its_own_order_and_entry_the_controllables():
    session = Session(env_by_id("hooke"), "L1", experiments_quota=5, test_quota=2)
    out = session.submit_turn(turn([{"k": math.nan, "F": "high"}, {"k": 2, "F": 1.0}]))
    assert out.notices == ["experiment proposal skipped: value for k must be a finite number"]
    assert list(out.executed[0].items()) == [("F", 1.0), ("k", 2.0), ("x", 0.5)]
    assert type(out.executed[0]["k"]) is float


def test_overbudget_proposals_dropped_with_notice():
    session = Session(env_by_id("hooke"), "L1", experiments_quota=3, test_quota=2)
    proposals = [{"F": float(i + 1), "k": 10.0} for i in range(5)]
    out = session.submit_turn(turn(proposals))
    assert len(out.executed) == 3
    assert out.dropped == 2
    assert any("dropped" in n for n in out.notices)
    assert session.experiments_remaining == 0


_SKIPPED_PROPOSALS = "experiment proposals skipped: next_experiments must be a list"
_MISTYPED_FORMULA = ("hypothesis not usable: "
                     "current_hypothesis_formula must be a string or null")


_NO_HYPOTHESIS = "test skipped: no hypothesis submitted this turn"
_MISTYPED_FLAG = "test skipped: test_hypothesis_flag must be true or false"


@pytest.mark.parametrize("experiments, flag, formula, notices", [
    (5, True, "", [_SKIPPED_PROPOSALS, _NO_HYPOTHESIS]),
    ({"F": 1.0, "k": 10.0}, True, None, [_SKIPPED_PROPOSALS, _NO_HYPOTHESIS]),
    ("F=1, k=10", True, None, [_SKIPPED_PROPOSALS, _NO_HYPOTHESIS]),
    (None, True, 5, [_MISTYPED_FORMULA, _NO_HYPOTHESIS]),
    ([], True, b"F / k", [_MISTYPED_FORMULA, _NO_HYPOTHESIS]),
    (5, True, ["F / k"], [_SKIPPED_PROPOSALS, _MISTYPED_FORMULA, _NO_HYPOTHESIS]),
    ([], "false", "F * k", [_MISTYPED_FLAG]),
    ([], 1, "F * k", [_MISTYPED_FLAG]),
], ids=["int-proposals", "dict-proposals", "text-proposals", "int-formula",
        "bytes-formula", "both", "text-flag", "int-flag"])
def test_a_mistyped_turn_is_a_notice_and_costs_nothing(experiments, flag, formula, notices):
    session = Session(env_by_id("hooke"), "L1", experiments_quota=5, test_quota=2)
    out = session.submit_turn(SimpleNamespace(
        next_experiments=experiments, test_hypothesis_flag=flag,
        current_hypothesis_formula=formula))
    assert out.notices == notices
    assert out.executed == [] and out.malformed == 0 and out.oracle is None
    assert out.hypothesis_recorded == (formula == "F * k") and out.parse_failure is None
    assert (session.experiments_remaining, session.tests_remaining) == (5, 2)
    assert session.status == "active"
    json.dumps(session.transcript())


def test_a_turn_may_leave_out_or_null_its_proposals_and_formula():
    session = Session(env_by_id("hooke"), "L1", experiments_quota=5, test_quota=2)
    for empty in (SimpleNamespace(), SimpleNamespace(next_experiments=None,
                                                     current_hypothesis_formula=None)):
        out = session.submit_turn(empty)
        assert out.notices == [] and out.executed == [] and not out.hypothesis_recorded
    out = session.submit_turn(SimpleNamespace(next_experiments=({"F": 1.0, "k": 10.0},)))
    assert out.executed == [{"F": 1.0, "k": 10.0, "x": 0.1}]


def test_hypothesis_parse_failure_not_fatal():
    session = Session(env_by_id("hooke"), "L1")
    out = session.submit_turn(turn(formula="F / / k"))
    assert out.hypothesis_recorded
    assert out.parse_failure is not None
    assert session.status == "active"
    assert session.hypotheses[0].error is not None


def test_tall_formula_is_a_parse_failure():
    session = Session(env_by_id("hooke"), "L1", test_quota=2)
    started = time.perf_counter()
    out = session.submit_turn(turn(flag=True, formula="F/k" + "+0*F" * 1_000_000))
    assert time.perf_counter() - started < 2  # a 4 MB formula, rejected early
    assert out.oracle is None
    assert "too deeply" in out.parse_failure
    assert any(n.startswith("hypothesis not usable") for n in out.notices)
    # The tallest formula parse accepts still goes through the oracle.
    out = session.submit_turn(turn(flag=True, formula="F/k" + "-0*F" * 198))
    assert out.oracle is not None and out.oracle.equivalent
    assert session.status == "solved"


def test_long_balanced_formula_is_read_to_its_end():
    # 2**15 leaves but only 16 levels tall, so nothing stops the parse
    # before the bad character at the end of its 260 KB.
    formula = "F"
    for _ in range(15):
        formula = "(" + formula + " +\u3000" + formula + ")"
    session = Session(env_by_id("hooke"), "L1", test_quota=2)
    started = time.perf_counter()
    out = session.submit_turn(turn(flag=True, formula=formula + " $"))
    assert time.perf_counter() - started < 5
    assert out.oracle is None
    offset = len((formula + " ").encode("utf-8"))
    assert f"unexpected character '$' at byte {offset}" in out.parse_failure


def test_true_names_are_unknown_under_l4():
    session = Session(env_by_id("hooke"), "L4")
    out = session.submit_turn(turn(formula="F / k"))
    assert out.parse_failure is not None
    assert "unknown identifiers" in out.parse_failure
    ok = session.submit_turn(turn(formula="var_1 / var_2"))
    assert ok.parse_failure is None


def test_oracle_success_solves():
    session = Session(env_by_id("hooke"), "L1", experiments_quota=10, test_quota=2)
    out = session.submit_turn(turn(flag=True, formula="F / k"))
    assert out.oracle is not None
    assert out.oracle.equivalent
    assert session.status == "solved"
    with pytest.raises(TerminalSession):
        session.submit_turn(turn())


def test_oracle_failure_reports_back():
    session = Session(env_by_id("hooke"), "L1", test_quota=2)
    out = session.submit_turn(turn(flag=True, formula="F * k"))
    assert out.oracle is not None and not out.oracle.equivalent
    assert session.status == "active"
    assert session.tests_remaining == 1
    packet = session.observation_packet()
    assert packet.last_oracle_result == {"formula": "F * k", "equivalent": False}


def test_one_replicate_judges_every_level_and_agent_on_one_point_set():
    env = env_by_id("hooke")
    judge = judge_seed(5, "hooke", 0)
    verdicts = []
    for level, formula in (("L1", "F/k + F**2/1e6"), ("L4", "var_1/var_2 + var_1**2/1e6")):
        for agent in ("power_law", "random"):
            session = Session(env, level, test_quota=1, judge_seed=judge,
                              seed=cell_seed(5, "hooke", level, agent, 0))
            verdicts.append(session.submit_turn(turn(flag=True, formula=formula)).oracle)
    assert len({v.points_compared for v in verdicts}) == 1
    assert len({v.max_rel_error.hex() for v in verdicts}) == 1
    other = Session(env, "L1", test_quota=1, judge_seed=judge_seed(5, "hooke", 1))
    verdict = other.submit_turn(turn(flag=True, formula="F/k + F**2/1e6")).oracle
    assert verdict.max_rel_error != verdicts[0].max_rel_error


def test_a_session_without_a_judge_seed_judges_on_its_seed(monkeypatch):
    judged = []
    original = evaluation.oracle_test

    def recording(env, hypothesis, seed=0):
        judged.append(seed)
        return original(env, hypothesis, seed=seed)

    monkeypatch.setattr(evaluation, "oracle_test", recording)
    env = env_by_id("hooke")
    session = Session(env, "L1", test_quota=1, seed=11)
    out = session.submit_turn(turn(flag=True, formula="F/k + F**2/1e6"))
    assert judged == [11]
    assert out.oracle == original(env, expr.parse("F/k + F**2/1e6"), seed=11)


def test_masked_oracle_uses_display_names():
    session = Session(env_by_id("hooke"), "L4", test_quota=2)
    out = session.submit_turn(turn(flag=True, formula="var_1 / var_2"))
    assert out.oracle is not None
    assert out.oracle.equivalent
    assert session.status == "solved"


def test_hypothesis_naming_a_dummy_costs_no_test():
    session = Session(env_by_id("pendulum"), "L1", test_quota=2)
    assert list(session.observation_packet().controllable_variables) == ["l", "g"]
    out = session.submit_turn(
        turn(flag=True, formula="2*np.pi*np.sqrt(l/g)*theta_0/theta_0"))
    assert out.oracle is None
    assert out.parse_failure == "unknown identifiers: theta_0"
    assert session.tests_remaining == 2
    hypotheses = session.transcript()["hypotheses"]
    assert [(h["parsed"], h["tested"]) for h in hypotheses] == [(False, False)]


def test_hypothesis_undefined_where_the_law_is_defined_is_rejected():
    # F - 5 < 0 on most of hooke's F domain, so the hypothesis agrees with
    # F / k only where it is defined.
    session = Session(env_by_id("hooke"), "L1", test_quota=2)
    out = session.submit_turn(
        turn(flag=True, formula="F/k*np.sqrt(F-5)/np.sqrt(F-5)"))
    assert out.oracle is not None and not out.oracle.equivalent
    assert out.oracle.method == "numeric"
    assert out.oracle.points_compared == EQUIV_POINTS
    assert out.oracle.detail.startswith("hypothesis undefined at ")
    assert math.isfinite(out.oracle.max_rel_error)
    assert session.status == "active"
    assert session.tests_remaining == 1


@pytest.mark.parametrize("formula", [
    "F/k + 0*np.exp(F*1000)",
    "F/k*(1 + 0*np.exp(1e3*F))",
    "F/k + 1e300*F*F - 1e300*F*F",
])
def test_hypothesis_that_overflows_where_the_law_is_defined_is_rejected(formula):
    # Each reduces to F / k on paper, but overflows at most of the points.
    session = Session(env_by_id("hooke"), "L1", test_quota=2)
    out = session.submit_turn(turn(flag=True, formula=formula))
    assert out.oracle is not None and not out.oracle.equivalent
    assert out.oracle.method == "numeric"
    assert out.oracle.points_compared == EQUIV_POINTS
    assert out.oracle.detail.startswith("hypothesis undefined at ")
    assert session.status == "active"


def test_test_skipped_notices():
    session = Session(env_by_id("hooke"), "L1", test_quota=1)
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
    session = Session(env_by_id("hooke"), "L1", experiments_quota=1, test_quota=1)
    out = session.submit_turn(turn(
        [{"F": 1.0, "k": 1.0}], flag=True, formula="F * k"))
    assert out.status == "exhausted"
    assert session.status == "exhausted"


def test_solved_wins_over_exhaustion():
    session = Session(env_by_id("hooke"), "L1", experiments_quota=1, test_quota=1)
    out = session.submit_turn(turn(
        [{"F": 1.0, "k": 1.0}], flag=True, formula="F / k"))
    assert out.status == "solved"


def test_turn_index_counts_every_submit():
    session = Session(env_by_id("hooke"), "L1")
    session.submit_turn(turn())
    session.submit_turn(turn())
    assert session.turn_index == 2
    assert session.transcript()["turn_count"] == 2


def test_display_space_validity_reason():
    import re

    session = Session(env_by_id("env_409"), "L4", experiments_quota=10)
    proposal = {"var_1": 1.0, "var_2": 1.0, "var_3": 0.5, "var_4": 0.9}
    out = session.submit_turn(turn([proposal]))
    reason = out.executed[0]["invalid"]
    assert "var_4" in reason and "var_3" in reason
    # the true names r and a must not appear as standalone tokens
    tokens = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", reason))
    assert "r" not in tokens and "a" not in tokens


def test_transcript_excludes_priors_and_timing():
    session = Session(env_by_id("hooke"), "L4", experiments_quota=5, test_quota=2,
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


def test_finish_and_fail():
    session = Session(env_by_id("hooke"), "L1")
    session.finish()
    assert session.status == "exhausted"
    session2 = Session(env_by_id("hooke"), "L1")
    session2.fail("agent crashed")
    assert session2.status == "protocol_failure"
    assert session2.transcript()["failure_reason"] == "agent crashed"
    session2.fail("second call ignored")
    assert session2.transcript()["failure_reason"] == "agent crashed"


def test_packet_wire_round_trip():
    session = Session(env_by_id("hooke"), "L1", experiments_quota=10, test_quota=2)
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
        {"problem_description": "x", "controllable_variables": {},
         "observable_variable": {}, "historical_experiments": [],
         "quota": {"experiments_quota": 1, "test_quota": 0},
         "last_oracle_result": [True]},
    ],
)
def test_packet_wire_errors(broken):
    with pytest.raises(WireFormatError):
        ObservationPacket.from_wire(broken)


def test_new_session_level_labels():
    session = Session(env_by_id("hooke"), "L3")
    assert session.mask == LEVELS["L3"]
    with pytest.raises(ValueError):
        Session(env_by_id("hooke"), "L5")
    direct = Session(env_by_id("hooke"), LEVELS["L2"])
    assert direct.mask == LEVELS["L2"]


@pytest.mark.parametrize("quotas", [{"experiments_quota": -1}, {"test_quota": -1}])
def test_new_session_rejects_a_negative_quota(quotas):
    with pytest.raises(ValueError, match="quotas must be >= 0"):
        Session(env_by_id("hooke"), "L1", **quotas)


def test_proposal_binding_a_dummy_is_skipped_free():
    session = Session(env_by_id("pendulum"), "L1", experiments_quota=5)
    out = session.submit_turn(turn([{"l": 1.0, "g": 9.8, "theta_0": 0.1}]))
    assert out.executed == [] and out.malformed == 1
    assert out.notices == [
        "experiment proposal skipped: bad variable set: unknown ['theta_0']"]
    assert session.experiments_remaining == 5


def test_proposal_with_keys_of_mixed_types_is_skipped_free():
    # The notice lists the keys in the order of their text: sorted() alone
    # cannot order 1 against "x".
    session = Session(env_by_id("hooke"), "L1", experiments_quota=5)
    out = session.submit_turn(turn([{"F": 1.0, 1: 2.0, "x": 3.0}]))
    assert out.executed == [] and out.malformed == 1
    assert out.notices == [
        "experiment proposal skipped: bad variable set: missing ['k'], unknown [1, 'x']"]
    assert session.experiments_remaining == 5
    assert session.status == "active"
