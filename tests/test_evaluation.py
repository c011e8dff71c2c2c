import math

import pytest

from eqgym.environment import bundled_environments
from eqgym.evaluation import (
    AggregateReport,
    aggregate,
    difficulty,
    fit_report,
    oracle_test,
    unique_hypotheses,
)
from eqgym.expr import parse


def env_by_id(env_id):
    return next(e for e in bundled_environments() if e.env_id == env_id)


def history_from_pairs(pairs):
    return [({"x": float(p)}, float(o)) for p, o in pairs]


def test_hand_worked_example():
    # Identity hypothesis against observations at half the prediction.
    report = fit_report(parse("x"), history_from_pairs([(2, 1), (4, 2), (6, 3)]))
    assert report.r2 == -6.0
    assert report.mse == pytest.approx(14.0 / 3.0)
    assert report.kendall_tau == 1.0
    assert report.mape == 1.0
    assert report.n_points == 3
    assert report.n_skipped == 0


def test_perfect_fit():
    report = fit_report(parse("x*x"), [({"x": v}, v * v) for v in (1.0, 2.0, 3.0)])
    assert report.r2 == 1.0
    assert report.mse == 0.0
    assert report.kendall_tau == 1.0
    assert report.mape == 0.0


def test_zero_variance_observations():
    flat = [({"x": v}, 5.0) for v in (1.0, 2.0, 3.0)]
    assert fit_report(parse("5"), flat).r2 == 1.0
    assert fit_report(parse("x"), flat).r2 is None


def test_anticorrelated_tau():
    report = fit_report(parse("0 - x"), history_from_pairs([(1, 1), (2, 2), (3, 3)]))
    assert report.kendall_tau == -1.0


def test_tau_handles_ties():
    history = [({"x": 1.0}, 1.0), ({"x": 1.0}, 2.0), ({"x": 2.0}, 3.0),
               ({"x": 3.0}, 3.0)]
    report = fit_report(parse("x"), history)
    # tau-b with ties on both sides: concordant 4, discordant 0,
    # one tied pair per side -> 4 / sqrt(5 * 5)
    assert report.kendall_tau == pytest.approx(4.0 / 5.0)


def test_all_ties_tau_undefined():
    report = fit_report(parse("5"), [({"x": 1.0}, 5.0), ({"x": 2.0}, 5.0)])
    assert report.kendall_tau is None


def test_mape_excludes_near_zero_observations():
    history = [({"x": 1.0}, 0.0), ({"x": 2.0}, 2.0)]
    report = fit_report(parse("x"), history)
    assert report.mape == 0.0  # only the x=2 point counts
    all_zero = [({"x": 1.0}, 0.0), ({"x": 2.0}, 1e-13)]
    assert fit_report(parse("x"), all_zero).mape is None


def test_mostly_domain_errors_undefined():
    history = [({"x": -1.0}, 1.0), ({"x": -2.0}, 1.0), ({"x": 4.0}, 2.0)]
    report = fit_report(parse("np.sqrt(x)"), history)
    assert report.n_skipped == 2
    assert report.n_points == 1
    assert report.r2 is None and report.mse is None
    assert report.kendall_tau is None and report.mape is None


def test_half_domain_errors_still_defined():
    history = [({"x": -1.0}, 1.0), ({"x": 4.0}, 2.0), ({"x": 9.0}, 3.0),
               ({"x": 16.0}, 4.0)]
    report = fit_report(parse("np.sqrt(x)"), history)
    assert report.n_skipped == 1
    assert report.r2 == 1.0


def test_single_point():
    report = fit_report(parse("x"), [({"x": 2.0}, 2.0)])
    assert report.kendall_tau is None
    assert report.r2 == 1.0
    assert report.mape == 0.0


def test_empty_history_rejected():
    with pytest.raises(ValueError):
        fit_report(parse("x"), [])


def test_difficulty_buckets():
    d310 = difficulty(env_by_id("env_310"))
    assert d310.variable_count == 3
    assert d310.group == "1-3"
    d409 = difficulty(env_by_id("env_409"))
    assert d409.variable_count == 4
    assert d409.group == "4-6"
    assert difficulty(env_by_id("series_resistance")).group == "7-9"
    assert difficulty(env_by_id("multi_energy")).group == "10+"
    assert d310.equation_length > d409.equation_length > 0


def test_unique_hypotheses_collapse():
    formulas = ["F / k", "F/k", "F * k**-1", "k", "F + + k", "F + + k", "@@"]
    # three algebraic forms collapse to two, plus two distinct raw texts
    assert unique_hypotheses(formulas) == 4


def test_oracle_test_canonical_and_numeric():
    env = env_by_id("hooke")
    verdict = oracle_test(env, parse("F / k"), seed=1)
    assert verdict.equivalent and verdict.method == "canonical"
    verdict = oracle_test(env, parse("F * k"), seed=1)
    assert not verdict.equivalent and verdict.method == "numeric"


def make_transcript(agent, level, env_id, solved, experiments, tests, turns,
                    formulas):
    return {
        "agent": agent,
        "level": level,
        "env_id": env_id,
        "solved": solved,
        "status": "solved" if solved else "exhausted",
        "experiments_used": experiments,
        "tests_used": tests,
        "turn_count": turns,
        "hypotheses": [{"formula": f} for f in formulas],
    }


def test_aggregate_means_cover_solved_only():
    transcripts = [
        make_transcript("A", "L1", "hooke", True, 5, 1, 2, ["F/k", "F / k"]),
        make_transcript("A", "L1", "pendulum", False, 30, 5, 9, ["l*g"]),
        make_transcript("A", "L1", "kepler", True, 7, 1, 4, ["d", "d**1.5", "d"]),
    ]
    report = aggregate(transcripts)
    (row,) = report.groups
    assert row.n_runs == 3 and row.n_solved == 2
    assert row.success_rate == pytest.approx(2 / 3)
    assert row.mean_experiments == pytest.approx(6.0)
    assert row.mean_tests == pytest.approx(1.0)
    assert row.mean_turns == pytest.approx(3.0)
    assert row.mean_unique_hypotheses == pytest.approx(1.5)  # (1 + 2) / 2
    assert row.mean_total_hypotheses == pytest.approx(2.5)
    # Resource use over solved runs: turns, experiments, and hypotheses
    # discarded before the solving one.
    assert row.mean_turns == pytest.approx(3.0)
    assert row.mean_experiments == pytest.approx(6.0)
    assert row.mean_unique_hypotheses - 1 == pytest.approx(0.5)


def test_aggregate_no_solved_runs_gives_null_means():
    transcripts = [make_transcript("A", "L4", "hooke", False, 10, 5, 8, ["F*k"])]
    report = aggregate(transcripts)
    (row,) = report.groups
    assert row.success_rate == 0.0
    assert row.mean_experiments is None
    assert "-" in report.to_tsv()


def test_aggregate_groups_and_sorting():
    transcripts = [
        make_transcript("B", "L4", "hooke", False, 1, 0, 1, []),
        make_transcript("A", "L4", "hooke", True, 1, 1, 1, ["F/k"]),
        make_transcript("A", "L1", "hooke", True, 1, 1, 1, ["F/k"]),
    ]
    report = aggregate(transcripts)
    keys = [(g.agent, g.level) for g in report.groups]
    assert keys == [("A", "L1"), ("A", "L4"), ("B", "L4")]


def test_tsv_headers_and_shape():
    transcripts = [make_transcript("A", "L1", "hooke", True, 5, 1, 2, ["F/k"])]
    tsv = aggregate(transcripts).to_tsv()
    lines = tsv.strip().split("\n")
    assert lines[0].split("\t") == [
        "Model", "Mode", "Acc (%)", "Experiments", "Tests", "Turns",
        "(U)Hyps", "Total Hyps",
    ]
    assert lines[1].split("\t") == ["A", "L1", "100.0", "5.0", "1.0", "2.0",
                                    "1.0", "1.0"]


def test_by_difficulty_breakdown():
    envs = bundled_environments()
    transcripts = [
        make_transcript("A", "L1", "hooke", True, 1, 1, 1, ["F/k"]),
        make_transcript("A", "L1", "env_409", False, 1, 1, 1, []),
        make_transcript("A", "L1", "multi_energy", False, 1, 1, 1, []),
    ]
    report = aggregate(transcripts, environments=envs)
    rows = {(d.group): d for d in report.by_difficulty}
    assert rows["1-3"].success_rate == 1.0
    assert rows["4-6"].success_rate == 0.0
    assert rows["10+"].n_runs == 1
    assert "Vars" in report.difficulty_tsv()


def test_solved_by_level_and_overlap():
    transcripts = [
        make_transcript("A", "L1", "hooke", True, 1, 1, 1, ["F/k"]),
        make_transcript("A", "L4", "hooke", True, 1, 1, 1, ["var_1/var_2"]),
        make_transcript("A", "L4", "env_409", False, 1, 1, 1, []),
    ]
    report = aggregate(transcripts)
    assert report.solved_by_level["A"]["hooke"] == ["L1", "L4"]
    assert report.solved_by_level["A"]["env_409"] == []
    overlap = report.overlap_tsv()
    assert "L1,L4" in overlap
    assert "\t-" in overlap


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate([])


def test_json_dict_shape():
    transcripts = [make_transcript("A", "L1", "hooke", True, 1, 1, 1, ["F/k"])]
    doc = aggregate(transcripts, environments=bundled_environments()).to_json_dict()
    assert set(doc) == {"groups", "by_difficulty", "solved_by_level"}
    assert doc["groups"][0]["agent"] == "A"
