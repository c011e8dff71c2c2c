import json
import math
import random
import re

import pytest

from eqgym.environment import (
    LEVELS,
    PLACEHOLDER_CONTEXT,
    PLACEHOLDER_CONTROLLABLE,
    PLACEHOLDER_OBSERVABLE,
    PriorMask,
    SchemaError,
    ValidationError,
    bundled_environments,
    load_directory,
    load_file,
    load_spec,
    render_observation,
    run_experiment,
)
from eqgym.expr import DomainError, Value, sample_assignments

MINIMAL = {
    "id": "demo",
    "context": "A ball of mass m is dropped from height h; air drag is negligible. Determine the impact speed v.",
    "variables": [
        {"name": "m", "description": "Mass in kilograms (kg).", "role": "input",
         "domain": {"lower": 0.1, "upper": 10.0}},
        {"name": "h", "description": "Drop height in meters (m).", "role": "input",
         "domain": {"lower": 0.1, "upper": 100.0}},
        {"name": "v", "description": "Impact speed in meters per second (m/s).",
         "role": "output"},
    ],
    "equation": "np.sqrt(2*9.8*h)",
}


def _spec(**overrides):
    data = {**MINIMAL, **overrides}
    return load_spec(data)


def test_load_minimal():
    env = _spec()
    assert env.env_id == "demo"
    assert env.input_names() == ("m", "h")
    assert env.output.name == "v"
    assert env.difficulty_group is None


@pytest.mark.parametrize(
    "mutation",
    [
        {"id": 5},
        {"context": None},
        {"variables": "nope"},
        {"equation": 42},
        {"equation": "np.frobnicate(h)"},
        {"equation": "h +"},
        {"validity": ["h < "]},
        {"validity": [3]},
        {"variables": [{"name": "m", "description": "d", "role": "widget",
                        "domain": {"lower": 0, "upper": 1}}]},
        {"variables": MINIMAL["variables"][:2]},  # no output
        {"variables": MINIMAL["variables"] + [
            {"name": "w", "description": "d", "role": "output"}]},  # two outputs
        {"variables": [{"name": "m", "description": "d", "role": "input",
                        "domain": {"lower": 2.0, "upper": 1.0}},
                       MINIMAL["variables"][2]]},  # empty domain
    ],
)
def test_schema_errors(mutation):
    with pytest.raises(SchemaError):
        _spec(**mutation)


def _with_domain(**fields):
    domain = {"lower": 0.1, "upper": 10.0, **fields}
    return {"variables": [{**MINIMAL["variables"][0], "domain": domain},
                          *MINIMAL["variables"][1:]]}


MALFORMED = {
    "validity-number": ({"validity": 5}, "field 'validity' must be list"),
    "validity-string": ({"validity": "h < m"}, "field 'validity' must be list"),
    "lower_closed-string": (_with_domain(lower_closed="false"),
                            "variables[0]: field 'lower_closed' must be bool"),
    "lower-bool": (_with_domain(lower=True), "variables[0]: field 'lower' must be int or float"),
    "upper-string": (_with_domain(upper="10"), "variables[0]: field 'upper' must be int or float"),
    "upper-huge-int": (_with_domain(upper=10**400), "variables[0]: int too large"),
}


@pytest.mark.parametrize("mutation, where", MALFORMED.values(), ids=MALFORMED)
def test_malformed_fields_are_schema_errors(mutation, where):
    with pytest.raises(SchemaError, match=re.escape(where)):
        _spec(**mutation)


def test_cli_validate_exits_2_on_a_malformed_field(tmp_path, capsys):
    from eqgym.harness import main

    (tmp_path / "demo.json").write_text(json.dumps({**MINIMAL, "validity": 5}))
    assert main(["validate", "--envs", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: environment 'demo': field 'validity' must be list\n"


UNUSABLE_NAMES = {"digit-first": "2x", "space": "my var", "dotted": "np.pi",
                  "empty": "", "reserved": "invalid"}


@pytest.mark.parametrize("name", UNUSABLE_NAMES.values(), ids=UNUSABLE_NAMES)
def test_names_a_formula_cannot_use_are_rejected(tmp_path, capsys, name):
    from eqgym.harness import main

    variables = [{**MINIMAL["variables"][0], "name": name}, *MINIMAL["variables"][1:]]
    with pytest.raises(ValidationError, match=re.escape(f"variable name {name!r}")):
        _spec(variables=variables)
    (tmp_path / "demo.json").write_text(json.dumps({**MINIMAL, "variables": variables}))
    assert main(["validate", "--envs", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: demo: variable name {name!r} is ")
    assert err.count("\n") == 1


def test_validation_errors():
    with pytest.raises(ValidationError):  # equation uses undeclared variable
        _spec(equation="np.sqrt(2*g*h)")
    with pytest.raises(ValidationError):  # duplicate names
        _spec(variables=MINIMAL["variables"] + [
            {"name": "m", "description": "again", "role": "dummy",
             "domain": {"lower": 0.0, "upper": 1.0}}])
    with pytest.raises(ValidationError):  # validity over undeclared variable
        _spec(validity=["q < h"])
    with pytest.raises(ValidationError):  # validity not a comparison
        _spec(validity=["h + m"])


def test_run_experiment_value():
    env = _spec()
    out = run_experiment(env, {"m": 1.0, "h": 10.0})
    assert out == Value(math.sqrt(196.0))


def test_run_experiment_checks_bindings():
    env = _spec()
    with pytest.raises(ValueError):
        run_experiment(env, {"m": 1.0})
    with pytest.raises(ValueError):
        run_experiment(env, {"m": 1.0, "h": 1.0, "extra": 2.0})


def test_out_of_domain_names_variable():
    env = _spec()
    out = run_experiment(env, {"m": 1.0, "h": -3.0})
    assert isinstance(out, DomainError)
    assert out.reason == "out-of-domain"
    assert out.detail == "h = -3.0 outside its admissible range"
    out = run_experiment(env, {"m": float("nan"), "h": 1.0})
    assert isinstance(out, DomainError)
    assert out.detail == "m = nan outside its admissible range"


def test_validity_violation_names_constraint():
    env = _spec(validity=["m < h"])
    out = run_experiment(env, {"m": 5.0, "h": 2.0})
    assert isinstance(out, DomainError)
    assert out.reason == "validity"
    assert out.detail == "constraint m < h violated"


def test_open_bounds_respected():
    env = _spec(variables=[
        {"name": "m", "description": "d", "role": "input",
         "domain": {"lower": 0.0, "upper": 1.0, "lower_closed": False}},
        MINIMAL["variables"][1],
        MINIMAL["variables"][2],
    ])
    out = run_experiment(env, {"m": 0.0, "h": 1.0})
    assert isinstance(out, DomainError)
    assert out.detail == "m = 0.0 outside its admissible range"


def test_disk_field_examples():
    env = next(e for e in bundled_environments() if e.env_id == "env_409")
    ok = run_experiment(env, {"epsilon_0": 1.0, "E_0": 1.0, "a": 2.0, "r": 0.0})
    assert ok == Value(2.0)
    bad = run_experiment(env, {"epsilon_0": 1.0, "E_0": 1.0, "a": 1.0, "r": 2.0})
    assert isinstance(bad, DomainError)
    assert bad.reason == "validity"
    assert bad.detail == "constraint r < a violated"


def test_mirror_zero_energy_example():
    env = next(e for e in bundled_environments() if e.env_id == "env_310")
    out = run_experiment(env, {"beta_0": 0.9, "E": 0.0, "m": 5.0})
    assert isinstance(out, Value)
    assert abs(out.value - 0.9) <= 1e-12


def test_dummies_context_only_by_default():
    env = next(e for e in bundled_environments() if e.env_id == "env_310")
    header = render_observation(env, LEVELS["L1"])
    assert "S_0" in env.context
    assert "S_0" not in header.controllable_variables
    with pytest.raises(ValueError):
        run_experiment(env, {"beta_0": 0.1, "E": 0.0, "m": 5.0, "S_0": 1.0})


def test_mask_presets():
    assert LEVELS["L1"] == PriorMask(True, True, True)
    assert LEVELS["L2"] == PriorMask(False, True, True)
    assert LEVELS["L3"] == PriorMask(False, False, True)
    assert LEVELS["L4"] == PriorMask(False, False, False)
    assert LEVELS["L2"].level_label() == "L2"
    assert PriorMask(True, False, True).level_label() is None


def test_masking_levels():
    env = _spec()
    l1 = render_observation(env, LEVELS["L1"])
    assert l1.problem_description == env.context
    assert l1.controllable_variables == {
        "m": "Mass in kilograms (kg).", "h": "Drop height in meters (m)."}
    assert l1.observable_variable == {"v": "Impact speed in meters per second (m/s)."}
    assert l1.name_map == {"m": "m", "h": "h"}

    l2 = render_observation(env, LEVELS["L2"])
    assert l2.problem_description == PLACEHOLDER_CONTEXT
    assert l2.controllable_variables == l1.controllable_variables

    l3 = render_observation(env, LEVELS["L3"])
    assert list(l3.controllable_variables) == ["var_1", "var_2"]
    assert l3.controllable_variables["var_1"] == "Mass in kilograms (kg)."
    assert l3.name_map == {"var_1": "m", "var_2": "h"}

    l4 = render_observation(env, LEVELS["L4"])
    assert l4.problem_description == PLACEHOLDER_CONTEXT
    assert set(l4.controllable_variables.values()) == {PLACEHOLDER_CONTROLLABLE}
    assert l4.observable_variable == {"var_out": PLACEHOLDER_OBSERVABLE}


def _in_display_names(text, naming):
    # Every identifier token, but none inside a number such as 1e+301.
    return re.sub(r"(?<![\w.])[A-Za-z_]\w*", lambda m: naming.get(m[0], m[0]), text)


@pytest.mark.parametrize("env", bundled_environments(), ids=lambda env: env.env_id)
def test_anonymous_environment_runs_as_its_twin_in_display_names(env):
    anonymous = env.anonymous
    naming = dict(zip(env.input_names(), anonymous.input_names()))
    assert list(naming.values()) == [f"var_{i}" for i in range(1, len(naming) + 1)]
    assert anonymous.output.name == "var_out"
    rng = random.Random(7)
    domains = env.domains()
    rows = sample_assignments(domains, 200, 7)
    for row in rows[::2]:  # every other row pushed past a bound, or far past
        name = rng.choice(sorted(row))
        domain = domains[name]
        row[name] = rng.choice([domain.lower - 1.0, domain.upper * 2.0 + 1.0, 1e301])
    if env.env_id == "env_409":  # r < a violated
        for row in rows[1:100:2]:
            row["a"] = rng.uniform(0.1, 2.0)
            row["r"] = rng.uniform(row["a"], 2.0)
    reasons = []
    for row in rows:
        true = run_experiment(env, row)
        shown = run_experiment(anonymous, {naming[k]: v for k, v in row.items()})
        if isinstance(true, Value):
            assert isinstance(shown, Value) and shown.value.hex() == true.value.hex()
        else:
            reasons.append(true.reason)
            assert f"{shown.reason}: {shown.detail}" == _in_display_names(
                f"{true.reason}: {true.detail}", naming)
    assert len(reasons) <= 180 and "out-of-domain" in reasons
    assert ("validity" in reasons) == (env.env_id == "env_409")


def test_bundled_environments_load():
    envs = bundled_environments()
    assert len(envs) == 10
    ids = [e.env_id for e in envs]
    assert ids == sorted(ids)
    assert {"hooke", "env_310", "env_409", "env_716"} <= set(ids)
    for env in envs:
        assert env.difficulty_group in ("1-3", "4-6", "7-9", "10+")


def test_load_directory_rejects_duplicates(tmp_path):
    import json

    (tmp_path / "a.json").write_text(json.dumps(MINIMAL))
    (tmp_path / "b.json").write_text(json.dumps(MINIMAL))
    with pytest.raises(ValidationError):
        load_directory(tmp_path)


def test_load_file_round_trip(tmp_path):
    import json

    path = tmp_path / "demo.json"
    path.write_text(json.dumps(MINIMAL))
    env = load_file(path)
    assert env.env_id == "demo"


def test_non_object_rejected():
    with pytest.raises(SchemaError):
        load_spec("not an object")


def test_invalid_json_file_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(SchemaError):
        load_file(path)


@pytest.mark.parametrize("big", [10**400, -10**400, 10**5000],
                         ids=["1e400", "-1e400", "1e5000"])
def test_int_beyond_float_range_is_out_of_domain(big):
    hooke = next(e for e in bundled_environments() if e.env_id == "hooke")
    out = run_experiment(hooke, {"F": big, "k": 1.0})
    assert isinstance(out, DomainError)
    assert out.reason == "out-of-domain"
    shown = "inf" if big > 0 else "-inf"
    assert out.detail == f"F = {shown} outside its admissible range"


@pytest.mark.parametrize("value", ["2.5", True, False, None, [1.0], complex(1, 0)],
                         ids=["numeric-str", "True", "False", "None", "list", "complex"])
def test_value_that_is_not_an_int_or_float_is_out_of_domain(value):
    hooke = next(e for e in bundled_environments() if e.env_id == "hooke")
    out = run_experiment(hooke, {"F": value, "k": 1.0})
    assert out == DomainError("out-of-domain", "F must be a number")
    out = run_experiment(hooke, {"F": 2.0, "k": value})
    assert out == DomainError("out-of-domain", "k must be a number")


def test_ints_and_float_subclasses_still_run():
    hooke = next(e for e in bundled_environments() if e.env_id == "hooke")
    assert run_experiment(hooke, {"F": 3, "k": 2}) == Value(1.5)

    class Reading(float):
        pass

    assert run_experiment(hooke, {"F": Reading(3.0), "k": 2.0}) == Value(1.5)
