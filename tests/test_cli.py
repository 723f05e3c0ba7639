import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from soficert.cli import job_from_dict, main, oracle_agreement, oracle_cases

COSET_JOB = {
    "action": {"kind": "coset", "rank": 2, "subgroup": ["a"]},
    "F": ["a", "b"],
    "E": ["1", "b"],
}


def write_job(tmp_path, data, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_job_from_dict_defaults():
    job = job_from_dict(COSET_JOB)
    assert job.strategy == "core"
    assert job.epsilon == 0
    assert [x.text() for x in job.E] == ["1", "b"]


def test_job_from_dict_rejections():
    for bad in [
        {"action": COSET_JOB["action"], "F": ["a"]},  # no E
        {**COSET_JOB, "strategy": "huge"},
        {**COSET_JOB, "epsilon": "-1/2"},
        {**COSET_JOB, "caps": {"core_cap": 0}},
        {**COSET_JOB, "caps": {"no_such_cap": 3}},
        {**COSET_JOB, "caps": {"orbit_bound": 6}},
        {**COSET_JOB, "out": True},
        {**COSET_JOB, "out": 3},
        {**COSET_JOB, "seed": "0"},
        {**COSET_JOB, "E": ["c"]},  # letter outside rank 2
        [],
    ]:
        with pytest.raises((ValueError, TypeError)):
            job_from_dict(bad)


# ---------------------------------------------------------------------------
# approx


def test_approx_writes_and_reports(tmp_path, capsys):
    cfg = write_job(tmp_path, COSET_JOB)
    out = str(tmp_path / "cert.json")
    assert main(["approx", "--config", cfg, "--out", out, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["carrier_size"] == 3
    assert summary["separator_index"] == 3
    assert summary["epsilon_achieved"] == "0"
    data = json.loads(open(out).read())
    assert data["S"] == [0, 1, 2]


def test_approx_is_byte_deterministic(tmp_path):
    cfg = write_job(tmp_path, COSET_JOB)
    out1, out2 = str(tmp_path / "c1.json"), str(tmp_path / "c2.json")
    assert main(["approx", "--config", cfg, "--out", out1]) == 0
    assert main(["approx", "--config", cfg, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_approx_strategy_flag_overrides_config(tmp_path, capsys):
    cfg = write_job(tmp_path, COSET_JOB)
    assert main(["approx", "--config", cfg, "--strategy", "literal", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["strategy"] == "literal"
    assert summary["carrier_size"] == 6  # all of Sym(3)


def test_approx_config_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["approx", "--config", missing]) == 2
    assert "error [config]" in capsys.readouterr().err

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["approx", "--config", str(garbled)]) == 2

    cfg = write_job(tmp_path, {**COSET_JOB, "strategy": "huge"})
    assert main(["approx", "--config", cfg]) == 2


@pytest.mark.parametrize("value", [1.5, True, "x"])
def test_approx_rejects_non_integer_cap(tmp_path, capsys, value):
    cfg = write_job(tmp_path, {**COSET_JOB, "caps": {"core_cap": value}})
    assert main(["approx", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error [config]: cap core_cap must be a positive integer\n"


@pytest.mark.parametrize("patch", [
    {"epsilon": 0.5},
    {"epsilon": "1e-1"},
    {"epsilon": "0.5"},
    {"epsilon": True},
    {"epsilon": "1/0"},
    {"seed": True},
])
def test_approx_rejects_epsilon_not_integer_or_ratio_and_bool_seed(tmp_path, capsys, patch):
    cfg = write_job(tmp_path, {**COSET_JOB, **patch})
    assert main(["approx", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"error [config]: {next(iter(patch))}")


def test_job_epsilon_is_an_integer_or_ratio_string():
    for value, expected in [(0, 0), (1, 1), ("0", 0), ("1/10", Fraction(1, 10))]:
        assert job_from_dict({**COSET_JOB, "epsilon": value}).epsilon == expected


def test_approx_stage_error_names_the_stage(tmp_path, capsys):
    cfg = write_job(
        tmp_path,
        {**COSET_JOB, "strategy": "literal", "caps": {"literal_degree_max": 2}},
    )
    assert main(["approx", "--config", cfg]) == 2
    assert "error [finite_index_witness]" in capsys.readouterr().err


def test_approx_biregular_job(tmp_path, capsys):
    cfg = write_job(
        tmp_path,
        {
            "action": {"kind": "biregular", "rank": 2},
            "F": [["a", "1"], ["1", "b"]],
            "E": ["1", "a"],
        },
    )
    assert main(["approx", "--config", cfg, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["carrier_size"] == summary["quotient_order"] ** 2


# ---------------------------------------------------------------------------
# verify


def built_cert_path(tmp_path):
    cfg = write_job(tmp_path, COSET_JOB)
    out = str(tmp_path / "cert.json")
    assert main(["approx", "--config", cfg, "--out", out]) == 0
    return out


def test_verify_round_trip(tmp_path, capsys):
    out = built_cert_path(tmp_path)
    capsys.readouterr()
    assert main(["verify", out, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "accept"
    assert report["max_defect"] == "0"
    assert report["s_ratio"] == "1"


def test_verify_text_output(tmp_path, capsys):
    out = built_cert_path(tmp_path)
    capsys.readouterr()
    assert main(["verify", out]) == 0
    text = capsys.readouterr().out
    assert "verdict: accept" in text


def test_verify_rejects_broken_cert(tmp_path, capsys):
    out = built_cert_path(tmp_path)
    data = json.loads(open(out).read())
    data["pi"][0][0], data["pi"][0][1] = data["pi"][0][1], data["pi"][0][0]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(broken), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "reject"
    assert report["first_failure"] in report["violations"]


def test_verify_schema_and_file_errors_exit_2(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "absent.json")]) == 2
    assert "error [schema]" in capsys.readouterr().err

    out = built_cert_path(tmp_path)
    data = json.loads(open(out).read())
    del data["carrier_size"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", str(bad)]) == 2
    assert "carrier_size" in capsys.readouterr().err


# certificates whose every carrier entry, S entry, label and pi entry is 0 or 1
ONE_POINT_JOB = {"action": {"kind": "coset", "rank": 1, "subgroup": ["a"]}, "F": ["a"], "E": ["1"]}
TWO_POINT_JOB = {"action": {"kind": "coset", "rank": 1, "subgroup": ["aa"]}, "F": ["a"], "E": ["1", "a"]}


@pytest.mark.parametrize("job, field, value", [
    (ONE_POINT_JOB, "carrier_size", True),
    (TWO_POINT_JOB, "generator_images", [[True, False]]),
    (TWO_POINT_JOB, "S", [False, True]),
    (TWO_POINT_JOB, "B", [False, True]),
    (TWO_POINT_JOB, "pi", [[False, True], [True, False]]),
    (TWO_POINT_JOB, "epsilon", 0.5),
    (TWO_POINT_JOB, "epsilon", "1e-1"),
    (TWO_POINT_JOB, "epsilon", True),
])
def test_verify_rejects_bools_and_non_ratio_epsilon_as_schema_errors(
    tmp_path, capsys, job, field, value
):
    cfg = write_job(tmp_path, job)
    out = str(tmp_path / "cert.json")
    assert main(["approx", "--config", cfg, "--out", out]) == 0
    data = json.loads(open(out).read())
    if field != "epsilon":
        assert data[field] == value  # equal as numbers, so the type is the only fault
    data[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error [schema]: {field}")


# a word is a JSON string, a word list a JSON list, a rank an int that is
# not a bool, an action an object with every field of its kind
WORD_SCHEMA_CASES = {
    "F-string": lambda d: d.update(F="ab"),
    "F-nested-list": lambda d: d.update(F=[["a", "b"]]),
    "E-string": lambda d: d.update(E="1"),
    "subgroup-string": lambda d: d["action"].update(subgroup="a"),
    "rank-true": lambda d: d["action"].update(rank=True),
    "action-list": lambda d: d.update(action=[]),
    "subgroup-missing": lambda d: d["action"].pop("subgroup"),
    "images-empty": lambda d: d.update(
        action={"kind": "restricted", "inner": {"kind": "biregular", "rank": 2}, "images": []},
        F=[], E=["1"]),
}
WORD_SCHEMA_ERRORS = {
    "F-string": ("F", "must be a list"),
    "F-nested-list": ("F", "word ['a', 'b'] must be a string"),
    "E-string": ("E", "must be a list"),
    "subgroup-string": ("action", "subgroup must be a list"),
    "rank-true": ("action", "rank must be an integer"),
    "action-list": ("action", "action must be an object"),
    "subgroup-missing": ("action", "missing field 'subgroup'"),
    "images-empty": ("action", "restricted action needs 1 to 26 images, got 0"),
}


@pytest.mark.parametrize("case", sorted(WORD_SCHEMA_CASES))
def test_verify_rejects_malformed_words_and_rank(tmp_path, capsys, case):
    data = json.loads(open(built_cert_path(tmp_path)).read())
    WORD_SCHEMA_CASES[case](data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 2
    field, what = WORD_SCHEMA_ERRORS[case]
    err = capsys.readouterr().err
    assert err.startswith(f"error [schema]: {field}: ") and what in err, err


@pytest.mark.parametrize("case", sorted(WORD_SCHEMA_CASES))
def test_approx_rejects_malformed_words_and_rank(tmp_path, capsys, case):
    data = json.loads(json.dumps(COSET_JOB))
    WORD_SCHEMA_CASES[case](data)
    assert main(["approx", "--config", write_job(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [config]: ") and WORD_SCHEMA_ERRORS[case][1] in err, err


@pytest.mark.parametrize("command, tag", [("verify", "schema"), ("approx", "config")])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command, tag):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = ["verify", str(deep)] if command == "verify" else ["approx", "--config", str(deep)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error [{tag}]: ")


def test_verify_epsilon_override(tmp_path, capsys):
    out = built_cert_path(tmp_path)
    capsys.readouterr()
    assert main(["verify", out, "--epsilon", "1/10"]) == 0
    for bad in ("bogus", "-1/2", "0.5", "1e-1", "1/0"):
        assert main(["verify", out, f"--epsilon={bad}"]) == 2
        assert capsys.readouterr().err.startswith("error [epsilon]: ")


# ---------------------------------------------------------------------------
# subgroup


def test_subgroup_frozen_separator(capsys):
    assert main(["subgroup", "--rank", "2", "--gens", "a", "--avoid", "b", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vertices"] == 1
    assert payload["edges"] == ["0 -a-> 0"]
    assert payload["separator_index"] == 2
    assert payload["table_a"] == [0, 1]
    assert payload["table_b"] == [1, 0]


def test_subgroup_inseparable_word(capsys):
    assert main(["subgroup", "--rank", "2", "--gens", "aa,b", "--avoid", "baab",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["separator"].startswith("inseparable")


def test_subgroup_graph_only(capsys):
    assert main(["subgroup", "--rank", "2", "--gens", "aa,b", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vertices"] == 2
    assert "separator_index" not in payload


def test_subgroup_bad_word_exits_2(capsys):
    assert main(["subgroup", "--rank", "2", "--gens", "xyz"]) == 2
    assert "error [config]" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# conj-demo and fuzz


def test_conj_demo_defaults(tmp_path, capsys):
    out = str(tmp_path / "conj.json")
    assert main(["conj-demo", "--out", out, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "accept"
    assert payload["diagonal_phi_agreement"] is True
    assert main(["verify", out]) == 0


def test_fuzz_perfect_scores(capsys):
    assert main(["fuzz", "--cases", "20", "--seed", "7"]) == 0
    text = capsys.readouterr().out
    assert "mutation kill-rate: 20/20" in text
    assert "oracle agreement:" in text


def test_oracle_pool_size_and_agreement():
    certs = oracle_cases()
    assert len(certs) >= 20
    results = oracle_agreement(certs[:3])
    assert all(r["agreed"] for r in results)


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_module_entry_point_runs_the_cli(tmp_path):
    proc = run_python("-m", "soficert.cli", "verify", str(tmp_path / "missing.json"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error [schema]: file:")


@pytest.mark.parametrize("script", ["demo_pipeline.py", "separator_growth.py"])
def test_script_runs(script):
    proc = run_python(str(ROOT / "scripts" / script))
    assert proc.returncode == 0, proc.stderr
