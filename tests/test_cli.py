import argparse
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from soficert import cli
from soficert.builder import approximate, write_certificate
from soficert.certificate import certificate_from_dict
from soficert.cli import SUBCOMMANDS, build_parser, job_from_dict, main
from soficert.harness import oracle_agreement, oracle_cases
from test_builder import round_trips

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
    assert job.epsilon == 0
    assert job.core_cap == 10**6
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
    # strategy names the biregular quotient route; a coset job has none
    assert "strategy" not in summary
    data = json.loads(open(out).read())
    assert data["S"] == [0, 1, 2]
    assert "strategy" not in data["provenance"]


def test_approx_is_byte_deterministic(tmp_path):
    cfg = write_job(tmp_path, COSET_JOB)
    out1, out2 = str(tmp_path / "c1.json"), str(tmp_path / "c2.json")
    assert main(["approx", "--config", cfg, "--out", out1]) == 0
    assert main(["approx", "--config", cfg, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_approx_config_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["approx", "--config", missing]) == 2
    assert "error [config]" in capsys.readouterr().err

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["approx", "--config", str(garbled)]) == 2

    cfg = write_job(tmp_path, {**COSET_JOB, "strategy": "huge"})
    assert main(["approx", "--config", cfg]) == 2


def test_approx_non_utf8_config_exits_2(tmp_path, capsys):
    # a config is read as UTF-8 whatever the locale, and bytes that are
    # not UTF-8 are a config error, not a traceback
    cfg = tmp_path / "job.json"
    cfg.write_bytes(b"\xff\xfe")
    assert main(["approx", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [config]: ") and "utf-8" in err


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


@pytest.mark.parametrize("patch, key", [
    ({"stratgy": "literal"}, "stratgy"),
    ({"seed": 0}, "seed"),
    ({"caps": {"quotient_samples": 10}}, "quotient_samples"),
    ({"caps": {"core_cap": 10, "literal_degree_max": 2}}, "literal_degree_max"),
    ({"strategy": "core"}, "strategy"),
])
def test_approx_refuses_unknown_config_keys(tmp_path, capsys, patch, key):
    # a job config has action, F, E, epsilon, caps.core_cap and out
    assert main(["approx", "--config", write_job(tmp_path, {**COSET_JOB, **patch})]) == 2
    assert capsys.readouterr().err.startswith(f"error [config]: {key}: unknown ")


def test_job_epsilon_is_an_integer_or_ratio_string():
    for value, expected in [(0, 0), (1, 1), ("0", 0), ("1/10", Fraction(1, 10))]:
        assert job_from_dict({**COSET_JOB, "epsilon": value}).epsilon == expected


def test_approx_stage_error_names_the_stage(tmp_path, capsys):
    cfg = write_job(
        tmp_path,
        {**COSET_JOB, "caps": {"core_cap": 1}},
    )
    assert main(["approx", "--config", cfg]) == 2
    assert "error [finite_index_witness]" in capsys.readouterr().err


BIREGULAR_JOB = {"action": {"kind": "biregular", "rank": 2},
                 "F": [["a", "1"], ["1", "b"]], "E": ["1", "a"]}


def test_approx_biregular_job(tmp_path, capsys):
    cfg = write_job(tmp_path, BIREGULAR_JOB)
    assert main(["approx", "--config", cfg, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    # Q is cyclic of order 3, its own centre, so the carrier has 3 * 3 / 3
    # points; tests/test_biregular.py checks |A| |Z(Q)| = |Q|^2 on many windows
    assert (summary["quotient_order"], summary["carrier_size"]) == (3, 3)
    assert summary["strategy"] == "hall-core"


CONJUGATION_JOB = {"action": {"kind": "restricted", "inner": {"kind": "biregular", "rank": 2},
                              "images": [["a", "a"], ["b", "b"]]},
                   "F": ["a", "b"], "E": ["1", "a"]}


@pytest.mark.parametrize("job", [BIREGULAR_JOB, CONJUGATION_JOB], ids=["biregular", "restricted"])
def test_approx_refuses_caps_a_biregular_build_ignores(tmp_path, capsys, job):
    # the biregular carrier comes from a quotient search with fixed
    # bounds, so a cap would be silently ignored
    out = tmp_path / "cert.json"
    cfg = write_job(tmp_path, {**job, "caps": {"core_cap": 1}})
    assert main(["approx", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error [config]: caps: does not apply")
    assert not out.exists()


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


def test_verify_non_utf8_file_exits_2(tmp_path, capsys):
    # undecodable bytes are a malformed file (exit 2), not the rejection
    # code 1 that an uncaught decode error used to exit with
    bad = tmp_path / "cert.json"
    bad.write_bytes(b"\xff\xfe")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [schema]: json: ") and "utf-8" in err

    # a certificate is read as UTF-8 whatever the locale
    data = json.loads(open(built_cert_path(tmp_path)).read())
    data["provenance"]["note"] = "Schreier–Sims, π"
    good = tmp_path / "utf8.json"
    good.write_bytes(json.dumps(data, ensure_ascii=False).encode("utf-8"))
    capsys.readouterr()
    assert main(["verify", str(good)]) == 0


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


def test_provenance_is_optional_and_free_form(tmp_path):
    data = json.loads(open(built_cert_path(tmp_path)).read())
    path = tmp_path / "cert.json"
    data["provenance"] = {"anything": [1, {"goes": True}]}
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 0
    del data["provenance"]
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 0


# a word is a JSON string, a word list a JSON list, a rank an int that is
# not a bool, an action an object with every field of its kind and no
# other, and the top level has no field the format does not name
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
    "action-key": lambda d: d["action"].update(junk=3),
    "top-level-key": lambda d: d.update(extra=[1]),
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
    "action-key": ("action", "unknown field 'junk' in a coset action"),
    "top-level-key": ("extra", "unknown field"),
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


@pytest.mark.parametrize("kind", ["coset", "biregular"])
@pytest.mark.parametrize("rank", [-1, 0, 27])
def test_action_rank_out_of_range_exits_2(tmp_path, capsys, kind, rank):
    # F and E are empty, so only the action's own check sees the rank
    action = {"kind": kind, "rank": rank, **({"subgroup": []} if kind == "coset" else {})}
    message = f"rank must be between 1 and 26, got {rank}\n"
    out = tmp_path / "cert.json"
    cfg = write_job(tmp_path, {"action": action, "F": [], "E": []})
    assert main(["approx", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error [config]: " + message
    assert not out.exists()
    cert = {"action": action, "F": [], "E": [], "epsilon": "0", "carrier_size": 1,
            "generator_images": [], "S": [0], "B": [], "pi": [[]]}
    out.write_text(json.dumps(cert))
    assert main(["verify", str(out)]) == 2
    assert capsys.readouterr().err == "error [schema]: action: " + message


@pytest.mark.parametrize("command, tag", [("verify", "schema"), ("approx", "config")])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command, tag):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = ["verify", str(deep)] if command == "verify" else ["approx", "--config", str(deep)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error [{tag}]: ")


def nested_job(depth):
    """A coset job over F_1 whose action is wrapped in ``depth`` restricted levels."""
    action = {"kind": "coset", "rank": 1, "subgroup": ["aa"]}
    for _ in range(depth):
        action = {"kind": "restricted", "inner": action, "images": ["a"]}
    return {"action": action, "F": ["a"], "E": ["1", "a"]}


def test_restricted_nesting_limit(tmp_path, capsys):
    # 64 restricted levels build and verify; one more is refused by both parsers
    out = str(tmp_path / "deep64.json")
    assert main(["approx", "--config", write_job(tmp_path, nested_job(64)), "--out", out]) == 0
    assert main(["verify", out]) == 0
    capsys.readouterr()
    assert main(["approx", "--config", write_job(tmp_path, nested_job(65))]) == 2
    assert capsys.readouterr().err.startswith("error [config]: restricted actions nest deeper than 64")
    data = json.loads(open(out).read())
    data["action"] = nested_job(65)["action"]
    bad = tmp_path / "deep65.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error [schema]: action: restricted actions nest deeper")


def test_nesting_near_the_json_limit_exits_2_without_traceback(tmp_path):
    # 982 levels still load as JSON in a fresh interpreter; the text is
    # spliced, since json.dumps would overflow this one's stack
    depth = 982
    action = ('{"kind": "restricted", "images": ["a"], "inner": ' * depth
              + '{"kind": "coset", "rank": 1, "subgroup": ["aa"]}' + "}" * depth)
    job = nested_job(64)
    out = tmp_path / "deep64.json"
    assert main(["approx", "--config", write_job(tmp_path, job), "--out", str(out)]) == 0
    path = tmp_path / "deep982.json"
    for argv, data, tag in [(["verify", str(path)], json.loads(out.read_text()), "schema"),
                            (["approx", "--config", str(path)], job, "config")]:
        rest = json.dumps({k: v for k, v in data.items() if k != "action"})
        path.write_text('{"action": ' + action + ", " + rest[1:])
        proc = run_python("-m", "soficert.cli", *argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error [{tag}]: ") and "Traceback" not in proc.stderr
        assert "nest deeper than 64" in proc.stderr


@pytest.mark.parametrize("depth", [1, 500])
def test_pair_label_exits_2_without_traceback(tmp_path, depth):
    # B holds integers only; a [tag, label] pair nested ``depth`` levels
    # deep is spliced in as text
    data = json.loads(open(built_cert_path(tmp_path)).read())
    data["B"] = "LABELS"
    label = "[0, " * depth + "0" + "]" * depth
    path = tmp_path / "deep-label.json"
    path.write_text(json.dumps(data).replace('"LABELS"', f"[{label}, 1, 2]"))
    proc = run_python("-m", "soficert.cli", "verify", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error [schema]: B: label [0, ")
    assert "must be an integer" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("field", ["pi", "generator_images", "E"])
def test_deep_value_gives_a_one_line_message(tmp_path, field):
    # an entry nested 970 lists deep, spliced in as text, is shown
    # through reprlib instead of whole
    data = json.loads(open(built_cert_path(tmp_path)).read())
    if field == "E":
        data["E"][0] = "DEEP"
    else:
        data[field][0][0] = "DEEP"
    path = tmp_path / "deep-entry.json"
    path.write_text(json.dumps(data).replace('"DEEP"', "[" * 970 + "0" + "]" * 970))
    proc = run_python("-m", "soficert.cli", "verify", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error [schema]: {field}")
    assert proc.stderr.count("\n") == 1 and len(proc.stderr.encode()) < 200, proc.stderr[:300]


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


@pytest.mark.parametrize("rank", [-1, 0, 27])
def test_subgroup_rank_out_of_range_exits_2(capsys, rank):
    assert main(["subgroup", "--rank", str(rank), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error [config]: rank must be between 1 and 26, got {rank}\n"


# ---------------------------------------------------------------------------
# conj-demo and fuzz


def test_conj_demo_defaults(tmp_path, capsys):
    out = str(tmp_path / "conj.json")
    assert main(["conj-demo", "--out", out, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "accept"
    assert payload["diagonal_phi_agreement"] is True
    assert main(["verify", out]) == 0


@pytest.mark.parametrize("command", ["approx", "conj-demo"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_exits_2_and_leaves_no_temp_file(tmp_path, capsys, command, target):
    # an existing directory is opened beside, so the temporary file is
    # written in full before the rename fails
    out = tmp_path / "missing" / "cert.json" if target == "missing-dir" else tmp_path / "cert.json"
    if target == "directory":
        out.mkdir()
    argv = ["--config", write_job(tmp_path, COSET_JOB)] if command == "approx" else []
    assert main([command, *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error [write]: {out}: ")
    assert not [p for p in tmp_path.rglob("*") if ".tmp." in p.name]


def test_long_out_name_is_written_with_the_mode_open_gives(tmp_path):
    # the temporary file's name does not grow with the target's, so a
    # name near the 255-byte limit is written like any other
    out = tmp_path / ("c" * 250)
    assert main(["approx", "--config", write_job(tmp_path, COSET_JOB), "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    made = tmp_path / "made-by-open"
    with open(made, "w"):
        pass
    assert os.stat(out).st_mode == os.stat(made).st_mode
    assert not [p for p in tmp_path.iterdir() if ".tmp." in p.name]


def test_biregular_refusal_message_is_short(tmp_path, capsys):
    # no quotient of degree <= 5 keeps the 53 points of the radius-3 ball
    # apart; the message gives the 1456 targets' count and the first few
    layer, ball = [""], ["1"]
    for _ in range(3):
        layer = [w + l for w in layer for l in "abAB" if not w or w[-1] != l.swapcase()]
        ball += layer
    job = {"action": {"kind": "biregular", "rank": 2}, "F": [], "E": ball}
    out = tmp_path / "cert.json"
    assert main(["approx", "--config", write_job(tmp_path, job), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [biregular]: no quotient of degree at most 5 separates "
                          "the 1456 targets ['a', 'b', 'A', 'B', 'aa', 'ab', ...]")
    assert len(err.encode()) < 300
    assert not out.exists()


@pytest.mark.parametrize("cases", ["0", "-1", "x"])
def test_fuzz_cases_must_be_positive(capsys, cases):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--cases", cases])
    assert exc.value.code == 2
    assert "--cases: must be a positive integer" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# parser construction: main() parses with the invoked subcommand's parser alone

HELP_AND_ERROR_ARGVS = [
    [],
    ["-h"],
    ["no-such-command"],
    ["verif"],
    *([name, "-h"] for name in SUBCOMMANDS),
    ["approx"],
    ["approx", "--config", "job.json", "--strategy", "greedy"],
    ["subgroup", "--rank", "two"],
    ["fuzz", "--cases", "0"],
    ["verify", "cert.json", "extra.json"],
    ["verify", "cert.json", "--no-such-option"],
    ["--json", "verify", "cert.json"],
    # boundaries of the lone subcommand parser and its fallback
    ["verify"],
    ["approx", "--config"],
    ["verify", "c.json", "--json=yes"],
    ["subgroup", "--rank", "2", "extra"],
    ["verify", "a", "b", "--c"],
    ["fuzz", "--cases", "0", "--no-such-option"],
    ["verify", "-h", "--no-such-option"],
    ["subgroup", "--rank=x"],
    ["conj-demo", "--rank", "2", "--bogus"],
]


def full_parser_main(argv):
    """``main`` as it ran when every call built all five subparsers."""
    args = build_parser().parse_args(argv)
    return args.func(args)


def outcome(run, argv, capsys):
    try:
        code = run(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("argv", HELP_AND_ERROR_ARGVS, ids=" ".join)
def test_help_and_errors_match_the_full_parser(monkeypatch, capsys, columns, argv):
    monkeypatch.setenv("COLUMNS", columns)
    got = outcome(main, argv, capsys)
    assert got == outcome(full_parser_main, argv, capsys)
    assert got[0] in (0, 2) and (got[1] or got[2])


@pytest.mark.parametrize("argv, parsers", [
    *(([name, "-h"], 1) for name in SUBCOMMANDS),
    (["verify", "CERT"], 1),
    (["-h"], 6),
    (["no-such-command"], 6),
    (["verify", "c.json", "--no-such-option"], 7),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_main_builds_only_the_invoked_subparser(monkeypatch, tmp_path, capsys, argv, parsers):
    argv = [built_cert_path(tmp_path) if arg == "CERT" else arg for arg in argv]
    calls = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == (2 if argv[-1] in ("no-such-command", "--no-such-option") else 0)
    assert len(calls) == parsers


ROOT = Path(__file__).resolve().parents[1]


def run_python(*args, stdout=subprocess.PIPE):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60
    )


def test_module_entry_point_runs_the_cli(tmp_path):
    proc = run_python("-m", "soficert.cli", "verify", str(tmp_path / "missing.json"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error [schema]: file:")


@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "text"])
def test_closed_stdout_is_a_write_error(tmp_path, flags):
    # a reader that closes the pipe before anything is written, as
    # ``| head`` may: one error line and exit 2, after the certificate
    read, write = os.pipe()
    os.close(read)
    out = tmp_path / "cert.json"
    try:
        proc = run_python("-m", "soficert.cli", "approx", "--config", write_job(tmp_path, COSET_JOB),
                          "--out", str(out), *flags, stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 2
    # the whole of stderr: no traceback, no "Exception ignored" at exit
    assert proc.stderr == "error [write]: <stdout>: Broken pipe\n"
    assert main(["verify", str(out)]) == 0


@pytest.mark.parametrize("argv", [
    ["verify", "-h"],
    ["-h"],
    ["verify", "c.json", "--no-such-option"],
], ids=" ".join)
def test_module_entry_point_reads_sys_argv_like_main(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    proc = run_python("-m", "soficert.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == outcome(main, argv, capsys)


@pytest.mark.parametrize("script", ["demo_pipeline.py"])
def test_script_runs(script):
    proc = run_python(str(ROOT / "scripts" / script))
    assert proc.returncode == 0, proc.stderr


def test_readme_job_config_builds(tmp_path, monkeypatch, capsys):
    # the job config the README writes with cat > job.json <<'EOF', built
    # and verified with the commands the README runs on it
    readme = (ROOT / "README.md").read_text()
    [config] = re.findall(r"^cat > job\.json <<'EOF'\n(.*?)^EOF$", readme, re.MULTILINE | re.DOTALL)
    monkeypatch.chdir(tmp_path)
    Path("job.json").write_text(config)
    assert main(["approx", "--config", "job.json", "--out", "cert.json", "--json"]) == 0
    assert main(["verify", "cert.json", "--json"]) == 0


# SHA-256 pins of the certificates of the acceptance fixtures (F is
# every generator of the rank), of a biregular job and of conj-demo,
# each a (content, bytes) pair.  The content pin hashes the certificate
# re-rendered as json.dumps(..., indent=2, sort_keys=True) + "\n", the
# layout files had before the compact one, so it fails on any change to
# what a certificate says; the bytes pin hashes the file as written, so
# it also fails on any change to the layout.
PINNED_FIXTURES = [
    (2, [], ["1", "a"],
     ("fc26e85da89d63a9295fa785396409c0e52b7171e03a2be15bdd1cbc22c2af72",
      "858340f1b595804f5f3be954ed8d41eb61d99711b27073bcf0d44be6676b99cd")),
    (2, ["a"], ["1", "b"],
     ("e4a913a4caf4de15f768d5f98ee627c2ef122f5d2e271f7642a6231a59b98939",
      "da6ee03d20889f48463f2b2ba7f0e0457aaf2e0ad30ba57711bc838847d4ef55")),
    (2, ["aa", "b"], ["1", "a"],
     ("f49fe72a7951aa32ba4d9cbd077a07814ca89cba3028df5590ab158337a92da0",
      "36f018cada1b7ed7ac25f20f2998a28566112e674d564808cec0c34d37d76ffb")),
    (2, ["ab", "ba"], ["1", "a"],
     ("ca425990700d2aaa479bf5d35a02526ce0a77c373b9ffd68c458ae649a791291",
      "2a633152dd92dbe9613e3f52e23b7b60cb45570b5f4bacbd5c00245f4ecb1770")),
    (2, ["abA"], ["1", "a"],
     ("e804aa1783673fae2ce2515428167a29d0121dcf516433f564b2f9fe974e586d",
      "10cbfd9549f0ac4b3d4c18b3fdd84bd0179ec662d2fe4b66a62b8ce0f93cdaa2")),
    (2, ["aa", "ab"], ["1", "a"],
     ("609deb863db4cc32c4baf72ceed499d55ba4116d85f374a957caea387bb28845",
      "1dc239247a2420b903bd955a7e75376b16db174649ae03e100465f2518489f02")),
    (2, ["a", "bb"], ["1", "b"],
     ("43a6dd6193e33b2d0708e9a4b943cbfc3fcf7b658a7e1e896acd35e88ffdd557",
      "72c8eb7f040844f913e3a16d09df58d2d91b4160cb30f6088f339101fdb154ee")),
    (2, ["aba"], ["1", "a", "ab"],
     ("f411dc8541cf8a98e0d26bb8a050193fe51d785bdbc62308d59fa2219b16a22d",
      "a9dc4ac688449c7a1d38a11f1b4d6a7a24453378c7568518f42f98f95e273ab5")),
    (3, [], ["1", "a"],
     ("561a1d251caba7156d907e4e503963e0d7208b2a5a8c135c86671d12041edd91",
      "a677cfeaa8ccac3e53f397b01ed4255340895d4b569ccc7aa0e0fa9699999b7c")),
    (3, ["a", "b"], ["1", "c"],
     ("ce4c9cd064a303632eb07f79fd454d67320f04dbabd6e6789f028d7782995470",
      "e43a855d79da9682f4a8dca0b26a49f7a9b18d90df00dd68f9990be99c81edf5")),
    (3, ["ab", "c"], ["1", "a"],
     ("d21bde96a9f477f047231e38fbc14937a790be3998ecc89a3fc8bb3cc54b4cdd",
      "c0da11eb1395614f4019dc2bb99fb869dd97cb27fe3fc6e42a5f404f40445ce2")),
    (3, ["aa", "b", "c"], ["1", "a"],
     ("a0236aafd6bc73ec4b366bd96de2c2777b784181950b10ca2c99c48d963e12a6",
      "471856aab9ef56e04e4c30d42b4e0f9f87ab3226d60dd7f466b1dac48f611e1c")),
]
PINNED_BIREGULAR = ("2b6767de255255d97e11751e655028cea92a8eb501ab22f3a91271dd865c3c85",
                    "ea43f24969e86d185e3b5ca72c6b887fb78de59c18052d761672eea11077eed5")
PINNED_CONJ_DEMO = ("87b2190401551c412fc4855726e3a0e6961fc3830fec62fb4fc79a40f71bb7f2",
                    "d940a557b9d6277483f558312432dd98accca488fd0369dc39596a58fa4a30ea")
# the two jobs of the benchmark's large-carrier workload: <aabb> on the
# 336-point third rung of its 40 320-element group, and the biregular
# radius-2 ball's 3 600 points
PINNED_LARGE = [
    ({"action": {"kind": "coset", "rank": 2, "subgroup": ["aabb"]},
      "F": ["a", "b", "ab", "ba", "aB"], "E": ["1", "a", "b"]},
     ("e5a8c8a3e2930d94e0a0818d6d5e45e997248eba6f48552f322d370b4007f88b",
      "5ec90ed3d831851f7f989048a8f7539fa7b21a1a841351b65ac6140f804570c4")),
    ({"action": {"kind": "biregular", "rank": 2},
      "F": [["a", "1"], ["b", "1"], ["1", "a"], ["1", "b"]],
      "E": ["1", "a", "b", "A", "B", "aa", "ab", "aB", "ba", "bb", "bA", "Ab", "AA", "AB",
            "Ba", "BA", "BB"]},
     ("df77f93596c12bb55765b4860e2c47092c364b34e4be9c40863068abaef25211",
      "27b053055e297b45674d52881d14c042af1350b309a2616edfcecf42454a5d43")),
]
# the benchmark's other certificates: small-jobs' abab-bb, fold's
# cascade-200, whose 200-letter generators fold to one vertex, and the
# two-point windows that refusal falls back to under a 10^5 group cap
REFUSAL_CAPS = {"core_cap": 10**5}
PINNED_BENCH = [
    ({"action": {"kind": "coset", "rank": 2, "subgroup": ["abab", "bb"]},
      "F": ["a", "b"], "E": ["1", "a"]},
     ("6f20dc1596996d159bd9107f69bcc7a53b51a68d2c307ffe416dacf5b4cb9640",
      "5a902a539dccda1ddf7a0f410eee3892b07a113380940b58f4c8a3af60f42ba5")),
    ({"action": {"kind": "coset", "rank": 2,
                 "subgroup": ["a" * 200, "a" * 201, "b" * 200, "b" * 199]},
      "F": ["a", "b"], "E": ["1"]},
     ("dbe8777fc4cae8db67f4b10c75ffd435b64c97d081b20daa915ddb311f1dc8d5",
      "c4190106225841b2b8af7a52b5663efc93586a7a53c624ed24d799c7e8715099")),
    ({"action": {"kind": "coset", "rank": 2, "subgroup": []},
      "F": ["a", "b"], "E": ["1", "a"], "caps": REFUSAL_CAPS},
     ("fc26e85da89d63a9295fa785396409c0e52b7171e03a2be15bdd1cbc22c2af72",
      "858340f1b595804f5f3be954ed8d41eb61d99711b27073bcf0d44be6676b99cd")),
    ({"action": {"kind": "coset", "rank": 2, "subgroup": ["abAB"]},
      "F": ["a", "b"], "E": ["1", "a"], "caps": REFUSAL_CAPS},
     ("bbc913157186ce46f6f97914eea3746d90eec32cecb36ba2ef12b8c35b76a8f9",
      "04c64d8fec515a606fd1beb0f2d194f731a9cc2c4d4828306fe2192ba584450d")),
    ({"action": {"kind": "coset", "rank": 2, "subgroup": ["aabb"]},
      "F": ["a", "b"], "E": ["1", "a"], "caps": REFUSAL_CAPS},
     ("9df4c73ae669f238c7a0992fe359c24470fbbb1760a369c2d9132e300560bba0",
      "c85cc7f6f8723c7961002d0ec5330eda85d8216b21cc0966be3eb6c0fe23af07")),
]


def certificate_shas(path):
    """(content, bytes) SHA-256 of a certificate file, as pinned above."""
    raw = path.read_bytes()
    indented = json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(indented.encode()).hexdigest(), hashlib.sha256(raw).hexdigest()


def built_shas(tmp_path, data):
    out = tmp_path / "pinned.json"
    assert main(["approx", "--config", write_job(tmp_path, data), "--out", str(out)]) == 0
    return certificate_shas(out)


def test_indented_layout_gives_the_same_report(tmp_path, capsys):
    # the layout files had before the compact one still verifies, with
    # the same report, for an accepted certificate and a rejected copy
    out = tmp_path / "cert.json"
    assert main(["approx", "--config", write_job(tmp_path, BIREGULAR_JOB), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    broken = tmp_path / "broken.json"
    data["pi"][0][1] = data["pi"][0][0]
    write_certificate(certificate_from_dict(data), str(broken))
    for compact, code in [(out, 0), (broken, 1)]:
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(json.loads(compact.read_text()), indent=2, sort_keys=True) + "\n")
        capsys.readouterr()
        reports = []
        for path in (compact, indented):
            assert main(["verify", str(path), "--json"]) == code
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]


def test_certificate_bytes_are_pinned(tmp_path):
    for rank, sub, E, pinned in PINNED_FIXTURES:
        job = {"action": {"kind": "coset", "rank": rank, "subgroup": sub},
               "F": [chr(97 + i) for i in range(rank)], "E": E}
        assert built_shas(tmp_path, job) == pinned, (sub, E)
    biregular = {"action": {"kind": "biregular", "rank": 2},
                 "F": [["a", "1"], ["b", "1"], ["1", "a"], ["1", "b"]],
                 "E": ["1", "a", "b", "ab", "ba"]}
    assert built_shas(tmp_path, biregular) == PINNED_BIREGULAR
    out = tmp_path / "conj.json"
    assert main(["conj-demo", "--out", str(out)]) == 0
    assert certificate_shas(out) == PINNED_CONJ_DEMO


def test_large_carrier_bytes_are_pinned(tmp_path):
    for job, shas in PINNED_LARGE:
        assert built_shas(tmp_path, job) == shas, job["action"]


def test_bench_certificate_bytes_are_pinned(tmp_path):
    for job, shas in PINNED_BENCH:
        assert built_shas(tmp_path, job) == shas, job["action"]


def test_bench_certificates_round_trip(tmp_path):
    # the writer and the reader agree on every pinned bench certificate
    for data, _ in PINNED_BENCH:
        job = job_from_dict(data)
        cert = approximate(job.action, job.F, job.E, job.epsilon, job.core_cap)
        assert round_trips(cert, tmp_path / "cert.json"), data["action"]


# ---------------------------------------------------------------------------
# the cyclic collector: paused while a command runs, then as the caller left it


@pytest.fixture(params=[True, False], ids=["caller-on", "caller-off"])
def caller_collector(request):
    """The collector as the caller leaves it before ``main``; on again after."""
    if not request.param:
        gc.disable()
    yield request.param
    gc.enable()


def record_collector(monkeypatch, raises=False):
    """Wrap ``cmd_verify`` to record whether the collector is on inside it."""
    states = []
    run = cli.cmd_verify

    def recording(args):
        states.append(gc.isenabled())
        if raises:
            raise RuntimeError("command failed")
        return run(args)

    monkeypatch.setattr(cli, "cmd_verify", recording)
    return states


def test_collector_is_paused_for_the_command_only(tmp_path, monkeypatch, capsys, caller_collector):
    out = built_cert_path(tmp_path)
    states = record_collector(monkeypatch)
    assert main(["verify", out]) == 0
    assert states == [False]
    assert gc.isenabled() == caller_collector


def test_collector_is_restored_when_the_command_raises(monkeypatch, caller_collector):
    states = record_collector(monkeypatch, raises=True)
    with pytest.raises(RuntimeError):
        main(["verify", "cert.json"])
    assert states == [False]
    assert gc.isenabled() == caller_collector


def test_usage_error_leaves_the_collector_as_it_was(capsys, caller_collector):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    assert gc.isenabled() == caller_collector


def test_no_collection_starts_while_a_large_certificate_is_verified(tmp_path, monkeypatch, capsys):
    # the 3 600-point biregular-ball2 certificate of the large-carrier
    # workload: verified with the collector on, as a library caller would,
    # its arrays start collections; through main they start none
    out = tmp_path / "ball2.json"
    assert main(["approx", "--config", write_job(tmp_path, PINNED_LARGE[1][0]), "--out", str(out)]) == 0
    starts, inside = [], []
    run = cli.cmd_verify

    def counting(args):
        inside.append(args)
        try:
            return run(args)
        finally:
            inside.pop()

    def count_start(phase, info):
        if phase == "start" and inside:
            starts.append(info["generation"])

    gc.callbacks.append(count_start)
    try:
        counting(build_parser().parse_args(["verify", str(out)]))
        assert starts, "verifying the certificate starts no collection, so this guard shows nothing"
        starts.clear()
        monkeypatch.setattr(cli, "cmd_verify", counting)
        assert main(["verify", str(out)]) == 0
    finally:
        gc.callbacks.remove(count_start)
    assert starts == []
