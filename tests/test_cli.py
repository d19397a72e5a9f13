import hashlib
import json
from importlib import resources

import pytest

import toposval.ks
from toposval.cli import main

FIXA = {
    "dim": 3,
    "contexts": [
        {"id": "V1", "dim": 3, "atoms": [
            [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
        ]},
        {"id": "V2", "dim": 3, "atoms": [
            [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
        ]},
    ],
}

STATE = {"type": "pure", "data": [1, 0, 0]}


@pytest.fixture
def fixa_file(tmp_path):
    p = tmp_path / "fixa.json"
    p.write_text(json.dumps(FIXA))
    return str(p)


@pytest.fixture
def state_file(tmp_path):
    p = tmp_path / "state.json"
    p.write_text(json.dumps(STATE))
    return str(p)


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def test_build_poset(tmp_path, fixa_file):
    code, report = run(tmp_path, "build-poset", "--input", fixa_file, "--add-trivial")
    assert code == 0
    assert report["result"]["contextCount"] == 3
    assert report["result"]["coverCount"] == 2
    assert report["tool"] == "toposval"
    assert fixa_file in report["inputs"]
    assert report["tolerances"]["atom"] == 1e-8


def test_build_poset_empty_with_trivial(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"dim": 2, "contexts": []}))
    code, report = run(tmp_path, "build-poset", "--input", str(p), "--add-trivial")
    assert code == 0
    assert report["result"]["contextCount"] == 1


def test_build_poset_mixed_dims_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps([
        {"id": "A", "dim": 2, "atoms": [[[1, 0], [0, 1]]]},
        {"id": "B", "dim": 3, "atoms": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]},
    ]))
    code, report = run(tmp_path, "build-poset", "--input", str(p))
    assert code == 2
    assert "error" in report["result"]


@pytest.mark.parametrize("index", [5, 1.0, True, -1])
def test_build_poset_rejects_a_partition_index_with_an_error_result(tmp_path, index):
    # once an IndexError or TypeError traceback (exit 1), or, for True, read
    # as index 1
    p = tmp_path / "partition.json"
    p.write_text(json.dumps([
        {"id": "A", "dim": 2, "basis": [[1, 0], [0, 1]], "partition": [[0], [1]]},
        {"id": "B", "dim": 2, "basis": [[1, 0], [0, 1]], "partition": [[0], [index]]},
    ]))
    for command in ("build-poset", "ks"):
        code, report = run(tmp_path, command, "--input", str(p))
        assert code == 2
        assert report["result"] == {"error": f"partition of context 'B' has {index!r}, "
                                             f"which is not an index of its 2 basis vectors"}


@pytest.mark.parametrize("command", ["build-poset", "ks", "check-iso"])
def test_a_json_boolean_in_a_matrix_exits_2_with_an_error_result(tmp_path, command):
    # `true` was once read as 1, so this document passed as the identity
    p = tmp_path / "bool.json"
    p.write_text('[{"id": "V", "dim": 2, "atoms": [[[true, false], [false, true]]]}]')
    code, report = run(tmp_path, command, "--input", str(p))
    assert code == 2
    assert report["result"] == {"error": "expected a real or an [re, im] pair, got True"}


def test_a_declared_dim_that_a_later_context_breaks_exits_2(tmp_path):
    p = tmp_path / "dims.json"
    p.write_text(json.dumps({"dim": 2, "contexts": [
        {"id": "A", "dim": 2, "atoms": [[[1, 0], [0, 1]]]},
        {"id": "B", "dim": 3, "atoms": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]},
    ]}))
    code, report = run(tmp_path, "build-poset", "--input", str(p))
    assert code == 2
    assert report["result"] == {"error": "declared dim 2 does not match context 'B' of dim 3"}


def test_check_iso(tmp_path, fixa_file):
    code, report = run(tmp_path, "check-iso", "--input", fixa_file, "--add-trivial")
    assert code == 0
    assert report["result"]["passed"]
    assert report["result"]["failures"] == []


def test_valuate_unit_row(tmp_path, fixa_file, state_file):
    code, report = run(tmp_path, "valuate", "--input", fixa_file, "--add-trivial",
                       "--state", state_file)
    assert code == 0
    table = report["result"]["valuation"]
    assert table["V1"]["7"] == ["V1", "V2", "Vtriv"]   # unit proposition
    assert table["V1"]["0"] == []


def test_valuate_with_r(tmp_path, fixa_file, state_file):
    code, report = run(tmp_path, "valuate", "--input", fixa_file, "--add-trivial",
                       "--state", state_file, "--r", "0.5")
    assert code == 0
    assert report["result"]["r"] == 0.5
    assert report["result"]["valuation"]["Vtriv"]["1"] == ["Vtriv"]


def test_missing_input_file(tmp_path):
    code, report = run(tmp_path, "build-poset", "--input", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error" in report["result"]


def test_supports(tmp_path, fixa_file, state_file):
    code, report = run(tmp_path, "supports", "--input", fixa_file, "--add-trivial",
                       "--state", state_file)
    assert code == 0
    assert report["result"]["supports"] == {"V1": "1", "V2": "1", "Vtriv": "1"}
    assert report["result"]["globalElementCondition"]["status"] == "pass"


def test_verify_theorems(tmp_path, fixa_file, state_file):
    code, report = run(tmp_path, "verify-theorems", "--input", fixa_file,
                       "--add-trivial", "--state", state_file)
    assert code == 0
    r = report["result"]
    assert r["definition3"]["passed"]
    assert r["theorem1"]["conditions_hold"] and r["theorem2"]["conditions_hold"]
    assert r["reconstructFromSupports"]["equal"]


def test_verify_theorems_r(tmp_path, fixa_file, state_file):
    code, report = run(tmp_path, "verify-theorems", "--input", fixa_file,
                       "--add-trivial", "--state", state_file, "--r", "0.7")
    assert code == 0   # contracts hold even when the r-family loses condition (ii)


def test_survey_relations(tmp_path, fixa_file, state_file):
    code, report = run(tmp_path, "survey-relations", "--input", fixa_file,
                       "--add-trivial", "--state", state_file,
                       "--relation", "le", "--relation", "random:2", "--seed", "3")
    assert code == 0
    surveys = report["result"]["surveys"]
    assert len(surveys) == 3
    assert surveys[0]["all_hold"]


def test_ks_bundled(tmp_path):
    code, report = run(tmp_path, "ks")
    assert code == 0
    assert report["result"]["exists"] is False
    assert report["result"]["fixture"]["parityObstruction"]


def test_ks_expect_mismatch(tmp_path, fixa_file):
    code, report = run(tmp_path, "ks", "--input", fixa_file, "--add-trivial",
                       "--expect", "none")
    assert code == 1
    assert report["result"]["exists"] is True


def test_ks_expect_exists_on_a_none_verdict_exits_1(tmp_path):
    code, report = run(tmp_path, "ks", "--expect", "exists")
    assert code == 1
    assert report["result"]["exists"] is False


def test_an_unknown_relation_exits_with_one_line(tmp_path, fixa_file, state_file, monkeypatch):
    # the name was once checked inside the survey loop, after `le` was surveyed
    surveyed = []
    monkeypatch.setattr("toposval.cli.survey_properties", lambda a, rel: surveyed.append(rel))
    with pytest.raises(SystemExit) as exc:
        main(["survey-relations", "--input", fixa_file, "--add-trivial", "--state", state_file,
              "--relation", "le", "--relation", "bogus", "--out", str(tmp_path / "report.json")])
    assert str(exc.value) == ("unknown relation 'bogus'; choose from "
                              "['always-false', 'always-true', 'eq', 'ge', 'le', 'nonzero-product'] "
                              "or random:N")
    assert surveyed == []
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("count", ["x", "-2"])
def test_a_random_count_that_is_not_a_non_negative_integer_exits_before_any_survey(
        tmp_path, fixa_file, state_file, monkeypatch, count):
    # the count was once read inside the survey loop, after `le` was
    # surveyed: random:x exited 2 with int()'s error as the report, and
    # random:-2 exited 0 with the `le` survey alone
    surveyed = []
    monkeypatch.setattr("toposval.cli.survey_properties", lambda a, rel: surveyed.append(rel))
    with pytest.raises(SystemExit) as exc:
        main(["survey-relations", "--input", fixa_file, "--add-trivial", "--state", state_file,
              "--relation", "le", "--relation", f"random:{count}", "--out", str(tmp_path / "report.json")])
    assert str(exc.value) == f"--relation random:{count}: random:N expects a non-negative integer N"
    assert surveyed == []
    assert not (tmp_path / "report.json").exists()


def test_random_relations_are_numbered_across_every_random_spec(tmp_path, fixa_file, state_file):
    # each random:N once numbered its relations from random0 again, so two
    # different relations were both reported as random0; the draws come
    # from one generator in order, so two random:1 survey what random:2 does
    common = ["survey-relations", "--input", fixa_file, "--add-trivial", "--state", state_file,
              "--seed", "3"]
    code, split = run(tmp_path, *common, "--relation", "random:1", "--relation", "random:1")
    assert code == 0
    _, joined = run(tmp_path, *common, "--relation", "random:2")
    surveys = split["result"]["surveys"]
    assert [s["relation"] for s in surveys] == ["random0", "random1"]
    assert surveys == joined["result"]["surveys"]
    assert surveys[0] != surveys[1]


@pytest.mark.parametrize("flag", ["--add-trivial", "--close-under-meets"])
def test_ks_without_an_input_refuses_the_poset_flags(tmp_path, capsys, monkeypatch, flag):
    # the bundled poset is always built with the trivial context and closed
    # under meets, so the flags were once accepted and changed nothing
    built = []
    monkeypatch.setattr("toposval.cli.bundled_ks_poset", built.append)
    with pytest.raises(SystemExit) as exc:
        main(["ks", flag, "--out", str(tmp_path / "report.json")])
    assert exc.value.code == 2
    assert f"ks: {flag} needs --input" in capsys.readouterr().err
    assert built == []
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("flag", ["--add-trivial", "--close-under-meets"])
def test_ocat_refuses_the_poset_flags(tmp_path, state_file, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["ocat", "--input", "ops.json", "--state", state_file, flag,
              "--out", str(tmp_path / "report.json")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["build-poset", "valuate", "ocat"])
def test_a_command_other_than_ks_requires_an_input(tmp_path, state_file, command):
    state = [] if command == "build-poset" else ["--state", state_file]
    with pytest.raises(SystemExit) as exc:
        main([command, *state, "--out", str(tmp_path / "report.json")])
    assert str(exc.value) == "--input is required for this command"
    assert not (tmp_path / "report.json").exists()


def test_ocat(tmp_path, state_file):
    p = tmp_path / "ops.json"
    p.write_text(json.dumps({
        "dim": 3,
        "operators": [
            {"id": "A", "matrix": [[-1, 0, 0], [0, 1, 0], [0, 0, 2]]},
            {"id": "Asq", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 4]]},
            {"id": "one", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        ],
    }))
    code, report = run(tmp_path, "ocat", "--input", str(p), "--state", state_file)
    assert code == 0
    r = report["result"]
    assert r["compositionClosure"]["passed"]
    assert r["characterizationFailures"] == []
    srcs = {(m["src"], m["dst"]) for m in r["morphisms"]}
    # squaring collapses -1 and 1, so only the forward arrow exists
    assert ("Asq", "A") in srcs and ("A", "Asq") not in srcs


def test_report_bytes_deterministic(tmp_path, fixa_file, state_file):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    argv = ["verify-theorems", "--input", fixa_file, "--add-trivial",
            "--state", state_file, "--seed", "5"]
    main([*argv, "--out", str(out1)])
    main([*argv, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_tolerance_override(tmp_path, fixa_file):
    code, report = run(tmp_path, "build-poset", "--input", fixa_file,
                       "--tol", "atom=1e-6")
    assert code == 0
    assert report["tolerances"]["atom"] == 1e-6


def test_ks_tolerances_reach_section_verify(tmp_path, fixa_file, monkeypatch):
    seen = []
    verify = toposval.ks.section_verify

    def spy(poset, assignment, tol):
        seen.append(tol.recon)
        return verify(poset, assignment, tol)

    monkeypatch.setattr(toposval.ks, "section_verify", spy)
    code, report = run(tmp_path, "ks", "--input", fixa_file, "--add-trivial",
                       "--expect", "exists", "--tol", "recon=2e-7")
    assert code == 0 and report["result"]["exists"]
    assert seen == [2e-7]


def test_table_format(tmp_path, fixa_file, capsys):
    code = main(["build-poset", "--input", fixa_file, "--format", "table"])
    assert code == 0
    out = capsys.readouterr().out
    assert "contextCount" in out


def test_state_tolerances_reach_a_pure_state(tmp_path, fixa_file, state_file):
    # a PSD floor raised to 1e-3 rejects the zero eigenvalues of the pure state
    code, report = run(tmp_path, "valuate", "--input", fixa_file, "--add-trivial",
                       "--state", state_file, "--tol", "psd_floor=1e-3")
    assert code == 2
    assert "negative eigenvalue" in report["result"]["error"]


@pytest.mark.parametrize("spec, message", [
    ("bogus=1", "--tol: unknown tolerance name(s): ['bogus']"),
    ("certain", "--tol expects name=value, got 'certain'"),
    ("certain=abc", "--tol certain expects a number, got 'abc'"),
    # a non-finite width would make every stage degenerate (nan) or
    # overflow the closure's trace buckets (inf)
    ("certain=nan", "--tol certain expects a finite number, got 'nan'"),
    ("atom=inf", "--tol atom expects a finite number, got 'inf'"),
    ("psd_floor=-inf", "--tol psd_floor expects a finite number, got '-inf'"),
])
def test_malformed_tolerance_exits_with_one_line(tmp_path, spec, message):
    with pytest.raises(SystemExit) as exc:
        main(["ks", "--tol", spec, "--out", str(tmp_path / "report.json")])
    assert str(exc.value) == message
    assert exc.value.__context__ is None or exc.value.__suppress_context__
    assert not (tmp_path / "report.json").exists()


def test_a_non_positive_eigenvalue_grouping_width_names_its_tol_field(tmp_path):
    # the error names the --tol field a user sets
    ops = tmp_path / "ops.json"
    ops.write_text(json.dumps({"dim": 2, "operators": [{"id": "A", "matrix": [[1, 0], [0, -1]]}]}))
    state = tmp_path / "pure.json"
    state.write_text(json.dumps({"type": "pure", "data": [1, 0]}))
    code, report = run(tmp_path, "ocat", "--input", str(ops), "--state", str(state),
                       "--tol", "eig_group=-1")
    assert code == 2
    assert report["result"] == {"error": "eig_group must be positive"}


@pytest.mark.parametrize("operators,message", [
    (5, "operators must be an array of objects"),
    ([5], "each operator needs id and matrix"),
])
def test_a_malformed_operator_set_exits_2_with_an_error_result(tmp_path, operators, message):
    # iterating a number, or testing `"id" in 5`, was once a TypeError
    # traceback (exit 1)
    ops = tmp_path / "ops.json"
    ops.write_text(json.dumps({"dim": 2, "operators": operators}))
    state = tmp_path / "pure.json"
    state.write_text(json.dumps({"type": "pure", "data": [1, 0]}))
    code, report = run(tmp_path, "ocat", "--input", str(ops), "--state", str(state))
    assert code == 2
    assert report["result"] == {"error": message}


@pytest.mark.parametrize("ids", [[3], ["A", 3], [["A"]]])
def test_an_operator_id_that_is_not_a_string_exits_2_with_an_error_result(tmp_path, ids):
    # an int id was once accepted and reported as an int; an int beside a
    # string id, or a list id, was a TypeError traceback (exit 1)
    ops = tmp_path / "ops.json"
    ops.write_text(json.dumps({"dim": 2, "operators": [
        {"id": i, "matrix": [[1, 0], [0, k]]} for k, i in enumerate(ids)]}))
    state = tmp_path / "pure.json"
    state.write_text(json.dumps({"type": "pure", "data": [1, 0]}))
    code, report = run(tmp_path, "ocat", "--input", str(ops), "--state", str(state))
    assert code == 2
    assert report["result"] == {"error": f"operator id must be a string, got {ids[-1]!r}"}


@pytest.mark.parametrize("command", ["build-poset", "ks"])
def test_a_context_id_that_is_not_a_string_exits_2_with_an_error_result(tmp_path, command):
    # once a TypeError traceback from joining the ids
    p = tmp_path / "contexts.json"
    p.write_text(json.dumps([
        {"id": "A", "dim": 2, "basis": [[1, 0], [0, 1]], "partition": [[0], [1]]},
        {"id": 7, "dim": 2, "basis": [[1, 0], [0, 1]], "partition": [[0, 1]]},
    ]))
    code, report = run(tmp_path, command, "--input", str(p), "--add-trivial")
    assert code == 2
    assert report["result"] == {"error": "context id must be a string, got 7"}


def test_ocat_refuses_a_state_of_another_dimension(tmp_path):
    # once numpy's matmul message about a core dimension
    ops = tmp_path / "ops.json"
    ops.write_text(json.dumps(OCAT_OPS3))
    for doc in ({"type": "pure", "data": [1, 0]}, {"type": "density", "data": [[0.5, 0], [0, 0.5]]}):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(doc))
        code, report = run(tmp_path, "ocat", "--input", str(ops), "--state", str(state))
        assert code == 2
        assert report["result"] == {"error": "the state has dimension 2, the operators have dimension 3"}


# SHA-256 of whole report files for the bundled 18-ray fixture, closed under
# meets, and the pure state (0.6, 0.8, 0, 0); run from the directory that
# holds both files, so the input paths in the reports are the bare names.
# The digests pin report bytes across changes to the valuation kernel.
GOLDEN_COMMON = ["--input", "ks18.json", "--add-trivial", "--close-under-meets",
                 "--state", "state.json"]
GOLDEN_REPORTS = {
    "valuate": ([], "ebf7927ff79d019af8d89888fc6f74d3806222157af1e43aea7444f3c946d898"),
    "valuate-r0.6": (["--r", "0.6"],
                     "589c5f6106429f21cb76dda0fcedbe9082e3dce1513fffdb58ced9a32f6d7b3b"),
    "supports": ([], "fb12316ac27872972ed4a892fc96fa59630302c45745aac90dea15534538f503"),
    "verify-theorems": ([], "67b93cfc037139c95e1b75a64c510d98797e337318cc0030514c9c60dec01401"),
    "verify-theorems-r0.6": (["--r", "0.6"],
                             "460103a49c4136d285ebecefb467914ff310df6f21edf142d393b5361333f16c"),
    "survey-relations": (["--relation", "le", "--relation", "random:2", "--seed", "3"],
                         "bd3303daaf83cd9193edf0eb04981301f481d319d62794da826468623bc5d84a"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_golden_report_digest(tmp_path, monkeypatch, name):
    fixture = resources.files("toposval") / "data" / "ks18_dim4.json"
    (tmp_path / "ks18.json").write_bytes(fixture.read_bytes())
    (tmp_path / "state.json").write_text(json.dumps({"type": "pure", "data": [0.6, 0.8, 0, 0]}))
    monkeypatch.chdir(tmp_path)
    extra, digest = GOLDEN_REPORTS[name]
    command = name.split("-r0")[0]
    assert main([command, *GOLDEN_COMMON, *extra, "--out", "report.json"]) == 0
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == digest


# The same, for a rank-2 mixed state whose support is the span of the
# fixture's rays (0, 0, 1, 0) and (0, 0, 0, 1), at r = 1 and r = 0.6.  No
# cell's probability lies within 0.003 of 0.6.
MIXED_STATE = {"type": "density", "data": [[0, 0, 0, 0], [0, 0, 0, 0],
                                           [0, 0, 0.126, 0.168], [0, 0, 0.168, 0.874]]}
GOLDEN_MIXED_REPORTS = {
    "valuate-r1": ("1", "c5d8e8e40ab3681c468d4e4b25275abb88c5941c579ddb82db6bde7c7faf5e26"),
    "valuate-r0.6": ("0.6", "fd58260f564f4dfbac83e7aee671641d847cc71b7836c2fd59aae5dfd59d9dd1"),
    "verify-theorems-r1": ("1", "5424c2a1138405e530e0851e65224ceacdd28a37c9182e43f4073d2394adbba9"),
    "verify-theorems-r0.6": ("0.6",
                             "be2811243dc69d61c0237dcde15d97f038c6ae6b493a1f57c1bac1f2c79f1725"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MIXED_REPORTS))
def test_golden_mixed_state_report_digest(tmp_path, monkeypatch, name):
    fixture = resources.files("toposval") / "data" / "ks18_dim4.json"
    (tmp_path / "ks18.json").write_bytes(fixture.read_bytes())
    (tmp_path / "mixed.json").write_text(json.dumps(MIXED_STATE))
    monkeypatch.chdir(tmp_path)
    r, digest = GOLDEN_MIXED_REPORTS[name]
    command = name.split("-r")[0]
    assert main([command, "--input", "ks18.json", "--add-trivial", "--close-under-meets",
                 "--state", "mixed.json", "--r", r, "--out", "report.json"]) == 0
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == digest


# The same mixed state where laws fail: exclusivity below r = 0.5, and
# relations whose surveys break the null law and the analyses.  These pin
# the witnesses the member-matrix reductions report.
GOLDEN_MIXED_WITNESS_REPORTS = {
    "valuate-r0.3": (["valuate", "--r", "0.3"],
                     "df0a6d2d317ef2ad4b34a8cc7d4348265baf7c0eed4768c1896dc51d835832a0"),
    "supports-r0.3": (["supports", "--r", "0.3"],
                      "a28388d4bc7103a92390cae1315b224b486764226ed1fd3bb0374e849a66da14"),
    "supports-r0.6": (["supports", "--r", "0.6"],
                      "b3c6fdae26a483132d3f6bf78e3562f5c367f01df3b34077d88e7d26195e3248"),
    "verify-theorems-r0.3": (["verify-theorems", "--r", "0.3"],
                             "7a5e46653afb52bb2c931080624ba3eec1dda2e4143b75750ba35be820786af4"),
    "survey-relations": (["survey-relations", "--relation", "le", "--relation", "eq",
                          "--relation", "always-true", "--relation", "random:2", "--seed", "3"],
                         "2c871ef828baf741b8683c897f5bc1e26cafe7419e7853303ef0f1a57b483879"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MIXED_WITNESS_REPORTS))
def test_golden_mixed_state_witness_digest(tmp_path, monkeypatch, name):
    fixture = resources.files("toposval") / "data" / "ks18_dim4.json"
    (tmp_path / "ks18.json").write_bytes(fixture.read_bytes())
    (tmp_path / "mixed.json").write_text(json.dumps(MIXED_STATE))
    monkeypatch.chdir(tmp_path)
    args, digest = GOLDEN_MIXED_WITNESS_REPORTS[name]
    assert main([*args, "--input", "ks18.json", "--add-trivial", "--close-under-meets",
                 "--state", "mixed.json", "--out", "report.json"]) == 0
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == digest


# SHA-256 of whole reports of the commands that only build the closed poset
# of the bundled 18-ray fixture, run as above.  They pin the meet closure,
# the inclusion order, partition maps, atom order and ids.
GOLDEN_POSET_REPORTS = {
    "build-poset": "9216d0cf7bd0f9376cc22dba0f688355901d4520b80f12ca98a4035f3cc90e39",
    "check-iso": "8ca7b166e752f2e63f6a60807ba92f38f351eb819103d22b0634461398e3cc03",
    "ks": "67633601aa963f15044591e62efa774f39929979d48208d0a3e6a9a25f0ed5fb",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_POSET_REPORTS))
def test_golden_poset_report_digest(tmp_path, monkeypatch, command):
    fixture = resources.files("toposval") / "data" / "ks18_dim4.json"
    (tmp_path / "ks18.json").write_bytes(fixture.read_bytes())
    monkeypatch.chdir(tmp_path)
    assert main([command, "--input", "ks18.json", "--add-trivial", "--close-under-meets",
                 "--out", "report.json"]) == 0
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == GOLDEN_POSET_REPORTS[command]


# SHA-256 of whole `ocat` report files, run from the directory that holds
# the inputs: the 3-operator set of `test_ocat` with the pure state above,
# and a degenerate dim-5 set (C acts by a swap inside A's eigenvalue-1
# eigenspace, P projects onto the eigenvalue-2 eigenspace) with a mixed
# state that is coherent across that eigenspace.  The digests pin report
# bytes across changes to the operator-category kernel.
OCAT_OPS3 = {"dim": 3, "operators": [
    {"id": "A", "matrix": [[-1, 0, 0], [0, 1, 0], [0, 0, 2]]},
    {"id": "Asq", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 4]]},
    {"id": "one", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
]}
OCAT_OPS5 = {"dim": 5, "operators": [
    {"id": "A", "matrix": [[-1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                           [0, 0, 0, 2, 0], [0, 0, 0, 0, 2]]},
    {"id": "Asq", "matrix": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                             [0, 0, 0, 4, 0], [0, 0, 0, 0, 4]]},
    {"id": "C", "matrix": [[5, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0],
                           [0, 0, 0, 6, 0], [0, 0, 0, 0, 6]]},
    {"id": "P", "matrix": [[0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0],
                           [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]},
    {"id": "one", "matrix": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                             [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]},
]}
OCAT_MIXED5 = {"type": "density", "data": [
    [0.5, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0],
    [0, 0, 0, 0.25, 0.25], [0, 0, 0, 0.25, 0.25]]}
GOLDEN_OCAT = {
    "ops3-pure": (OCAT_OPS3, STATE,
                  "21701bbd0fff5a5f27c46903dea0071c3d3d3bcf4965ba8b941e0ed126c3b573"),
    "ops5-mixed": (OCAT_OPS5, OCAT_MIXED5,
                   "a7b4347bd239d2d146cbbfba4030649755f3fd2f626896c46f62248d5d59cb5a"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_OCAT))
def test_golden_ocat_digest(tmp_path, monkeypatch, name):
    ops, state, digest = GOLDEN_OCAT[name]
    (tmp_path / "ops.json").write_text(json.dumps(ops))
    (tmp_path / "state.json").write_text(json.dumps(state))
    monkeypatch.chdir(tmp_path)
    assert main(["ocat", "--input", "ops.json", "--state", "state.json",
                 "--out", "report.json"]) == 0
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == digest


# SHA-256 of the whole `ocat` report of the 3-operator set and pure state at
# a containment width of 10: every spectral projector of f(A) then dominates,
# so the infimum cross-check fails and the report carries the message of
# the first failing query.
OCAT_ERROR_DIGEST = "e053513872d00aaa599a588ecedf5b8dc8a6113c6027adf154f515fcafc2560f"


def test_golden_ocat_error_digest(tmp_path, monkeypatch):
    (tmp_path / "ops.json").write_text(json.dumps(OCAT_OPS3))
    (tmp_path / "state.json").write_text(json.dumps(STATE))
    monkeypatch.chdir(tmp_path)
    assert main(["ocat", "--input", "ops.json", "--state", "state.json",
                 "--tol", "certain=10", "--out", "report.json"]) == 2
    report = (tmp_path / "report.json").read_bytes()
    assert json.loads(report)["result"] == {
        "error": "coarse-graining paths disagree: preimage [-1.0] vs infimum []"}
    assert hashlib.sha256(report).hexdigest() == OCAT_ERROR_DIGEST


@pytest.mark.parametrize("r", ["1", "0.6", "0.3"])
def test_verify_theorems_builds_one_interval_subobject(tmp_path, monkeypatch, r):
    # theorem 2 and the interval reconstruction share the valuation's one
    # interval subobject; every construction, by `__init__` or from masks,
    # ends in `_settle`
    from toposval.presheaves import SubobjectSigma

    built = []
    settle = SubobjectSigma._settle

    def spy(self, *args, **kwargs):
        built.append(self)
        settle(self, *args, **kwargs)

    monkeypatch.setattr(SubobjectSigma, "_settle", spy)
    fixture = resources.files("toposval") / "data" / "ks18_dim4.json"
    (tmp_path / "ks18.json").write_bytes(fixture.read_bytes())
    (tmp_path / "mixed.json").write_text(json.dumps(MIXED_STATE))
    monkeypatch.chdir(tmp_path)
    assert main(["verify-theorems", "--input", "ks18.json", "--add-trivial", "--close-under-meets",
                 "--state", "mixed.json", "--r", r, "--out", "report.json"]) == 0
    assert len(built) == 1
