"""Tests for the batch front end: exit codes, reports, determinism."""

import json
from pathlib import Path

import pytest

from nkoszul import cli
from nkoszul.cli import CHECK_NAMES, RunConfig, emit, explain, main, run
from nkoszul.jsonio import InputError, load_input, parse_input, psi_to_json


DOWN_UP = {
    "presentation": {"builder": "down_up", "alpha": "2", "beta": "-1", "gamma": "1"}
}

SL2 = {
    "presentation": {
        "builder": "lie",
        "structure_constants": [[1, 2, 2, "2"], [1, 3, 3, "-2"], [2, 3, 1, "1"]],
    }
}

NON_JACOBI = {
    "presentation": {
        "builder": "lie",
        "structure_constants": [[1, 3, 1, "1"], [2, 3, 3, "1"]],
    }
}

SYMPLECTIC = {
    "context": {
        "conductor": 1,
        "dimV": 2,
        "group_generators": [["-1", "0", "0", "-1"]],
    },
    "presentation": {
        "builder": "h_psi",
        "p": 2,
        "psi_builder": {
            "builder": "symplectic_reflection",
            "omega": [["0", "1"], ["-1", "0"]],
            "m": ["1", "1"],
        },
    },
}

EXPLICIT = {
    "context": {"conductor": 1, "dimV": 2},
    "presentation": {
        "N": 2,
        "P": [
            [
                {"coeff": "1", "word": [1, 2], "g": 0},
                {"coeff": "-1", "word": [2, 1], "g": 0},
                {"coeff": "-1", "word": [], "g": 0},
            ]
        ],
    },
}


FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_down_up_full_pipeline_exit_zero(tmp_path):
    path = write(tmp_path, "du.json", DOWN_UP)
    report, code = run(RunConfig(input_path=path, degree_bound=8, checks=["pbw", "oracle"]))
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["checks"]["pbw"]["theorem34_verdict"] == "pbw_certified_up_to_bound"


def test_non_jacobi_exit_one_with_witness(tmp_path):
    path = write(tmp_path, "bad.json", NON_JACOBI)
    report, code = run(
        RunConfig(input_path=path, degree_bound=6, checks=["condition_I", "condition_J", "oracle"])
    )
    assert code == 1
    assert report["verdict"] == "fail"
    jrep = report["checks"]["condition_J"]
    assert jrep["ok"] is False and jrep["J'2"] == {"1": False}
    assert report["checks"]["oracle"]["witness_degree"] == 3


def test_repeated_check_names_run_once(tmp_path, monkeypatch):
    calls = []
    original = cli.oracle_pbw

    def counting_oracle_pbw(pres, D):
        calls.append(D)
        return original(pres, D)

    monkeypatch.setattr(cli, "oracle_pbw", counting_oracle_pbw)
    path = write(tmp_path, "bad.json", NON_JACOBI)
    report, code = run(RunConfig(input_path=path, degree_bound=4, checks=["oracle", "oracle"]))
    assert code == 1
    assert report["config"]["checks"] == ["oracle"]
    assert report["failures"] == ["oracle"]
    assert list(report["checks"]) == ["oracle"]
    assert calls == [4]
    # the first mention fixes the order
    report, _ = run(
        RunConfig(input_path=path, degree_bound=4, checks=["condition_I", "oracle", "condition_I"])
    )
    assert report["config"]["checks"] == ["condition_I", "oracle"]


def test_truncated_json_exit_two(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"presentation":')
    report, code = run(RunConfig(input_path=str(path)))
    assert code == 2 and "error" in report


@pytest.mark.parametrize(
    "presentation",
    [
        {"builder": "lie", "structure_constants": [[1, 2, 3]]},
        {"builder": "lie", "structure_constants": [[1, 2, 2, "1/0"]]},
        {"builder": "lie", "structure_constants": [[1, 2, 0, "1"]]},
        {"builder": "lie"},
        {"builder": "down_up", "alpha": "2", "beta": "-1"},
        {"builder": "h_psi"},
    ],
    ids=[
        "lie_row_arity",
        "zero_denominator",
        "lie_index",
        "lie_missing",
        "down_up_missing",
        "h_psi_missing",
    ],
)
def test_malformed_builder_input_exit_two(tmp_path, presentation):
    data = {"context": {"conductor": 1, "dimV": 2}, "presentation": presentation}
    path = write(tmp_path, "bad.json", data)
    report, code = run(RunConfig(input_path=path, degree_bound=4, checks=["oracle"]))
    assert code == 2
    assert report["error"] and "\n" not in report["error"]


PSI_TABLE = {
    "context": SYMPLECTIC["context"],
    "presentation": {
        "builder": "h_psi",
        "p": 2,
        "psi": {"p": 2, "psi": [{"g": 0, "values": {"[1, 2]": "1"}}]},
    },
}


def with_field(data, path, value):
    """A deep copy of ``data`` with the entry at ``path`` replaced."""
    out = json.loads(json.dumps(data))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@pytest.mark.parametrize(
    "data",
    [
        with_field(EXPLICIT, ("presentation", "P", 0, 0, "word"), [1.9, 2]),
        with_field(EXPLICIT, ("presentation", "P", 0, 0, "word"), [1, 2.0]),
        with_field(EXPLICIT, ("presentation", "P", 0, 0, "g"), False),
        with_field(EXPLICIT, ("presentation", "N"), 2.0),
        with_field(EXPLICIT, ("context", "dimV"), 2.0),
        with_field(EXPLICIT, ("context", "conductor"), 1.0),
        with_field(SYMPLECTIC, ("context", "order_cap"), 10.5),
        with_field(SL2, ("presentation", "structure_constants", 0, 0), 1.0),
        with_field(SL2, ("presentation", "structure_constants", 2, 2), True),
        with_field(SYMPLECTIC, ("presentation", "p"), 2.0),
        with_field(PSI_TABLE, ("presentation", "psi", "psi", 0, "g"), 0.0),
        with_field(PSI_TABLE, ("presentation", "psi", "psi", 0, "values"), {"[1.0, 2]": "1"}),
    ],
    ids=[
        "letter_1.9",
        "letter_2.0",
        "g_false",
        "N_float",
        "dimV_float",
        "conductor_float",
        "order_cap_float",
        "lie_i_float",
        "lie_k_true",
        "p_float",
        "psi_g_float",
        "psi_key_float",
    ],
)
def test_non_integer_index_exit_two(tmp_path, data):
    path = write(tmp_path, "bad.json", data)
    report, code = run(RunConfig(input_path=path, degree_bound=4, checks=["condition_I"]))
    assert code == 2
    assert "expected an integer" in report["error"]


@pytest.mark.parametrize(
    "data",
    [
        with_field(PSI_TABLE, ("presentation", "psi", "psi", 0, "g"), 2),
        with_field(PSI_TABLE, ("presentation", "psi", "psi", 0, "g"), -1),
        with_field(PSI_TABLE, ("presentation", "psi", "psi", 0, "values"), {"[1, 5]": "1"}),
        with_field(
            SYMPLECTIC,
            ("presentation", "psi_builder"),
            {"builder": "corollary45", "p": 2, "phi": {"[1, 5]": "1"}},
        ),
        with_field(SYMPLECTIC, ("context", "group_generators"), 5),
        with_field(SYMPLECTIC, ("context", "group_generators"), [5]),
        with_field(SYMPLECTIC, ("presentation", "psi_builder", "m"), 5),
        with_field(PSI_TABLE, ("presentation", "psi", "psi", 0, "values"), [["[1, 2]", "1"]]),
    ],
    ids=[
        "psi_g_2",
        "psi_g_negative",
        "psi_key_out_of_range",
        "corollary45_key_out_of_range",
        "generators_int",
        "generator_int",
        "m_int",
        "psi_values_list",
    ],
)
def test_malformed_psi_and_group_blocks_exit_two(tmp_path, data):
    path = write(tmp_path, "bad.json", data)
    report, code = run(RunConfig(input_path=path, degree_bound=4, checks=["condition_I"]))
    assert code == 2
    assert report["error"] and "\n" not in report["error"]


SR_Z6 = {
    "context": {"conductor": 6, "dimV": 2, "group_generators": [["zeta", "0", "0", "zeta^5"]]},
    "presentation": {
        "builder": "h_psi",
        "p": 2,
        "psi_builder": {
            "builder": "symplectic_reflection",
            "omega": [["0", "1"], ["-1", "0"]],
            "m": ["1", "1", "1", "1", "1", "1"],
        },
    },
}


@pytest.mark.parametrize(
    "data, checks",
    [
        # four entries in ragged rows were once read as [[0, 1], [-1, 0]]
        (with_field(SR_Z6, ("presentation", "psi_builder", "omega"), [["0"], ["1", "-1", "0"]]), "equivariance,theorem44"),
        (with_field(SR_Z6, ("presentation", "psi_builder", "omega"), ["01", "-10"]), "equivariance,theorem44"),
        (with_field(SR_Z6, ("presentation", "psi_builder", "omega"), [["0", "1"], ["-1", "0"], []]), "equivariance"),
        # a string word was once read letter by letter as [1, 2]
        (with_field(EXPLICIT, ("presentation", "P", 0, 0, "word"), "12"), "condition_I,ec"),
        (with_field(PSI_TABLE, ("presentation", "psi", "psi", 0, "values"), {'"12"': "1"}), "condition_I"),
        (
            with_field(
                SYMPLECTIC,
                ("presentation", "psi_builder"),
                {"builder": "corollary45", "p": 2, "phi": {'"12"': "1"}},
            ),
            "condition_I",
        ),
    ],
    ids=["omega_ragged", "omega_strings", "omega_extra_row", "word_string", "psi_key_string", "phi_key_string"],
)
def test_omega_and_words_must_be_json_lists(tmp_path, data, checks):
    path = write(tmp_path, "bad.json", data)
    report, code = run(RunConfig(input_path=path, degree_bound=4, checks=checks.split(",")))
    assert code == 2
    assert report["error"] and "\n" not in report["error"]
    with pytest.raises(InputError):
        load_input(path)


def test_unknown_check_exit_two(tmp_path):
    path = write(tmp_path, "du.json", DOWN_UP)
    report, code = run(RunConfig(input_path=path, checks=["definitely_not_a_check"]))
    assert code == 2


def test_empty_check_selection_exit_two(tmp_path, capsys):
    path = write(tmp_path, "du.json", DOWN_UP)
    assert run(RunConfig(input_path=path, checks=[])) == ({"error": "no checks selected"}, 2)
    # "," splits into no check names: nothing runs, so nothing can pass
    assert main(["--input", path, "--checks", ",", "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "no checks selected"}


def test_bound_below_2N_for_pbw_exit_two(tmp_path):
    path = write(tmp_path, "du.json", DOWN_UP)
    report, code = run(RunConfig(input_path=path, degree_bound=5, checks=["pbw"]))
    assert code == 2


def test_hpsi_checks_require_hpsi_input(tmp_path):
    path = write(tmp_path, "du.json", DOWN_UP)
    report, code = run(RunConfig(input_path=path, checks=["theorem44"]))
    assert code == 2


def test_names_beside_all_are_validated_as_alone():
    sl2 = str(FIXTURES / "sl2.json")
    for checks, error in (
        (["all", "definitely_not_a_check"], "unknown checks: definitely_not_a_check"),
        (["all", "theorem44"], "check theorem44 requires an h_psi presentation (group, p, psi)"),
    ):
        assert run(RunConfig(input_path=sl2, degree_bound=4, checks=checks)) == ({"error": error}, 2)
    # a named check whose precondition fails exits 2 beside "all" as alone
    down_up = str(FIXTURES / "down_up.json")
    for path, D, name in ((sl2, 3, "tor3"), (down_up, 6, "dN_zero")):
        alone = run(RunConfig(input_path=path, degree_bound=D, checks=[name]))
        assert alone[1] == 2
        assert run(RunConfig(input_path=path, degree_bound=D, checks=["all", name])) == alone
    # an applicable name beside "all" adds nothing: each check once, in CHECK_NAMES order
    sr_z6 = str(FIXTURES / "sr_z6.json")
    report, code = run(RunConfig(input_path=sr_z6, degree_bound=4, checks=["all", "equivariance"]))
    assert code == 0
    assert report["config"]["checks"] == CHECK_NAMES
    assert list(report["checks"]) == CHECK_NAMES


@pytest.mark.parametrize("name", ["contracted_complex", "wedge_agreement"])
def test_a_value_error_inside_the_slice_maps_is_internal(name, monkeypatch, capsys):
    # every check applies to sr_z6, so "all" skips none: the error is a crash, not a skip
    def crash(family):
        raise ValueError("rank mismatch")

    monkeypatch.setattr(cli, name, crash)
    code = main(["--input", str(FIXTURES / "sr_z6.json"), "--degree-bound", "4", "--checks", "all"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error: ValueError: rank mismatch\n"


def test_symplectic_all_checks_pass(tmp_path):
    path = write(tmp_path, "sy.json", SYMPLECTIC)
    report, code = run(RunConfig(input_path=path, degree_bound=6, checks=["all"]))
    assert code == 0
    assert set(report["checks"]) == set(CHECK_NAMES)
    assert report["checks"]["theorem44"]["ok"]
    assert report["checks"]["dN_zero"]["ok"]
    assert report["checks"]["wedge_agreement"]["ok"]


def test_all_skips_hpsi_checks_for_plain_inputs(tmp_path):
    path = write(tmp_path, "sl2.json", SL2)
    report, code = run(RunConfig(input_path=path, degree_bound=6, checks=["all"]))
    assert code == 0
    assert "theorem44" not in report["checks"]
    assert "equivariance" not in report["checks"]
    assert report["checks"]["pbw"]["ok"]


def test_explicit_presentation_parses_and_runs(tmp_path):
    path = write(tmp_path, "weyl.json", EXPLICIT)
    report, code = run(
        RunConfig(input_path=path, degree_bound=6, checks=["condition_I", "condition_J", "oracle"])
    )
    assert code == 0
    assert report["checks"]["oracle"]["candidate_gr_dims"] == [1, 2, 3, 4, 5, 6, 7]


def test_report_json_round_trip(tmp_path):
    path = write(tmp_path, "du.json", DOWN_UP)
    report, _ = run(RunConfig(input_path=path, degree_bound=6, checks=["oracle", "ec"], format="json"))
    text = emit(report, "json")
    assert json.loads(text) == report


def test_reports_byte_identical_across_runs(tmp_path):
    path = write(tmp_path, "sy.json", SYMPLECTIC)
    cfg = RunConfig(input_path=path, degree_bound=6, checks=["all"], format="json")
    first, _ = run(cfg)
    second, _ = run(cfg)
    assert emit(first, "json") == emit(second, "json")


def test_main_writes_out_file(tmp_path):
    path = write(tmp_path, "du.json", DOWN_UP)
    out = tmp_path / "report.json"
    code = main([
        "--input", path, "--degree-bound", "6", "--checks", "oracle",
        "--format", "json", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "pass"


def test_internal_error_exits_three_with_one_line(tmp_path, monkeypatch, capsys):
    import nkoszul.cli as cli

    def crash(alg):
        raise RuntimeError("internal error: pivot vanished\nsecond line")

    monkeypatch.setattr(cli, "check_ec", crash)
    path = write(tmp_path, "du.json", DOWN_UP)
    code = main(["--input", path, "--degree-bound", "6", "--checks", "ec"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error: RuntimeError: internal error: pivot vanished second line\n"


def test_unwritable_out_file_exits_two(tmp_path, capsys):
    path = write(tmp_path, "du.json", DOWN_UP)
    out = tmp_path / "missing" / "report.json"
    code = main(["--input", path, "--degree-bound", "6", "--checks", "ec", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}:") and err.count("\n") == 1


def test_main_explain():
    assert main(["explain", "ec"]) == 0
    assert main(["explain", "nonsense"]) == 2


def test_certificate_unconditional_for_antisymmetrizer(tmp_path):
    path = write(tmp_path, "sl2.json", SL2)
    report, _ = run(RunConfig(input_path=path, degree_bound=6, checks=["koszul_complex"]))
    assert report["checks"]["koszul_complex"]["unconditional"] is True


def test_explain_covers_every_check():
    for name in CHECK_NAMES:
        text = explain(name)
        assert name.split("_")[0].lower() in text.lower() or ":" in text
    with pytest.raises(KeyError):
        explain("nope")


def test_input_error_messages():
    with pytest.raises(InputError):
        parse_input({"presentation": {"builder": "unknown_thing"}})
    with pytest.raises(InputError):
        parse_input({})
    with pytest.raises(InputError):
        parse_input(
            {
                "context": {"conductor": 1, "dimV": 2},
                "presentation": {"N": 2, "P": [[{"coeff": "1", "word": [1, 2, 3], "g": 0}]]},
            }
        )


def test_context_conductor_mismatch_is_input_error():
    # group matrix entries using zeta over a rational context
    data = {
        "context": {"conductor": 1, "dimV": 2, "group_generators": [["zeta", "0", "0", "zeta"]]},
        "presentation": {"N": 2, "P": []},
    }
    with pytest.raises(InputError):
        parse_input(data)


CUBIC_ZETA3 = {
    "context": {"conductor": 3, "dimV": 3},
    "presentation": {
        "builder": "h_psi",
        "p": 3,
        "psi": {"p": 3, "psi": [{"g": 0, "values": {"[1,2,3]": "1"}}]},
    },
}


def test_cubic_over_cyclotomic_field_full_cli(tmp_path):
    path = write(tmp_path, "z3.json", CUBIC_ZETA3)
    report, code = run(
        RunConfig(
            input_path=path,
            degree_bound=6,
            checks=["theorem44", "pbw", "dN_zero", "contraction", "wedge_agreement"],
        )
    )
    assert code == 0
    assert report["checks"]["dN_zero"]["q"] == "zeta"
    assert report["checks"]["pbw"]["theorem34_verdict"] == "pbw_certified_unconditionally"
    gr = [row["candidate_gr_dim"] for row in report["checks"]["pbw"]["gr_table"]]
    assert gr == [1, 3, 9, 26, 75, 216, 622]


def test_dN_zero_needs_compatible_conductor(tmp_path):
    data = {
        "context": {"conductor": 1, "dimV": 3},
        "presentation": {
            "builder": "h_psi",
            "p": 3,
            "psi": {"p": 3, "psi": [{"g": 0, "values": {"[1,2,3]": "1"}}]},
        },
    }
    path = write(tmp_path, "z1.json", data)
    report, code = run(RunConfig(input_path=path, degree_bound=6, checks=["dN_zero"]))
    assert code == 2 and "conductor" in report["error"]


def test_psi_block_arity_must_match_the_presentation(tmp_path):
    # a psi of arity 3 under an h_psi presentation of p = 2
    data = {
        "context": {"conductor": 1, "dimV": 3},
        "presentation": {
            "builder": "h_psi",
            "p": 2,
            "psi": {"p": 3, "psi": [{"g": 0, "values": {"[1,2,3]": "1"}}]},
        },
    }
    path = write(tmp_path, "arity.json", data)
    assert main(["--input", path, "--checks", "condition_I", "--out", str(tmp_path / "r.txt")]) == 2
    report, code = run(RunConfig(input_path=path, checks=["condition_I"]))
    assert code == 2 and "error" in report


def test_terms_json_round_trip():
    from nkoszul.jsonio import parse_terms, terms_to_json
    from nkoszul.smashtensor import GroupData, TensorContext

    ctx = TensorContext(2, GroupData.trivial(2, 3), 3)
    items = [
        {"coeff": "zeta - 1/2", "word": [1, 2], "g": 0},
        {"coeff": "2", "word": [], "g": 0},
    ]
    terms = parse_terms(ctx, items)
    again = parse_terms(ctx, terms_to_json(terms))
    assert terms == again


def test_psi_json_round_trip(tmp_path):
    path = write(tmp_path, "sy.json", SYMPLECTIC)
    pres, psi = load_input(path)
    blob = psi_to_json(psi)
    from nkoszul.jsonio import parse_psi

    again = parse_psi(blob, pres.ctx.group, pres.ctx.conductor)
    assert again.components == psi.components
