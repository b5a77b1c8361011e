import contextlib
import copy
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liecontract.algebra import from_json_dict, to_json_dict
from liecontract.cli import THREADS_ENV, _worker_count, run
from liecontract.families import FamilySpec, make_g_m_q


def out_of(capsys):
    return capsys.readouterr().out


def test_gen_round_trips_through_json(capsys):
    assert run(["gen", "--family", "gmq", "--m", "4", "--q", "3,5"]) == 0
    payload = json.loads(out_of(capsys))
    assert payload["family"] == {"family": "gmq", "m": 4, "q": [3, 5]}
    assert from_json_dict(payload) == make_g_m_q(4, (3, 5))


def test_gen_rejects_out_of_range_q(capsys):
    assert run(["gen", "--family", "gmq", "--m", "4", "--q", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "3 ≤ q ≤ m+1" in err


def test_gen_rejects_unparseable_q(capsys):
    assert run(["gen", "--family", "gmq", "--m", "4", "--q", "3,five"]) == 2
    assert "cannot parse q list" in capsys.readouterr().err


def test_invariants_text_panel(capsys):
    assert run(["invariants", "--family", "gm", "--m", "4"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines == [
        "label: g4",
        "dim: 9",
        "nilindex: 7",
        "lcs_dims: 9,7,6,5,4,3,2,0",
        "center_dim: 2",
        "b1: 2",
        "der_dim: 15",
        "char_seq: 7,1,1",
        "rank: 2",
    ]


def test_invariants_json_format(capsys):
    assert run(["invariants", "--family", "gmq", "--m", "4", "--q", "4", "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["label"] == "g4(4)"
    assert data["char_seq"] == [3, 3, 2, 1]
    assert data["der_dim"] == 22
    assert data["rank"] == 3


def test_invariants_from_file(tmp_path, capsys):
    source = tmp_path / "algebra.json"
    assert run(["gen", "--family", "gmq", "--m", "4", "--q", "4", "-o", str(source)]) == 0
    assert run(["invariants", "--in", str(source), "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["label"] == "gmq"
    assert data["dim"] == 9
    assert data["der_dim"] == 22


def test_invariants_need_a_source(capsys):
    assert run(["invariants"]) == 2
    assert "need --family or --in" in capsys.readouterr().err


def test_invariants_missing_file(capsys):
    assert run(["invariants", "--in", "/nonexistent/algebra.json"]) == 2
    assert capsys.readouterr().err.startswith("error:")


HEISENBERG = {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1"}}]}


@pytest.mark.parametrize(
    "text, message",
    [
        (json.dumps(HEISENBERG)[:-7], "Expecting"),
        (json.dumps({"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "x"}}]}), "cannot parse coefficient 'x'"),
        (json.dumps({"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": 0.5}}]}), "coefficient must be"),
        (json.dumps({"brackets": HEISENBERG["brackets"]}), "no 'dim' field"),
        (json.dumps({"dim": "3"}), "dim must be an integer"),
        (json.dumps({"dim": -1}), "dim must be an integer"),
        (json.dumps([HEISENBERG]), "must be a JSON object"),
        (json.dumps({"dim": 3, "basis": ["A", "B"]}), "'basis' must be a list of 3 strings"),
        (json.dumps({"dim": 3, "family": "gm"}), "'family' must be a JSON object"),
        (json.dumps({"dim": 3, "brackets": [{"i": 2, "j": 1, "coeffs": {"3": "1"}}]}), "index j must be an integer in 3..3"),
        (json.dumps({"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"4": "1"}}]}), "target index must be"),
        (
            json.dumps({"dim": 4, "brackets": [
                {"i": 1, "j": 2, "coeffs": {"3": "1"}},
                {"i": 1, "j": 3, "coeffs": {"1": "1"}},
            ]}),
            "Jacobi identity fails on the basis triple (1, 2, 3): component 3 of the Jacobi sum is -1",
        ),
        (
            json.dumps({"dim": 4, "brackets": [
                {"i": 1, "j": 2, "coeffs": {"3": "1"}},
                {"i": 1, "j": 2, "coeffs": {"4": "1"}},
            ]}),
            "duplicate bracket entry for (i, j) = (1, 2)",
        ),
        ("[" * 100000, "nested too deeply"),
        (json.dumps({"dim": 3, "family": {"family": [1, 2]}}), "'family.family' must be a string"),
    ],
    ids=[
        "truncated", "unparseable-coefficient", "float-coefficient", "missing-dim",
        "string-dim", "negative-dim", "not-an-object", "short-basis", "family-not-object",
        "i-not-below-j", "target-out-of-range", "jacobi-violation", "duplicate-pair",
        "deeply-nested", "family-label-not-string",
    ],
)
def test_invariants_rejects_malformed_input(tmp_path, capsys, text, message):
    source = tmp_path / "algebra.json"
    source.write_text(text)
    assert run(["invariants", "--in", str(source)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert message in captured.err


def test_invariants_accepts_its_own_heisenberg_document(tmp_path, capsys):
    source = tmp_path / "algebra.json"
    source.write_text(json.dumps(HEISENBERG))
    assert run(["invariants", "--in", str(source)]) == 0
    assert "der_dim: 6" in out_of(capsys).splitlines()


FUZZ_PAYLOADS = [
    to_json_dict(spec.build(), family=spec.metadata())
    for spec in (
        FamilySpec("gm", m=4),
        FamilySpec("gmq", m=4, q_list=(3, 5)),
        FamilySpec("filiform", n=6),
        FamilySpec("heisenberg", m=4),
    )
]
MUTATIONS = ("drop-key", "retype", "swap-ij", "duplicate-bracket", "perturb-coefficient", "truncate")
RETYPED = st.sampled_from([None, True, 1.5, "x", "", [], {}, -1, 0, 10**6])


def mutated_payload(data, payload, mutation) -> str:
    """One mutation of a valid `gen` payload, as the text of the input file."""
    doc = copy.deepcopy(payload)
    brackets = doc["brackets"]
    if mutation == "truncate":
        text = json.dumps(doc)
        return text[: data.draw(st.integers(0, len(text) - 1))]
    if mutation in ("drop-key", "retype"):
        entry = data.draw(st.sampled_from(brackets))
        holder = data.draw(st.sampled_from([doc, doc["family"], entry, entry["coeffs"]]))
        key = data.draw(st.sampled_from(sorted(holder)))
        if mutation == "drop-key":
            del holder[key]
        else:
            holder[key] = data.draw(RETYPED)
    elif mutation == "swap-ij":
        entry = data.draw(st.sampled_from(brackets))
        entry["i"], entry["j"] = entry["j"], entry["i"]
    elif mutation == "duplicate-bracket":
        brackets.append(copy.deepcopy(data.draw(st.sampled_from(brackets))))
    else:
        coeffs = data.draw(st.sampled_from(brackets))["coeffs"]
        key = data.draw(st.sampled_from(sorted(coeffs)))
        coeffs[key] = str(Fraction(coeffs[key]) + data.draw(st.integers(1, 3)))
    return json.dumps(doc)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "algebra.json"


@settings(max_examples=100, deadline=None)
@given(
    payload=st.sampled_from(FUZZ_PAYLOADS),
    mutation=st.sampled_from(MUTATIONS),
    data=st.data(),
)
def test_invariants_survives_mutated_input(fuzz_path, payload, mutation, data):
    fuzz_path.write_text(mutated_payload(data, payload, mutation))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["invariants", "--in", str(fuzz_path)])
    assert code in (0, 1, 2)
    if mutation in ("swap-ij", "duplicate-bracket"):
        assert code == 2
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")


def test_contract_emits_exponent_document(capsys):
    assert run(["contract", "--m", "4", "--q", "4", "--emit-exponents"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["a"] == [0, 1, 1, 2, 2, 3, 3, 3, 4]
    assert doc["target"] == "g4(4)"
    assert doc["target_match"] is True
    assert doc["limit"]["dim"] == 9
    assert {"i": 1, "j": 3, "k": 4, "c": "1", "e": -1} in doc["law"]["entries"]


def test_contract_text_output_ends_with_the_verdict(capsys):
    assert run(["contract", "--m", "4", "--q", "5"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[0] == "source: g4"
    assert lines[1] == "target: g4(5)"
    assert lines[2] == "exponents: 0,1,1,1,2,2,2,2,3"
    assert lines[-1] == "limit matches target: true"


def test_contract_heisenberg_from_cut_source(capsys):
    assert run(["contract", "--m", "4", "--q", "4", "--heisenberg"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[0] == "source: g4(4)"
    assert lines[1] == "target: h3+C2"
    assert lines[-1] == "limit matches target: true"


def test_contract_requires_a_target(capsys):
    assert run(["contract", "--m", "4"]) == 2
    assert "needs --q" in capsys.readouterr().err


def test_verify_complete_certificate(capsys):
    assert run(["verify-complete", "--m", "4", "--q", "4"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["complete"] is True
    assert doc["algebra_dim"] == 12
    assert doc["center_dim"] == 0
    assert doc["der_dim"] == 12


def test_verify_complete_uncut(capsys):
    assert run(["verify-complete", "--m", "5"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["complete"] is True
    assert doc["algebra_dim"] == 13


def test_check_bundle_passes(capsys):
    assert run(["check", "--m", "4", "--q", "4"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[-1] == "PASS 8/8"
    assert len(lines) == 9
    assert all(line.startswith("ok: ") for line in lines[:-1])


def test_check_requires_m_and_q(capsys):
    assert run(["check", "--m", "4"]) == 2
    assert "needs --m and --q" in capsys.readouterr().err


def test_table_csv_golden_rows(capsys):
    assert run(["table", "--m", "4", "--max-k", "1"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[0] == "m,q,dim,nilindex,lcs,b1,center_dim,der_dim,char_seq,rank,maximal_rank,complete"
    assert lines[1] == "4,,9,7,9;7;6;5;4;3;2;0,2,2,15,7;1;1,2,true,true"
    assert lines[3] == "4,4,9,3,9;5;2;0,4,2,22,3;3;2;1,3,false,true"
    assert lines[2].startswith("4,3,9,")
    assert len(lines) == 5


def test_table_markdown_header(capsys):
    assert run(["table", "--m", "4", "--max-k", "1", "--format", "md"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[0].startswith("| m | q | dim |")
    assert set(lines[1].replace("|", "").split()) == {"---"}
    assert len(lines) == 6


def test_table_json_row_count(capsys):
    assert run(["table", "--m", "4..5", "--max-k", "1", "--format", "json"]) == 0
    doc = json.loads(out_of(capsys))
    assert len(doc["rows"]) == 9
    assert doc["rows"][0]["m"] == 4
    assert doc["rows"][0]["q"] == []
    last = doc["rows"][-1]
    assert (last["m"], last["q"], last["dim"]) == (5, [6], 11)
    assert last["b1"] == last["rank"] == 3
    assert last["maximal_rank"] is True
    assert last["complete"] is True
    assert set(last) == {
        "m", "q", "dim", "nilindex", "lcs", "b1", "center_dim",
        "der_dim", "char_seq", "rank", "maximal_rank", "complete",
    }


def test_table_rejects_bad_range(capsys):
    assert run(["table", "--m", "6..4"]) == 2
    assert "cannot parse m range" in capsys.readouterr().err


def test_table_rejects_negative_max_k(capsys):
    assert run(["table", "--m", "4..5", "--max-k", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-k must be a nonnegative integer, got -1\n"


def test_table_max_k_zero_lists_the_uncut_rows(capsys):
    assert run(["table", "--m", "4..5", "--max-k", "0"]) == 0
    rows = out_of(capsys).splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["4", ""], ["5", ""]]


def test_table_output_is_byte_stable(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run(["table", "--m", "4", "--max-k", "2", "-o", str(first)]) == 0
    assert run(["table", "--m", "4", "--max-k", "2", "-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_table_parallel_matches_serial(tmp_path, monkeypatch):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert run(["table", "--m", "4", "--max-k", "1", "-o", str(serial)]) == 0
    monkeypatch.setenv(THREADS_ENV, "2")
    assert run(["table", "--m", "4", "--max-k", "1", "-o", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_worker_count_is_clamped():
    assert _worker_count(None, 35, 8) == 1
    assert _worker_count("", 35, 8) == 1
    assert _worker_count("1", 35, 8) == 1
    assert _worker_count("4", 35, 8) == 4
    assert _worker_count("16", 35, 8) == 8
    assert _worker_count("16", 3, 8) == 3
    assert _worker_count("16", 35, None) == 1


@pytest.mark.parametrize("setting", ["abc", "0", "-1", "2.5"])
def test_worker_count_rejects_non_positive_integers(setting):
    with pytest.raises(ValueError, match=THREADS_ENV):
        _worker_count(setting, 35, 8)


@pytest.mark.parametrize("setting", ["abc", "0", "-1"])
def test_table_rejects_bad_thread_setting(monkeypatch, capsys, setting):
    monkeypatch.setenv(THREADS_ENV, setting)
    assert run(["table", "--m", "4", "--max-k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {THREADS_ENV} must be a positive integer")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "liecontract", "check", "--m", "4", "--q", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "PASS 8/8"


def test_output_files_end_with_newline(tmp_path):
    target = tmp_path / "panel.txt"
    assert run(["invariants", "--family", "gm", "--m", "4", "-o", str(target)]) == 0
    assert target.read_text().endswith("rank: 2\n")
