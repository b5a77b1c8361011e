import contextlib
import copy
import io
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liecontract.algebra import LieAlgebra, MalformedAlgebraError, check_jacobi, from_json_dict, to_json_dict
from liecontract.cli import run
from liecontract.completeness import build_r_m
from liecontract.families import FAMILY_NAMES, FamilySpec, make_g_m_q
from oracles import in_basis, jacobi_violations_by_fibers


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


@pytest.mark.parametrize("command", ["gen", "invariants"])
def test_family_flag_offers_exactly_the_family_names(capsys, command):
    with pytest.raises(SystemExit) as stop:
        run([command, "--help"])
    assert stop.value.code == 0
    assert "--family {" + ",".join(FAMILY_NAMES) + "}" in out_of(capsys)
    assert FAMILY_NAMES == ("gm", "gmq", "filiform", "heisenberg", "abelian")


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
    assert data["char_seq_witness"] == [2, 3, 0, 5, 0, 7, 0, 0, 0]
    assert data["char_seq_certified"] is True
    assert data["der_dim"] == 22
    assert data["rank"] == 3


def test_invariants_json_of_a_non_nilpotent_algebra(tmp_path, capsys):
    source = tmp_path / "r4.json"
    source.write_text(json.dumps(to_json_dict(build_r_m(4))))
    assert run(["invariants", "--in", str(source), "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["nilindex"] is None
    assert data["char_seq"] is data["char_seq_witness"] is data["char_seq_certified"] is None


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


def test_invariants_in_takes_no_family_flags(tmp_path, capsys):
    source = tmp_path / "g4.json"
    assert run(["gen", "--family", "gm", "--m", "4", "-o", str(source)]) == 0
    for flags in (["--family", "gmq", "--m", "9", "--q", "3"], ["--family", "gm"], ["--m", "5"], ["--n", "3"], ["--q", "3"]):
        assert run(["invariants", "--in", str(source), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --in reads the whole algebra; it takes no --family, --m, --n or --q\n"


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
        # A target key is read only in the form `gen` writes, so it has no
        # aliases; keys repeated literally would otherwise collapse to the
        # last value in json.load.
        ('{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": 1, "03": 5}}]}', "bracket (1, 2): bad target index '03'"),
        ('{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {" 3": 1, "3": 5}}]}', "bracket (1, 2): bad target index ' 3'"),
        # At dim 12 a two-character key is not too long, so these reach the pattern.
        ('{"dim": 12, "brackets": [{"i": 1, "j": 2, "coeffs": {"03": 1}}]}', "bracket (1, 2): bad target index '03'"),
        ('{"dim": 12, "brackets": [{"i": 1, "j": 2, "coeffs": {"+3": 1}}]}', "bracket (1, 2): bad target index '+3'"),
        ('{"dim": 12, "brackets": [{"i": 1, "j": 2, "coeffs": {" 3": 1}}]}', "bracket (1, 2): bad target index ' 3'"),
        ('{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"\\u0663": 1}}]}', "bracket (1, 2): bad target index '\u0663'"),
        ('{"dim": 12, "brackets": [{"i": 1, "j": 2, "coeffs": {"1_2": 1}}]}', "bracket (1, 2): bad target index '1_2'"),
        ('{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": 1, "3": 5}}]}', "duplicate key '3' in a JSON object"),
        ('{"dim": 3, "dim": 4, "brackets": []}', "duplicate key 'dim' in a JSON object"),
        # Integer literals past Python's int-conversion digit limit.
        ('{"dim": %s, "brackets": []}' % ("9" * 5000), "integer literal of 5000 digits"),
        ('{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": %s}}]}' % ("9" * 5000), "integer literal of 5000 digits"),
        # Only the "p" and "p/q" strings that `gen` writes are coefficients.
        (json.dumps({"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1e3000000"}}]}), "cannot parse coefficient '1e3000000'"),
        (json.dumps({"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1.5"}}]}), "cannot parse coefficient '1.5'"),
        (json.dumps({"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1_000"}}]}), "cannot parse coefficient '1_000'"),
        # A long value is echoed as a prefix and its length.
        (json.dumps({"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "9" * 5000}}]}), "cannot parse coefficient '9999999999999999999... (5002 characters)"),
        (json.dumps({"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"9" * 5000: "1"}}]}), "bad target index '9999999999999999999... (5002 characters)"),
        ('{"dim": 3, "brackets": [{"i": %s, "j": 2, "coeffs": {}}]}' % ("9" * 4000), "got 99999999999999999999... (4000 characters)"),
        # One past the cap on dim, and a dim far past it, rejected before anything is built.
        (json.dumps({"dim": 513, "brackets": []}), "dim must be at most 512, got 513"),
        ('{"dim": %s, "brackets": []}' % ("9" * 4000), "dim must be at most 512, got 99999999999999999999... (4000 characters)"),
    ],
    ids=[
        "truncated", "unparseable-coefficient", "float-coefficient", "missing-dim",
        "string-dim", "negative-dim", "not-an-object", "short-basis", "family-not-object",
        "i-not-below-j", "target-out-of-range", "jacobi-violation", "duplicate-pair",
        "deeply-nested", "family-label-not-string", "aliased-target", "padded-alias-target",
        "zero-padded-target", "signed-target", "space-padded-target", "arabic-indic-digit-target", "underscore-target",
        "repeated-target-key", "repeated-top-level-key", "long-dim-literal",
        "long-coefficient-literal", "exponent-coefficient", "decimal-coefficient",
        "underscore-coefficient", "long-coefficient-string", "long-target-key", "long-bracket-index",
        "dim-above-cap", "long-dim-above-cap",
    ],
)
def test_invariants_rejects_malformed_input(tmp_path, capsys, text, message):
    source = tmp_path / "algebra.json"
    source.write_text(text)
    assert run(["invariants", "--in", str(source)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1
    assert len(captured.err.encode()) < 200
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


def test_contract_heisenberg_rejects_chain_parameters(capsys):
    # The Heisenberg exponents do not depend on N1, N2, so naming them is an error.
    for flag in ("--n1", "--n2"):
        assert run(["contract", "--m", "6", "--heisenberg", flag, "3", "--emit-exponents"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "--heisenberg" in captured.err
    assert run(["contract", "--m", "6", "--heisenberg", "--emit-exponents"]) == 0
    doc = json.loads(out_of(capsys))
    assert (doc["n1"], doc["n2"]) == (1, 1)


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


@pytest.mark.parametrize("setting", ["abc", "2"])
def test_table_ignores_thread_setting(monkeypatch, capsys, setting):
    # The sweep runs in one process; a variable left over from older scripts changes nothing.
    monkeypatch.delenv("LIECONTRACT_THREADS", raising=False)
    assert run(["table", "--m", "4", "--max-k", "1"]) == 0
    unset = capsys.readouterr()
    monkeypatch.setenv("LIECONTRACT_THREADS", setting)
    assert run(["table", "--m", "4", "--max-k", "1"]) == 0
    assert capsys.readouterr() == unset


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


# A fixed invertible change of basis with entries in [-2, 2]; its inverse has
# denominators up to 1929, so the transported tensor is dense and non-integral.
DENSE_BASIS = [
    [1, -1, 2, 0, -1, 1, 0, 2, -1],
    [1, 0, 1, 2, 2, -1, 0, 2, 0],
    [2, -2, -1, 1, -1, 2, -1, 1, -2],
    [0, 1, 1, -2, -1, 0, 1, 0, 0],
    [-1, 0, 1, 1, 0, 2, -1, 1, -1],
    [-1, -2, -1, -2, 0, 2, 0, 2, 1],
    [2, -2, 0, 2, -1, -1, 1, 0, -1],
    [-1, 0, 1, 2, -1, 0, 1, 2, 0],
    [0, 1, -1, -1, 0, -1, 2, -2, -2],
]


def test_invariants_are_basis_independent_in_a_dense_basis(tmp_path, capsys):
    family = ["gmq", "--m", "4", "--q", "4"]
    assert run(["gen", "--family", *family]) == 0
    dense = in_basis(json.loads(out_of(capsys)), DENSE_BASIS)
    assert any("/" in v for entry in dense["brackets"] for v in entry["coeffs"].values())
    source = tmp_path / "dense.json"
    source.write_text(json.dumps(dense))
    assert run(["invariants", "--family", *family, "--format", "json"]) == 0
    adapted = json.loads(out_of(capsys))
    assert run(["invariants", "--in", str(source), "--format", "json"]) == 0
    panel = json.loads(out_of(capsys))
    for key in ("dim", "nilindex", "lcs_dims", "center_dim", "b1", "der_dim", "char_seq"):
        assert panel[key] == adapted[key], key
    # The generic candidate is supported on the b1 coordinates outside [L, L].
    assert panel["char_seq_certified"] is True
    assert sum(1 for v in panel["char_seq_witness"] if v) == panel["b1"]


def test_integer_jacobi_matches_the_fiber_oracle_on_mutants_of_a_dense_law(capsys):
    assert run(["gen", "--family", "gmq", "--m", "4", "--q", "4"]) == 0
    dense = in_basis(json.loads(out_of(capsys)), DENSE_BASIS)
    law = from_json_dict(dense)
    assert law._den > 1
    assert check_jacobi(law).violations == jacobi_violations_by_fibers(law) == ()
    rng = random.Random(3)
    violating = 0
    for _ in range(12):
        tensor = {}
        for (i, j, k, c) in law.entries():
            tensor.setdefault((i, j), {})[k] = c
        pair = rng.choice(sorted(tensor))
        k = rng.choice(sorted(tensor[pair]))
        tensor[pair][k] += Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 7)))
        mutant = LieAlgebra(law.dim, tensor)
        report = check_jacobi(mutant)
        assert report.violations == jacobi_violations_by_fibers(mutant)
        assert report.ok == (not report.violations)
        violating += not report.ok
        if not report.ok:
            with pytest.raises(MalformedAlgebraError, match=r"Jacobi identity fails on the basis triple"):
                from_json_dict(to_json_dict(mutant))
    assert violating == 12
