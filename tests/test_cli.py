import json
import subprocess
import sys

import pytest

from htwist import io_json
from htwist.barcobar import bar
from htwist.fixtures import (acyclic_algebra, dual_truncated_polynomial, exterior, sphere_coalgebra,
                             truncated_polynomial)
from htwist.rings import QQ


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "htwist.cli", *args],
        capture_output=True, text=True,
    )
    return proc


def write_sphere(tmp_path):
    C = sphere_coalgebra(QQ, 8, 2)
    path = tmp_path / "s2.json"
    io_json.dump(io_json.coalgebra_to_dict(C), str(path))
    return path


def test_cobar_s2(tmp_path):
    path = write_sphere(tmp_path)
    proc = run_cli(["cobar", str(path), "--through", "6", "--ring", "Q", "--json"])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["results"]["d-squared-zero"] is True
    assert "payload" in report


def test_homology_roundtrip(tmp_path):
    A = exterior(QQ, 6)
    path = tmp_path / "ext.json"
    io_json.dump(io_json.complex_to_dict(A.complex), str(path))
    proc = run_cli(["homology", str(path), "--through", "4", "--json"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["homology"]["0"]["rank"] == 1


def test_missing_file_exit_2():
    proc = run_cli(["homology", "does-not-exist.json"])
    assert proc.returncode == 2


def test_check_normal_pair_reports_failure(tmp_path):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"builder": "chcx-unit"}))
    proc = run_cli(["check-normal-pair", str(cert), "--through", "3", "--json"])
    # honest outcome: the counit-ladder arrow verifies, the projection
    # arrow fails strictly; exit code 1 with localized witnesses
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    assert report["results"]["arrows"]["arrow0:counit-ladder"] is True
    assert report["witnesses"]


def test_wbar_and_loopgroup(tmp_path):
    g = tmp_path / "c2.json"
    g.write_text(json.dumps({"kind": "constant-cyclic", "order": 2}))
    proc = run_cli(["wbar", str(g), "--through", "4", "--json"])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["results"]["couniversal-twisting-function"] is True

    s1 = tmp_path / "s1.json"
    s1.write_text(json.dumps({"kind": "S1min"}))
    proc2 = run_cli(["loopgroup", str(s1), "--through", "4", "--samples", "300", "--json"])
    assert proc2.returncode == 0, proc2.stderr
    rep2 = json.loads(proc2.stdout)
    assert rep2["results"]["pi0"] == {"rank": 1, "torsion": []}


def test_wbar_reports_level_sizes_without_listing_the_top_level(tmp_path, monkeypatch, capsys):
    """`wbar --through 4` reports |W̄C5_n| = 5^n as a product of the group's
    level sizes: listing level 4 of W̄C5 fails the command."""
    from htwist import cli
    from htwist.simplicial import ClassifyingSpace

    listed = ClassifyingSpace.elements

    def elements(self, n):
        assert n < 4, "level --through of W̄G was listed"
        return listed(self, n)

    monkeypatch.setattr(ClassifyingSpace, "elements", elements)
    g = tmp_path / "c5.json"
    g.write_text(json.dumps({"kind": "constant-cyclic", "order": 5}))
    assert cli.main(["wbar", str(g), "--through", "4", "--json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["levels"] == {str(n): 5 ** n for n in range(5)}
    assert results["simplicial-identities"] is True


def test_wbar_homology_c2(tmp_path):
    g = tmp_path / "c2.json"
    g.write_text(json.dumps({"kind": "constant-cyclic", "order": 2}))
    proc = run_cli(["wbar-homology", str(g), "--through", "5", "--ring", "Z", "--json"])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["results"]["universal-bundle-acyclic"] is True
    assert report["results"]["wbar-homology"]["1"] == {"rank": 0, "torsion": [2]}


def test_chains_boundary_delta2(tmp_path):
    x = tmp_path / "circle.json"
    x.write_text(json.dumps({"kind": "boundary-delta2"}))
    proc = run_cli(["chains", str(x), "--through", "4", "--ring", "Z", "--json"])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["results"]["homology"]["1"]["rank"] == 1


def _chains_report(tmp_path, simplices, name):
    path = tmp_path / name
    path.write_text(json.dumps({"kind": "complex", "simplices": simplices}))
    proc = run_cli(["chains", str(path), "--through", "3", "--json"])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return json.loads(proc.stdout)


def test_chains_complex_closes_under_all_faces(tmp_path):
    # a triangle and a point: the vertices of the triangle come in as faces
    # of its edges, so H_0 = Z^2 and H_1 = 0
    report = _chains_report(tmp_path, [[0, 1, 2], [5]], "two.json")
    homology = report["results"]["homology"]
    assert homology["0"] == {"rank": 2, "torsion": []}
    assert homology["1"] == {"rank": 0, "torsion": []}
    assert len(report["payload"]["basis"]["0"]) == 4


def test_chains_complex_equals_its_explicit_closure(tmp_path):
    top = _chains_report(tmp_path, [[0, 1, 2]], "top.json")
    closed = _chains_report(tmp_path, [[0, 1, 2], [0, 1], [0, 2], [1, 2], [0], [1], [2]], "closed.json")
    assert top["results"] == closed["results"]
    assert top["payload"] == closed["payload"]
    assert top["results"]["homology"]["0"] == {"rank": 1, "torsion": []}


def test_determinism(tmp_path):
    path = write_sphere(tmp_path)
    out1 = run_cli(["cobar", str(path), "--through", "5", "--json"]).stdout
    out2 = run_cli(["cobar", str(path), "--through", "5", "--json"]).stdout
    assert out1 == out2


def test_check_axioms_runs():
    proc = run_cli(["check-axioms", "--through", "4", "--json"])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["results"]["ok"] is True


def test_check_normal_pair_poly_below_1_exit_2(tmp_path):
    """abelian-identity-poly builds k[x]/(x^3) through --through + 3, with x^2
    in degree 4, so it needs --through 1; the other builders run at 0."""
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"builder": "abelian-identity-poly"}))
    proc = run_cli(["check-normal-pair", str(cert), "--through", "0", "--json"])
    _exit_2(proc)
    assert proc.stderr == ("input error: check-normal-pair builds k[x]/(x^3) through --through + 3, "
                           "with x^2 in degree 4, so --through must be >= 1\n")
    assert not proc.stdout
    assert run_cli(["check-normal-pair", str(cert), "--through", "1", "--json"]).returncode == 0
    for builder in ("abelian-identity-exterior", "chcx-unit", "chcx-identity"):
        cert.write_text(json.dumps({"builder": builder}))
        proc = run_cli(["check-normal-pair", str(cert), "--through", "0", "--json"])
        assert proc.returncode == 0, proc.stderr


def test_check_axioms_below_3_exit_2():
    """k[x]/(x^3), one of the fixtures, has x^2 in degree 4, so --through + 1,
    the fixtures' truncation, must be at least 4; --through 3 reports."""
    for through in ("0", "1", "2"):
        proc = run_cli(["check-axioms", "--through", through, "--json"])
        _exit_2(proc)
        assert proc.stderr == ("input error: check-axioms builds k[x]/(x^3) through --through + 1, "
                               "with x^2 in degree 4, so --through must be >= 3\n")
        assert not proc.stdout
    proc = run_cli(["check-axioms", "--through", "3", "--json"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["ok"] is True


def test_unknown_basis_element_exit_2(tmp_path):
    data = io_json.complex_to_dict(exterior(QQ, 4).complex)
    data["d"].append({"degree": 1, "from": "x", "to": "nope", "coeff": "1"})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    proc = run_cli(["homology", str(path), "--json"])
    assert proc.returncode == 2
    assert "input error" in proc.stderr and "Traceback" not in proc.stderr


def test_homology_reports_degree_computed(tmp_path):
    path = tmp_path / "ext3.json"
    io_json.dump(io_json.complex_to_dict(exterior(QQ, 3).complex), str(path))
    proc = run_cli(["homology", str(path), "--through", "9", "--json"])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["truncation"] == 2
    assert sorted(report["results"]["homology"]) == ["0", "1", "2"]


def write_cochain(tmp_path, values):
    """A check-twisting input on Bar(k[x]/x^3) -> k[x]/x^3 over Q."""
    A = truncated_polynomial(QQ, 8)
    data = {"source": io_json.coalgebra_to_dict(bar(A, 6)),
            "target": io_json.algebra_to_dict(A),
            "cochain": {"values": values}}
    path = tmp_path / "cochain.json"
    path.write_text(json.dumps(data))
    return path


def test_check_twisting_failure_over_q_is_reported(tmp_path):
    # t(s(x)) = 2x: m(t⊗t)Δ(s(x)|s(x)) = -4x² has no matching dt + td
    path = write_cochain(tmp_path, [{"from": [3, "s(x)"], "to": [["x", "2"]]}])
    proc = run_cli(["check-twisting", str(path), "--json"])
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    assert report["results"]["maurer-cartan"] is False
    assert report["witnesses"] == [
        {"element": [6, "s(x)|s(x)"], "lhs": {}, "rhs": {"x^2": "-4"}}
    ]


@pytest.mark.parametrize("value", [
    {"from": [6, "s(x)|s(x)"], "to": [["x^2", "1"]]},   # x² lies in degree 4, not 5
    {"from": [3, "s(y)"], "to": [["x", "1"]]},          # no s(y) in degree 3
    {"from": [3], "to": [["x", "1"]]},                  # malformed source
])
def test_check_twisting_bad_value_exit_2(tmp_path, value):
    path = write_cochain(tmp_path, [{"from": [3, "s(x)"], "to": [["x", "1"]]}, value])
    proc = run_cli(["check-twisting", str(path), "--json"])
    assert proc.returncode == 2
    assert "input error" in proc.stderr and "Traceback" not in proc.stderr


def test_check_twisting_fractional_coefficients_are_strings(tmp_path):
    # t(s(x)) = x/2: m(t⊗t)Δ(s(x)|s(x)) = -x²/4
    path = write_cochain(tmp_path, [{"from": [3, "s(x)"], "to": [["x", "1/2"]]}])
    proc = run_cli(["check-twisting", str(path), "--json"])
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["witnesses"][0]["rhs"] == {"x^2": "-1/4"}


def test_q_payload_coefficients_are_strings(tmp_path):
    # integral Q values are ints in memory; the JSON still carries "1", "-1"
    path = write_sphere(tmp_path)
    proc = run_cli(["cobar", str(path), "--through", "5", "--ring", "Q", "--json"])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)["payload"]
    coeffs = [e["coeff"] for e in payload["d"]]
    coeffs += [c for e in payload["mu"] for _, c in e["result"]]
    assert coeffs and all(isinstance(c, str) for c in coeffs)


@pytest.mark.parametrize("command", ["tcp", "wbar", "wbar-homology"])
@pytest.mark.parametrize("spec", [
    {"kind": "S1min"},
    {"kind": "point"},
    {"kind": "boundary-delta2"},
    {"kind": "complex", "simplices": [[0, 1], [1, 2], [0, 2]]},
])
def test_group_commands_reject_sets_exit_2(tmp_path, command, spec):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(spec))
    proc = run_cli([command, str(path), "--through", "3", "--json"])
    assert proc.returncode == 2
    assert "input error" in proc.stderr and "Traceback" not in proc.stderr
    assert repr(spec["kind"]) in proc.stderr


def _two_cell_complex(ring, coeff):
    """Cells a (degree 0) and b (degree 1) with d(b) = coeff·a."""
    return {"ring": ring, "truncation": 1, "basis": {"0": ["a"], "1": ["b"]},
            "d": [{"degree": 1, "from": "b", "to": "a", "coeff": coeff}]}


@pytest.mark.parametrize("ring, coeff", [
    ("Z", "3/2"),     # not integral over Z
    ("Fp:5", "1/2"),  # not integral over F_p
    ("Z", "x"),       # not a number
    ("Q", "1/0"),     # zero denominator
])
def test_bad_coefficient_exit_2(tmp_path, ring, coeff):
    path = tmp_path / "bad_coeff.json"
    path.write_text(json.dumps(_two_cell_complex(ring, coeff)))
    proc = run_cli(["homology", str(path), "--through", "0", "--json"])
    assert proc.returncode == 2
    assert "input error" in proc.stderr and "Traceback" not in proc.stderr
    assert repr(coeff) in proc.stderr



def _map_input(tmp_path, entry):
    """A borel/np input for Λx -> Λx: the identity, plus one extra entry."""
    A = io_json.algebra_to_dict(exterior(QQ, 6))
    entries = [{"degree": 0, "from": "1", "to": "1", "coeff": "1"},
               {"degree": 1, "from": "x", "to": "x", "coeff": "1"}, entry]
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"source": A, "target": A, "map": entries}))
    return path


@pytest.mark.parametrize("command", ["borel", "np"])
@pytest.mark.parametrize("entry", [
    {"degree": 1, "from": "x", "to": "nope", "coeff": "1"},  # not a target element
    {"from": "x", "to": "x", "coeff": "1"},                  # no degree
])
def test_bad_map_entry_exit_2(tmp_path, command, entry):
    proc = run_cli([command, str(_map_input(tmp_path, entry)), "--through", "3", "--json"])
    assert proc.returncode == 2
    assert "input error" in proc.stderr and "Traceback" not in proc.stderr
    assert "map entry" in proc.stderr


def _exit_2(proc, *needles):
    assert proc.returncode == 2, proc.stderr
    assert "input error" in proc.stderr and "Traceback" not in proc.stderr
    for needle in needles:
        assert needle in proc.stderr


@pytest.mark.parametrize("field, value", [
    ("truncation", "one"),     # malformed truncation
    ("basis", {"zero": ["a"], "1": ["b"]}),  # malformed basis degree
    ("basis", {"0": ["a"], "5": ["b"]}),     # basis degree above the truncation
    ("d", [{"degree": "one", "from": "b", "to": "a", "coeff": "1"}]),  # malformed d degree
], ids=["truncation", "basis-degree", "basis-above-truncation", "d-degree"])
def test_malformed_complex_exit_2(tmp_path, field, value):
    data = _two_cell_complex("Z", "1")
    data[field] = value
    path = tmp_path / "bad_complex.json"
    path.write_text(json.dumps(data))
    _exit_2(run_cli(["homology", str(path), "--through", "0", "--json"]))


def _algebra_with_mu(tmp_path, entry):
    data = io_json.algebra_to_dict(truncated_polynomial(QQ, 6))
    data["mu"].append(entry)
    path = tmp_path / "bad_algebra.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("entry, needle", [
    ({"a": [2, "x"], "b": [2, "x"]}, "mu entry"),                           # no result
    ({"a": [2], "b": [2, "x"], "result": [["x^2", "1"]]}, "mu entry"),      # wrong shape
    ({"a": ["two", "x"], "b": [2, "x"], "result": []}, "mu entry"),         # malformed degree
    ({"a": [2, "nope"], "b": [2, "x"], "result": []}, "'nope'"),            # not in degree 2
    ({"a": [2, "x"], "b": [2, "x"], "result": [["nope", "1"]]}, "'nope'"),  # not in degree 4
    ({"a": [3, "x"], "b": [2, "x"], "result": []}, "'x'"),                  # x is not in degree 3
    ({"a": [0, "1"], "b": [2, "x"], "result": [["x", "2"]]}, "degree 0"),   # 1·x = 2x: unit acts strictly
    ({"a": [2, "x"], "b": [0, "1"], "result": [["x", "2"]]}, "degree 0"),   # x·1 = 2x
], ids=["no-result", "short-a", "bad-degree", "unknown-a", "unknown-result", "wrong-degree",
        "left-unit", "right-unit"])
def test_bad_mu_entry_exit_2(tmp_path, entry, needle):
    proc = run_cli(["bar", str(_algebra_with_mu(tmp_path, entry)), "--through", "4", "--json"])
    _exit_2(proc, needle)


@pytest.mark.parametrize("entry", [
    {"c": [4, "g2"]},                                                   # no reduced terms
    {"c": [4], "reduced": []},                                          # wrong shape
    {"c": [4, "g2"], "reduced": [[[2, "g1"], "1"]]},                    # wrong term shape
    {"c": [4, "nope"], "reduced": []},                                  # not in degree 4
    {"c": [4, "g2"], "reduced": [[[2, "g1"], [2, "nope"], "1"]]},       # not in degree 2
], ids=["no-reduced", "short-c", "short-term", "unknown-c", "unknown-term"])
def test_bad_delta_entry_exit_2(tmp_path, entry):
    data = io_json.coalgebra_to_dict(dual_truncated_polynomial(QQ, 6))
    data["delta"].append(entry)
    path = tmp_path / "bad_coalgebra.json"
    path.write_text(json.dumps(data))
    _exit_2(run_cli(["cobar", str(path), "--through", "4", "--json"]), "delta entry")


def _input_with_repeat(tmp_path, case):
    """(command, path) of a valid input with one thing given twice; each was
    read before as the last of its copies, and none is a sum."""
    if case == "basis-string":  # "xy" where a list of names belongs
        data = {"ring": "Z", "truncation": 1, "basis": {"0": ["a"], "1": "xy"}, "d": []}
        command = "homology"
    elif case.startswith("mu"):
        data = io_json.algebra_to_dict(truncated_polynomial(QQ, 6))  # mu: x·x = x^2
        if case == "mu-result":
            data["mu"][0]["result"] = [["x^2", "1"], ["x^2", "2"]]
        else:
            data["mu"].append({"a": [2, "x"], "b": [2, "x"], "result": [["x^2", "2"]]})
        command = "bar"
    elif case == "delta-element":
        data = io_json.coalgebra_to_dict(dual_truncated_polynomial(QQ, 6))  # Δ̄g2 = g1⊗g1
        data["delta"].append({"c": [4, "g2"], "reduced": [[[2, "g1"], [2, "g1"], "2"]]})
        command = "cobar"
    else:
        value = {"from": [3, "s(x)"], "to": [["x", "1"]]}
        values = [value, value] if case == "cochain-from" else [{**value, "to": [["x", "1"]] * 2}]
        return "check-twisting", write_cochain(tmp_path, values)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    return command, path


@pytest.mark.parametrize("case, needle", [
    ("basis-string", "basis degree 1: 'xy' is not a list of names"),
    ("mu-result", "'x^2' is repeated"),
    ("mu-pair", "the product 'x'·'x' is repeated"),
    ("delta-element", "the coproduct of 'g2' is repeated"),
    ("cochain-from", "the value on 's(x)' is repeated"),
    ("cochain-to", "'x' is repeated"),
], ids=["basis-string", "mu-result", "mu-pair", "delta-element", "cochain-from", "cochain-to"])
def test_input_that_gives_an_entry_twice_exit_2(tmp_path, case, needle):
    command, path = _input_with_repeat(tmp_path, case)
    proc = run_cli([command, str(path), "--through", "3", "--json"])
    _exit_2(proc, needle)
    assert not proc.stdout


@pytest.mark.parametrize("command, key", [
    ("borel", "source"), ("borel", "target"), ("borel", "map"),
    ("np", "source"), ("np", "target"), ("np", "map"),
])
def test_map_input_without_key_exit_2(tmp_path, command, key):
    path = _map_input(tmp_path, {"degree": 1, "from": "x", "to": "x", "coeff": "0"})
    data = json.loads(path.read_text())
    del data[key]
    path.write_text(json.dumps(data))
    _exit_2(run_cli([command, str(path), "--through", "3", "--json"]), repr(key))


@pytest.mark.parametrize("key", ["source", "target", "cochain"])
def test_check_twisting_without_key_exit_2(tmp_path, key):
    path = write_cochain(tmp_path, [{"from": [3, "s(x)"], "to": [["x", "1"]]}])
    data = json.loads(path.read_text())
    del data[key]
    path.write_text(json.dumps(data))
    _exit_2(run_cli(["check-twisting", str(path), "--json"]), repr(key))


@pytest.mark.parametrize("command", ["wbar", "tcp", "chains"])
@pytest.mark.parametrize("spec, needle", [
    ({"kind": "constant-cyclic"}, "'order'"),
    ({"kind": "complex"}, "'simplices'"),
    ({"kind": "constant-cyclic", "order": "x"}, "'x'"),
    ({"kind": "constant-cyclic", "order": 0}, "order 0"),
], ids=["no-order", "no-simplices", "order-x", "order-0"])
def test_simplicial_spec_without_key_or_bad_order_exit_2(tmp_path, command, spec, needle):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    _exit_2(run_cli([command, str(path), "--through", "3", "--json"]), needle)


@pytest.mark.parametrize("command", ["wbar", "tcp", "chains"])
@pytest.mark.parametrize("simplices, needle", [
    ([], "no nonempty simplex"),
    ([[]], "no nonempty simplex"),
    ([[0, "a"]], "all integers or all strings"),
    ([[0, 1], ["a"]], "all integers or all strings"),
    ([[0, [1]]], "all integers or all strings"),
    ([0, 1], "not a list of vertex lists"),
], ids=["empty", "only-empty-simplex", "mixed-in-simplex", "mixed-across-simplices",
        "list-vertex", "flat-list"])
def test_complex_spec_without_vertices_or_with_mixed_vertices_exit_2(tmp_path, command,
                                                                     simplices, needle):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "complex", "simplices": simplices}))
    _exit_2(run_cli([command, str(path), "--through", "3", "--json"]), needle)


def test_complex_spec_with_string_vertices(tmp_path):
    report = _chains_report(tmp_path, [["a", "b"], ["b", "c"], ["a", "c"]], "strings.json")
    assert report["results"]["homology"]["1"]["rank"] == 1


@pytest.mark.parametrize("command", ["chains", "wbar-homology"])
def test_bad_ring_tag_exit_2(tmp_path, command):
    path = tmp_path / "c2.json"
    path.write_text(json.dumps({"kind": "constant-cyclic", "order": 2}))
    _exit_2(run_cli([command, str(path), "--through", "3", "--ring", "bogus", "--json"]), "'bogus'")


@pytest.mark.parametrize("command", ["tcp", "wbar", "wbar-homology", "chains", "homology"])
@pytest.mark.parametrize("through", ["-1", "x"])
def test_bad_through_exit_2(tmp_path, command, through):
    path = tmp_path / "input.json"
    if command == "homology":
        path.write_text(json.dumps(_two_cell_complex("Z", "1")))
    else:
        path.write_text(json.dumps({"kind": "constant-cyclic", "order": 3}))
    proc = run_cli([command, str(path), "--through", through, "--json"])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout
    assert f"argument --through: must be an integer >= 0, not '{through}'" in proc.stderr


def test_cli_import_leaves_simplicial_unloaded():
    code = "import sys, htwist.cli; print('htwist.simplicial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("command", ["loopgroup", "tcp", "wbar"])
@pytest.mark.parametrize("samples", ["-5", "0", "x"])
def test_bad_samples_exit_2(tmp_path, command, samples):
    path = tmp_path / "input.json"
    spec = {"kind": "S1min"} if command == "loopgroup" else {"kind": "constant-cyclic", "order": 3}
    path.write_text(json.dumps(spec))
    proc = run_cli([command, str(path), "--through", "3", "--samples", samples, "--json"])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout
    assert f"argument --samples: must be an integer >= 1, not '{samples}'" in proc.stderr


def test_loopgroup_of_a_set_with_several_vertices_exit_2(tmp_path):
    """The constant group C5 has five vertices, so it has no Kan loop group."""
    path = tmp_path / "c5.json"
    path.write_text(json.dumps({"kind": "constant-cyclic", "order": 5}))
    _exit_2(run_cli(["loopgroup", str(path), "--through", "3", "--json"]), "C5 is not reduced")


INPUT_COMMANDS = ["homology", "bar", "cobar", "check-twisting", "borel", "np", "check-normal-pair",
                  "loopgroup", "wbar", "tcp", "chains", "wbar-homology"]


@pytest.mark.parametrize("command", INPUT_COMMANDS)
@pytest.mark.parametrize("top, kind", [([1, 2], "list"), (7, "int")], ids=["list", "number"])
def test_input_that_is_not_an_object_exit_2(tmp_path, command, top, kind):
    path = tmp_path / "top.json"
    path.write_text(json.dumps(top))
    _exit_2(run_cli([command, str(path), "--through", "3", "--json"]),
            f"the top level is a JSON {kind}, not an object")


def test_unwritable_out_exit_2(tmp_path):
    path = tmp_path / "c2.json"
    path.write_text(json.dumps({"kind": "constant-cyclic", "order": 2}))
    out = tmp_path / "no such dir" / "r.json"
    proc = run_cli(["wbar", str(path), "--through", "2", "--json", "--out", str(out)])
    _exit_2(proc, f"cannot write {out}")
    assert not proc.stdout


def test_wbar_homology_through_0_exit_2(tmp_path):
    path = tmp_path / "c5.json"
    path.write_text(json.dumps({"kind": "constant-cyclic", "order": 5}))
    proc = run_cli(["wbar-homology", str(path), "--through", "0", "--json"])
    _exit_2(proc, "homology through --through - 1", "--through must be >= 1")
    assert not proc.stdout


def _through_input(tmp_path, command):
    """A valid input for a command that reports homology through --through - 1."""
    path = tmp_path / f"{command}.json"
    if command == "borel":
        A = io_json.algebra_to_dict(exterior(QQ, 6))
        identity = [{"degree": 0, "from": "1", "to": "1", "coeff": "1"},
                    {"degree": 1, "from": "x", "to": "x", "coeff": "1"}]
        path.write_text(json.dumps({"source": A, "target": A, "map": identity}))
    else:
        path.write_text(json.dumps({"kind": "constant-cyclic", "order": 3}))
    return path


@pytest.mark.parametrize("command", ["chains", "borel", "wbar-homology"])
def test_homology_commands_through_0_exit_2(tmp_path, command):
    """--through 0 leaves no degree to report homology in: the same input
    error for every command that reports through --through - 1, and no
    report; --through 1 reports degree 0."""
    path = _through_input(tmp_path, command)
    proc = run_cli([command, str(path), "--through", "0", "--json"])
    _exit_2(proc)
    assert proc.stderr == (f"input error: {command} computes homology through --through - 1, "
                           "so --through must be >= 1\n")
    assert not proc.stdout
    proc = run_cli([command, str(path), "--through", "1", "--json"])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["results"]
    assert list(report["wbar-homology" if command == "wbar-homology" else "homology"]) == ["0"]


@pytest.mark.parametrize("through", ["0", "3"])
def test_homology_of_a_complex_truncated_at_0_reports_degree_0(tmp_path, through):
    path = tmp_path / "two_points.json"
    path.write_text(json.dumps({"ring": "Z", "truncation": 0, "basis": {"0": ["a", "b"]}, "d": []}))
    proc = run_cli(["homology", str(path), "--through", through, "--json"])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["truncation"] == 0
    assert report["results"]["homology"] == {"0": {"rank": 2, "torsion": []}}


def test_np_through_0_exit_2(tmp_path):
    """np checks its composites on homology through --through - 1, so
    --through 0 would check no degree."""
    path = _through_input(tmp_path, "borel")
    proc = run_cli(["np", str(path), "--through", "0", "--json"])
    _exit_2(proc)
    assert proc.stderr == ("input error: np computes homology through --through - 1, "
                           "so --through must be >= 1\n")
    assert not proc.stdout


# the commands that read each option that not every command takes
SAMPLES_COMMANDS = ["loopgroup", "wbar", "tcp"]
RING_COMMANDS = ["homology", "bar", "cobar", "check-twisting", "borel", "np", "chains", "wbar-homology"]
ALL_COMMANDS = INPUT_COMMANDS + ["check-axioms"]


@pytest.mark.parametrize("command, option", [
    *((c, ["--samples", "10"]) for c in ALL_COMMANDS if c not in SAMPLES_COMMANDS),
    *((c, ["--ring", "Q"]) for c in ALL_COMMANDS if c not in RING_COMMANDS),
])
def test_option_a_command_does_not_read_exit_2(tmp_path, command, option):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"kind": "constant-cyclic", "order": 3}))
    inputs = [] if command == "check-axioms" else [str(path)]
    proc = run_cli([command, *inputs, "--through", "2", *option, "--json"])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout
    assert f"unrecognized arguments: {' '.join(option)}" in proc.stderr


def test_ring_on_file_commands_still_runs(tmp_path):
    """homology --ring Z is the benchmark's call, on a complex over Z, and
    cobar --ring Q the documented one; a complex over Q is refused with
    --ring Z and runs with --ring Q."""
    ext = tmp_path / "ext.json"
    io_json.dump(io_json.complex_to_dict(exterior(QQ, 4).complex), str(ext))
    proc = run_cli(["homology", str(ext), "--through", "3", "--ring", "Z", "--json"])
    _exit_2(proc, "--ring Z", "over Q")
    proc = run_cli(["homology", str(ext), "--through", "3", "--ring", "Q", "--json"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["homology"]["0"]["rank"] == 1
    proc = run_cli(["cobar", str(write_sphere(tmp_path)), "--through", "4", "--ring", "Q", "--json"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["d-squared-zero"] is True


FILE_RING_COMMANDS = ["homology", "bar", "cobar", "check-twisting", "borel", "np"]


def _input_over_q(tmp_path, command):
    """A valid input over Q for a command that reads an algebraic file."""
    if command in ("borel", "np"):
        return _through_input(tmp_path, "borel")
    if command == "cobar":
        return write_sphere(tmp_path)
    if command == "check-twisting":
        return write_cochain(tmp_path, [])
    path = tmp_path / f"{command}.json"
    A = exterior(QQ, 6)
    data = io_json.complex_to_dict(A.complex) if command == "homology" else io_json.algebra_to_dict(A)
    io_json.dump(data, str(path))
    return path


@pytest.mark.parametrize("command", FILE_RING_COMMANDS)
def test_file_ring_is_the_default_and_may_be_named(tmp_path, command):
    path = str(_input_over_q(tmp_path, command))
    plain = run_cli([command, path, "--through", "3", "--json"])
    assert plain.returncode == 0, plain.stderr
    named = run_cli([command, path, "--through", "3", "--ring", "Q", "--json"])
    assert named.returncode == 0 and named.stdout == plain.stdout


@pytest.mark.parametrize("command", FILE_RING_COMMANDS)
def test_ring_tag_that_names_no_ring_exit_2(tmp_path, command):
    proc = run_cli([command, str(_input_over_q(tmp_path, command)), "--through", "3", "--ring", "F"])
    _exit_2(proc, "'F'")
    assert not proc.stdout


@pytest.mark.parametrize("command", FILE_RING_COMMANDS)
@pytest.mark.parametrize("ring", ["Z", "Fp:3"])
def test_ring_other_than_the_input_ring_exit_2(tmp_path, command, ring):
    proc = run_cli([command, str(_input_over_q(tmp_path, command)), "--through", "3", "--ring", ring])
    _exit_2(proc, f"--ring {ring}", "over Q")
    assert not proc.stdout


@pytest.mark.parametrize("command", ["borel", "np", "check-twisting"])
def test_source_and_target_over_different_rings_exit_2(tmp_path, command):
    path = _input_over_q(tmp_path, command)
    data = json.loads(path.read_text())
    data["target"]["ring"] = "Z"
    path.write_text(json.dumps(data))
    _exit_2(run_cli([command, str(path), "--through", "3"]), "source is over Q", "target over Z")


@pytest.mark.parametrize("command, key, value", [
    ("bar", "unit", "u"),                # no such element
    ("bar", "unit", "x"),                # an element of degree 1
    ("cobar", "coaug", "c2"),            # an element of degree 2
    ("cobar", "coaug", ["1"]),           # not a name
    ("check-twisting", "coaug", "s(x)"),
], ids=["unit-unknown", "unit-degree-1", "coaug-degree-2", "coaug-list", "source-coaug"])
def test_unit_or_coaug_not_in_degree_0_exit_2(tmp_path, command, key, value):
    path = _input_over_q(tmp_path, command)
    data = json.loads(path.read_text())
    (data["source"] if command == "check-twisting" else data)[key] = value
    path.write_text(json.dumps(data))
    _exit_2(run_cli([command, str(path), "--through", "3"]), f"{key} {value!r}", "degree 0")


@pytest.mark.parametrize("command", ["borel", "np"])
def test_map_that_is_not_an_algebra_map_exit_2(tmp_path, command):
    """Both constructions are defined only for algebra maps; the zero map
    Λx -> Λx does not send the unit to the unit."""
    path = _input_over_q(tmp_path, command)
    data = json.loads(path.read_text())
    data["map"] = []
    path.write_text(json.dumps(data))
    proc = run_cli([command, str(path), "--through", "3", "--json"])
    _exit_2(proc, f"{command} needs an algebra map")
    assert not proc.stdout


@pytest.mark.parametrize("command", ["borel", "np"])
def test_map_that_is_not_a_chain_map_exit_2(tmp_path, command):
    """1 -> 1, z -> z on E = <y, z : dz = y> is multiplicative (positive
    products vanish) but f(dz) = 0 != dz; the quotient of such a map has
    d^2 != 0, and its homology means nothing."""
    E = io_json.algebra_to_dict(acyclic_algebra(QQ, 6))
    path = tmp_path / "not_chain.json"
    path.write_text(json.dumps({"source": E, "target": E, "map": [
        {"degree": 0, "from": "1", "to": "1", "coeff": "1"},
        {"degree": 3, "from": "z", "to": "z", "coeff": "1"}]}))
    proc = run_cli([command, str(path), "--through", "5", "--json"])
    _exit_2(proc, f"{command} needs a chain map", "degree 3")
    assert not proc.stdout


@pytest.mark.parametrize("command", ["borel", "np"])
def test_source_that_is_not_connected_exit_2(tmp_path, command):
    path = _input_over_q(tmp_path, command)
    data = json.loads(path.read_text())
    data["source"]["basis"]["0"].append("e")
    path.write_text(json.dumps(data))
    _exit_2(run_cli([command, str(path), "--through", "3"]), "connected")


@pytest.mark.parametrize("part, degree, name, needle", [
    ("source", "1", "y", "check-twisting needs a 1-connected source coalgebra, degrees 0/1 = ['[]']/['y']"),
    ("target", "0", "e", "check-twisting needs a connected target algebra, degree 0 = ['1', 'e']"),
], ids=["source-degree-1", "target-degree-0"])
def test_check_twisting_refuses_what_cobar_and_bar_refuse_exit_2(tmp_path, part, degree, name, needle):
    path = write_cochain(tmp_path, [{"from": [3, "s(x)"], "to": [["x", "1"]]}])
    data = json.loads(path.read_text())
    data[part]["basis"].setdefault(degree, []).append(name)
    path.write_text(json.dumps(data))
    proc = run_cli(["check-twisting", str(path), "--through", "3", "--json"])
    _exit_2(proc, needle)
    assert not proc.stdout


def test_borel_target_that_is_not_connected_exit_2(tmp_path):
    path = _input_over_q(tmp_path, "borel")
    data = json.loads(path.read_text())
    data["target"]["basis"]["0"].append("e")
    path.write_text(json.dumps(data))
    proc = run_cli(["borel", str(path), "--through", "3", "--json"])
    _exit_2(proc, "borel needs a connected target algebra, degree 0 = ['1', 'e']")
    assert not proc.stdout
