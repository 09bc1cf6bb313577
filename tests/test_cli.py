import json
from pathlib import Path

import pytest

from lpgraph.cli import main

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(list(args) + ["-o", str(out)])
    return code, out


def test_certify_k3(tmp_path):
    code, out = run(["certify", str(GRAPHS / "k3.graph"), "--verify"], tmp_path)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["version"]
    res = doc["result"]
    assert res["status"] == "proven"
    assert res["witness"] == ["1/2", "1/2", "1/2"]
    assert res["replay"]["ok"] is True


def test_certify_unknown_is_exit_zero(tmp_path, monkeypatch):
    # an unprovable graph is an answer, not a failure
    from lpgraph import certificates

    def fake_certify(g, master_seed=0, probe_seeds=12):
        from lpgraph.exponents import ExponentVector
        from fractions import Fraction

        return certificates.Certificate(
            graph=g, vertices=tuple(range(1, g.n + 1)), status="unknown",
            witness=ExponentVector((Fraction(0),) * g.n), derivation=[])

    monkeypatch.setattr(certificates, "certify", fake_certify)
    code, out = run(["certify", str(GRAPHS / "k3.graph")], tmp_path)
    assert code == 0
    assert json.loads(out.read_text())["result"]["status"] == "unknown"


def test_certify_when_vertices_1_and_2_coincide(tmp_path):
    # least squares places the non-adjacent vertices 1 and 2 on one point of
    # a unit realization of this graph; the probe must still pin it
    edges = "1-3 1-4 1-7 2-3 2-4 2-5 2-6 3-6 3-7 4-5"
    graph = tmp_path / "g.graph"
    graph.write_text("n 7\n" + "".join(f"e {e.replace('-', ' ')}\n"
                                          for e in edges.split()))
    code, out = run(["certify", str(graph), "--verify"], tmp_path)
    assert code == 0
    res = json.loads(out.read_text())["result"]
    assert res["status"] == "conditional"
    assert res["replay"]["ok"] is True


def test_analyze_pendant_figure(tmp_path):
    code, out = run(["analyze", str(GRAPHS / "triangle_pendant.graph"),
                     "--probe-seeds", "0"], tmp_path)
    assert code == 0
    res = json.loads(out.read_text())["result"]
    assert res["is_tree"] is False
    assert res["core"]["vertices"] == [6, 7, 8]
    assert len(res["pendant_trees"]) == 1


def test_realize_near_collinear(tmp_path):
    code, out = run(["realize", str(GRAPHS / "c4.graph"),
                     "--seed-near-collinear", "--seeds", "3"], tmp_path)
    assert code == 0
    res = json.loads(out.read_text())["result"]
    assert "3" in res["ranks"]
    assert res["verdict"] == "rank-deficient-sample-found"


def test_realize_at_explicit_point(tmp_path):
    code, out = run(["realize", str(GRAPHS / "c4.graph"), "--seeds", "0",
                     "--at", "0,0 1,0 2,0 1,0"], tmp_path)
    assert code == 0
    res = json.loads(out.read_text())["result"]
    assert res["ranks"] == {"3": 1}


def test_polytope_chain3_check(tmp_path):
    code, out = run(["polytope", "--kind", "chain3",
                     "--check", "2/3", "2/3", "1/3"], tmp_path)
    assert code == 0
    res = json.loads(out.read_text())["result"]
    chk = res["check"]
    assert chk["necessary"]["satisfied"] is True
    assert set(chk["necessary"]["tight"]) >= {"chain3-2", "chain3-3"}
    assert chk["sufficient"]["inside"] is False
    assert chk["constructed"]["inside"] is True
    assert chk["discrepant_point"] is True
    assert res["discrepancy"]["flagged"] is True
    assert res["discrepancy"]["missing_endpoints"] == [
        ["1/2", "5/6", "1/3"], ["5/6", "1/2", "1/3"]]


def test_polytope_check_reuses_regions(tmp_path, monkeypatch):
    # --check tests the point against the regions already built for the
    # artifact; rebuilding the constructed region costs its LPs twice
    from lpgraph import cli

    real = cli.chain3_constructed_region
    calls = []

    def counted(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(cli, "chain3_constructed_region", counted)
    code, _ = run(["polytope", "--kind", "chain3",
                   "--check", "2/3", "2/3", "1/3"], tmp_path)
    assert code == 0
    assert len(calls) == 1


def test_polytope_regular_needs_graph(tmp_path):
    with pytest.raises(SystemExit):
        main(["polytope", "--kind", "regular"])


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify"])  # missing graph argument
    assert exc.value.code == 1


def test_missing_file_is_usage_error(tmp_path):
    code = main(["certify", str(tmp_path / "nope.graph")])
    assert code == 1


def test_estimate_decay_preset(tmp_path):
    code, out = run(["estimate", "--preset", "kernel-decay"], tmp_path)
    assert code == 0
    res = json.loads(out.read_text())["result"]
    assert all(r["normalized"] <= 1.0 for r in res["rows"] if r["freq"] >= 2)


def test_determinism_byte_identical(tmp_path):
    _, a = run(["certify", str(GRAPHS / "two_triangles.graph"), "--seed", "5"],
               tmp_path, "a.json")
    _, b = run(["certify", str(GRAPHS / "two_triangles.graph"), "--seed", "5"],
               tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()
    _, c = run(["realize", str(GRAPHS / "k3.graph"), "--seeds", "5",
                "--seed", "3"], tmp_path, "c.json")
    _, d = run(["realize", str(GRAPHS / "k3.graph"), "--seeds", "5",
                "--seed", "3"], tmp_path, "d.json")
    assert c.read_bytes() == d.read_bytes()
