import json
import os
import subprocess
import sys
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


def test_certify_replay_failure_keeps_config(tmp_path, monkeypatch):
    # a failed replay exits 2, and its artifact still echoes the resolved
    # configuration
    from lpgraph import certificates

    monkeypatch.setattr(certificates, "replay",
                        lambda obj: certificates.ReplayResult(False, "forged"))
    code, out = run(["certify", str(GRAPHS / "k3.graph"), "--verify",
                     "--probe-seeds", "3"], tmp_path)
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["config"] == {"graph": str(GRAPHS / "k3.graph"), "seed": 0,
                             "probe_seeds": 3, "verify": True}
    assert doc["result"]["replay"] == {"ok": False, "failure": "forged"}


def test_certify_when_vertices_1_and_2_coincide(tmp_path):
    # the solver places the non-adjacent vertices 1 and 2 on one point of
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


def test_polytope_regular_check_takes_one_coordinate_per_vertex(tmp_path,
                                                                capsys):
    c4 = str(GRAPHS / "c4.graph")
    code, out = run(["polytope", "--kind", "regular", "--graph", c4,
                     "--check", "1/3", "1/3", "1/3", "1/3"], tmp_path)
    assert code == 0
    chk = json.loads(out.read_text())["result"]["check"]
    assert chk["point"] == ["1/3"] * 4
    assert chk["sufficient"]["inside"] is True
    with pytest.raises(SystemExit) as exc:
        main(["polytope", "--kind", "regular", "--graph", c4,
              "--check", "1/2", "1/2", "1/2"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "3 coordinates" in err and "dimension 4" in err


def test_polytope_regular_needs_graph(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["polytope", "--kind", "regular"])
    assert exc.value.code == 1
    assert "--kind regular needs --graph" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify"])  # missing graph argument
    assert exc.value.code == 1


def test_missing_file_is_usage_error(tmp_path):
    code = main(["certify", str(tmp_path / "nope.graph")])
    assert code == 1


def test_cli_import_leaves_out_scipy_and_networkx(tmp_path):
    # certify, replay and the exponent polytopes run on exact rationals, so
    # importing the CLI and certifying a tree loads no numpy; the rank
    # probes, realize and the estimator (scipy.fft, and scipy.ndimage with
    # the first cubic prefilter) import theirs when they run.  numpy cost
    # every CLI call about 0.15 s, scipy.optimize about 0.2 s and scipy.fft
    # about 0.4 s.  The blocks come from our own depth-first search, so
    # networkx (about 0.2 s) is a test oracle only
    import lpgraph

    src = str(Path(lpgraph.__file__).resolve().parent.parent)
    argv = ["certify", str(GRAPHS / "path3.graph"), "--verify", "-o", str(tmp_path / "p.json")]
    code = ("import sys, lpgraph.cli, lpgraph.certificates; "
            f"code = lpgraph.cli.main({argv!r}); "
            "print(code, sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy', 'networkx')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.splitlines() == ["0 []"]
    assert json.loads((tmp_path / "p.json").read_text())["result"]["replay"]["ok"]


def _run_without_site_packages(args, cwd):
    """`python -S -m lpgraph.cli ARGS`: -S leaves site-packages, and numpy
    with it, off the module path."""
    import lpgraph

    src = str(Path(lpgraph.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-S", "-m", "lpgraph.cli", *args],
                          capture_output=True, text=True, timeout=120, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src))


def test_exact_subcommands_run_without_numpy(tmp_path):
    probe = subprocess.run([sys.executable, "-S", "-c", "import numpy"],
                           capture_output=True, env=dict(os.environ, PYTHONPATH=""))
    assert probe.returncode != 0, "numpy is importable without site-packages"
    pendant = str(GRAPHS / "triangle_pendant.graph")
    for args in (["certify", pendant, "--verify"],
                 ["polytope", "--kind", "chain3", "--check", "2/3", "2/3", "1/3"]):
        proc = _run_without_site_packages(args + ["-o", "bare.json"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        code, out = run(args, tmp_path)
        assert code == 0
        assert (tmp_path / "bare.json").read_bytes() == out.read_bytes()


def test_probe_without_numpy_is_a_compute_error(tmp_path):
    # C4 is a block that needs the rank probe, which needs numpy
    proc = _run_without_site_packages(["certify", str(GRAPHS / "c4.graph")], tmp_path)
    assert proc.returncode == 2
    assert "numpy" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_realize_solves_each_seed_once(tmp_path, monkeypatch):
    # the example realization is the probe's stream 0, not a second solve
    from lpgraph import cli, rigidity

    real = rigidity.solve_realization
    calls = []

    def counted(g, seed, **kwargs):
        calls.append(seed)
        return real(g, seed=seed, **kwargs)

    monkeypatch.setattr(rigidity, "solve_realization", counted)
    monkeypatch.setattr(cli, "solve_realization", counted, raising=False)
    code, out = run(["realize", str(GRAPHS / "c6.graph"), "--seeds", "12"], tmp_path)
    assert code == 0
    assert len(calls) == 12
    res = json.loads(out.read_text())["result"]
    assert res["verdict"] == "regular-at-all-samples" and res["samples"] == 12
    assert res["example_residual"] < rigidity.RESIDUAL_TOL


def test_estimate_decay_preset(tmp_path):
    code, out = run(["estimate", "--preset", "kernel-decay"], tmp_path)
    assert code == 0
    res = json.loads(out.read_text())["result"]
    assert all(r["normalized"] <= 1.0 for r in res["rows"] if r["freq"] >= 2)


def test_estimate_zero_acceptance_is_a_compute_error(tmp_path, monkeypatch, capsys):
    from lpgraph import rigidity

    def no_hits(*args, **kwargs):
        raise rigidity.ZeroAcceptanceError("no sample landed in the shell")

    monkeypatch.setattr(rigidity, "leray_mc_form", no_hits)
    code, out = run(["estimate", "--preset", "k3-oracles", "--grid-points", "33",
                     "--mc-samples", "1000"], tmp_path)
    assert code == 2
    assert "no sample landed in the shell" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_config(tmp_path):
    cfg = {"graph": str(GRAPHS / "path3.graph"),
           "assignment": ["ball", "ball", "annulus"],
           "params": [0.125, 0.0625], "grid": {"points": 129}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = run(["estimate", "--config", str(path)], tmp_path, "a.json")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"] == dict(cfg, seed=0)
    assert [r["param"] for r in doc["result"]["rows"]] == [0.125, 0.0625]
    lines = out.with_suffix(".csv").read_text().splitlines()
    assert lines[0].startswith("param,") and len(lines) == 3
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.125, 0.0625]
    _, again = run(["estimate", "--config", str(path)], tmp_path, "b.json")
    assert again.read_bytes() == out.read_bytes()
    assert (again.with_suffix(".csv").read_bytes()
            == out.with_suffix(".csv").read_bytes())


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


def test_fmt_layout():
    import numpy as np
    from fractions import Fraction

    from lpgraph.cli import _fmt

    obj = {"a": [1, 2.5, None, True], "b": {}, "c": [], "d": [{"e": Fraction(2, 3)}, []],
           "f": 'say "hi"\\', "g": np.int64(7), "h": (Fraction(1), False)}
    assert _fmt(obj) == (
        '{\n  "a": [1, 2.5, null, true],\n  "b": {},\n  "c": [],\n'
        '  "d": [\n    {\n      "e": "2/3"\n    },\n    []\n  ],\n'
        '  "f": "say \\"hi\\"\\\\",\n  "g": 7,\n  "h": ["1", false]\n}')
    assert _fmt([]) == "[]" and _fmt("x") == '"x"'


def test_fmt_writes_deep_nesting_without_recursion():
    from lpgraph.cli import _fmt

    depth = 5000
    obj: dict = {}
    for _ in range(depth):
        obj = {"a": obj}
    lines = _fmt(obj).split("\n")
    assert lines[0] == "{" and lines[-1] == "}"
    assert lines[depth] == "  " * depth + '"a": {}'
    assert len(lines) == 2 * depth + 1


def test_certify_long_path(tmp_path):
    # each tree level nests the derivation one step deeper
    n = 250
    graph = tmp_path / "path.graph"
    graph.write_text(f"n {n}\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, n)))
    code, out = run(["certify", str(graph), "--verify"], tmp_path)
    assert code == 0
    assert json.loads(out.read_text())["result"]["replay"]["ok"] is True
