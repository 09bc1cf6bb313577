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
            graph=g, status="unknown",
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


def test_analyze_single_vertex(tmp_path):
    # the one block of a single vertex has no edge, so no region and no kind
    graph = tmp_path / "n1.graph"
    graph.write_text("n 1\n")
    code, out = run(["analyze", str(graph)], tmp_path)
    assert code == 0
    res = json.loads(out.read_text())["result"]
    assert res["is_tree"] is True
    assert res["core"] == {"vertices": [], "edges": [], "empty": True}
    assert res["blocks"] == [{"vertices": [1], "edges": [], "single_edge": False,
                              "triangle": False}]
    assert "probes" not in res


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


def test_polytope_rejects_a_dimension_other_than_two(capsys):
    # the sufficient polygons and the chain3 gap are planar, so there is no
    # dimension option at all
    with pytest.raises(SystemExit) as exc:
        main(["polytope", "--kind", "chain3", "--d", "3"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --d" in capsys.readouterr().err


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
    # a config on C4 runs the same Monte Carlo inside its form
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"graph": str(GRAPHS / "c4.graph"), "assignment": ["ball"] * 4,
                                "params": [1.0], "grid": {"L": 2.5, "points": 33}}))
    code, out = run(["estimate", "--config", str(path)], tmp_path)
    assert code == 2
    assert capsys.readouterr().err == "error: no sample landed in the shell\n"
    assert not out.exists() and not out.with_suffix(".csv").exists()


def test_estimate_config(tmp_path):
    cfg = {"graph": str(GRAPHS / "path3.graph"),
           "assignment": ["ball", "ball", "annulus"],
           "params": [0.125, 0.0625], "grid": {"points": 129}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = run(["estimate", "--config", str(path)], tmp_path, "a.json")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"] == dict(cfg, seed=0, mc_samples=1_000_000)
    assert [r["param"] for r in doc["result"]["rows"]] == [0.125, 0.0625]
    lines = out.with_suffix(".csv").read_text().splitlines()
    assert lines[0].startswith("param,") and len(lines) == 3
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.125, 0.0625]
    _, again = run(["estimate", "--config", str(path)], tmp_path, "b.json")
    assert again.read_bytes() == out.read_bytes()
    assert (again.with_suffix(".csv").read_bytes()
            == out.with_suffix(".csv").read_bytes())


@pytest.mark.parametrize("preset,points", [
    ("bigball", "0"), ("bigball", "1"), ("bigball", "2"), ("ratio-bounded", "2"),
    ("k3-oracles", "2")])
def test_estimate_on_too_few_grid_points_is_a_usage_error(tmp_path, capsys, preset, points):
    # before the check, 1 and 2 points divided by zero and 0 points failed
    # inside numpy
    code, out = run(["estimate", "--preset", preset, "--grid-points", points], tmp_path)
    assert code == 1
    assert (capsys.readouterr().err
            == f"error: a grid needs at least 3 points per axis, got {points}\n")
    assert not out.exists()


@pytest.mark.parametrize("cfg,missing", [
    ([1, 2], "graph"),
    ({"assignment": ["ball"] * 3, "params": [0.125]}, "graph"),
    ({"graph": str(GRAPHS / "path3.graph"), "params": [0.125]}, "assignment"),
    ({"graph": str(GRAPHS / "path3.graph"), "assignment": ["ball"] * 3}, "params"),
])
def test_estimate_config_without_a_required_key_is_a_usage_error(tmp_path, capsys,
                                                                 cfg, missing):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = run(["estimate", "--config", str(path)], tmp_path)
    assert code == 1
    assert (capsys.readouterr().err
            == f"error: config {path} is not a JSON object with {missing!r}\n")
    assert not out.exists()


DELTAS = [0.125, 0.0625, 0.03125, 0.015625]


@pytest.mark.parametrize("preset,settings", [
    ("chain3-ball-ball-annulus", {"grid_points": 33, "assignment": ["ball", "ball", "annulus"],
                                  "params": DELTAS, "expected": 3.0}),
    ("chain3-annulus-annulus-ball", {"grid_points": 33,
                                     "assignment": ["annulus", "annulus", "ball"],
                                     "params": DELTAS, "expected": 2.0}),
    ("chain3-ball-constant-annulus", {"grid_points": 33,
                                      "assignment": ["ball", "constant", "annulus"],
                                      "params": DELTAS, "expected": 2.0}),
    ("bigball", {"grid_points": 33, "assignment": ["ball", "ball", "ball"],
                 "params": [2.0, 3.0, 4.0, 5.0, 6.0], "epsilon": 0.0625}),
    ("ratio-bounded", {"grid_points": 33, "p": 1.5, "q": 3.0, "params": DELTAS}),
    ("ratio-growing", {"grid_points": 33, "p": 1.5, "q": 6.0, "params": DELTAS}),
    ("kernel-decay", {"epsilon": 0.015625}),
    ("k3-oracles", {"seed": 3, "grid_points": 33, "mc_samples": 1000}),
])
def test_estimate_preset_header_records_exactly_the_settings_read(tmp_path, preset,
                                                                  settings):
    # the 3-chain is a tree and the ratios draw nothing random, so only the
    # K3 oracles read the seed; the decay run fixes its own raster
    code, out = run(["estimate", "--preset", preset, "--grid-points", "33",
                     "--mc-samples", "1000", "--seed", "3"], tmp_path)
    assert code == 0
    assert json.loads(out.read_text())["config"] == {"preset": preset, **settings}


def test_estimate_oracle_headers_tell_sample_counts_apart(tmp_path):
    docs = []
    for samples in ("1000", "2000"):
        code, out = run(["estimate", "--preset", "k3-oracles", "--grid-points", "33",
                         "--mc-samples", samples], tmp_path, f"k3-{samples}.json")
        assert code == 0
        docs.append(json.loads(out.read_text()))
    assert docs[0]["result"]["mc_eps32"] != docs[1]["result"]["mc_eps32"]
    assert docs[0]["config"] != docs[1]["config"]
    assert [d["config"]["mc_samples"] for d in docs] == [1000, 2000]


def test_estimate_config_header_records_the_grid_points_it_ran(tmp_path):
    cfg = {"graph": str(GRAPHS / "path3.graph"),
           "assignment": ["ball", "ball", "annulus"], "params": [0.125, 0.0625]}
    bare, pinned = tmp_path / "bare.json", tmp_path / "pinned.json"
    bare.write_text(json.dumps(cfg))
    pinned.write_text(json.dumps(dict(cfg, grid={"points": 65})))
    _, a = run(["estimate", "--config", str(bare), "--grid-points", "65"], tmp_path, "a.json")
    _, b = run(["estimate", "--config", str(pinned), "--grid-points", "129"], tmp_path,
               "b.json")
    assert json.loads(a.read_text())["config"] == dict(cfg, grid={"points": 65}, seed=0,
                                                       mc_samples=1_000_000)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("change,key", [
    ({"assignment": 3}, "assignment"),
    ({"assignment": ["ball", 2, "ball"]}, "assignment"),
    ({"params": 0.1}, "params"),
    ({"params": [0.125, "0.0625"]}, "params"),
    ({"graph": 7}, "graph"),
    ({"epsilon": "1/16"}, "epsilon"),
    ({"grid": 5}, "grid"),
    ({"grid": {"L": "2.5"}}, "grid.L"),
    ({"grid": {"points": 65.0}}, "grid.points"),
    ({"grid": {"points": True}}, "grid.points"),
    ({"grid": {"M": 512}}, "grid.M"),
    ({"seed": "0"}, "seed"),
    ({"epsilon_policy": "fixed"}, "epsilon_policy"),
    ({"fixed_epsilon": 0.0625}, "fixed_epsilon"),
    ({"quadrature": {"M": 512}}, "quadrature"),
    ({"mc_samples": 1e5}, "mc_samples"),
    ({"mc_samples": True}, "mc_samples"),
])
def test_estimate_bad_config_is_a_usage_error_that_names_the_key(tmp_path, capsys,
                                                                 change, key):
    cfg = {"graph": str(GRAPHS / "path3.graph"), "assignment": ["ball"] * 3,
           "params": [0.125, 0.0625], **change}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = run(["estimate", "--config", str(path)], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path}: {key!r} ") or err.startswith(
        f"error: config {path}: unknown key {key!r};")
    assert err.count("\n") == 1
    assert not out.exists()


def test_estimate_takes_one_of_preset_and_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"graph": str(GRAPHS / "path3.graph"),
                                "assignment": ["ball"] * 3, "params": [0.125]}))
    for argv in (["--preset", "bigball", "--config", str(path)], []):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", *argv])
        assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "argument --config: not allowed with argument --preset" in err
    assert "one of the arguments --preset --config is required" in err


def test_estimate_on_an_even_grid_point_count_is_a_usage_error(tmp_path, capsys):
    # an even count used to run one point fewer than its header recorded
    code, out = run(["estimate", "--preset", "bigball", "--grid-points", "64"], tmp_path)
    assert code == 1
    assert (capsys.readouterr().err
            == "error: a grid needs an odd number of points per axis, got 64\n")
    assert not out.exists()


def test_estimate_config_seeds_the_monte_carlo(tmp_path):
    # C4 is neither a tree nor a triangle, so its form runs the shell Monte
    # Carlo, under the seed that the header records: --seed, or the
    # config's own "seed"; its own "mc_samples" keeps the three runs short
    cfg = {"graph": str(GRAPHS / "c4.graph"), "assignment": ["ball"] * 4,
           "params": [1.0, 0.75], "grid": {"L": 2.5, "points": 65}, "mc_samples": 200_000}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps(dict(cfg, seed=5)))
    _, zero = run(["estimate", "--config", str(path)], tmp_path, "zero.json")
    _, five = run(["estimate", "--config", str(path), "--seed", "5"], tmp_path, "five.json")
    _, again = run(["estimate", "--config", str(seeded)], tmp_path, "again.json")

    def lambdas(out):
        return [r["lambda"] for r in json.loads(out.read_text())["result"]["rows"]]

    assert all(a != b for a, b in zip(lambdas(zero), lambdas(five)))
    assert again.read_bytes() == five.read_bytes()


def test_estimate_config_runs_the_monte_carlo_samples_its_header_records(tmp_path,
                                                                         monkeypatch):
    # the shell Monte Carlo of a C4 config draws --mc-samples, or the
    # config's own "mc_samples", and the header records the count
    from lpgraph import rigidity

    drawn = []
    real = rigidity.leray_mc_form

    def counted(*args, samples, **kwargs):
        drawn.append(samples)
        return real(*args, samples=samples, **kwargs)

    monkeypatch.setattr(rigidity, "leray_mc_form", counted)
    cfg = {"graph": str(GRAPHS / "c4.graph"), "assignment": ["ball"] * 4,
           "params": [1.0, 0.75], "grid": {"L": 2.5, "points": 33}}
    path, pinned = tmp_path / "cfg.json", tmp_path / "pinned.json"
    path.write_text(json.dumps(cfg))
    pinned.write_text(json.dumps(dict(cfg, mc_samples=2000)))
    _, a = run(["estimate", "--config", str(path), "--mc-samples", "1000"], tmp_path, "a.json")
    _, b = run(["estimate", "--config", str(pinned), "--mc-samples", "1000"], tmp_path,
               "b.json")
    assert drawn == [1000, 1000, 2000, 2000]  # one run per row
    assert [json.loads(o.read_text())["config"]["mc_samples"] for o in (a, b)] == [1000, 2000]


def test_estimate_presets_write_rows_as_csv(tmp_path):
    code, out = run(["estimate", "--preset", "chain3-ball-ball-annulus",
                     "--grid-points", "129"], tmp_path, "scaling.json")
    assert code == 0
    res = json.loads(out.read_text())["result"]
    assert res["expected_slope"] == 3.0
    lines = out.with_suffix(".csv").read_text().splitlines()
    assert lines[0] == "param,lambda,norm_1,norm_2,norm_3,slope_running"
    assert res["rows"][0]["slope_running"] is None
    assert lines[1:] == [",".join(
        [f"{r['param']:.17g}", f"{r['lambda']:.17g}", *(f"{v:.17g}" for v in r["norms"]),
         "" if r["slope_running"] is None else f"{r['slope_running']:.17g}"])
        for r in res["rows"]]
    assert len(lines) == 5 and lines[1].endswith(",")

    code, out = run(["estimate", "--preset", "ratio-bounded", "--grid-points", "129"],
                    tmp_path, "ratio.json")
    assert code == 0
    rows = json.loads(out.read_text())["result"]["rows"]
    assert all(r["ratio"] == r["output_norm"] / r["input_norm"] for r in rows)
    lines = out.with_suffix(".csv").read_text().splitlines()
    assert lines[0] == "param,input_norm,output_norm,ratio"
    assert lines[1:] == [",".join(f"{r[k]:.17g}" for k in ("param", "input_norm",
                                                         "output_norm", "ratio"))
                         for r in rows]
    assert len(lines) == 5


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
