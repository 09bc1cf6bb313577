"""Command-line front end.

Subcommands: analyze, certify, polytope, realize, estimate.  Every run
writes a JSON artifact whose header echoes the resolved configuration and
tool version; identical configuration and master seed reproduce the
artifact byte for byte.  Exit codes: 0 success (an "unknown" certificate
is a valid answer), 1 usage error, 2 computation failure.

Only realize, estimate, and analyze or certify on a graph whose blocks
need a rank probe load numpy; they import it when they run.  Every other
run uses exact rationals and the standard library alone.
"""

from __future__ import annotations

import argparse
import functools
import math
import numbers
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from . import certificates
from .exponents import (
    chain3_constructed_region,
    chain3_missing_endpoints,
    format_rat,
    halfspace_membership,
    hull_membership,
    necessary_halfspaces,
    rat,
    region_compare,
    sufficient_vertices,
)
from .graphs import Graph, parse_graph

USAGE_ERROR = 1
COMPUTE_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


# deterministic JSON with exact rationals as strings and 17-digit floats


def _fmt(obj) -> str:
    """JSON text of obj, two-space indented, flat lists on one line.  An
    explicit stack of (prefix, value, indent), not recursion, writes nested
    containers; an entry with value None writes its prefix only."""
    if not _nested(obj):
        return _scalar(obj)
    parts, stack = [], [("", obj, 0)]
    while stack:
        prefix, value, indent = stack.pop()
        parts.append(prefix)
        if value is None:
            continue
        keyed = isinstance(value, dict)
        text, close = ("{", "}") if keyed else ("[", "]")
        pad = "\n" + "  " * indent
        sep, comma, entries = pad + "  ", "," + pad + "  ", []
        for k, v in value.items() if keyed else enumerate(value):
            head = f'{text}{sep}"{k}": ' if keyed else text + sep
            if isinstance(v, (dict, list, tuple)) and _nested(v):
                entries.append((head, v, indent + 1))
                text = ""
            else:
                text = head + _scalar(v)
            sep = comma
        entries.append((text + pad + close, None, 0))
        stack.extend(reversed(entries))
    return "".join(parts)


def _nested(obj) -> bool:
    """Whether _fmt writes obj over several lines."""
    if isinstance(obj, (list, tuple)):
        return any(isinstance(v, (dict, list, tuple)) for v in obj)
    return isinstance(obj, dict) and bool(obj)


def _scalar(obj) -> str:
    """JSON text of a value that _fmt writes on one line."""
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, dict):
        return "{}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_scalar, obj)) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, Fraction):
        return f'"{format_rat(obj)}"'
    if isinstance(obj, float):
        return format(obj, ".17g")
    # numpy registers its integers with Integral; int first skips the ABC check
    if isinstance(obj, (int, numbers.Integral)):
        return str(int(obj))
    return _scalar(str(obj))


def emit_json(payload: dict, out: str | None) -> None:
    text = _fmt(payload) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _header(command: str, config: dict) -> dict:
    return {"tool": "lpgraph", "version": __version__, "command": command,
            "config": config}


def _load_graph(path: str) -> Graph:
    return parse_graph(Path(path).read_text())


def _parse_points(text: str):
    from .rigidity import Realization

    pts = []
    for chunk in text.replace(";", " ").split():
        x, y = chunk.split(",")
        pts.append((float(x), float(y)))
    return Realization(pts)


# subcommands ----------------------------------------------------------------


def cmd_analyze(args) -> int:
    from .graphs import block_decomposition, contract_pendant_trees, is_tree

    g = _load_graph(args.graph)
    dec = contract_pendant_trees(g)
    bd = block_decomposition(g)
    result = {
        "graph": g.to_json_dict(),
        "is_tree": is_tree(g),
        "core": {
            "vertices": list(dec.core_vertices),
            "edges": [list(e) for e in dec.core_edges],
            "empty": dec.is_tree,
        },
        "pendant_trees": [
            {"root": t.root, "vertices": list(t.vertices),
             "edges": [list(e) for e in t.edges]}
            for t in dec.pendant_trees
        ],
        "blocks": [
            {"vertices": list(b.vertices), "edges": [list(e) for e in b.edges],
             "single_edge": b.is_single_edge(), "triangle": b.is_triangle()}
            for b in bd.blocks
        ],
        "cut_vertices": list(bd.cut_vertices),
        "block_tree": [list(e) for e in bd.block_tree],
    }
    if args.probe_seeds > 0 and not is_tree(g):
        from .rigidity import regularity_probe

        probes = []
        for b in bd.blocks:
            if b.is_single_edge() or b.is_triangle():
                continue
            bg, _ = b.graph()
            rep = regularity_probe(bg, num_seeds=args.probe_seeds,
                                   master_seed=args.seed)
            probes.append({"block_vertices": list(b.vertices),
                           **rep.to_json_dict()})
        result["probes"] = probes
    payload = _header("analyze", {"graph": args.graph,
                                  "probe_seeds": args.probe_seeds,
                                  "seed": args.seed})
    payload["result"] = result
    emit_json(payload, args.output)
    return 0


def cmd_certify(args) -> int:
    g = _load_graph(args.graph)
    cert = certificates.certify(g, master_seed=args.seed,
                                probe_seeds=args.probe_seeds)
    obj = cert.to_json_dict()
    code = 0
    if args.verify:
        rr = certificates.replay(obj)
        obj["replay"] = {"ok": rr.ok, "failure": rr.failure}
        code = 0 if rr.ok else COMPUTE_ERROR
    payload = _header("certify", {"graph": args.graph, "seed": args.seed,
                                  "probe_seeds": args.probe_seeds,
                                  "verify": bool(args.verify)})
    payload["result"] = obj
    emit_json(payload, args.output)
    return code


def cmd_polytope(args) -> int:
    config = {"kind": args.kind, "d": args.d}
    result: dict = {}
    if args.kind in ("triangle", "chain3"):
        nec = necessary_halfspaces(args.kind, args.d)
        suf = sufficient_vertices(args.kind)
        result["necessary"] = nec.to_json_dict()
        result["sufficient"] = suf.to_json_dict()
        result["containment"] = region_compare(suf, nec).to_json_dict()
        if args.kind == "chain3":
            constructed = chain3_constructed_region(args.d)
            result["constructed"] = constructed.to_json_dict()
            cmp_rep = region_compare(constructed, suf)
            missing = chain3_missing_endpoints()
            result["constructed_vs_sufficient"] = cmp_rep.to_json_dict()
            result["discrepancy"] = {
                "flagged": not cmp_rep.contained,
                "note": (
                    "the budget-split construction reaches exponents outside "
                    "the stated polygon; the gap is the segment between the "
                    "two missing endpoints"),
                "missing_endpoints": [
                    [format_rat(c) for c in p] for p in missing
                ],
            }
    else:  # kind "regular"
        if not args.graph:
            build_parser().error("polytope --kind regular needs --graph")
        g = _load_graph(args.graph)
        suf = sufficient_vertices("regular", g)
        config["graph"] = args.graph
        result["sufficient"] = suf.to_json_dict()

    if args.check:
        if len(args.check) != suf.dim:
            build_parser().error(f"--check has {len(args.check)} coordinates, "
                                 f"the polytope has dimension {suf.dim}")
        x = tuple(rat(c) for c in args.check)
        checks: dict = {"point": [format_rat(c) for c in x]}
        if args.kind in ("triangle", "chain3"):
            ok, violated, tight = halfspace_membership(nec, x)
            checks["necessary"] = {"satisfied": ok, "violated": violated,
                                   "tight": tight}
        inside, wit = hull_membership(suf, x)
        checks["sufficient"] = {
            "inside": inside,
            "witness": [format_rat(c) for c in wit] if wit else None,
        }
        if args.kind == "chain3":
            inside_c, wit_c = hull_membership(constructed, x)
            checks["constructed"] = {
                "inside": inside_c,
                "witness": [format_rat(c) for c in wit_c] if wit_c else None,
            }
            checks["discrepant_point"] = inside_c and not inside
        result["check"] = checks

    payload = _header("polytope", config)
    payload["result"] = result
    emit_json(payload, args.output)
    return 0


def cmd_realize(args) -> int:
    from .rigidity import degenerate_cycle_start, regularity_probe

    g = _load_graph(args.graph)
    starts = []
    if args.at:
        starts.append(_parse_points(args.at))
    if args.seed_near_collinear:
        starts.append(degenerate_cycle_start(g.n))
    try:
        report = regularity_probe(g, num_seeds=args.seeds,
                                  master_seed=args.seed, starts=starts)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    result = report.to_json_dict()
    if args.seeds > 0:
        x = report.example
        result["example_realization"] = None if x is None else x.to_json()
        result["example_residual"] = report.example_residual
    payload = _header("realize", {
        "graph": args.graph, "seeds": args.seeds, "seed": args.seed,
        "at": args.at, "seed_near_collinear": bool(args.seed_near_collinear)})
    payload["result"] = result
    emit_json(payload, args.output)
    if report.verdict == "no-realization-found":
        return COMPUTE_ERROR
    return 0


_PRESETS = {
    "chain3-ball-ball-annulus": dict(kind="scaling",
                                     assignment=("ball", "ball", "annulus"),
                                     params=(0.125, 0.0625, 0.03125, 0.015625),
                                     epsilon_policy="quarter", expected=3.0),
    "chain3-annulus-annulus-ball": dict(kind="scaling",
                                        assignment=("annulus", "annulus", "ball"),
                                        params=(0.125, 0.0625, 0.03125, 0.015625),
                                        epsilon_policy="quarter", expected=2.0),
    "chain3-ball-constant-annulus": dict(kind="scaling",
                                         assignment=("ball", "constant", "annulus"),
                                         params=(0.125, 0.0625, 0.03125, 0.015625),
                                         epsilon_policy="quarter", expected=2.0),
    "bigball": dict(kind="scaling", assignment=("ball", "ball", "ball"),
                    params=(2.0, 3.0, 4.0, 5.0, 6.0),
                    epsilon_policy="fixed"),
    "ratio-bounded": dict(kind="ratio", p=1.5, q=3.0,
                          params=(0.125, 0.0625, 0.03125, 0.015625)),
    "ratio-growing": dict(kind="ratio", p=1.5, q=6.0,
                          params=(0.125, 0.0625, 0.03125, 0.015625)),
    "kernel-decay": dict(kind="decay", epsilon=1.0 / 64.0),
    "k3-oracles": dict(kind="oracles"),
}


def cmd_estimate(args) -> int:
    import json as _json

    # the estimator loads scipy.fft, which no other subcommand needs
    from . import grids
    from .estimator import (form_evaluate, kernel_decay_check, make_kernel,
                            ratio_experiment, scaling_experiment, test_family)

    if not args.config and not args.preset:
        sys.stderr.write("error: estimate needs --preset or --config\n")
        return USAGE_ERROR
    if args.config:
        # JSON experiment description: {"graph": path, "assignment": [...],
        # "params": [...], "epsilon_policy": "quarter"|"fixed",
        # "grid": {"points": N} or {"L": ..., "points": N},
        # "quadrature": {"M": ...}, "seed": ...}
        cfg = _json.loads(Path(args.config).read_text())
        g = _load_graph(cfg["graph"])
        grid_cfg = cfg.get("grid", {})
        points = int(grid_cfg.get("points", args.grid_points))
        L = grid_cfg.get("L")
        res = scaling_experiment(
            g, tuple(cfg["assignment"]), [float(p) for p in cfg["params"]],
            grid_points=points, L=L,
            epsilon_policy=cfg.get("epsilon_policy", "quarter"),
            fixed_epsilon=float(cfg.get("fixed_epsilon", 1.0 / 16.0)))
        resolved = dict(cfg)
        resolved.setdefault("seed", args.seed)
        payload = _header("estimate", resolved)
        payload["result"] = res.to_json_dict()
        if args.output:
            Path(args.output).with_suffix(".csv").write_text(
                "\n".join(res.csv_lines()) + "\n")
        emit_json(payload, args.output)
        return 0

    if args.preset not in _PRESETS:
        sys.stderr.write(f"error: unknown preset {args.preset!r}; "
                         f"choose from {sorted(_PRESETS)}\n")
        return USAGE_ERROR
    spec = dict(_PRESETS[args.preset])
    kind = spec.pop("kind")
    config = {"preset": args.preset, "seed": args.seed,
              "grid_points": args.grid_points, **{
                  k: (list(v) if isinstance(v, tuple) else v)
                  for k, v in spec.items()}}
    payload = _header("estimate", config)

    from .graphs import path3, triangle

    if kind == "scaling":
        res = scaling_experiment(
            path3(), spec["assignment"], spec["params"],
            grid_points=args.grid_points,
            epsilon_policy=spec["epsilon_policy"])
        payload["result"] = res.to_json_dict()
        if "expected" in spec:
            payload["result"]["expected_slope"] = spec["expected"]
        if args.output:
            csv_path = Path(args.output).with_suffix(".csv")
            csv_path.write_text("\n".join(res.csv_lines()) + "\n")
    elif kind == "ratio":
        rows = ratio_experiment(spec["p"], spec["q"], "annulus", spec["params"],
                                grid_points=args.grid_points)
        payload["result"] = {
            "p": spec["p"], "q": spec["q"],
            "rows": [{"param": r.param, "input_norm": r.input_norm,
                      "output_norm": r.output_norm, "ratio": r.ratio}
                     for r in rows],
        }
        if args.output:
            csv_path = Path(args.output).with_suffix(".csv")
            lines = ["param,input_norm,output_norm,ratio"]
            for r in rows:
                lines.append(f"{r.param:.17g},{r.input_norm:.17g},"
                             f"{r.output_norm:.17g},{r.ratio:.17g}")
            csv_path.write_text("\n".join(lines) + "\n")
    elif kind == "decay":
        k = make_kernel(spec["epsilon"], 512)
        freqs = [1.0] + [float(v) for v in range(2, 65, 2)]
        rows = kernel_decay_check(k, freqs, h=1.0 / 256.0)
        payload["result"] = {
            "epsilon": spec["epsilon"],
            "rows": [{"freq": a, "magnitude": b, "normalized": c}
                     for a, b, c in rows],
        }
    elif kind == "oracles":
        from . import rigidity

        g = triangle()
        L = 2.6
        h = grids.grid_spacing(L, args.grid_points)
        r0 = 1.0 / math.sqrt(3.0)
        centers = [(r0 * math.cos(a), r0 * math.sin(a))
                   for a in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)]
        fields = [test_family("gaussian", L, h, center=c, width=0.15)
                  for c in centers]
        k64 = make_kernel(1.0 / 64.0, 512, radial_nodes=4)
        k32 = make_kernel(1.0 / 32.0, 512, radial_nodes=4)
        v_radon = form_evaluate(g, fields, k64, method="radon-pair")
        v_direct = form_evaluate(g, fields, k64, method="direct")
        v_grid = form_evaluate(g, fields, k32, method="radon-pair")
        try:
            est = rigidity.leray_mc_form(g, fields, epsilon=1.0 / 32.0,
                                         samples=args.mc_samples,
                                         master_seed=args.seed)
        except rigidity.ZeroAcceptanceError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return COMPUTE_ERROR
        v_mc = est.value / (2.0 * math.pi) ** 3
        payload["result"] = {
            "radon_pair": v_radon,
            "direct": v_direct,
            "radon_vs_direct_rel": abs(v_radon - v_direct) / abs(v_direct),
            "grid_eps32": v_grid,
            "mc_eps32": v_mc,
            "mc_std_error": est.std_error / (2.0 * math.pi) ** 3,
            "mc_shell_hits": est.shell_hits,
            "grid_vs_mc_rel": abs(v_grid - v_mc) / abs(v_grid),
        }
    emit_json(payload, args.output)
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process.

    Building an argparse parser leaves reference cycles (its help
    formatters) that only a full garbage collection frees, so repeated
    in-process `main` calls share one parser.
    """
    p = _Parser(prog="lpgraph",
                description="certificates, rigidity probes, and grid "
                            "estimators for unit-distance graph forms")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pa = sub.add_parser("analyze", help="structural report for a graph")
    pa.add_argument("graph")
    pa.add_argument("--probe-seeds", type=int, default=8)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("-o", "--output")
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("certify", help="derive an improving-witness certificate")
    pc.add_argument("graph")
    pc.add_argument("--verify", action="store_true",
                    help="replay the certificate before writing it")
    pc.add_argument("--probe-seeds", type=int, default=12)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("-o", "--output")
    pc.set_defaults(func=cmd_certify)

    pp = sub.add_parser("polytope", help="exponent systems, membership, "
                                    "comparisons")
    pp.add_argument("--kind", choices=("triangle", "chain3", "regular"),
                    required=True)
    pp.add_argument("--d", type=int, default=2)
    pp.add_argument("--graph", help="graph file (kind=regular)")
    pp.add_argument("--check", nargs="+", metavar="U",
                    help="one exact rational like 2/3 per coordinate")
    pp.add_argument("-o", "--output")
    pp.set_defaults(func=cmd_polytope)

    pr = sub.add_parser("realize", help="unit realizations and rank probes")
    pr.add_argument("graph")
    pr.add_argument("--seeds", type=int, default=100)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--at", help='explicit start "x,y x,y ..." evaluated first')
    pr.add_argument("--seed-near-collinear", action="store_true",
                    help="include the folded flat start of an even cycle")
    pr.add_argument("-o", "--output")
    pr.set_defaults(func=cmd_realize)

    pe = sub.add_parser("estimate", help="scaling, ratio, decay, oracle runs")
    pe.add_argument("--preset", help=", ".join(sorted(_PRESETS)))
    pe.add_argument("--config", help="JSON experiment description")
    pe.add_argument("--grid-points", type=int, default=513)
    pe.add_argument("--mc-samples", type=int, default=1_000_000)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("-o", "--output")
    pe.set_defaults(func=cmd_estimate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except certificates.CertificateError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return COMPUTE_ERROR
    except ModuleNotFoundError as exc:  # a run that needs numpy, without it
        sys.stderr.write(f"error: {exc}; this run needs it\n")
        return COMPUTE_ERROR
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
