"""Command-line front end.

Subcommands: analyze, certify, polytope, realize, estimate.  Every run
writes a JSON artifact whose header echoes the resolved configuration and
tool version; identical configuration and master seed reproduce the
artifact byte for byte.  Exit codes: 0 success (an "unknown" certificate
is a valid answer), 1 usage error, 2 computation failure.

An estimate header holds exactly the settings that its run reads.  Its
--config is a JSON object with the keys graph (path string), assignment
(list of strings), params (list of numbers), epsilon (number; param / 4
when absent), grid.points (odd integer; --grid-points when absent), grid.L
(number), seed (integer; --seed when absent) and mc_samples (integer;
--mc-samples when absent); the first three are required, and any other key
or type is a usage error.

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
from .graphs import Graph, parse_graph, path3, triangle

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
    # certify's region kind per block; a single vertex's edgeless block has none
    kinds = [certificates.block_kind(b.graph()[0]) if b.edges else None
             for b in bd.blocks]
    result = {
        "graph": g.to_json_dict(),
        "is_tree": is_tree(g),
        "core": {
            "vertices": list(dec.core_vertices),
            "edges": [list(e) for e in dec.core_edges],
            "empty": not dec.core_vertices,
        },
        "pendant_trees": [
            {"root": t.root, "vertices": list(t.vertices),
             "edges": [list(e) for e in t.edges]}
            for t in dec.pendant_trees
        ],
        "blocks": [
            {"vertices": list(b.vertices), "edges": [list(e) for e in b.edges],
             "single_edge": kind == "edge_profile", "triangle": kind == "triangle"}
            for b, kind in zip(bd.blocks, kinds)
        ],
        "cut_vertices": list(bd.cut_vertices),
        "block_tree": [list(e) for e in bd.block_tree],
    }
    if args.probe_seeds > 0 and not is_tree(g):
        from .rigidity import regularity_probe

        # certify probes the blocks that get the conditional hull, and only them
        result["probes"] = [
            {"block_vertices": list(b.vertices),
             **regularity_probe(b.graph()[0], num_seeds=args.probe_seeds,
                                master_seed=args.seed).to_json_dict()}
            for b, kind in zip(bd.blocks, kinds) if kind == "regular_hull"]
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
    # the sufficient polygons and the chain3 gap are the planar ones
    config = {"kind": args.kind, "d": 2}
    result: dict = {}
    if args.kind in ("triangle", "chain3"):
        nec = necessary_halfspaces(args.kind, 2)
        suf = sufficient_vertices(args.kind)
        result["necessary"] = nec.to_json_dict()
        result["sufficient"] = suf.to_json_dict()
        result["containment"] = region_compare(suf, nec).to_json_dict()
        if args.kind == "chain3":
            constructed = chain3_constructed_region(2)
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


# the shrinking ball radii and annulus widths of the chain3 and ratio presets
_DELTAS = (0.125, 0.0625, 0.03125, 0.015625)
# per preset: its kind and the settings it fixes
_PRESETS = {
    "chain3-ball-ball-annulus": ("scaling", dict(
        assignment=("ball", "ball", "annulus"), params=_DELTAS, expected=3.0)),
    "chain3-annulus-annulus-ball": ("scaling", dict(
        assignment=("annulus", "annulus", "ball"), params=_DELTAS, expected=2.0)),
    "chain3-ball-constant-annulus": ("scaling", dict(
        assignment=("ball", "constant", "annulus"), params=_DELTAS, expected=2.0)),
    "bigball": ("scaling", dict(assignment=("ball", "ball", "ball"),
                                params=(2.0, 3.0, 4.0, 5.0, 6.0), epsilon=1.0 / 16.0)),
    "ratio-bounded": ("ratio", dict(p=1.5, q=3.0, params=_DELTAS)),
    "ratio-growing": ("ratio", dict(p=1.5, q=6.0, params=_DELTAS)),
    "kernel-decay": ("decay", dict(epsilon=1.0 / 64.0)),
    "k3-oracles": ("oracles", {}),
}

# the --config keys, a dotted one inside "grid", with their types; a list
# type holds the type of its entries
_NUMBER = (int, float)
_CONFIG_KEYS = {
    "graph": ("a path string", str), "assignment": ("a list of strings", [str]),
    "params": ("a list of numbers", [_NUMBER]), "epsilon": ("a number", _NUMBER),
    "grid": ("an object", dict), "grid.points": ("an integer", int),
    "grid.L": ("a number", _NUMBER), "seed": ("an integer", int),
    "mc_samples": ("an integer", int),
}


def _fits(value, want) -> bool:
    if isinstance(want, list):
        return isinstance(value, list) and all(_fits(v, want[0]) for v in value)
    return isinstance(value, want) and not isinstance(value, bool)  # JSON true is an int


def _read_config(args) -> dict:
    """The scaling run that the JSON file --config names, checked against
    _CONFIG_KEYS, with --grid-points, --seed and --mc-samples filled in
    where it names none of them."""
    import json

    path = args.config
    cfg = json.loads(Path(path).read_text())
    for key in ("graph", "assignment", "params"):
        if not isinstance(cfg, dict) or key not in cfg:
            raise ValueError(f"config {path} is not a JSON object with {key!r}")
    grid = cfg.get("grid", {})
    inner = grid.items() if isinstance(grid, dict) else ()
    for key, value in [*cfg.items(), *((f"grid.{k}", v) for k, v in inner)]:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config {path}: unknown key {key!r}; "
                             f"the keys are {', '.join(_CONFIG_KEYS)}")
        what, want = _CONFIG_KEYS[key]
        if not _fits(value, want):
            raise ValueError(f"config {path}: {key!r} must be {what}, got {value!r}")
    return {**cfg, "grid": {**grid, "points": grid.get("points", args.grid_points)},
            **{key: cfg.get(key, getattr(args, key)) for key in ("seed", "mc_samples")}}


# each runner reads its settings from the config that the header echoes and
# returns the result with its CSV lines, or None for no CSV


def _estimate_scaling(config: dict):
    from .estimator import scaling_experiment

    if "preset" in config:  # the scaling presets run on the 3-chain
        g, grid = path3(), {"points": config["grid_points"]}
    else:
        g, grid = _load_graph(config["graph"]), config["grid"]
    res = scaling_experiment(
        g, config["assignment"], [float(p) for p in config["params"]],
        grid_points=grid["points"], L=grid.get("L"),
        epsilon=config.get("epsilon"), master_seed=config.get("seed", 0),
        **{key: config[key] for key in ("mc_samples",) if key in config})
    result = res.to_json_dict()
    if "expected" in config:
        result["expected_slope"] = config["expected"]
    return result, res.csv_lines()


def _estimate_ratio(config: dict):
    from .estimator import ratio_experiment

    rows = [{"param": r.param, "input_norm": r.input_norm,
             "output_norm": r.output_norm, "ratio": r.ratio}
            for r in ratio_experiment(config["p"], config["q"], config["params"],
                                      grid_points=config["grid_points"])]
    return {"p": config["p"], "q": config["q"], "rows": rows}, [
        ",".join(rows[0]), *(",".join(f"{v:.17g}" for v in r.values()) for r in rows)]


def _estimate_decay(config: dict):
    from .estimator import kernel_decay_check, make_kernel

    freqs = [1.0] + [float(v) for v in range(2, 65, 2)]
    rows = kernel_decay_check(make_kernel(config["epsilon"], 512), freqs, h=1.0 / 256.0)
    return {"epsilon": config["epsilon"], "rows": [
        {"freq": a, "magnitude": b, "normalized": c} for a, b, c in rows]}, None


def _estimate_oracles(config: dict):
    from . import grids, rigidity
    from .estimator import form_evaluate, make_kernel, test_family

    g, L = triangle(), 2.6
    h = grids.grid_spacing(L, config["grid_points"])
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
    est = rigidity.leray_mc_form(g, fields, epsilon=1.0 / 32.0,
                                 samples=config["mc_samples"],
                                 master_seed=config["seed"])
    v_mc = est.value / (2.0 * math.pi) ** 3
    return {"radon_pair": v_radon, "direct": v_direct,
            "radon_vs_direct_rel": abs(v_radon - v_direct) / abs(v_direct),
            "grid_eps32": v_grid, "mc_eps32": v_mc,
            "mc_std_error": est.std_error / (2.0 * math.pi) ** 3,
            "mc_shell_hits": est.shell_hits,
            "grid_vs_mc_rel": abs(v_grid - v_mc) / abs(v_grid)}, None


# per kind: the command-line options that its presets read, and its runner
_KINDS = {
    "scaling": (("grid_points",), _estimate_scaling),
    "ratio": (("grid_points",), _estimate_ratio),
    "decay": ((), _estimate_decay),
    "oracles": (("seed", "grid_points", "mc_samples"), _estimate_oracles),
}


def cmd_estimate(args) -> int:
    # the estimator loads scipy.fft, which no other subcommand needs; the
    # runners import it when they run
    from .rigidity import ZeroAcceptanceError

    if args.config:
        kind, config = "scaling", _read_config(args)
    else:
        kind, spec = _PRESETS[args.preset]
        config = {"preset": args.preset,
                  **{opt: getattr(args, opt) for opt in _KINDS[kind][0]}, **spec}
    try:
        result, csv = _KINDS[kind][1](config)
    except ZeroAcceptanceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return COMPUTE_ERROR
    if csv and args.output:
        Path(args.output).with_suffix(".csv").write_text("\n".join(csv) + "\n")
    payload = _header("estimate", config)
    payload["result"] = result
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
    run = pe.add_mutually_exclusive_group(required=True)
    run.add_argument("--preset", choices=sorted(_PRESETS), metavar="PRESET",
                     help=", ".join(sorted(_PRESETS)))
    run.add_argument("--config", help=(
        "JSON scaling run, keys: graph (path string), assignment (list of strings), "
        "params (list of numbers), epsilon (number), grid.points (odd integer), "
        "grid.L (number), seed (integer), mc_samples (integer); the first three "
        "are required"))
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
