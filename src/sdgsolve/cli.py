"""Command-line front end: solve, check, gen, bench, bounds.

Exit codes: 0 success, 1 error, 2 no stable outcome exists, 3 cross-algorithm
disagreement in bench mode.
"""

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from .bounds import certify_outcome, compute_bound_report
from .core import NEG_INF, ResourceLimitError, ScoringVector, SocialNetwork
from .dispatch import solve
from .formats import (
    read_gr,
    read_outcome,
    report_to_json,
    result_report,
    write_gr,
)
from .generators import random_bounded_degree, random_partial_ktree
from .oracle import DEFAULT_AGENT_CAP
from .reductions import ctcg_to_sdg, nae_to_3ctcg, parse_nae_formula
from .treedecomp import compute_decomposition, make_nice, read_td, validate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_DISAGREEMENT = 3


def _scores(args) -> ScoringVector:
    return ScoringVector.parse(args.scores, args.tail)


def _graph(path: str) -> SocialNetwork:
    return read_gr(Path(path).read_text())


def _print_human(report: dict, out=None):
    out = out if out is not None else sys.stdout
    if not report.get("feasible", True):
        print("no stable outcome exists", file=out)
        return
    print(f"algorithm: {report['algorithm']}", file=out)
    print(f"welfare:   {report['welfare']}", file=out)
    blocks = " | ".join(",".join(str(a) for a in b) for b in report["outcome"])
    print(f"outcome:   {blocks}", file=out)
    utils = " ".join(
        "-inf" if u is None else str(u) for u in report["utilities"]
    )
    print(f"utilities: {utils}", file=out)
    print(
        f"stable:    ir={report['individually_rational']} ns={report['nash_stable']}",
        file=out,
    )
    if report.get("size_limited"):
        print("note:      optimum restricted by the coalition size limit", file=out)
    if "elapsed_ms" in report:
        print(f"time:      {report['elapsed_ms']} ms", file=out)


def cmd_solve(args) -> int:
    s = _scores(args)
    G = _graph(args.graph)
    decomposition = None
    if args.td:
        td = read_td(Path(args.td).read_text())
        width = validate(G, td)
        if not isinstance(width, int):
            print(f"error: supplied decomposition invalid: {width.kind}: {width.detail}", file=sys.stderr)
            return EXIT_ERROR
        decomposition = make_nice(td)
    start = time.perf_counter()
    result = solve(
        s,
        G,
        mode=args.mode,
        algo=args.algo,
        sz=args.sz,
        decomposition=decomposition,
        brute_cap=args.cap,
    )
    elapsed = (time.perf_counter() - start) * 1000
    report = result_report(s, G, result, elapsed, args.graph)
    if args.format == "json":
        print(report_to_json(report), end="")
    else:
        _print_human(report)
    return EXIT_OK if result is not None else EXIT_INFEASIBLE


def cmd_check(args) -> int:
    s = _scores(args)
    G = _graph(args.graph)
    outcome = read_outcome(Path(args.outcome).read_text(), G.n)
    report = certify_outcome(s, G, outcome, args.mode)
    payload = {
        "mode": report.mode,
        "welfare": None if report.welfare == NEG_INF else int(report.welfare),
        "individually_rational": report.individually_rational,
        "nash_stable": report.nash_stable,
        "mode_satisfied": report.mode_satisfied,
        "coalition_diameters": [
            None if d == NEG_INF else int(d) for d in report.coalition_diameters
        ],
        "bound_violations": list(report.bound_violations),
    }
    if report.deviation is not None:
        payload["deviation"] = {
            "agent": report.deviation.agent,
            "kind": report.deviation.kind,
            "target": report.deviation.target,
            "gain": report.deviation.gain,
        }
    if args.format == "json":
        print(report_to_json(payload), end="")
    else:
        print(f"welfare:        {payload['welfare']}")
        print(f"ir:             {report.individually_rational}")
        print(f"ns:             {report.nash_stable}")
        print(f"mode satisfied: {report.mode_satisfied}")
        for v in report.bound_violations:
            print(f"violation:      {v}")
        if report.deviation is not None:
            d = report.deviation
            print(f"deviation:      agent {d.agent} {d.kind} -> {d.target} (gain {d.gain})")
    return EXIT_OK


def cmd_gen(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.kind == "hard":
        formula = parse_nae_formula(Path(args.formula).read_text())
        H = nae_to_3ctcg(formula)
        s = ScoringVector((args.maxval,))
        G, b = ctcg_to_sdg(H, s)
        stem = Path(args.formula).stem
        (out_dir / f"{stem}.gr").write_text(write_gr(G))
        meta = {
            "kind": "hard",
            "target_welfare": b,
            "scores": [args.maxval],
            "tail": "closed",
            "triangles": [list(t) for t in H.triangles],
            "n_vars": formula.n_vars,
            "clauses": [list(c) for c in formula.clauses],
        }
        (out_dir / f"{stem}.meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        print(f"wrote {out_dir / (stem + '.gr')} with target welfare {b}")
        return EXIT_OK
    if args.kind == "random-tw":
        G = random_partial_ktree(args.n, args.tw, args.seed)
        path = out_dir / f"random_tw{args.tw}_n{args.n}_s{args.seed}.gr"
        path.write_text(write_gr(G))
        print(f"wrote {path}")
        return EXIT_OK
    if args.kind == "random-degree":
        G = random_bounded_degree(args.n, args.max_deg, args.seed)
        path = out_dir / f"random_deg{args.max_deg}_n{args.n}_s{args.seed}.gr"
        path.write_text(write_gr(G))
        print(f"wrote {path}")
        return EXIT_OK
    raise ValueError(f"unknown kind {args.kind!r}")


def cmd_bench(args) -> int:
    s = _scores(args)
    corpus = sorted(Path(args.corpus).glob("*.gr"))
    modes = args.modes.split(",") if args.modes else ["welfare"]
    algos = args.algos.split(",") if args.algos else ["brute", "twdp", "fptdp", "vc"]
    rows = []
    failures = []
    for path in corpus:
        G = _graph(str(path))
        for mode in modes:
            welfare_by_algo = {}
            for algo in algos:
                start = time.perf_counter()
                try:
                    result = solve(s, G, mode=mode, algo=algo)
                except ResourceLimitError as exc:
                    rows.append((path.name, mode, algo, "skipped", f"{exc}"))
                    continue
                elapsed = (time.perf_counter() - start) * 1000
                welfare = None if result is None else result.welfare
                welfare_by_algo[algo] = welfare
                rows.append((path.name, mode, algo, welfare, f"{elapsed:.1f}ms"))
            values = set(welfare_by_algo.values())
            if len(values) > 1:
                failures.append((G.n, path, mode, welfare_by_algo))
    for row in rows:
        print("  ".join(str(c) for c in row))
    if failures:
        failures.sort()
        n, path, mode, disagreement = failures[0]
        print(
            f"DISAGREEMENT on {path.name} mode={mode}: {disagreement}",
            file=sys.stderr,
        )
        print(Path(path).read_text(), file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_bounds(args) -> int:
    s = _scores(args)
    G = _graph(args.graph)
    width = compute_decomposition(G).width()
    report = compute_bound_report(s, G, tw=width)
    payload = {
        "welfare_diameter_limit": report.welfare_diameter_limit,
        "degree_size_bound": report.degree_size_bound,
        "treewidth_size_bound": report.treewidth_size_bound,
        "stable_diameter": report.stable_diameter,
        "width_estimate": width,
        "max_degree": G.max_degree(),
    }
    if args.format == "json":
        print(report_to_json(payload), end="")
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdgsolve",
        description="Exact solvers for score-based social distance games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mode=True):
        p.add_argument("--graph", required=True, help=".gr network file")
        p.add_argument("--scores", required=True, help="comma-separated scores, e.g. '1,0,-1'")
        p.add_argument("--tail", choices=["closed", "open"], default="closed")
        if mode:
            p.add_argument("--mode", choices=["welfare", "ir", "ns"], default="welfare")
        p.add_argument("--format", choices=["human", "json"], default="human")

    p = sub.add_parser("solve", help="compute an optimal outcome")
    common(p)
    p.add_argument("--algo", choices=["auto", "brute", "twdp", "fptdp", "vc"], default="auto")
    p.add_argument("--sz", type=int, default=None, help="coalition size limit for fptdp")
    p.add_argument("--td", default=None, help="optional .td tree decomposition")
    p.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_AGENT_CAP,
        help="brute-force agent cap; auto also sends components of up to this many "
        f"agents to brute force (default {DEFAULT_AGENT_CAP})",
    )
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("check", help="certify an outcome file")
    common(p)
    p.add_argument("--outcome", required=True, help=".out outcome file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("gen", help="generate instances")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    ph = gen_sub.add_parser("hard", help="hardness chain from an nae3sat formula")
    ph.add_argument("--formula", required=True)
    ph.add_argument("--maxval", type=int, default=1)
    ph.add_argument("--out-dir", default=".")
    ph.set_defaults(fn=cmd_gen)
    pt = gen_sub.add_parser("random-tw", help="random connected partial k-tree")
    pt.add_argument("--n", type=int, required=True)
    pt.add_argument("--tw", type=int, required=True)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--out-dir", default=".")
    pt.set_defaults(fn=cmd_gen)
    pd = gen_sub.add_parser("random-degree", help="random connected bounded-degree graph")
    pd.add_argument("--n", type=int, required=True)
    pd.add_argument("--max-deg", type=int, required=True)
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--out-dir", default=".")
    pd.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", help="run a corpus across algorithms")
    p.add_argument("--corpus", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--tail", choices=["closed", "open"], default="closed")
    p.add_argument("--modes", default="welfare")
    p.add_argument("--algos", default="brute,twdp,fptdp,vc")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("bounds", help="report coalition bounds for an instance")
    common(p, mode=False)
    p.set_defaults(fn=cmd_bounds)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` keeps no state
    between calls, and building it costs about as much as a small solve."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, ResourceLimitError) as exc:  # an UnsupportedInputError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
