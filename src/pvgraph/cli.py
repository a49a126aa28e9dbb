"""Command-line front end: generate, validate, explore, oracle, bench, forge.

Exit codes: 0 success (explore: covered and halted; forge: verdict true),
1 audit violation / uncovered halt, 2 bad parameters or an oversized search,
3 move limit or a strategy that never halts, 4 strategy needs site identities,
5 unparseable or semantically broken input file. An error that escapes a
command exits with the `exit_code` of its class (`errors.py`); a
`ValueError` or `OSError` exits 2.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import fileformat
from .core import is_feasible, is_homogeneous, is_irredundant, is_simple
from .engine import run, summary_record, trace_to_csv
from .errors import PVGraphError, StateSpaceTooLarge
from .instances import FAMILIES, Instance, forge_thm1, forge_thm2, get_family, make_instance
from .oracle import DEFAULT_STATE_CAP, audit, min_moves, race
from .strategies import (
    FixedStepHalt,
    GuessingRide,
    HitchARide,
    NoNewCarrierTimeout,
    NoNewSiteTimeout,
    RideLegsHalt,
    SiteRevisitHalt,
)

# halting strategies the forges are asked to defeat; thm1 targets are
# site-blind (factories take n and k), thm2 targets never learn n
THM1_TARGETS = {
    "fixed-step": lambda n, k: FixedStepHalt(3 * n),
    "no-new-carrier": lambda n, k: NoNewCarrierTimeout(n),
    "ride-legs": lambda n, k: RideLegsHalt(n, k + 1),
}
THM2_TARGETS = {
    "fixed-step": lambda k: FixedStepHalt(5 * k),
    "no-new-site": lambda k: NoNewSiteTimeout(3 * k),
    "revisit": lambda k: SiteRevisitHalt(k + 2),
}


WRITE_SLICE = 1 << 16  # characters encoded and written at a time


def _write_text(path: str | None, text: str) -> None:
    """`text` to stdout, or as UTF-8 to `path`.

    A file is written a slice at a time: `Path.write_text` would encode the
    whole text into a second full-size copy, and a move-by-move CSV runs to
    megabytes, so the peak stays near the text's own size.
    """
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as f:
        for i in range(0, len(text), WRITE_SLICE):
            f.write(text[i:i + WRITE_SLICE])


@functools.cache  # one parser per process: a parser is a web of reference cycles
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pvg", description="periodically varying graph toolkit"
    )
    sub = ap.add_subparsers(dest="command", required=True)
    # short and long names; "random" is both
    families = list(dict.fromkeys(n for f in FAMILIES.values() for n in (f.name, f.long_name)))

    g = sub.add_parser("generate", help="emit a family instance in text format")
    g.add_argument("--family", choices=families, metavar="FAMILY", required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--p", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--emit-bound", action="store_true",
                   help="append the instance's lower bound as a comment")
    g.add_argument("-o", "--out")

    v = sub.add_parser("validate", help="parse a file and report its structure")
    v.add_argument("--in", dest="infile", required=True)

    e = sub.add_parser("explore", help="run a strategy and report the walk")
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--strategy", choices=["hitch", "guess"], required=True)
    e.add_argument("--bound", type=int, help="period bound for hitch (default: max period)")
    e.add_argument("--homogeneous-known", action="store_true")
    e.add_argument("--start", help="start carrier (default: first)")
    e.add_argument("--move-limit", type=int)
    e.add_argument("-o", "--out", help="write the move-by-move CSV here")

    o = sub.add_parser("oracle", help="exact optimum via state-space search")
    o.add_argument("--in", dest="infile", required=True)
    o.add_argument("--start", help="start carrier (default: first)")
    o.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)

    b = sub.add_parser("bench", help="sweep a family and tabulate moves")
    b.add_argument("--family", choices=families, metavar="FAMILY", required=True)
    b.add_argument("--n", type=int, nargs="+", required=True)
    b.add_argument("--k", type=int, nargs="+", required=True)
    b.add_argument("--p", type=int, nargs="+")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    b.add_argument("-o", "--out")

    f = sub.add_parser("forge", help="build a counterexample to a halting strategy")
    f.add_argument("--thm", type=int, choices=[1, 2], required=True)
    f.add_argument("--strategy", required=True)
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--k", type=int, required=True)
    f.add_argument("--move-limit", type=int)
    return ap


def _cmd_generate(args: argparse.Namespace) -> int:
    inst = make_instance(args.family, args.n, args.k, args.p, args.seed)
    text = fileformat.dumps(inst.routeset)
    if args.emit_bound:
        if inst.bound is None:
            print("this family carries no bound to emit", file=sys.stderr)
            return 2
        text += f"# bound {inst.bound}\n"
    _write_text(args.out, text)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    rs = fileformat.load(args.infile)
    simple = all(is_simple(c.route) for c in rs.carriers)
    irred = all(is_irredundant(c.route) for c in rs.carriers)
    print(json.dumps({
        "n": rs.n,
        "k": rs.k,
        "mode": rs.mode,
        "max_period": rs.max_period,
        "homogeneous": is_homogeneous(rs),
        "all_simple": simple,
        "all_irredundant": irred,
        "feasible": is_feasible(rs),
    }))
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    rs = fileformat.load(args.infile)
    start = args.start or rs.carriers[0].id
    if args.strategy == "hitch":
        strat = HitchARide(
            args.bound if args.bound is not None else rs.max_period,
            homogeneous_known=args.homogeneous_known,
        )
    else:
        strat = GuessingRide(rs.n)
    trace = run(rs, strat, start, args.move_limit)
    if args.out:
        _write_text(args.out, trace_to_csv(trace))
    record = summary_record(args.infile, args.strategy, rs, trace)
    print(json.dumps(record))
    if not trace.halted:
        return 3
    return 0 if record["covered"] else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    text = fileformat.read_text(args.infile)
    rs = fileformat.loads(text)
    start = args.start or rs.carriers[0].id
    inst = Instance(
        family=Path(args.infile).name,
        params=(("n", rs.n), ("k", rs.k), ("p", rs.max_period)),
        routeset=rs,
        bound=fileformat.read_bound_comment(text),
        start=start,
    )
    report = audit(inst, state_cap=args.state_cap)
    print(report.to_json())
    return 1 if report.violation() else 0


def _bench_cell(value) -> str:
    return "" if value is None else str(value)


def _cmd_bench(args: argparse.Namespace) -> int:
    fam = get_family(args.family)
    if fam.needs("p") and not args.p:
        print(f"{fam.name} needs --p", file=sys.stderr)
        return 2
    if args.p and "p" not in fam.params:
        print(f"{fam.name} takes no --p", file=sys.stderr)
        return 2
    # a family without a period parameter reports the period it produced
    plist = args.p or [None]
    lines = ["family,n,k,p,bound,oracle(opt),hitch_moves,guess_moves"]
    for n in args.n:
        for k in args.k:
            for p in plist:
                lines.append(",".join(_bench_row(fam.name, args, n, k, p)))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _bench_row(family: str, args: argparse.Namespace, n: int, k: int, p: int | None) -> list[str]:
    row = [family, str(n), str(k), _bench_cell(p)]
    try:
        inst = make_instance(family, n, k, p, args.seed)
    except PVGraphError as exc:
        print(f"bench {family} n={n} k={k} p={p}: {exc}", file=sys.stderr)
        return row + ["", "", "", ""]
    rs = inst.routeset
    if p is None:
        row[3] = str(rs.max_period)
    row.append(_bench_cell(inst.bound))
    try:
        row.append(_bench_cell(min_moves(rs, inst.start, args.state_cap)))
    except StateSpaceTooLarge:
        row.append("")
    traces = race(rs, inst.start)
    for name in ("hitch", "guess"):
        trace = traces[name]
        if trace.halted and trace.covers(rs):
            row.append(str(trace.moves))
        else:
            print(f"bench {family} n={n} k={k} p={p}: {name} failed to cover", file=sys.stderr)
            row.append("")
    return row


def _cmd_forge(args: argparse.Namespace) -> int:
    targets = THM1_TARGETS if args.thm == 1 else THM2_TARGETS
    if args.strategy not in targets:
        known = ", ".join(sorted(targets))
        print(f"unknown strategy {args.strategy!r}; pick one of: {known}", file=sys.stderr)
        return 2
    forge = forge_thm1 if args.thm == 1 else forge_thm2
    g, gprime, verdict = forge(targets[args.strategy], args.n, args.k, args.move_limit)
    print(json.dumps({
        "thm": args.thm,
        "strategy": args.strategy,
        "n": args.n,
        "k": args.k,
        "verdict": verdict,
        "g": fileformat.dumps(g),
        "gprime": fileformat.dumps(gprime),
    }))
    return 0 if verdict else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "validate": _cmd_validate,
        "explore": _cmd_explore,
        "oracle": _cmd_oracle,
        "bench": _cmd_bench,
        "forge": _cmd_forge,
    }
    try:
        return handlers[args.command](args)
    except (PVGraphError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
