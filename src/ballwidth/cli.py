"""Command line front end.

Exit codes: 0 success (and every sweep tuple verified), 2 bad usage or
malformed input, 3 a sweep found a counterexample, 4 a requested
certificate could not be granted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .antichains import (
    DEFAULT_MATCHING_BUDGET,
    check_klym,
    width,
)
from .certificates import (
    CERTIFIED,
    CERTIFIED_STRICT,
    certified_width,
    gk_partition,
    theorem_bound,
    zigzag_certificate,
)
from .combinatorics import GroundParams
from .errors import BudgetExceededError, CustomPosetError, GradedQuotientError
from .poset import (
    DEFAULT_ELEMENT_BUDGET,
    build_ball,
    build_sphere,
    family_subsets,
    load_custom_poset,
)
from .reports import (
    emit_json,
    emit_sweep_csv,
    emit_sweep_json,
    emit_sweep_text,
    emit_table_csv,
    emit_table_text,
    emit_table_tikz,
    table_report,
)
from .sweep import sweep_range


def _write(document: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(document)
    else:
        Path(out).write_text(document)


def _emit(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    """A run's document: its payload as JSON, else its text lines."""
    if args.format == "json":
        _write(emit_json(payload), args.out)
    else:
        _write("\n".join(lines) + "\n", args.out)


def _params(args: argparse.Namespace) -> GroundParams:
    return GroundParams(args.p, args.q, args.r)


def _positive(text: str) -> int:
    """argparse type for --budget: refused before anything is built."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _instance_from_args(args: argparse.Namespace, sphere: bool = False):
    """Poset selected on the command line: a ball, a sphere, or a file."""
    if args.custom_poset is not None:
        if (args.p, args.q, args.r) != (None, None, None):
            raise ValueError("give either -p/-q/-r or --custom-poset, not both")
        document = json.loads(Path(args.custom_poset).read_text())
        return load_custom_poset(document, args.budget), None
    if args.p is None or args.q is None or args.r is None:
        raise ValueError("need either -p/-q/-r or --custom-poset")
    params = _params(args)
    if sphere:
        return build_sphere(params, params.r, args.budget), params
    return build_ball(params, args.budget), params


def _run_table(args: argparse.Namespace) -> int:
    report = table_report(_params(args))
    emitters = {
        "csv": emit_table_csv,
        "json": emit_json,
        "text": emit_table_text,
        "tikz": emit_table_tikz,
    }
    _write(emitters[args.format](report), args.out)
    return 0


def _run_width(args: argparse.Namespace) -> int:
    instance, params = _instance_from_args(args)
    value, witness = width(instance, args.budget)
    members: list = list(witness.members)
    if params is not None:
        rendered = [sorted(s) for s in family_subsets(instance, members)]
    else:
        rendered = members
    payload = {
        "elements": len(instance),
        "width": str(value),
        "witness": rendered,
    }
    if params is not None:
        payload = {"p": params.p, "q": params.q, "r": params.r, **payload}
    lines = [f"width {value} over {len(instance)} elements"]
    for entry in rendered[:12]:  # a subset as a set, a custom poset's id as it is
        lines.append(f"  {entry if params is None else (set(entry) or '{}')}")
    if len(rendered) > 12:
        lines.append(f"  ... {len(rendered) - 12} more")
    _emit(args, payload, lines)
    return 0


def _run_klym(args: argparse.Namespace) -> int:
    instance, params = _instance_from_args(args, sphere=True)
    verdict = check_klym(instance)
    payload = {
        "elements": len(instance),
        "holds": verdict.holds,
        "max_lym_sum": str(verdict.max_lym_sum),
        "witness_size": len(verdict.witness),
    }
    if params is not None:
        payload = {"p": params.p, "q": params.q, "sphere": params.r, **payload}
    state = "holds" if verdict.holds else "FAILS"
    _emit(args, payload, [f"normalized antichain bound {state}: max sum {verdict.max_lym_sum}"])
    return 0


def _run_certify(args: argparse.Namespace) -> int:
    if args.strict and args.method == "zigzag":
        raise ValueError("--strict applies to the flow search, not to --method zigzag")
    params = _params(args)
    if args.method == "zigzag":
        verdict = zigzag_certificate(params)
        layer_size = None
    else:
        verdict, layer_size = certified_width(params, strict=args.strict)
    payload: dict = {
        "p": params.p,
        "q": params.q,
        "r": params.r,
        "method": args.method,
        "status": verdict.status,
        "diagnostics": verdict.diagnostics,
    }
    lines = [f"{verdict.status}: {verdict.diagnostics}"]
    if layer_size is not None:
        payload["largest_layer_size"] = str(layer_size)
    if verdict.certificate is not None:
        cert = verdict.certificate
        lines.append(f"target height {cert.target_height}, {len(cert.profiles)} profiles")
        payload["target_height"] = cert.target_height
        payload["coverage"] = [
            {"i": c[0], "j": c[1], "count": str(n)}
            for c, n in sorted(cert.coverage.items())
        ]
        payload["profiles"] = [
            {"path": [[i, j] for i, j in profile], "count": str(mult)}
            for profile, mult in cert.profiles
        ]
    _emit(args, payload, lines)
    return 0 if verdict.status in (CERTIFIED, CERTIFIED_STRICT) else 4


def _run_sweep(args: argparse.Namespace) -> int:
    records, summary = sweep_range(
        args.p_max,
        args.q_max,
        r_max=args.r_max,
        n_max=args.n_max,
        general=args.general,
        element_budget=args.budget or DEFAULT_ELEMENT_BUDGET,
        matching_budget=args.budget or DEFAULT_MATCHING_BUDGET,
        out_path=args.out,
        resume=args.resume,
        jobs=args.jobs,
    )
    emitters = {
        "csv": emit_sweep_csv,
        "json": emit_sweep_json,
        "text": emit_sweep_text,
    }
    sys.stdout.write(emitters[args.format](records))
    return 3 if summary["counterexamples"] else 0


def _run_chains(args: argparse.Namespace) -> int:
    chains = gk_partition(args.n)
    as_sets = [
        [sorted(k + 1 for k in range(args.n) if mask >> k & 1) for mask in chain]
        for chain in chains
    ]
    if args.format == "csv":
        lines = ["chain,step,subset"]
        for cid, chain in enumerate(as_sets):
            for step, subset in enumerate(chain):
                lines.append(f"{cid},{step},{' '.join(map(str, subset))}")
    else:
        lines = [f"{len(chains)} symmetric chains over {{1..{args.n}}}"]
        for chain in as_sets:
            lines.append(
                "  " + " < ".join("{" + ",".join(map(str, s)) + "}" for s in chain)
            )
    _emit(args, {"n": args.n, "count": len(chains), "chains": as_sets}, lines)
    return 0


def _run_theorem(args: argparse.Namespace) -> int:
    params = _params(args)
    bound = theorem_bound(params)
    payload = {"p": params.p, "q": params.q, "r": params.r, "bound": str(bound)}
    _emit(args, payload, [f"width bound for p={params.p} q={params.q} r={params.r}: {bound}"])
    return 0


def _add_pqr(sub: argparse.ArgumentParser, required: bool = True) -> None:
    sub.add_argument("-p", type=int, required=required, help="center set size")
    sub.add_argument("-q", type=int, required=required, help="far side size")
    sub.add_argument("-r", type=int, required=required, help="radius")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballwidth",
        description="widths, antichains and chain certificates for subset balls",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    table = subs.add_parser("table", help="sublayer size table of one ball")
    _add_pqr(table)
    table.add_argument("--format", choices=("csv", "json", "tikz", "text"), default="text")
    table.add_argument("--out", help="write the document here instead of stdout")
    table.set_defaults(run=_run_table)

    wid = subs.add_parser("width", help="width and a maximum antichain")
    _add_pqr(wid, required=False)
    wid.add_argument("--custom-poset", help="JSON file with elements/relations")
    wid.add_argument("--budget", type=_positive, help="size cap for build and matching")
    wid.add_argument("--format", choices=("json", "text"), default="text")
    wid.add_argument("--out")
    # the width engine matches every element it builds, so one cap bounds both
    wid.set_defaults(run=_run_width, budget=DEFAULT_MATCHING_BUDGET)

    klym = subs.add_parser(
        "klym", help="normalized antichain bound on the sphere (or a custom poset)"
    )
    _add_pqr(klym, required=False)
    klym.add_argument("--custom-poset", help="JSON file with elements/relations")
    klym.add_argument("--budget", type=_positive, help="size cap for the poset build")
    klym.add_argument("--format", choices=("json", "text"), default="text")
    klym.add_argument("--out")
    klym.set_defaults(run=_run_klym, budget=DEFAULT_ELEMENT_BUDGET)

    certify = subs.add_parser("certify", help="chain-family certificate for the ball")
    _add_pqr(certify)
    certify.add_argument("--method", choices=("flow", "zigzag"), default="flow")
    certify.add_argument(
        "--strict", action="store_true", help="demand strict domination off-target"
    )
    certify.add_argument("--format", choices=("json", "text"), default="text")
    certify.add_argument("--out")
    certify.set_defaults(run=_run_certify)

    sweep = subs.add_parser("sweep", help="verify all tuples in a range")
    sweep.add_argument("--p-max", type=int, required=True)
    sweep.add_argument("--q-max", type=int, required=True)
    sweep.add_argument("--r-max", type=int)
    sweep.add_argument("--n-max", type=int, help="cap on p + q")
    sweep.add_argument(
        "--general", action="store_true", help="include radii beyond min(p, q)"
    )
    sweep.add_argument("--budget", type=_positive, help="size cap for build and matching")
    sweep.add_argument(
        "--out", help="JSON-lines record log; must be new or empty unless --resume"
    )
    sweep.add_argument(
        "--resume", action="store_true", help="skip tuples already in the log"
    )
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--format", choices=("csv", "json", "text"), default="text")
    sweep.set_defaults(run=_run_sweep)

    chains = subs.add_parser("chains", help="symmetric chain partition of 2^[n]")
    chains.add_argument("-n", type=int, required=True)
    chains.add_argument("--format", choices=("csv", "json", "text"), default="text")
    chains.add_argument("--out")
    chains.set_defaults(run=_run_chains)

    theorem = subs.add_parser("theorem", help="upper bound from sphere maxima")
    _add_pqr(theorem)
    theorem.add_argument("--format", choices=("json", "text"), default="text")
    theorem.add_argument("--out")
    theorem.set_defaults(run=_run_theorem)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (
        ValueError, CustomPosetError, BudgetExceededError, GradedQuotientError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
