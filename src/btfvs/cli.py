"""Command-line surface.

Exit codes: 0 success / solution found; 1 no solution within budget (or a
failed verification); 2 usage or parse errors; 3 internal invariant
violations.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import KNOWN_SOLVERS, bench, to_csv
from .dfvc import dfvc_solve
from .errors import (DimensionMismatch, EmptyM, FamilyCapExceeded,
                     NotAcyclic, NotAMatching, NotMConsistent, ParseError)
from .generators import GenKind, GenSpec, generate
from .graph import BipartiteTournament
from .io import (canonical_sequence_json, labels_of, m_sequence_json,
                 parse_dfvc, parse_instance, resolve_edge_list,
                 resolve_labels, serialize_cfvs, serialize_instance)
from .lemma_suite import SuiteConfig, run_lemma_suite
from .msequence import back_edges, is_conflict_back_edge, m_sequence
from .pipeline import ConstantsProfile, pipeline_solve
from .solvers import (ORACLE_DEFAULT_CAP, Constraints, SolveStatus, approx4,
                      branch_solve, exact_min_fvs, oracle_min_fvs, verify_fvs)
from .structure import canonical_sequence

USAGE_ERROR = 2
INTERNAL_ERROR = 3


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_instance(path: str):
    return parse_instance(_read_text(path))


def _emit(args, payload: dict, plain: str) -> None:
    if args.json:
        json.dump(payload, sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(plain + "\n")


def _profile_from_flag(spec: str | None) -> ConstantsProfile | None:
    if spec is None or spec == "paper":
        return None  # derived from the budget at solve time
    if spec == "toy":
        return ConstantsProfile.toy()
    if spec.startswith("file:"):
        return ConstantsProfile.from_mapping(json.loads(Path(spec[5:]).read_text()))
    raise ParseError(f"unknown profile {spec!r}; use paper, toy, or file:<path>")


def _constraints(args, T: BipartiteTournament, budget: int | None) -> Constraints:
    forbidden = resolve_labels(T, args.forbidden) if args.forbidden else frozenset()
    required = resolve_labels(T, args.required) if args.required else frozenset()
    cover = resolve_edge_list(T, args.cover_edges) if args.cover_edges else frozenset()
    return Constraints(forbidden, required, cover, budget)


def _budget(args, parsed) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    if parsed.k is not None:
        return parsed.k
    raise ParseError("no budget: pass --budget or store k in the instance file")


def _report_solve(args, T, res, **extra) -> int:
    """Print a solver's answer; ``extra`` fields join the --json envelope."""
    if res.status is SolveStatus.SOLUTION:
        labels = labels_of(T, res.solution)
        _emit(args, {"status": "solution", "size": len(labels),
                     "solution": labels, "nodes": res.stats.nodes, **extra},
              json.dumps(labels))
        return 0
    _emit(args, {"status": "no-solution", **extra}, "no solution within budget")
    return 1


def cmd_solve(args) -> int:
    parsed = _load_instance(args.instance)
    budget = _budget(args, parsed)
    cons = _constraints(args, parsed.tournament, budget)
    res = branch_solve(parsed.tournament, cons)
    return _report_solve(args, parsed.tournament, res)


def cmd_oracle(args) -> int:
    parsed = _load_instance(args.instance)
    budget = args.budget if args.budget is not None else parsed.k
    cons = _constraints(args, parsed.tournament, budget)
    res = oracle_min_fvs(parsed.tournament, cons, cap=args.cap)
    return _report_solve(args, parsed.tournament, res)


def cmd_approx(args) -> int:
    parsed = _load_instance(args.instance)
    budget = _budget(args, parsed)
    out = approx4(parsed.tournament, budget)
    if out is None:
        _emit(args, {"status": "too-big", "budget": budget},
              f"no feedback vertex set of size <= {budget} (factor-4 certificate)")
        return 1
    labels = labels_of(parsed.tournament, out)
    _emit(args, {"status": "solution", "size": len(labels), "solution": labels},
          json.dumps(labels))
    return 0


def cmd_exact(args) -> int:
    parsed = _load_instance(args.instance)
    sol = exact_min_fvs(parsed.tournament)
    labels = labels_of(parsed.tournament, sol)
    _emit(args, {"status": "solution", "size": len(labels), "solution": labels},
          json.dumps(labels))
    return 0


def cmd_structure(args) -> int:
    parsed = _load_instance(args.instance)
    T = parsed.tournament
    if args.m_seq:
        if not args.m:
            raise ParseError("--m-seq needs --m with the undeletable labels")
        M = resolve_labels(T, args.m)
        seq = m_sequence(T, M)
        edges = back_edges(T, seq)
        conflicts = {(e.tail, e.head): is_conflict_back_edge(T, M, e)
                     for e in edges}
        payload = m_sequence_json(T, seq, edges, conflicts)
    else:
        payload = canonical_sequence_json(T, canonical_sequence(T))
    json.dump(payload, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_pipeline(args) -> int:
    parsed = _load_instance(args.instance)
    budget = _budget(args, parsed)
    profile = _profile_from_flag(args.profile)
    collect = None
    if args.emit_families:
        out_dir = Path(args.emit_families)
        out_dir.mkdir(parents=True, exist_ok=True)
        counter = [0]

        def collect(stage, parent, children):
            for child in children:
                path = out_dir / f"{stage}-{counter[0]:05d}.json"
                path.write_text(serialize_cfvs(child))
                counter[0] += 1

    res = pipeline_solve(parsed.tournament, budget, profile,
                         workers=args.workers, collect=collect)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("stage,family_size\n")
            for stage, size in res.trace:
                fh.write(f"{stage},{size}\n")
    for d in res.diagnostics:
        print(d, file=sys.stderr)
    return _report_solve(args, parsed.tournament, res, nodes=res.stats.nodes,
                         trace=[list(row) for row in res.trace],
                         diagnostics=list(res.diagnostics), used_fallback=res.used_fallback)


def cmd_gen(args) -> int:
    for flag, val in (("--k", args.k), ("--count", args.count)):
        if val is not None and val < 0:
            raise ValueError(f"{flag} must be non-negative, got {val}")
    kind = {k.value: k for k in GenKind}[args.kind]
    specs = [GenSpec(m=args.m, n=args.n, kind=kind, seed=args.seed + i, k_plant=args.k_plant,
                     twin_a=args.twin_a, twin_b=args.twin_b) for i in range(args.count)]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for spec in specs:
        T = generate(spec)
        meta = {"generator": {"kind": kind.value, "m": args.m, "n": args.n,
                              "seed": spec.seed, "k_plant": args.k_plant,
                              "twin_a": args.twin_a, "twin_b": args.twin_b}}
        path = out_dir / f"{spec.file_stem()}.json"
        path.write_text(serialize_instance(T, k=args.k, metadata=meta))
        paths.append(str(path))
    _emit(args, {"status": "ok", "files": paths}, "\n".join(paths))
    return 0


def cmd_verify(args) -> int:
    parsed = _load_instance(args.instance)
    T = parsed.tournament
    solution = resolve_labels(T, args.solution) if args.solution else frozenset()
    ok = verify_fvs(T, solution)
    budget = args.budget if args.budget is not None else parsed.k
    if ok and budget is not None and len(solution) > budget:
        ok = False
    _emit(args, {"status": "valid" if ok else "invalid", "size": len(solution)},
          "valid" if ok else "invalid")
    return 0 if ok else 1


def cmd_check_lemmas(args) -> int:
    if args.config:
        config = SuiteConfig.from_mapping(json.loads(Path(args.config).read_text()))
    else:
        config = SuiteConfig()
    if args.quick:
        config = config.quick()
    report = run_lemma_suite(config)
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    for r in report.results:
        marker = "PASS" if r.passed else "FAIL"
        note = f" [{r.note}]" if r.note else ""
        print(f"{marker} {r.name} ({r.checked} checks){note}", file=sys.stderr)
    return 0 if report.all_passed else 1


def cmd_bench(args) -> int:
    corpus = []
    corpus_dir = Path(args.corpus)
    for path in sorted(corpus_dir.glob("*.json")):
        parsed = parse_instance(path.read_text())
        corpus.append((path.stem, parsed.tournament, parsed.k))
    if not corpus:
        raise ParseError(f"no .json instances under {corpus_dir}")
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    profile = _profile_from_flag(args.profile)
    records = bench(corpus, solvers, profile=profile, oracle_cap=args.cap,
                    workers=args.workers)
    csv_text = to_csv(records)
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def cmd_dfvc(args) -> int:
    inst = parse_dfvc(_read_text(args.instance))
    res = dfvc_solve(inst)
    if res.found:
        from .io import _part_label
        labels = sorted(_part_label(inst.graph, pi, v) for (pi, v) in res.solution)
        _emit(args, {"status": "solution", "size": len(labels), "solution": labels},
              json.dumps(labels))
        return 0
    _emit(args, {"status": "no-solution"}, "no solution within budget")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btfvs",
        description="Feedback vertex set toolkit for bipartite tournaments")
    parser.add_argument("--seed", type=int, default=1, help="base seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="processes for bench; pipeline accepts only 1")
    parser.add_argument("--profile", default=None,
                        help="constants profile: paper, toy, or file:<path>")
    parser.add_argument("--json", action="store_true",
                        help="machine-parseable output envelope")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_cmd(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("instance", help="instance file ('-' for stdin)")
        p.set_defaults(fn=fn)
        return p

    p = add_instance_cmd("solve", cmd_solve, help="budgeted branching solver")
    p.add_argument("--budget", type=int)
    p.add_argument("--forbidden", help="comma-separated labels")
    p.add_argument("--required", help="comma-separated labels")
    p.add_argument("--cover-edges", dest="cover_edges",
                   help="comma-separated label-label pairs")

    p = add_instance_cmd("oracle", cmd_oracle, help="exhaustive reference solver")
    p.add_argument("--budget", type=int)
    p.add_argument("--cap", type=int, default=ORACLE_DEFAULT_CAP)
    p.add_argument("--forbidden")
    p.add_argument("--required")
    p.add_argument("--cover-edges", dest="cover_edges")

    p = add_instance_cmd("approx", cmd_approx, help="factor-4 greedy")
    p.add_argument("--budget", type=int)

    add_instance_cmd("exact", cmd_exact, help="minimum solution")

    p = add_instance_cmd("structure", cmd_structure,
                         help="canonical layering / block structure")
    p.add_argument("--m-seq", dest="m_seq", action="store_true")
    p.add_argument("--m", help="comma-separated undeletable labels")

    p = add_instance_cmd("pipeline", cmd_pipeline, help="reduction cascade solver")
    p.add_argument("--budget", type=int)
    p.add_argument("--emit-families", dest="emit_families",
                   help="directory for per-stage instance dumps")
    p.add_argument("--trace", help="CSV path for the children each stage emitted, up to "
                   "the cascade's answer (a screened no-instance has the one row "
                   "screen,<square-packing bound>, a searched one the one row "
                   "search,<nodes>)")

    p = sub.add_parser("gen", help="write generated instances")
    p.set_defaults(fn=cmd_gen)
    p.add_argument("--kind", choices=[k.value for k in GenKind], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--k", type=int, default=None, help="budget stored in the file")
    p.add_argument("--k-plant", dest="k_plant", type=int, default=2)
    p.add_argument("--twin-a", dest="twin_a", type=int, default=2)
    p.add_argument("--twin-b", dest="twin_b", type=int, default=2)
    p.add_argument("--out", required=True)

    p = add_instance_cmd("verify", cmd_verify, help="check a candidate solution")
    p.add_argument("--solution", help="comma-separated labels", default="")
    p.add_argument("--budget", type=int)

    p = sub.add_parser("check-lemmas", help="run the property suite")
    p.set_defaults(fn=cmd_check_lemmas)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="report path (stdout otherwise)")
    p.add_argument("--quick", action="store_true", help="scaled-down campaign")

    p = sub.add_parser("bench", help="benchmark a corpus")
    p.set_defaults(fn=cmd_bench)
    p.add_argument("--corpus", required=True)
    p.add_argument("--solvers", default="oracle,branch",
                   help=f"comma list from {','.join(KNOWN_SOLVERS)}")
    p.add_argument("--cap", type=int, default=ORACLE_DEFAULT_CAP)
    p.add_argument("--out", help="CSV path (stdout otherwise)")

    p = add_instance_cmd("dfvc", cmd_dfvc, help="mixed multigraph endgame solver")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, DimensionMismatch, NotAcyclic, NotMConsistent, EmptyM,
            NotAMatching, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FamilyCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
