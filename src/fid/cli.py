"""Command-line surface.

Exit codes: 0 success / verified, 1 verification failed (counterexample
printed), 2 input error, 3 resource cap exceeded, 4 internal error (a
failed self-audit). All output goes to standard out, diagnostics to
standard error; every command accepts --json for machine-readable output
and is deterministic given identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .equivalences import base_decomposition
from .errors import CapExceeded, InputError, InternalError
from .games import (DEFAULT_ROUND_CAP, distinguishing_rank,
                    distinguishing_rank_alt, identification_rank)
from .invariants import (DEFAULT_DELTA_CAP, analyze, bound_report, gen_gm,
                         gen_mfmg)
from .logic import DEFAULT_NODE_CEILING, format_formula, parse_formula
from .structures import (Structure, enumerate_structures, format_fos,
                         parse_fos, parse_vocab_spec)
from .synthesis import (synth_auto, synth_delta, synth_graph,
                        synth_naive_define, synth_naive_identify, synth_rho,
                        synth_sigma)
from .verification import audit_corpus, verify_defines_up_to, verify_identifies

_SYNTH = {
    "naive-id": lambda struct, config: synth_naive_identify(struct),
    "naive-def": lambda struct, config: synth_naive_define(struct),
    "sigma": lambda struct, config: synth_sigma(struct),
    "rho": lambda struct, config: synth_rho(
        struct, cap=config.delta_cap, ceiling=config.node_ceiling),
    "delta": lambda struct, config: synth_delta(
        struct, config.delta_cap, config.node_ceiling),
    "auto": lambda struct, config: synth_auto(
        struct, config.delta_cap, config.node_ceiling),
    "graph": lambda struct, config: synth_graph(
        struct, config.delta_cap, config.node_ceiling),
}


@dataclass
class CliConfig:
    delta_cap: int = DEFAULT_DELTA_CAP
    node_ceiling: int = DEFAULT_NODE_CEILING
    game_cap: int = DEFAULT_ROUND_CAP
    workers: int = 1
    as_json: bool = False


def _load_structure(path: str) -> tuple[Structure, bool]:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_fos(handle.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_formula(path: str, vocab):
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_formula(handle.read(), vocab)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _emit(payload: dict, config: CliConfig, human: str):
    if config.as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _cmd_analyze(args, config: CliConfig) -> int:
    struct, _ = _load_structure(args.file)
    report = analyze(struct, config.delta_cap)
    decomp = base_decomposition(struct)
    bounds = bound_report(struct, config.delta_cap)
    payload = {
        "order": struct.order,
        "arity": struct.vocab.max_arity,
        "sigma": report.sigma,
        "sigmaClass": list(report.sigma_class),
        "deltaExact": report.delta_exact,
        "deltaLower": report.delta_lower,
        "deltaWitness": list(report.delta_witness),
        "rho": report.rho,
        "rhoBase": list(report.rho_base),
        "fineness": report.fineness,
        "lambda": report.lam,
        "irredundant": report.irredundant,
        "base": sorted(decomp.base),
        "z": sorted(decomp.z),
        "bounds": [
            {"name": e.name, "kind": e.kind, "bound": float(e.bound),
             "achieved": None if e.achieved is None else float(e.achieved),
             "holds": e.holds}
            for e in bounds.entries
        ],
    }
    delta_text = (f"{report.delta_exact} (exact)" if report.delta_exact is not None
                  else f">= {report.delta_lower} (lower bound)")
    lines = [
        f"order {struct.order}  max arity {struct.vocab.max_arity}",
        f"sigma {report.sigma}  class {list(report.sigma_class)}",
        f"delta {delta_text}  witness {list(report.delta_witness)}",
        f"rho {report.rho}  base {list(report.rho_base)}  fineness {report.fineness}",
        f"lambda {report.lam}  irredundant {'yes' if report.irredundant else 'no'}",
        f"base layers X {[sorted(x) for x in decomp.x]}",
        f"            Y {[sorted(y) for y in decomp.y]}  Z {sorted(decomp.z)}",
    ]
    _emit(payload, config, "\n".join(lines))
    return 0


def _cmd_base(args, config: CliConfig) -> int:
    struct, _ = _load_structure(args.file)
    decomp = base_decomposition(struct)
    payload = {
        "k": decomp.k,
        "x": [sorted(x) for x in decomp.x],
        "y": [sorted(y) for y in decomp.y],
        "z": sorted(decomp.z),
        "base": sorted(decomp.base),
    }
    lines = [f"X{i + 1} {sorted(x)}" for i, x in enumerate(decomp.x)]
    lines += [f"Y{i + 1} {sorted(y)}" for i, y in enumerate(decomp.y)]
    lines.append(f"Z  {sorted(decomp.z)}")
    _emit(payload, config, "\n".join(lines))
    return 0


def _cmd_synth(args, config: CliConfig) -> int:
    struct, graph_mode = _load_structure(args.file)
    builder = _SYNTH[args.method]
    if args.method == "graph" and not graph_mode and not struct.is_graph():
        raise InputError("graph synthesis needs a graph-mode structure")
    result = builder(struct, config)
    if result is None:
        print(f"method {args.method} is not applicable here", file=sys.stderr)
        return 2
    text = format_formula(result.formula)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    payload = {
        "method": result.method,
        "formula": text,
        "quantifiers": result.metrics.quantifiers,
        "existentials": result.metrics.existentials,
        "universals": result.metrics.universals,
        "qr": result.metrics.qr,
        "prefixClass": result.metrics.prefix_class,
        "claimedBound": result.claimed_bound,
    }
    human = (f"method {result.method}: {result.metrics.quantifiers} quantifiers "
             f"({result.metrics.existentials}E/{result.metrics.universals}A), "
             f"bound {result.claimed_bound}")
    _emit(payload, config, human if args.output else human + "\n" + text)
    return 0


def _cmd_verify(args, config: CliConfig) -> int:
    struct, graph_mode = _load_structure(args.file)
    phi = _load_formula(args.formula, struct.vocab)
    scope = args.scope
    if scope == "order":
        verdict = verify_identifies(struct, phi, graph_mode)
    elif scope.startswith("upto:"):
        try:
            cap = int(scope.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad scope {scope!r}") from None
        verdict = verify_defines_up_to(struct, phi, cap, graph_mode)
    else:
        raise InputError(f"bad scope {scope!r}; use order or upto:N")
    payload = {
        "verdict": "pass" if verdict.passed else "fail",
        "rivalsChecked": verdict.rivals_checked,
        "scope": verdict.scope,
        "counterexample": None if verdict.counterexample is None
        else format_fos(verdict.counterexample),
    }
    if verdict.passed:
        _emit(payload, config,
              f"pass ({verdict.rivals_checked} rivals checked, {verdict.scope})")
        return 0
    human = "fail; counterexample:\n" + format_fos(verdict.counterexample)
    _emit(payload, config, human)
    return 1


def _cmd_game(args, config: CliConfig) -> int:
    a, _ = _load_structure(args.a)
    b, _ = _load_structure(args.b)
    cap = args.max_rounds if args.max_rounds is not None else config.game_cap
    if args.alternations is None:
        value = distinguishing_rank(a, b, cap)
    else:
        value = distinguishing_rank_alt(a, b, args.alternations, cap)
    payload = {"value": value, "maxRounds": cap, "alternations": args.alternations}
    label = "D" if args.alternations is None else f"D^{args.alternations}"
    human = (f"{label} = {value}" if value is not None
             else f"{label} unresolved within {cap} rounds")
    _emit(payload, config, human)
    return 0


def _cmd_rank(args, config: CliConfig) -> int:
    struct, graph_mode = _load_structure(args.file)
    cap = args.max_rounds if args.max_rounds is not None else config.game_cap
    value = identification_rank(struct, args.alternations, cap, graph_mode)
    payload = {"value": value, "alternations": args.alternations}
    label = "I" if args.alternations is None else f"I^{args.alternations}"
    _emit(payload, config, f"{label} = {value}")
    return 0


def _cmd_census(args, config: CliConfig) -> int:
    vocab = parse_vocab_spec(args.vocab)
    cap = args.max_rounds if args.max_rounds is not None else config.game_cap
    values = [identification_rank(struct, args.alternations, cap, args.graphs)
              for struct in enumerate_structures(vocab, args.order, args.graphs)]
    payload = {"values": values, "alternations": args.alternations}
    label = "I" if args.alternations is None else f"I^{args.alternations}"
    _emit(payload, config, "\n".join(
        f"{label} = {value}: {values.count(value)} of {len(values)}"
        for value in sorted(set(values))))
    return 0


def _cmd_enumerate(args, config: CliConfig) -> int:
    vocab = parse_vocab_spec(args.vocab)
    count = 0
    for struct in enumerate_structures(vocab, args.order, args.graphs):
        count += 1
        if config.as_json:
            print(json.dumps({
                "order": struct.order,
                "tables": {name: sorted(struct.tables[i])
                           for i, (name, _) in enumerate(vocab.symbols)},
            }, sort_keys=True))
        else:
            print(f"# structure {count}")
            print(format_fos(struct, args.graphs))
    print(f"{count} structures", file=sys.stderr)
    return 0


def _cmd_gen(args, config: CliConfig) -> int:
    if args.kind == "gm":
        struct = gen_gm(args.m)
        text = format_fos(struct, graph=True)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            print(text, end="")
        return 0
    first, second = gen_mfmg(args.m)
    if args.output:
        for suffix, struct in (("a", first), ("b", second)):
            with open(f"{args.output}.{suffix}.fos", "w", encoding="utf-8") as handle:
                handle.write(format_fos(struct))
    else:
        print("# first")
        print(format_fos(first))
        print("# second")
        print(format_fos(second), end="")
    return 0


def _cmd_audit(args, config: CliConfig) -> int:
    vocab = parse_vocab_spec(args.vocab)
    report = audit_corpus(vocab, args.order, args.graphs,
                          cap=config.delta_cap, workers=config.workers)
    print(report.to_jsonl())
    print(json.dumps(report.summary, sort_keys=True), file=sys.stderr)
    if not report.ok:
        return 1
    return 0


def _at_least(low: int):
    """Argparse type for integers >= low; anything else exits 2."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _global_options(parser, suppress: bool):
    # Registered on the root parser and again on every subcommand (with
    # suppressed defaults) so the flags work in either position.
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--json", action="store_true",
                        default=default if suppress else False,
                        help="machine output")
    for name, fallback, low in (("--delta-cap", DEFAULT_DELTA_CAP, 0),
                                ("--node-ceiling", DEFAULT_NODE_CEILING, 0),
                                ("--game-cap", DEFAULT_ROUND_CAP, 0),
                                ("--workers", 1, 1)):
        parser.add_argument(name, type=_at_least(low),
                            default=argparse.SUPPRESS if suppress else fallback)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fid",
        description="structural invariants, identifying-formula synthesis, "
                    "and exact Ehrenfeucht games for finite structures")
    _global_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="invariants and bound report")
    p.add_argument("file")
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("base", help="layered base decomposition")
    p.add_argument("file")
    p.set_defaults(run=_cmd_base)

    p = sub.add_parser("synth", help="synthesize an identifying formula")
    p.add_argument("file")
    p.add_argument("--method", choices=sorted(_SYNTH), required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser("verify", help="exhaustively verify a formula")
    p.add_argument("file")
    p.add_argument("formula")
    p.add_argument("--scope", default="order", help="order | upto:N")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("game", help="exact distinguishing game value")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--alternations", type=int, default=None)
    p.add_argument("--max-rounds", type=_at_least(0), default=None)
    p.set_defaults(run=_cmd_game)

    p = sub.add_parser("rank", help="identification rank (max over rivals)")
    p.add_argument("file")
    p.add_argument("--alternations", type=int, default=None)
    p.add_argument("--max-rounds", type=_at_least(0), default=None)
    p.set_defaults(run=_cmd_rank)

    p = sub.add_parser("census", help="identification rank of every structure "
                                      "of one order, counted by value")
    p.add_argument("--vocab", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--graphs", action="store_true")
    p.add_argument("--alternations", type=int, default=None)
    p.add_argument("--max-rounds", type=_at_least(0), default=None)
    p.set_defaults(run=_cmd_census)

    p = sub.add_parser("enumerate", help="structures up to isomorphism")
    p.add_argument("--vocab", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--graphs", action="store_true")
    p.set_defaults(run=_cmd_enumerate)

    p = sub.add_parser("gen", help="fixture generators")
    p.add_argument("kind", choices=("gm", "mfmg"))
    p.add_argument("m", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("audit", help="corpus-wide synthesis + verification sweep")
    p.add_argument("--vocab", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--graphs", action="store_true")
    p.set_defaults(run=_cmd_audit)

    for sub_parser in sub.choices.values():
        _global_options(sub_parser, suppress=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = CliConfig(delta_cap=args.delta_cap, node_ceiling=args.node_ceiling,
                       game_cap=args.game_cap, workers=args.workers,
                       as_json=args.json)
    try:
        return args.run(args, config)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
