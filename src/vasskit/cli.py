"""vasskit command line: generate, expand, compile, check flatness, solve
bounded reachability, run experiment tables, and verify the property suites.

Commands read counter programs (.cp text) or VASS JSON from files or stdin
("-") and write to stdout or --out, so stages pipe together:

    vasskit gen exp --n 2 | vasskit compile - | vasskit solve - --bound 24

Exit codes: 0 success (reachable / all checks pass), 1 property failure or
unreachable within the bound, 2 usage error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import families, measure, verify
from .arith import description_size
from .compiler import compile_counter_program, compile_program
from .errors import BudgetExceededError, ExpansionError, ParseError, VasskitError
from .expansion import expand, pretty_print_flat
from .lang import parse, pretty_print
from .search import SearchBudget, Verdict, shortest_halting
from .vass import Vass, is_flat, vass_size

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_output(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_vass(text: str) -> Vass:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return Vass.from_json(text)
    return compile_counter_program(parse(text)).vass


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_set(text: str) -> tuple[int, ...]:
    """The values of an np `--set` option: comma-separated integers."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"--set: expected comma-separated integers, got {text!r}") from None


def _generate(args) -> str:
    family = args.family
    if family == "exp":
        program = families.gen_exp_fixed(args.n, args.x0) if args.x0 else families.gen_exp(args.n)
    elif family == "weak":
        program = families.gen_weak(args.b)
    elif family == "weakmult":
        program = families.gen_weak_mult(args.c, args.d)
    elif family == "hp":
        program = families.gen_hp(args.c, args.d)
    elif family == "2exp":
        if args.pump:
            program, _meta = families.gen_double_exp_fixed(args.k, args.pump)
        else:
            program, _meta = families.gen_double_exp(args.k)
    elif family == "np":
        program, _meta = families.gen_np(families.NpInstance(args.s0, _parse_set(args.set)))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown family {family!r}")
    if args.format == "json":
        return compile_counter_program(program).vass.to_json()
    return pretty_print(program)


def cmd_gen(args) -> int:
    _write_output(_generate(args), args.out)
    return EXIT_OK


def cmd_expand(args) -> int:
    flat = expand(parse(_read_input(args.input)))
    _write_output(pretty_print_flat(flat), args.out)
    return EXIT_OK


def cmd_compile(args) -> int:
    flat = expand(parse(_read_input(args.input)))
    _write_output(compile_program(flat).vass.to_json(), args.out)
    return EXIT_OK


def cmd_flat(args) -> int:
    vass = _load_vass(_read_input(args.input))
    report = is_flat(vass)
    if args.format == "json":
        obj = {"flat": report.is_flat}
        if not report.is_flat:
            obj["witness_state"] = report.witness_state
            obj["witness_cycles"] = [[t.to_json_obj() for t in cyc] for cyc in report.witness_cycles]
        text = _json_dumps(obj)
    elif report.is_flat:
        text = "flat\n"
    else:
        text = f"not flat: state {report.witness_state} lies on two simple cycles\n"
    _write_output(text, args.out)
    return EXIT_OK if report.is_flat else EXIT_FAIL


def cmd_solve(args) -> int:
    vass = _load_vass(_read_input(args.input))
    result = shortest_halting(vass, SearchBudget(args.bound, args.max_configs), args.max_depth)
    if args.format == "json":
        text = _json_dumps(result.to_json_obj(vass))
    else:
        lines = [f"verdict: {result.verdict.value}"]
        if result.run is not None:
            lines.append(f"length: {len(result.run)}")
        lines.append(
            f"expanded: {result.stats.expanded}  frontier peak: {result.stats.frontier_peak}"
            f"  depth: {result.stats.depth}"
        )
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    if result.verdict == Verdict.FOUND:
        return EXIT_OK
    if result.verdict == Verdict.EXHAUSTED:
        return EXIT_FAIL
    return EXIT_BUDGET


def cmd_size(args) -> int:
    vass = _load_vass(_read_input(args.input))
    value = vass_size(vass, args.encoding)
    _write_output(f"{value}\n", args.out)
    return EXIT_OK


def cmd_measure(args) -> int:
    if args.family == "np":
        values = _parse_set(args.set) if args.set else ()
        if args.s0 is None or not values:
            raise ValueError("measure np needs --s0 and --set")
        rows = [measure.measure_np(args.s0, values, args.max_configs)]
    elif args.lo > args.hi:
        raise ValueError(f"--from {args.lo} is greater than --to {args.hi}: the range is empty")
    else:
        params = list(range(args.lo, args.hi + 1))
        rows = measure.measure_family(args.family, params, args.max_configs)
    if args.format == "json":
        text = _json_dumps([r.to_json_obj() for r in rows])
    else:
        text = measure.format_table(rows)
    _write_output(text, args.out)
    if any(r.shortest_verdict == Verdict.BUDGET_EXCEEDED.value for r in rows):
        return EXIT_BUDGET
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run_suites(args.suites)
    if args.format == "json":
        text = _json_dumps([r.to_json_obj() for r in results])
    else:
        lines = []
        for r in results:
            for c in r.checks:
                mark = "PASS" if c.passed else "FAIL"
                lines.append(f"[{mark}] {r.suite}: {c.name}" + (f" -- {c.detail}" if c.detail else ""))
            lines.append(f"{r.suite}: {'ok' if r.passed else 'FAILED'} ({r.elapsed_s:.1f}s)")
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def cmd_fractions(args) -> int:
    seq = families.fraction_sequence(args.k)
    if args.format == "json":
        obj = {
            "k": seq.k,
            "ratios": [str(r) for r in seq.ratios],
            "factors": [str(f) for f in seq.factors],
            "product": str(seq.product),
            "factor_size_bound": str(4 ** (seq.k**2 + seq.k)),
            "max_factor_size": str(max(description_size(f) for f in seq.factors)),
            "product_size": str(description_size(seq.product)),
        }
        text = _json_dumps(obj)
    else:
        lines = [f"k = {seq.k}"]
        lines += [f"r_{i} = {r}" for i, r in enumerate(seq.ratios, start=1)]
        lines += [f"f_{i} = {f}" for i, f in enumerate(seq.factors, start=1)]
        lines.append(f"product = {seq.product}")
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vasskit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, with_input=True):
        if with_input:
            p.add_argument("input", nargs="?", default="-",
                           help="input file (.cp or VASS JSON); '-' for stdin")
        p.add_argument("--out", help="write output to this file instead of stdout")

    gen = sub.add_parser("gen", help="generate a family member")
    gen.add_argument("family", choices=["exp", "weak", "weakmult", "hp", "2exp", "np"])
    gen.add_argument("--n", type=int, default=1, help="exp: cascade depth")
    gen.add_argument("--x0", type=int, default=0, help="exp: fix the pump to x0 (0 = free pump)")
    gen.add_argument("--b", type=int, default=1, help="weak: the value to compute")
    gen.add_argument("--c", type=int, default=2, help="weakmult/hp: numerator")
    gen.add_argument("--d", type=int, default=1, help="weakmult/hp: denominator")
    gen.add_argument("--k", type=int, default=1, help="2exp: number of tower stages")
    gen.add_argument("--pump", type=int, default=0, help="2exp: fix the pump (0 = free pump)")
    gen.add_argument("--s0", type=int, default=1, help="np: subset-sum target")
    gen.add_argument("--set", default="1", help="np: comma-separated values")
    gen.add_argument("--format", choices=["text", "json"], default="text",
                     help="text = .cp program, json = compiled VASS")
    add_io(gen, with_input=False)
    gen.set_defaults(func=cmd_gen)

    for name, fn, help_text in (
        ("expand", cmd_expand, "expand macros to a flat numbered program"),
        ("compile", cmd_compile, "compile a program to VASS JSON"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_io(p)
        p.set_defaults(func=fn)

    flat = sub.add_parser("flat", help="check flatness (exit 1 when not flat)")
    add_io(flat)
    flat.add_argument("--format", choices=["text", "json"], default="text")
    flat.set_defaults(func=cmd_flat)

    solve = sub.add_parser("solve", help="bounded shortest halting run")
    add_io(solve)
    solve.add_argument("--bound", type=int, required=True, help="per-counter value bound")
    solve.add_argument("--max-configs", type=int, default=2_000_000)
    solve.add_argument("--max-depth", type=int, default=None,
                       help="cap on run length (exit 3 when it cuts the search)")
    solve.add_argument("--format", choices=["text", "json"], default="text")
    solve.set_defaults(func=cmd_solve)

    size = sub.add_parser("size", help="VASS size |Q| + |T|*s")
    add_io(size)
    size.add_argument("--encoding", choices=["unary", "binary"], default="unary")
    size.set_defaults(func=cmd_size)

    meas = sub.add_parser("measure", help="experiment table for a family")
    meas.add_argument("family", choices=["exp", "weak", "hp", "2exp", "np"])
    meas.add_argument("--from", dest="lo", type=int, default=1)
    meas.add_argument("--to", dest="hi", type=int, default=3)
    meas.add_argument("--s0", type=int, default=None, help="np: subset-sum target")
    meas.add_argument("--set", default=None, help="np: comma-separated values")
    meas.add_argument("--max-configs", type=int, default=10_000_000)
    meas.add_argument("--format", choices=["text", "json"], default="text")
    add_io(meas, with_input=False)
    meas.set_defaults(func=cmd_measure)

    ver = sub.add_parser("verify", help="run property suites")
    ver.add_argument("suites", nargs="+",
                     choices=sorted(verify.SUITES) + ["all"],
                     help="suite names, or 'all'")
    ver.add_argument("--format", choices=["text", "json"], default="text")
    add_io(ver, with_input=False)
    ver.set_defaults(func=cmd_verify)

    frac = sub.add_parser("fractions", help="the tower fraction sequence")
    frac.add_argument("--k", type=int, required=True)
    frac.add_argument("--format", choices=["text", "json"], default="text")
    add_io(frac, with_input=False)
    frac.set_defaults(func=cmd_fractions)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as e:
        print(f"vasskit: budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, ExpansionError, ValueError) as e:
        print(f"vasskit: {e}", file=sys.stderr)
        return EXIT_USAGE
    except VasskitError as e:
        print(f"vasskit: {e}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as e:
        print(f"vasskit: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
