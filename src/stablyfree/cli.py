"""Deterministic command-line front end.

Subcommands: steenrod (apply P^i), tor (Tor tables of homogeneous
spaces), obstruct (section obstructions and divisibility scans), verify
(axiom harness).  Identical invocations produce byte-identical output;
obstruct exits 0 when obstructed, 1 when no obstruction was found, and 2
on invalid input, so pipelines can branch on the verdict.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple

from .algebra import Element, Exps, polynomial_algebra
from .koszul import homogeneous_space_odd_basis, homogeneous_space_tor
from .modp import Prime, is_prime
from .models import GroupModel, TorsionPrimeError, model_from_matrix_size
from .obstruction import (check_cohomological, check_gl_quotient,
                          check_orthogonal, check_symplectic, divisibility_scan)
from .steenrod import AXIOMS, apply_P_polynomial, apply_P_primitive, verify_axiom

if TYPE_CHECKING:
    import argparse


class CliError(Exception):
    pass


def _prime(value: int) -> Prime:
    if not is_prime(value):
        raise CliError(f"{value} is not prime")
    return Prime(value)


# a token is a number, a generator (its letters and index captured, so that
# no other pattern is compiled), or an operator
_TOKEN = re.compile(r"\s*(\d+|([a-zA-Z]+)(\d+)|[+\-*^])")
# an odd generator for --class, and FAMILY:SIZE for --group
_CLASS = re.compile(r"a(\d+)")
_GROUP = re.compile(r"(GL|Sp|SO):(\d+)")
# the largest J of a cJ in a polynomial: the algebra of the input has J
# generators, built before any seed is checked (c400001 took 2.2 s and
# 168 MB), and 20 000 of them take about 0.1 s.  It stays above 10 001, so
# that P^10000(c10001) still reaches the seed cap
MAX_CHERN_INDEX = 20_000


def parse_polynomial(text: str, p: Prime) -> Element:
    """Parse expressions like 'c1^2*c2 + 2*c3' into an element of a
    polynomial algebra sized by the largest index mentioned."""
    tokens = []
    generators = []  # (token, letters, index)
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise CliError(f"cannot parse polynomial near {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        if m.group(2):
            generators.append(m.group(1, 2, 3))
        pos = m.end()
    if not tokens:
        raise CliError("empty polynomial")

    indices = []
    for t, letters, index in generators:
        if letters != "c" or index[0] not in "123456789":
            raise CliError(f"only Chern-class generators cJ (J >= 1) are "
                           f"allowed, got {t!r}")
        indices.append(int(index))
    top = max(indices, default=1)
    if top > MAX_CHERN_INDEX:
        raise CliError(f"c{top} is past the largest Chern index allowed, "
                       f"c{MAX_CHERN_INDEX}")
    alg = polynomial_algebra(p, top)

    terms: dict[Exps, int] = {}  # summed here, reduced once at the end
    sign, coeff, exps, expect_factor = 1, 1, {}, True
    tokens.append("+")  # a last sign ends the last term
    i = 0
    while i < len(tokens):
        t = tokens[i]
        i += 1
        if t in "+-":  # ends the term before it, unless it is the first token
            if i > 1:
                if expect_factor:
                    raise CliError("dangling operator in polynomial")
                mono = alg.make_monomial(exps)  # never None: nothing is killed
                terms[mono] = terms.get(mono, 0) + sign * coeff
            sign, coeff, exps, expect_factor = (1 if t == "+" else -1), 1, {}, True
        elif t == "*":
            if expect_factor:
                raise CliError("misplaced '*' in polynomial")
            expect_factor = True
        elif not expect_factor:
            raise CliError(f"unexpected token {t!r} (missing '*'?)")
        elif t.isdigit():
            coeff *= int(t)
            expect_factor = False
        elif t[0].isalpha():  # a generator token, and its exponent
            exp = 1
            if tokens[i] == "^":
                if not tokens[i + 1].isdigit():
                    raise CliError("'^' must be followed by an integer")
                exp = int(tokens[i + 1])
                i += 2
            exps[t] = exps.get(t, 0) + exp
            expect_factor = False
        else:
            raise CliError(f"unexpected token {t!r} in polynomial")
    return alg.from_terms(terms)


def _emit_json(payload: dict):
    print(json.dumps(payload, sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_steenrod(args) -> int:
    p = _prime(args.p)
    if (args.class_name is None) == (args.poly is None):
        raise CliError("give exactly one of --class (with --group) or --poly")
    if args.poly is not None and args.group is not None:
        raise CliError("--group goes with --class, not with --poly")
    if args.class_name is not None:
        if args.group is None:
            raise CliError("--class needs --group FAMILY:SIZE")
        model = _parse_group(args.group)
        model.check_prime(p)
        m = _CLASS.fullmatch(args.class_name)
        if not m:
            raise CliError(f"--class expects an odd generator aJ, got {args.class_name!r}")
        result = apply_P_primitive(args.op, int(m.group(1)), model, p)
        source = args.class_name
    else:
        x = parse_polynomial(args.poly, p)
        result = apply_P_polynomial(args.op, x, p)
        source = x.render()
    if args.json:
        _emit_json({"p": p.value, "operation": args.op, "input": source,
                    "result": result.render(), "element": result.to_json()})
    else:
        print(result.render())
    return 0


def _parse_group(text: str) -> GroupModel:
    m = _GROUP.fullmatch(text)
    if not m:
        raise CliError(f"--group expects FAMILY:SIZE (e.g. Sp:4), got {text!r}")
    return model_from_matrix_size(m.group(1), int(m.group(2)))


def cmd_tor(args) -> int:
    p = _prime(args.p)
    table = homogeneous_space_tor(args.family, args.n, args.r, p,
                                  degree_bound=args.bound)
    basis = homogeneous_space_odd_basis(args.family, args.n, args.r, p)
    odd_names = [g.name for g in basis]
    if args.json:
        payload = table.to_json()
        payload["odd_basis"] = odd_names
        payload["family"] = args.family
        payload["n"] = args.n
        _emit_json(payload)
    else:
        print(table.render_text())
        print("odd basis: " + (" ".join(odd_names) if odd_names else "(empty)"))
    return 0


def cmd_obstruct(args) -> int:
    p = _prime(args.p)
    if args.shape == "scan":
        if args.q is None:
            raise CliError("scan needs --q")
        scan = divisibility_scan(args.q, p, args.n_max)
        if args.json:
            _emit_json(scan.to_json())
        else:
            print(scan.render_text())
        return 0

    try:
        if args.shape == "gl":
            if args.a is None or args.b is None:
                raise CliError("gl needs --a and --b")
            report = check_gl_quotient(args.n, args.a, args.b, p)
        elif args.shape == "sp":
            report = check_symplectic(args.n, p)
        else:
            report = check_orthogonal(args.n, p)
    except TorsionPrimeError as e:
        raise CliError(f"torsion prime: {e}") from None

    oracle_report = None
    if args.oracle:
        oracle_report = check_cohomological(report.query)
        if (oracle_report.verdict != report.verdict
                or oracle_report.witnesses != report.witnesses):
            sys.stderr.write("engine disagreement between combinatorial and "
                             "cohomological checks\n")
            sys.stderr.write(report.render_text() + "\n")
            sys.stderr.write(oracle_report.render_text() + "\n")
            return 2

    if args.json:
        payload = report.to_json()
        if oracle_report is not None:
            payload["oracle"] = oracle_report.to_json()
            payload["oracle_agrees"] = True
        _emit_json(payload)
    else:
        print(report.render_text())
        if oracle_report is not None:
            print("cohomological cross-check: verdict and witnesses agree")
    return 0 if report.obstructed else 1


def cmd_verify(args) -> int:
    p = _prime(args.p)
    report = verify_axiom(args.axiom, p, args.bound, n_generators=args.gens)
    if args.json:
        _emit_json(report.to_json())
    else:
        print(report.summary())
        for c in report.failures():
            print(f"FAIL {c.description}")
            print(f"  lhs = {c.lhs}")
            print(f"  rhs = {c.rhs}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

class _Option(NamedTuple):
    """One argument of a command.  `kind` is int or str for an option that
    stores one value, and bool for a flag; an argument without flags is a
    positional."""
    flags: tuple[str, ...]
    dest: str
    kind: type
    required: bool = False
    default: object = None
    choices: tuple[str, ...] | None = None
    help: str | None = None


class _Command(NamedTuple):
    help: str
    func: Callable[..., int]
    arguments: tuple[_Option, ...]


def _prime_option(help: str | None = None) -> _Option:
    return _Option(("-p", "--p"), "p", int, required=True, help=help)


_JSON = _Option(("--json",), "json", bool, default=False)

# the one description of every command's arguments, read by build_parser
# and by _parse
_COMMANDS = {
    "steenrod": _Command("apply a reduced power operation P^i", cmd_steenrod, (
        _prime_option("coefficient prime"),
        _Option(("--group",), "group", str,
                help="group model FAMILY:SIZE, e.g. Sp:4 or GL:6"),
        _Option(("--class",), "class_name", str,
                help="odd generator aJ of the group model"),
        _Option(("--poly",), "poly", str,
                help="polynomial in Chern classes, e.g. 'c1^2*c2 + c3'"),
        _Option(("--op",), "op", int, required=True, help="operation index i"),
        _JSON)),
    "tor": _Command("Tor table of a homogeneous space", cmd_tor, (
        _Option(("--family",), "family", str, required=True,
                choices=("GL", "Sp", "SO")),
        _Option(("--n",), "n", int, required=True, help="rank parameter"),
        _Option(("--r",), "r", int,
                help="subgroup rank (GL default 0, Sp/SO default n-1)"),
        _prime_option(),
        _Option(("--bound",), "bound", int, help="internal degree bound"),
        _JSON)),
    "obstruct": _Command("section obstruction verdicts", cmd_obstruct, (
        _Option((), "shape", str, required=True, choices=("gl", "sp", "so", "scan")),
        _Option(("--n",), "n", int, help="rank parameter"),
        _Option(("--a",), "a", int, help="gl: source subgroup rank"),
        _Option(("--b",), "b", int, help="gl: target subgroup rank"),
        _prime_option(),
        _Option(("--oracle",), "oracle", bool, default=False,
                help="cross-check with the cohomological engine"),
        _Option(("--q",), "q", int, help="scan: corank of the source"),
        _Option(("--n-max",), "n_max", int, default=50, help="scan: largest n"),
        _JSON)),
    "verify": _Command("check the defining operation axioms", cmd_verify, (
        _Option(("--axiom",), "axiom", str, required=True,
                help="one of: " + ", ".join(AXIOMS)),
        _prime_option(),
        _Option(("--bound",), "bound", int, required=True, help="weight bound"),
        _Option(("--gens",), "gens", int, default=5,
                help="number of Chern generators in the test pool"),
        _JSON)),
}


def build_parser() -> argparse.ArgumentParser:
    """A new argparse parser for every subcommand, built from _COMMANDS.
    main builds it only for argv that _parse leaves to it: help, usage
    errors and the spellings that only argparse reads."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="stablyfree",
        description="Exact mod-p computations: reduced power operations on "
                    "characteristic classes, Tor tables of homogeneous spaces, "
                    "and section obstructions for quotient maps.  Class names: "
                    "aJ is the odd degree-(2J-1, J) generator, cJ the Chern "
                    "class of bidegree (2J, J).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        s = sub.add_parser(name, help=command.help)
        for o in command.arguments:
            if not o.flags:
                s.add_argument(o.dest, choices=o.choices)
            elif o.kind is bool:
                s.add_argument(*o.flags, dest=o.dest, action="store_true", help=o.help)
            else:
                s.add_argument(*o.flags, dest=o.dest, type=o.kind, required=o.required,
                               default=o.default, choices=o.choices, help=o.help)
        s.set_defaults(func=command.func)
    return parser


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that build_parser().parse_args(argv) returns, read from
    _COMMANDS without argparse, or None.  It is read only when argv is a
    command name followed by that command's exact option strings, each
    option that stores a value followed by one value that does not start
    with '-', and obstruct's shape; every value must convert and be one of
    its choices, and every required argument must be there.  Any other argv
    (help, abbreviations, --opt=value, -p7, negative values, a usage error)
    gives None."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    flags = {flag: o for o in command.arguments for flag in o.flags}
    positional = next((o for o in command.arguments if not o.flags), None)
    values = {o.dest: o.default for o in command.arguments}
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        o = flags.get(token)
        if o is not None and o.kind is bool:
            value = True
        elif o is not None:
            value = next(tokens, "-")  # a missing value reads as an option
            if value.startswith("-"):
                return None
            try:
                value = o.kind(value)
            except ValueError:
                return None
        elif positional is not None and positional.dest not in seen:
            o, value = positional, token
        else:
            return None
        if o.choices is not None and value not in o.choices:
            return None
        values[o.dest] = value
        seen.add(o.dest)
    if any(o.required and o.dest not in seen for o in command.arguments):
        return None
    return SimpleNamespace(command=argv[0], func=command.func, **values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:  # argparse accepts it, prints help or exits 2
        args = build_parser().parse_args(argv)
    if getattr(args, "shape", None) in ("gl", "sp", "so") and args.n is None:
        build_parser().error("obstruct needs --n")
    try:
        return args.func(args)
    except (CliError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
