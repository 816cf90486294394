"""Deterministic command-line front end.

Subcommands: steenrod (apply P^i), tor (Tor tables of homogeneous
spaces), obstruct (section obstructions and divisibility scans), verify
(axiom harness).  Identical invocations produce byte-identical output;
obstruct exits 0 when obstructed, 1 when no obstruction was found, and 2
on invalid input, so pipelines can branch on the verdict.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .algebra import Element, Exps, polynomial_algebra
from .koszul import homogeneous_space_odd_basis, homogeneous_space_tor
from .modp import Prime, is_prime
from .models import GroupModel, TorsionPrimeError, model_from_matrix_size
from .obstruction import (check_cohomological, check_gl_quotient,
                          check_orthogonal, check_symplectic, divisibility_scan)
from .steenrod import AXIOMS, apply_P_polynomial, apply_P_primitive, verify_axiom


class CliError(Exception):
    pass


def _prime(value: int) -> Prime:
    if not is_prime(value):
        raise CliError(f"{value} is not prime")
    return Prime(value)


# a token is a number, a generator (its letters and index captured, so that
# no other pattern is compiled), or an operator
_TOKEN = re.compile(r"\s*(\d+|([a-zA-Z]+)(\d+)|[+\-*^])")
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
    i = 0
    sign = 1

    def parse_term(i: int):
        coeff = 1
        exps: dict[str, int] = {}
        expect_factor = True
        while i < len(tokens):
            t = tokens[i]
            if t in "+-":
                break
            if t == "*":
                if expect_factor:
                    raise CliError("misplaced '*' in polynomial")
                i += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise CliError(f"unexpected token {t!r} (missing '*'?)")
            if t.isdigit():
                coeff *= int(t)
                i += 1
            elif t[0].isalpha():  # a generator token
                name = t
                i += 1
                exp = 1
                if i < len(tokens) and tokens[i] == "^":
                    if i + 1 >= len(tokens) or not tokens[i + 1].isdigit():
                        raise CliError("'^' must be followed by an integer")
                    exp = int(tokens[i + 1])
                    i += 2
                exps[name] = exps.get(name, 0) + exp
            else:
                raise CliError(f"unexpected token {t!r} in polynomial")
            expect_factor = False
        if expect_factor:
            raise CliError("dangling operator in polynomial")
        return i, coeff, exps

    while i < len(tokens):
        if tokens[i] == "+":
            sign = 1
            i += 1
        elif tokens[i] == "-":
            sign = -1
            i += 1
        i, coeff, exps = parse_term(i)
        mono = alg.make_monomial(exps)  # never None: nothing is killed
        terms[mono] = terms.get(mono, 0) + sign * coeff
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
    if args.class_name is not None:
        if args.group is None:
            raise CliError("--class needs --group FAMILY:SIZE")
        model = _parse_group(args.group)
        model.check_prime(p)
        m = re.fullmatch(r"a(\d+)", args.class_name)
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
    m = re.fullmatch(r"(GL|Sp|SO):(\d+)", text)
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
    if args.axiom not in AXIOMS:
        raise CliError(f"unknown axiom {args.axiom!r}; choose from {', '.join(AXIOMS)}")
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

def _add_steenrod(sub):
    s = sub.add_parser("steenrod", help="apply a reduced power operation P^i")
    s.add_argument("-p", "--p", dest="p", type=int, required=True,
                   help="coefficient prime")
    s.add_argument("--group", help="group model FAMILY:SIZE, e.g. Sp:4 or GL:6")
    s.add_argument("--class", dest="class_name",
                   help="odd generator aJ of the group model")
    s.add_argument("--poly", help="polynomial in Chern classes, e.g. 'c1^2*c2 + c3'")
    s.add_argument("--op", type=int, required=True, help="operation index i")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_steenrod)


def _add_tor(sub):
    t = sub.add_parser("tor", help="Tor table of a homogeneous space")
    t.add_argument("--family", choices=("GL", "Sp", "SO"), required=True)
    t.add_argument("--n", type=int, required=True, help="rank parameter")
    t.add_argument("--r", type=int, help="subgroup rank (GL default 0, "
                                         "Sp/SO default n-1)")
    t.add_argument("-p", "--p", dest="p", type=int, required=True)
    t.add_argument("--bound", type=int, help="internal degree bound")
    t.add_argument("--json", action="store_true")
    t.set_defaults(func=cmd_tor)


def _add_obstruct(sub):
    o = sub.add_parser("obstruct", help="section obstruction verdicts")
    o.add_argument("shape", choices=("gl", "sp", "so", "scan"))
    o.add_argument("--n", type=int, help="rank parameter")
    o.add_argument("--a", type=int, help="gl: source subgroup rank")
    o.add_argument("--b", type=int, help="gl: target subgroup rank")
    o.add_argument("-p", "--p", dest="p", type=int, required=True)
    o.add_argument("--oracle", action="store_true",
                   help="cross-check with the cohomological engine")
    o.add_argument("--q", type=int, help="scan: corank of the source")
    o.add_argument("--n-max", type=int, default=50, help="scan: largest n")
    o.add_argument("--json", action="store_true")
    o.set_defaults(func=cmd_obstruct)


def _add_verify(sub):
    v = sub.add_parser("verify", help="check the defining operation axioms")
    v.add_argument("--axiom", required=True,
                   help="one of: " + ", ".join(AXIOMS))
    v.add_argument("-p", "--p", dest="p", type=int, required=True)
    v.add_argument("--bound", type=int, required=True, help="weight bound")
    v.add_argument("--gens", type=int, default=5,
                   help="number of Chern generators in the test pool")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)


_COMMANDS = {"steenrod": _add_steenrod, "tor": _add_tor, "obstruct": _add_obstruct,
             "verify": _add_verify}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """A new argument parser for every subcommand, or with `command` for
    that one alone.  The one-command parser parses that command's arguments
    as the full one does, but its own usage line names no other command."""
    parser = argparse.ArgumentParser(
        prog="stablyfree",
        description="Exact mod-p computations: reduced power operations on "
                    "characteristic classes, Tor tables of homogeneous spaces, "
                    "and section obstructions for quotient maps.  Class names: "
                    "aJ is the odd degree-(2J-1, J) generator, cJ the Chern "
                    "class of bidegree (2J, J).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, add in _COMMANDS.items():
        if command in (None, name):
            add(sub)
    return parser


# built on first use, so that importing the module stays cheap: a parser for
# each command named first, which builds in about 60% of the time of the
# full one, and the full parser, under None
_PARSERS: dict[str | None, argparse.ArgumentParser] = {}


def _parser(command: str | None) -> argparse.ArgumentParser:
    if command not in _PARSERS:
        _PARSERS[command] = build_parser(command)
    return _PARSERS[command]


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # -h, an unknown command and every top-level error go to the full
    # parser, whose usage line lists all the commands
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args, extra = _parser(command).parse_known_args(argv)
    if extra:  # unrecognized arguments, reported by the full parser
        args = _parser(None).parse_args(argv)
    if getattr(args, "shape", None) in ("gl", "sp", "so") and args.n is None:
        _parser(None).error("obstruct needs --n")
    try:
        return args.func(args)
    except (CliError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
