"""Command-line front end.

Subcommands:

  chromatic  chromatic polynomial of a graph file
  orbital    orbital chromatic polynomial of an n-cycle (closed form,
             definition pipeline, or brute-force orbit count)
  table      tabulate the closed forms for n = 1..max_n
  verify     run the cross-checking suites and report pass/fail
  fermat     the little-theorem congruence check for a prime

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 graph
parse error, 4 oracle capacity exceeded, 141 the reader closed standard
output early (a broken pipe, as in ``orbichrom table 1 | head -1``; the
code is the one a shell reports for a process killed by SIGPIPE, and
nothing is written to stderr).

Exact integers are printed in full, however many digits they have:
Python's limit on int-to-str conversion is lifted while a command
formats its output, and only then.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from io import StringIO
from math import gcd
from typing import Callable, Iterator

from .chroma import (
    chromatic_polynomial,
    cycle_index_rotation_at,
    fermat_check,
    orbital_by_definition,
    orbital_full_closed,
    orbital_rotation_closed,
    quotient_graph,
)
from .multigraph import (
    GraphParseError,
    ShapeDescriptor,
    classify_shape,
    cycle_graph,
    parse_graph_text,
)
from .numtheory import (
    alternating_totient_sum,
    divisors,
    is_prime,
    smallest_prime_factor,
    totient,
)
from .oracle import CapacityError, count_coloring_orbits
from .permgroup import (
    PermGroup,
    automorphism_group,
    reflection_s,
    reflection_s_prime,
    rotation,
    rotation_group,
)
from .rationalpoly import X, RationalPoly, poly_to_json_dict, x_minus_one_pow

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CAPACITY = 4
EXIT_BROKEN_PIPE = 141

_ORACLE_N_CAP = 8  # verify keeps enumeration-backed checks desk-sized


def format_poly(p: RationalPoly, ascii_only: bool = False) -> str:
    """Human-readable polynomial, descending powers.

    Rational coefficients are pulled out as a single leading 1/D factor:
    (1/8)(x^4 - 2x^3 + 3x^2 - 2x).  Not meant to be parsed back; the
    JSON form is the machine encoding.
    """
    var = "x" if ascii_only else "λ"
    den, ints = p.to_den_coeffs()
    body = _int_poly_text(ints, var)
    if den == 1:
        return body
    return f"(1/{den})({body})"


def _int_poly_text(coeffs: list[int], var: str) -> str:
    if not any(coeffs):
        return "0"
    parts: list[str] = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            term = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            term = f"{head}{var}" if k == 1 else f"{head}{var}^{k}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f" {sign} {term}")
    return "".join(parts)


@contextmanager
def _exact_digits() -> Iterator[None]:
    """Lift the int-to-str digit limit while a command formats its output.

    The limit guards int() against huge untrusted text.  Output only
    formats integers this program computed, so it is safe to lift there;
    the previous limit is restored afterwards, also for callers that run
    main() in-process.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter without the limit
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_chromatic(args: argparse.Namespace) -> int:
    with open(args.graph_file, "r", encoding="utf-8") as fh:
        g = parse_graph_text(fh.read())
    p = chromatic_polynomial(g)
    with _exact_digits():
        if args.format == "json":
            print(json.dumps(poly_to_json_dict(p)))
        else:
            print(format_poly(p, ascii_only=args.ascii))
    return EXIT_OK


def _build_group(n: int, name: str) -> PermGroup:
    return rotation_group(n) if name == "rotation" else automorphism_group(n)


def _cmd_orbital(args: argparse.Namespace) -> int:
    n = args.n
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if args.method == "oracle":
        if args.lam is None:
            raise ValueError("method 'oracle' needs --lam")
        count = count_coloring_orbits(cycle_graph(n), _build_group(n, args.group), args.lam)
        with _exact_digits():
            if args.format == "json":
                print(json.dumps({"n": n, "group": args.group, "lambda": args.lam, "count": count}))
            else:
                print(count)
        return EXIT_OK

    if args.method == "closed":
        p = orbital_rotation_closed(n) if args.group == "rotation" else orbital_full_closed(n)
    else:
        p = orbital_by_definition(cycle_graph(n), _build_group(n, args.group))

    with _exact_digits():
        if args.format == "json":
            out = {"n": n, "group": args.group, **poly_to_json_dict(p)}
            if args.lam is not None:
                value = p(args.lam)
                out["lambda"] = args.lam
                out["value"] = {"num": value.numerator, "den": value.denominator}
            print(json.dumps(out))
        else:
            print(format_poly(p, ascii_only=args.ascii))
            if args.lam is not None:
                print(f"value at {args.lam}: {p(args.lam)}")
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        raise ValueError(f"--max-n must be >= 1, got {args.max_n}")
    closed = orbital_rotation_closed if args.which == 1 else orbital_full_closed
    rows = [(n, closed(n)) for n in range(1, args.max_n + 1)]
    with _exact_digits():
        if args.format == "json":
            body = [{"n": n, **poly_to_json_dict(p)} for n, p in rows]
            print(json.dumps({"table": args.which, "rows": body}))
        elif args.format == "csv":
            width = max(1, max(p.degree() for _, p in rows) + 1)
            buf = StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["n", "den"] + [f"c{i}" for i in range(width)])
            for n, p in rows:
                den, ints = p.to_den_coeffs()
                writer.writerow([n, den] + ints + [0] * (width - len(ints)))
            sys.stdout.write(buf.getvalue())
        else:
            for n, p in rows:
                print(f"{n:>3}  {format_poly(p, ascii_only=args.ascii)}")
    return EXIT_OK


def _cmd_fermat(args: argparse.Namespace) -> int:
    p = args.p
    if p < 2 or not is_prime(p):
        f = smallest_prime_factor(p) if p >= 2 else p
        detail = f"{p} = {f} * {p // f}" if p >= 2 else str(p)
        print(f"error: {p} is not prime: {detail}", file=sys.stderr)
        return EXIT_USAGE
    if args.verbose:
        op = orbital_rotation_closed(p)
        with _exact_digits():
            for k in range(args.max_lambda + 1):
                residue = ((k - 1) ** p - (k - 1)) % p
                print(f"lambda={k}: residue {residue} (mod {p}), orbit value {op(k)}")
    ok = fermat_check(p, args.max_lambda)
    print(f"fermat p={p} lambda<= {args.max_lambda}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# verify suites


def expected_quotient_shape(n: int, kind: str, m: int) -> ShapeDescriptor:
    """Shape the n-cycle's quotient must have under each symmetry type."""
    if kind == "rotation":
        k = gcd(n, m)
        if k == 2:
            return ShapeDescriptor.path(1, (False, False))
        return ShapeDescriptor.cycle(k)
    if kind == "s":
        return ShapeDescriptor.path(n // 2, (False, bool(n % 2)))
    if kind == "s_prime":
        return ShapeDescriptor.path(n // 2 - 1, (True, True))
    raise ValueError(f"unknown symmetry kind {kind!r}")


def _symmetry_inventory(n: int) -> dict:
    """Map each automorphism-group element to its (kind, m) construction."""
    inventory = {rotation(n, m): ("rotation", m) for m in range(n)}
    if n >= 3:
        if n % 2:
            for m in range(n):
                inventory[reflection_s(n, m)] = ("s", m)
        else:
            for m in range(n // 2):
                inventory[reflection_s(n, m)] = ("s", m)
            for m in range(n // 2):
                inventory[reflection_s_prime(n, m)] = ("s_prime", m)
    return inventory


def _suite_closed_vs_definition(max_n: int, max_lambda: int) -> tuple[bool, str]:
    checked = 0
    for n in range(1, max_n + 1):
        g = cycle_graph(n)
        if orbital_by_definition(g, rotation_group(n)) != orbital_rotation_closed(n):
            return False, f"rotation mismatch at n={n}"
        if orbital_by_definition(g, automorphism_group(n)) != orbital_full_closed(n):
            return False, f"full-group mismatch at n={n}"
        checked += 1
    return True, f"coefficientwise equal for n=1..{max_n} ({2 * checked} polynomials)"


def _suite_cycle_index(max_n: int, max_lambda: int) -> tuple[bool, str]:
    half = Fraction(1, 2)
    for n in range(1, max_n + 1):
        z = cycle_index_rotation_at(n, x_minus_one_pow(1))
        rot = z - x_minus_one_pow(1) if n % 2 else z
        if rot != orbital_rotation_closed(n):
            return False, f"rotation restatement fails at n={n}"
        if n % 2:
            full = half * z - half * x_minus_one_pow(1)
        else:
            full = half * z + Fraction(1, 4) * X * x_minus_one_pow(n // 2)
        if full != orbital_full_closed(n):
            return False, f"full-group restatement fails at n={n}"
    return True, f"all four restatements hold for n=1..{max_n}"


def _suite_oracle(max_n: int, max_lambda: int) -> tuple[bool, str]:
    if max_lambda < 1:
        return True, "vacuous pass (lambda=0 admits no colorings)"
    skipped = 0
    checked = 0
    top = min(max_n, _ORACLE_N_CAP)
    for n in range(1, top + 1):
        g = cycle_graph(n)
        for group_name, group, closed in (
            ("rotation", rotation_group(n), orbital_rotation_closed(n)),
            ("full", automorphism_group(n), orbital_full_closed(n)),
        ):
            defn = orbital_by_definition(g, group)
            for lam in range(max_lambda + 1):
                try:
                    counted = count_coloring_orbits(g, group, lam)
                except CapacityError:
                    skipped += 1
                    continue
                if not (counted == closed(lam) == defn(lam)):
                    return False, f"disagreement at n={n}, group={group_name}, lambda={lam}"
                checked += 1
    note = f", {skipped} skipped (capacity)" if skipped else ""
    return True, f"{checked} three-way evaluations agree (n<={top}, lambda<={max_lambda}){note}"


def _suite_shapes(max_n: int, max_lambda: int) -> tuple[bool, str]:
    checked = 0
    for n in range(1, max_n + 1):
        g = cycle_graph(n)
        inventory = _symmetry_inventory(n)
        group = automorphism_group(n)
        if set(group.elements) != set(inventory):
            return False, f"group inventory mismatch at n={n}"
        for perm, (kind, m) in inventory.items():
            got = classify_shape(quotient_graph(g, perm))
            if got != expected_quotient_shape(n, kind, m):
                return False, f"shape mismatch at n={n}, {kind} m={m}: {got}"
            checked += 1
    return True, f"{checked} quotient shapes match for n=1..{max_n}"


def _suite_totient(max_n: int, max_lambda: int) -> tuple[bool, str]:
    for n in range(1, 501):
        expected = -n if n % 2 else 0
        if alternating_totient_sum(n) != expected:
            return False, f"alternating sum fails at n={n}"
    for n in range(1, 201):
        if sum(totient(n // d) for d in divisors(n)) != n:
            return False, f"divisor-sum identity fails at n={n}"
    for p in range(2, 100):
        if is_prime(p) and totient(p) != p - 1:
            return False, f"totient({p}) != {p - 1}"
    return True, "alternating sums (n<=500), divisor sums (n<=200), prime totients (p<100)"


_SUITES: dict[str, Callable[[int, int], tuple[bool, str]]] = {
    "closed-vs-definition": _suite_closed_vs_definition,
    "cycle-index-identities": _suite_cycle_index,
    "oracle-agreement": _suite_oracle,
    "quotient-shapes": _suite_shapes,
    "totient-identities": _suite_totient,
}


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        raise ValueError(f"--max-n must be >= 1, got {args.max_n}")
    if args.max_lambda < 0:
        raise ValueError(f"--max-lambda must be >= 0, got {args.max_lambda}")
    all_ok = True
    for name in sorted(_SUITES):
        ok, detail = _SUITES[name](args.max_n, args.max_lambda)
        all_ok = all_ok and ok
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbichrom",
        description="Exact chromatic and orbital chromatic polynomials of cycle graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chrom = sub.add_parser("chromatic", help="chromatic polynomial of a graph file")
    p_chrom.add_argument("graph_file", help="JSON graph file ({'vertices': n, 'edges': [[u,v],...]})")
    p_chrom.add_argument("--format", choices=["text", "json"], default="text")
    p_chrom.add_argument("--ascii", action="store_true", help="use 'x' instead of the unicode variable")
    p_chrom.set_defaults(func=_cmd_chromatic)

    p_orb = sub.add_parser("orbital", help="orbital chromatic polynomial of the n-cycle")
    p_orb.add_argument("n", type=int)
    p_orb.add_argument("--group", choices=["rotation", "full"], default="rotation")
    p_orb.add_argument("--method", choices=["closed", "definition", "oracle"], default="closed")
    p_orb.add_argument("--lam", type=int, default=None, metavar="LAMBDA",
                       help="number of colors (required for --method oracle)")
    p_orb.add_argument("--format", choices=["text", "json"], default="text")
    p_orb.add_argument("--ascii", action="store_true")
    p_orb.set_defaults(func=_cmd_orbital)

    p_table = sub.add_parser("table", help="tabulate the closed forms for n = 1..max_n")
    p_table.add_argument("which", type=int, choices=[1, 2],
                         help="1 = rotation group, 2 = full symmetry group")
    p_table.add_argument("--max-n", type=int, default=10)
    p_table.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p_table.add_argument("--ascii", action="store_true")
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser("verify", help="run the cross-checking suites")
    p_verify.add_argument("--max-n", type=int, default=10)
    p_verify.add_argument("--max-lambda", type=int, default=4)
    p_verify.set_defaults(func=_cmd_verify)

    p_fermat = sub.add_parser("fermat", help="little-theorem congruence check for a prime")
    p_fermat.add_argument("p", type=int)
    p_fermat.add_argument("--max-lambda", type=int, default=10)
    p_fermat.add_argument("--verbose", action="store_true", help="print per-lambda residues")
    p_fermat.set_defaults(func=_cmd_fermat)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left early shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader is gone.  Send what is left to the null device, so
        # that the flush at interpreter exit stays quiet too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except GraphParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
