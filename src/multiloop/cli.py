"""Command line front end.

Exit codes: 0 success/pass, 1 usage error, 2 mathematical verdict "fail",
3 precision or budget exhaustion.  Reports are deterministic for a fixed
seed; timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from dataclasses import dataclass

from .chevalley import build_chevalley_by_type, ChevalleyError
from .rootsys import RootSystemError, split_dimension
from .grading import (parse_spec_file, graded_from_spec, relative_roots,
                      from_chevalley, no_root_system, GradingError,
                      SpecError)
from .lietorus import lie_torus_check
from .elemgroup import (factor_loop_series, residual_word, word_parse,
                        word_show, word_residual, depth_bound,
                        depth_conjugation_check, PrecisionExhausted,
                        ElementError, WordSyntaxError)
from .cocycle import (trivial_group, cyclic_group, symmetric_group_3,
                      direct_product, cover_group, trivial_action,
                      galois_action, h1_enumerate, DiagonalSetup,
                      inf_res_sequence, diagonal_argument, trivial_cocycle,
                      Cocycle, check_budget, BudgetExceeded, CocycleError,
                      DEFAULT_BUDGET_GAMMA, DEFAULT_BUDGET_COEFF)
from .scalars import QQ, DomainSeries, DomainLaurent


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# name -> (default, least value) of each global integer setting: the flag
# --<name> (underscores as dashes), else the variable MULTILOOP_<NAME>, else
# the default; every report prints one config line per setting
SETTINGS = {"precision": (8, 2), "seed": (0, None), "conductor": (2, 1),
            "budget_gamma": (DEFAULT_BUDGET_GAMMA, 1),
            "budget_coeff": (DEFAULT_BUDGET_COEFF, 1)}
FORMATS = ("text", "machine")
# name -> (order, constructor) of the groups `cocycle --gamma0` and
# `--coeff` accept; the order lets a budget be checked before any building
GALOIS_GROUPS = {"trivial": (1, trivial_group),
                 "Z2": (2, lambda: cyclic_group(2)),
                 "Z3": (3, lambda: cyclic_group(3)),
                 "S3": (6, symmetric_group_3)}
COEFF_GROUPS = {"Z2": (2, lambda: cyclic_group(2)),
                "Z3": (3, lambda: cyclic_group(3)),
                "Z4": (4, lambda: cyclic_group(4)),
                "Z2xZ2": (4, lambda: direct_product(cyclic_group(2),
                                                    cyclic_group(2))),
                "S3": (6, symmetric_group_3)}
# the largest algebra a word file may name, checked before it is built.
# Measured in one process on a 2-core Xeon VM: the Chevalley build takes
# 0.02 s on E6 (78) and 0.24 s on E8 (248), growing about as dim^2; a
# one-letter word on E6 is factored, build included, in 0.05 s, and
# `depth E 8` takes 0.3-0.4 s
WORD_DIM_BUDGET = 78


def resolve_settings(args):
    """Each setting of SETTINGS, and the format, that ``args`` leaves None
    is read from its variable, else set to its default; then the lower
    bounds are checked.  Every variable is read, the format last, before
    any bound is checked, so one error wins whatever else is wrong."""
    for name, (default, _) in SETTINGS.items():
        var = "MULTILOOP_" + name.upper()
        if getattr(args, name) is None:
            try:
                setattr(args, name, int(os.environ.get(var, default)))
            except ValueError:
                raise UsageError("%s=%r is not an integer"
                                 % (var, os.environ[var])) from None
    if args.fmt is None:
        args.fmt = os.environ.get("MULTILOOP_FORMAT", "text")
        if args.fmt not in FORMATS:
            raise UsageError("MULTILOOP_FORMAT=%r is not one of %s"
                             % (args.fmt, ", ".join(FORMATS)))
    _check_least(args, {name: least for name, (_, least) in SETTINGS.items()})


def _check_least(args, bounds, dashes=""):
    """A usage error for the first option of ``bounds``, name -> least
    value (None for no bound), that ``args`` holds below its bound."""
    for name, least in bounds.items():
        if least is not None and getattr(args, name) < least:
            raise UsageError("%s%s must be at least %d"
                             % (dashes, name.replace("_", "-"), least))


@dataclass
class ReportBundle:
    command: str
    config: dict
    results: dict

    def render(self, fmt: str) -> str:
        if fmt == "machine":
            return json.dumps({"command": self.command, "config": self.config,
                               "results": self.results},
                              sort_keys=True, default=str)
        lines = ["command: %s" % self.command]
        for k in sorted(self.config):
            lines.append("config %s=%s" % (k, self.config[k]))
        for k in sorted(self.results):
            v = self.results[k]
            if isinstance(v, str) and "\n" in v:
                lines.append("%s:" % k)
                lines.extend("  " + ln for ln in v.splitlines())
            else:
                lines.append("%s: %s" % (k, v))
        return "\n".join(lines)


@functools.cache
def build_parser():
    """The one parser of every request, built on first use."""
    p = _Parser(prog="multiloop", description=__doc__)
    # global flags default to None: resolve_settings fills them per call
    for name in SETTINGS:
        p.add_argument("--" + name.replace("_", "-"), type=int)
    p.add_argument("--format", dest="fmt", choices=FORMATS)
    sub = p.add_subparsers(dest="cmd", required=True)

    pa = sub.add_parser("algebra")
    pa.add_argument("action", choices=["build"])
    pa.add_argument("type")
    pa.add_argument("rank", type=int)

    pm = sub.add_parser("grading")
    pm.add_argument("specfile")

    pl = sub.add_parser("lietorus")
    pl.add_argument("specfile")

    pf = sub.add_parser("factor")
    pf.add_argument("wordfile")
    pf.add_argument("--verify", metavar="REPORT", default=None)

    pd = sub.add_parser("depth")
    pd.add_argument("type")
    pd.add_argument("rank", type=int)
    pd.add_argument("--target-precision", type=int, default=1)
    pd.add_argument("--loop-degree", type=int, default=1)
    pd.add_argument("--samples", type=int, default=10)

    pc = sub.add_parser("cocycle")
    pc.add_argument("action", choices=["enumerate", "infres", "diagonal"])
    pc.add_argument("--n", type=int, default=1)
    pc.add_argument("--gamma0", choices=GALOIS_GROUPS, default="trivial")
    pc.add_argument("--coeff", choices=COEFF_GROUPS, default="Z2")
    pc.add_argument("--galois-inverts", action="store_true",
                    help="the Galois part acts on the coefficients and "
                         "translations by inversion")
    pc.add_argument("--discrepancy", type=int, default=0,
                    help="order of the constructed M-discrepancy between "
                         "eta1 and eta2 (diagonal only)")
    return p


# ---------------------------------------------------------------------------
# word files

def parse_word_file(text: str):
    """Header lines "algebra <T> <r>" and "ground Q|laurent<k>", then a word
    block; malformed input is a usage error naming its line."""
    heads, body = {}, []
    for no, ln in enumerate(text.splitlines(), 1):
        s = ln.split("#", 1)[0].strip()
        key = s.split(" ", 1)[0]
        if key in ("algebra", "ground"):
            if key in heads:
                raise UsageError("word file line %d: repeated %r header"
                                 % (no, key))
            heads[key], s = (no, s.split()[1:]), ""
        body.append(s)
    if len(heads) != 2:
        raise UsageError("word file needs 'algebra' and 'ground' headers")
    (ano, alg), (gno, ground) = heads["algebra"], heads["ground"]
    if len(alg) != 2 or not alg[1].isdecimal():
        raise UsageError("word file line %d: expected 'algebra <type> "
                         "<rank>'" % ano)
    ground = " ".join(ground)
    if ground != "Q" and not (ground.startswith("laurent")
                              and ground[7:].isdecimal()):
        raise UsageError("word file line %d: unknown ground ring %r"
                         % (gno, ground))
    dim = split_dimension(alg[0], int(alg[1]))
    if dim is not None and dim > WORD_DIM_BUDGET:
        raise UsageError("word file line %d: algebra %s%s has dimension %d, "
                         "over the bound %d" % (ano, alg[0], alg[1], dim,
                                                WORD_DIM_BUDGET))
    rg = relative_roots(from_chevalley(build_chevalley_by_type(
        alg[0], int(alg[1]))))
    R = DomainSeries(QQ if ground == "Q" else
                     DomainLaurent(int(ground[7:]), QQ))
    try:
        word = word_parse(rg, R, "\n".join(body))
    except WordSyntaxError as e:
        raise UsageError("word file %s" % e) from None
    return rg, R, word, (alg[0], int(alg[1]), ground)


def cmd_factor(args):
    text = _read(args.wordfile)
    rg, R, word, meta = parse_word_file(text)
    if args.verify:
        return _factor_verify(args, rg, R, word, meta)
    g1, g2, cert = factor_loop_series(rg, R, word, args.precision)
    results = {
        "algebra": "%s%d over %s" % meta,
        "input": word_show(rg, R, word),
        "g1": word_show(rg, R, g1),
        "g2": word_show(rg, R, g2),
        "certificate": cert.serialize(),
        "verdict": "pass",
    }
    return results, EXIT_OK


def _factor_verify(args, rg, R, word, meta):
    """Recompute the residual from a serialized factorization report."""
    report = _read(args.verify).splitlines()
    # each block is blank off its own lines, so that a parse error names
    # the line of the report
    blocks = {"g1": [""] * len(report), "g2": [""] * len(report)}
    current = None
    for no, ln in enumerate(report):
        s = ln.strip()
        if s.startswith(("g1:", "g2:")):
            current = s[:2]
            blocks[current][no] = s[3:]
        elif current and (s.startswith("word") or s.startswith("X ")):
            blocks[current][no] = s
        elif s and not s.startswith(("word", "X ")):
            current = None
    try:
        g1, g2 = (word_parse(rg, R, "\n".join(blocks[k]))
                  for k in ("g1", "g2"))
    except WordSyntaxError as e:
        raise UsageError("report %s" % e) from None
    # certified on the generating columns, where a coefficient below
    # --precision already disproves the report; a bound below --precision
    # with no such coefficient is replayed on every column, where a horizon
    # below it only leaves the replay short of precision
    letters = residual_word(word, g1, g2)
    achieved, where = word_residual(rg, R, letters, args.precision,
                                    rg.algebra.generating_columns)
    if where is None and achieved is not None and achieved < args.precision:
        achieved, where = word_residual(rg, R, letters, args.precision)
    ok = where is None
    if ok and achieved is not None and achieved < args.precision:
        raise PrecisionExhausted(
            "replay certified only modulo t^%d < t^%d"
            % (achieved, args.precision), achieved)
    results = {"replay": "residual congruent to identity mod t^%d: %s"
               % (args.precision, ok), "verdict": "pass" if ok else "fail"}
    return results, EXIT_OK if ok else EXIT_MATH


# ---------------------------------------------------------------------------
# subcommand drivers

def cmd_algebra(args):
    alg = build_chevalley_by_type(args.type, args.rank)
    return {"algebra": alg.serialize(), "dimension": alg.dim}, EXIT_OK


def cmd_grading(args):
    g = graded_from_spec(*parse_spec_file(_read(args.specfile),
                                          args.conductor))
    dims = g.dims_by_lam()
    table = "\n".join("(%s): %d" % (",".join(map(str, k)), v)
                      for k, v in sorted(dims.items()))
    return {"dimension-table": table, "graded": g.serialize()}, EXIT_OK


def cmd_lietorus(args):
    spec, cartan_rows = parse_spec_file(_read(args.specfile), args.conductor)
    g = graded_from_spec(spec, cartan_rows)
    try:
        rep = lie_torus_check(g)
    except RootSystemError as e:
        raise no_root_system(spec, e) from None
    return ({"report": rep.serialize(),
             "verdict": "pass" if rep.overall else "fail"},
            EXIT_OK if rep.overall else EXIT_MATH)


def cmd_depth(args):
    _check_least(args, {"target_precision": 1, "samples": 1}, "--")
    alg = build_chevalley_by_type(args.type, args.rank)
    rg = relative_roots(from_chevalley(alg))
    R = DomainSeries(QQ)
    M = args.target_precision
    n_exp = args.loop_degree
    N = depth_bound(rg, M, n_exp)
    rng = random.Random(args.seed)
    g = rg.algebra
    roots = rg.roots
    alpha = rg.data.simple[0]
    u = [R.zero()] * g.dim
    u[g.piece(qdeg=alpha)[0]] = R.from_int(rng.randint(1, 5))
    samples = []
    for _ in range(args.samples):
        beta = roots[rng.randrange(len(roots))]
        w = [R.zero()] * g.dim
        w[g.piece(qdeg=beta)[0]] = R.from_int(rng.randint(-5, 5) or 1)
        samples.append((beta, w))
    ok = depth_conjugation_check(rg, R, alpha, n_exp, u, N, M, samples)
    return ({"bound-N": N, "target-M": M, "samples": args.samples,
             "verdict": "pass" if ok else "fail"},
            EXIT_OK if ok else EXIT_MATH)


def _cocycle_setup(args):
    """Usage checks, then the budget of every cover the request needs, all
    before any group is built."""
    _check_least(args, {"n": 0, "discrepancy": 0}, "--")
    if args.discrepancy and args.action != "diagonal":
        raise UsageError("--discrepancy applies to 'cocycle diagonal' only")
    m = args.conductor
    units = {}
    if args.galois_inverts:
        if args.gamma0 != "Z2":
            raise UsageError("--galois-inverts needs --gamma0 Z2")
        units = {1: m - 1}
    (order0, make0), (order_a, make_a) = (GALOIS_GROUPS[args.gamma0],
                                          COEFF_GROUPS[args.coeff])
    # the covers (Z/m)^(n+k) : Gamma0 the action works on, in the order the
    # library checks them: infres enumerates the quotient first
    for k in {"enumerate": (0,), "infres": (0, 1)}.get(args.action, (1,)):
        check_budget(order0 * m ** (args.n + k), order_a, args.budget_gamma,
                     args.budget_coeff)
    return make0(), make_a(), m, units


def cmd_cocycle(args):
    gamma0, A, m, units = _cocycle_setup(args)
    if args.action == "enumerate":
        cov = cover_group(args.n, m, gamma0, units)
        coeff = _action_for(cov, A, gamma0, args)
        reps, all_c = h1_enumerate(coeff, args.budget_gamma, args.budget_coeff)
        return {"classes": len(reps), "cocycles": len(all_c),
                "verdict": "pass"}, EXIT_OK
    setup = DiagonalSetup(args.n, m, gamma0, units)
    coeff = _action_for(setup.cover, A, gamma0, args)
    if args.action == "infres":
        rep = inf_res_sequence(setup, coeff, args.budget_gamma,
                               args.budget_coeff)
        exact = rep.pop("exact")
        return (dict(rep, verdict="pass" if exact else "fail"),
                EXIT_OK if exact else EXIT_MATH)
    # diagonal
    eta1 = trivial_cocycle(coeff)
    if args.discrepancy:
        k = args.discrepancy
        if m % k != 0:
            raise UsageError("discrepancy order must divide m")
        powers = _powers_of_order(A, k)
        eta2 = Cocycle(coeff, {g: powers[g[0][-1] % k]
                               for g in setup.cover.elements})
    else:
        eta2 = eta1
    return ({"power": diagonal_argument(setup, coeff, eta1, eta2),
             "verdict": "pass"}, EXIT_OK)


def _action_for(cov, A, gamma0, args):
    if not args.galois_inverts:
        return trivial_action(cov, A)
    return galois_action(cov, A, {g: {a: a if g == gamma0.identity else
                                      A.inv(a) for a in A.elements}
                                  for g in gamma0.elements})


def _powers_of_order(A, k):
    """1, a, ..., a^(k-1) for the first a in A of order k."""
    for a in A.elements:
        powers = [A.identity, a]
        while powers[-1] != A.identity:
            powers.append(A.mul(powers[-1], a))
        if len(powers) == k + 1:
            return powers[:-1]
    raise UsageError("coefficient group has no element of order %d" % k)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(str(e))


DISPATCH = {
    "algebra": cmd_algebra,
    "grading": cmd_grading,
    "lietorus": cmd_lietorus,
    "factor": cmd_factor,
    "depth": cmd_depth,
    "cocycle": cmd_cocycle,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    t0 = time.monotonic()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        resolve_settings(args)
        results, code = DISPATCH[args.cmd](args)
    except (UsageError, SpecError, WordSyntaxError) as e:
        print("usage error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except (RootSystemError, ChevalleyError, GradingError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except (PrecisionExhausted, BudgetExceeded) as e:
        print("exhausted: %s" % e, file=sys.stderr)
        return EXIT_BUDGET
    except (ElementError, CocycleError) as e:
        print("failed: %s" % e, file=sys.stderr)
        return EXIT_MATH
    bundle = ReportBundle(
        command=" ".join(argv),
        config={name: getattr(args, name) for name in SETTINGS},
        results=results)
    print(bundle.render(args.fmt))
    print("elapsed %.3fs" % (time.monotonic() - t0), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
