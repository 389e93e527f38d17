"""Command-line entry points.

Subcommands: cone eval|dual|rho-star, solve, exp, suite.  Spectra are
comma-separated literals; configs are JSON files.  Exit code 0 on success
(and all verdicts passing for exp/suite), 1 on failing verdicts, 2 on
usage or configuration errors (a ValueError: a malformed spectrum, a
missing, unreadable or invalid config, a spacing whose lattice has more
than fd.NODE_BUDGET nodes or fewer than fd.MIN_INTERIOR_PER_AXIS interior
nodes per axis, checked for every rung before the first solve), 3 on a
numerical failure (NumericError: a linear solve, optimizer or quadrature
that did not converge, a norm out of float range, a max_principle bound
whose lhs, rhs, norm or margin is not finite, or a local_max, oscillation
or w22 term that is not finite) or on a resource failure (MemoryError:
an array too large to allocate).  The commands raise; main alone maps
each error to one "error:" line on stderr (its message, or its type's
name when it has none) and its code, and returns the code.  A suite runs
every job, lists the errors raised, and exits with the highest code.

CONELAB_LOG=<level> (debug, info, warning or error) sends the records of
the conelab loggers at that level and above to stderr for the duration of
the command; unset, logging is left as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import logging
import os
import sys

import numpy as np

from . import fd, lab, serialize, symcone


def parse_spectrum(text):
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise ValueError(f"malformed spectrum {text!r}; "
                         "expected comma-separated reals") from None


def _emit(obj):
    sys.stdout.write(serialize.json_text(obj))


def _print_error(exc):
    """The "error:" line of exc on stderr: its message, or the name of its
    type when it has none (a bare MemoryError)."""
    print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)


def cmd_cone(args):
    lam = parse_spectrum(args.spectrum)
    k = args.k
    if args.action == "eval":
        _emit(dataclasses.asdict(symcone.in_cone(lam, k)))
    elif args.action == "dual":
        _emit(dataclasses.asdict(symcone.in_dual_cone(lam, k)))
    else:
        out = {"k": k, "n": lam.size, "rho_star": symcone.rho_star(lam, k)}
        if args.oracle:
            out["oracle"] = symcone.rho_star_oracle(lam, k,
                                                    samples=args.oracle,
                                                    seed=args.seed)
        _emit(out)
    return 0


def cmd_solve(args):
    ecfg = lab.parse_for("solve", serialize.load_json(args.config),
                         lab.LATTICE)
    if ecfg.domain is None:
        raise ValueError("solve needs a 'domain' in the config")
    h = lab.one_spacing("solve", ecfg)
    lab.check_lattices(ecfg)
    grid, coeff, f, u = lab._solve(ecfg, h)
    sup, inf, osc = fd.sup_inf_osc(u)
    os.makedirs(args.out, exist_ok=True)
    serialize.field_to_csv(u, os.path.join(args.out, "u.csv"))
    serialize.field_to_binary(u, os.path.join(args.out, "u.bin"))
    _emit({"h": h, "unknowns":
           int(np.count_nonzero(grid.interior)),
           "sup": sup, "inf": inf, "osc": osc,
           "out": args.out})
    return 0


def cmd_exp(args):
    cfg = serialize.load_json(args.config)
    if isinstance(cfg, dict):     # parse_config rejects anything else
        cfg.setdefault("name", args.name)
    rep = lab.run_one(args.name, cfg)
    sys.stdout.write(lab.write_report(rep, args.out))
    return 0 if rep.passed else 1


def cmd_suite(args):
    reports, code = lab.run_suite(args.config, out_dir=args.out)
    for r in reports:
        if r.exc is not None:
            _print_error(r.exc)
    _emit({"reports": [{"name": r.name, "passed": r.passed,
                        "wall_time": r.wall_time, "error": r.error}
                       for r in reports],
           "exit_code": code})
    return code


@functools.cache
def build_parser():
    """The conelab argument parser, built once per process: parse_args
    leaves it unchanged, so every command reuses it."""
    p = argparse.ArgumentParser(
        prog="conelab",
        description="Cone-restricted elliptic estimates: membership tests, "
                    "lattice solves, and numerical experiments.")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("cone", help="cone membership and gauge values")
    pc.add_argument("action", choices=["eval", "dual", "rho-star"])
    pc.add_argument("--lambda", dest="spectrum", required=True,
                    help="comma-separated spectrum, e.g. 1,2,3")
    pc.add_argument("--k", type=int, required=True)
    pc.add_argument("--oracle", type=int, default=0, metavar="N",
                    help="also run the sampling oracle with N samples")
    pc.add_argument("--seed", type=int, default=0)
    pc.set_defaults(fn=cmd_cone)

    ps = sub.add_parser("solve", help="one Dirichlet solve from a config")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", default=".")
    ps.set_defaults(fn=cmd_solve)

    pe = sub.add_parser("exp", help="run one named experiment")
    pe.add_argument("name", choices=sorted(lab.EXPERIMENTS))
    pe.add_argument("--config", required=True)
    pe.add_argument("--out", default=".")
    pe.set_defaults(fn=cmd_exp)

    pu = sub.add_parser("suite", help="run an experiment battery")
    pu.add_argument("--config", required=True)
    pu.add_argument("--out", default=".")
    pu.set_defaults(fn=cmd_suite)
    return p


@contextlib.contextmanager
def _stderr_logging():
    """A stderr handler on the conelab loggers at the level CONELAB_LOG
    names, removed again on exit; nothing when CONELAB_LOG is unset."""
    name = os.environ.get("CONELAB_LOG")
    if not name:
        yield
        return
    level = logging.getLevelName(name.upper())    # an int for a level name
    if not isinstance(level, int):
        raise ValueError(f"CONELAB_LOG: unknown level {name!r}; "
                         "choose debug, info, warning or error")
    logger = logging.getLogger("conelab")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    saved = logger.level
    logger.addHandler(handler)
    logger.setLevel(level)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(saved)


def main(argv=None):
    """Run one command; returns its exit code.  Argparse's own usage
    errors raise SystemExit(2)."""
    args = build_parser().parse_args(argv)
    try:
        with _stderr_logging():
            return args.fn(args)
    except tuple(lab.ERROR_EXIT_CODES) as exc:
        _print_error(exc)
        return lab.error_exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
