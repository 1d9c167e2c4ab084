"""Command-line surface: algebra ops on M-map files, weak-value queries,
theorem-verification batches, and report projection.

Exit codes: 0 success, 1 verification failure, 2 malformed input (naming
the field), 3 domain error (naming the violated precondition).  `verify`
takes its scenarios, their aliases, default tolerances (MOMALG_TOL in the
environment overrides them) and sweep axes (--tau, --beta) from the
scenario table of `momalg.experiments`.  Batch runs are reproducible:
every random object derives from the per-run seed through fixed
substreams, and the manifest records the full command, the argv `main`
parsed.  An output path that cannot be written is malformed input.

`main` may be called many times in one process (a seed sweep, a test
suite): the parser is built once per process, and numpy's floating-point
error state (raise on everything but underflow) holds only for the
duration of a call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__
from .algebra import (
    convolve,
    exp_star,
    inverse_star,
    is_factorizing,
    log1p_series,
    log_star,
    raise_label,
)
from .errors import DomainError, InputFormatError, MomalgError
from .experiments import SCENARIOS, random_config, run_verification
from .serialization import (
    SCHEMA,
    _finite,
    _finite_tolerance,
    _integer,
    _labels,
    _parse,
    _require,
    config_from_dict,
    context_from_dict,
    json_text,
    load_json,
    make_directory,
    mmap_from_dict,
    mmap_to_dict,
    report_csv,
    report_from_dict,
    reports_to_csv,
    save_json,
)
from .weakvalues import (
    script_D,
    script_D_monte_carlo,
    sequential_weak_value,
    simultaneous_weak_value,
    thermal_E,
)

SCENARIO_ALIASES = {alias: name for name, row in SCENARIOS.items()
                    for alias in row.aliases}
# The weak-value modes that read only fields a context kind has, "auto"'s
# first.
KIND_MODES = {"sequential": ("sequential", "simultaneous"),
              "evolution": ("jet", "simultaneous", "mc"),
              "thermal": ("thermal",)}


def _parse_seeds(text: str) -> list[int]:
    """A seed list A,B,... or a range A..B; a seed is an integer >= 0, the
    range that the instance generator takes."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        seeds = list(range(int(lo), int(hi) + 1))
        if not seeds:
            raise ValueError(f"empty seed range {text!r}")
    else:
        seeds = [int(t) for t in text.split(",")]
    if min(seeds) < 0:
        raise ValueError(f"seed {min(seeds)} is negative")
    return seeds


def _at_least(low: int):
    """The argparse type of an integer flag that must be >= low."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not an integer >= {low}")
        return int(text)
    return integer


def _flag(convert):
    """The argparse type of a flag read by `convert`, a reader of config
    fields: the message of the ValueError it raises is the error line,
    where argparse would name the function instead."""
    def read(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return read


def _tolerance(args, default: float) -> float:
    """--tol (already checked by `_finite_tolerance`), else MOMALG_TOL from
    the environment, else `default`; a NaN, infinite or negative MOMALG_TOL
    is malformed input."""
    if args.tol is not None:
        return args.tol
    env = os.environ.get("MOMALG_TOL")
    return _parse(_finite_tolerance, env, "MOMALG_TOL") if env else default


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="momalg",
        description="moment-algebra operations and weak-measurement "
                    "cumulant verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    alg = sub.add_parser("algebra", help="star operations on M-map files")
    alg.add_argument("op", choices=["convolve", "log", "exp", "inverse",
                                    "series", "raise", "factorizing-check"])
    alg.add_argument("inputs", nargs="+", help="input M-map JSON file(s)")
    alg.add_argument("-o", "--output", help="output file (default stdout)")
    alg.add_argument("--depth", type=_at_least(1), default=30,
                     help="series truncation depth")
    alg.add_argument("--label", type=int, default=1,
                     help="label for the raising operator")
    alg.add_argument("--cut", default="",
                     help="comma-separated labels of one side of the "
                          "bipartition for factorizing-check")
    alg.add_argument("--tol", type=_flag(_finite_tolerance), default=None)

    wv = sub.add_parser("weak-values", help="evaluate weak-value queries")
    wv.add_argument("query", help="query JSON file")
    wv.add_argument("-o", "--output", help="output file (default stdout)")

    ver = sub.add_parser("verify", help="run theorem verification batches")
    ver.add_argument("scenario", choices=sorted(SCENARIO_ALIASES))
    ver.add_argument("--seeds", default="1", help="N, N,M,... or A..B")
    ver.add_argument("--pointers", type=_at_least(1), default=3)
    ver.add_argument("--sysdim", type=_at_least(1), default=2)
    ver.add_argument("--pointer-dim", type=_at_least(1), default=2)
    ver.add_argument("--tau", type=_flag(_finite), nargs="+", default=[1.0])
    ver.add_argument("--beta", type=_flag(_finite), nargs="+", default=[1.0])
    ver.add_argument("--hs", choices=["random", "zero"], default="random")
    ver.add_argument("--copies", type=_at_least(1), default=2,
                     help="pointer copies per observable (multiset)")
    ver.add_argument("--vars", type=_at_least(1), default=3,
                     help="number of variables (genfun)")
    ver.add_argument("--samples", type=_at_least(0), default=0,
                     help="Monte-Carlo cross-check samples (thm4)")
    ver.add_argument("--tol", type=_flag(_finite_tolerance), default=None)
    ver.add_argument("--config", default=None,
                     help="explicit config JSON (matrices instead of "
                          "generator seeds); other instance flags ignored")
    ver.add_argument("--out", default="reports", help="output directory")

    rep = sub.add_parser("report", help="project a report JSON to CSV")
    rep.add_argument("report", help="report JSON file")
    rep.add_argument("--csv", help="CSV output path (default stdout)")

    return parser


# ---------------------------------------------------------------------------


def _load_mmap(path: str):
    return mmap_from_dict(load_json(path), where=path)


def _emit(payload: dict, output: str | None) -> None:
    if output:
        save_json(output, payload)
    else:
        sys.stdout.write(json_text(payload))


def cmd_algebra(args) -> int:
    """One op on M-map files.  A result outside the double range (an
    overflow, or a nan from inf - inf) is a domain error, not a file."""
    try:
        payload = _algebra_payload(args)
    except (OverflowError, FloatingPointError) as exc:
        raise DomainError(f"algebra {args.op}: the result leaves the double "
                          f"range, |x| <= {np.finfo(float).max:.3g} ({exc})")
    _emit(payload, args.output)
    return 0


def _algebra_payload(args) -> dict:
    op = args.op
    if op == "convolve" and len(args.inputs) != 2:
        raise InputFormatError("convolve needs exactly two inputs")
    if op != "convolve" and len(args.inputs) != 1:
        raise InputFormatError(f"{op} takes exactly one input")
    f = _load_mmap(args.inputs[0])
    maps = {"log": log_star, "exp": exp_star, "inverse": inverse_star,
            "raise": lambda g: raise_label(g, args.label),
            "convolve": lambda g: convolve(g, _load_mmap(args.inputs[1]))}
    if op in maps:
        return mmap_to_dict(maps[op](f))
    if op == "series":
        result, deltas = log1p_series(f, args.depth, with_deltas=True)
        payload = mmap_to_dict(result)
        payload["truncation_delta"] = [
            {"m": list(a.elements()), "abs": d} for a, d in deltas.items()]
        return payload
    # factorizing-check
    if not args.cut:
        raise InputFormatError("factorizing-check needs --cut LABELS")
    side = _parse(lambda t: {int(v) for v in t.split(",")}, args.cut, "--cut")
    other = set(range(1, f.n + 1)) - side
    tol = _tolerance(args, 1e-10)
    verdict = is_factorizing(f, side, other, tol)
    return {"schema": SCHEMA, "factorizing": bool(verdict),
            "cut": sorted(side), "tol": tol}


def cmd_weak_values(args) -> int:
    where = args.query
    payload = load_json(where)
    subsets = _parse(list, _require(payload, "subsets", where),
                     f"{where}.subsets")
    kind, config = context_from_dict(payload.get("context", {}))
    samples = _parse(lambda v: _integer(v, 1), payload.get("samples", 100_000),
                     f"{where}.samples")
    seed = _parse(_integer, payload.get("seed", 0), f"{where}.seed")
    weak_value = {
        "sequential": sequential_weak_value,
        "simultaneous": simultaneous_weak_value,
        "jet": script_D,
        "thermal": thermal_E,
        "mc": lambda c, a: script_D_monte_carlo(c, a, samples, seed),
    }
    mode = payload.get("mode", "auto")
    if not isinstance(mode, str) or mode not in (*weak_value, "auto"):
        raise InputFormatError(f"{where}.mode: unknown mode {mode!r}")
    fits = KIND_MODES[kind]
    mode = fits[0] if mode == "auto" else mode
    if mode not in fits:
        raise InputFormatError(f"{where}.mode: {mode!r} reads fields that "
                               f"the {kind} context lacks; it takes "
                               f"{', '.join(fits)} or auto")
    n = len(config.observables)

    def subset(raw):
        a = _labels(raw)
        if a.support and a.support[-1] > n:
            raise ValueError(f"label {a.support[-1]} names no observable "
                             f"of the context, which has {n}")
        return a

    values = []
    for a in [_parse(subset, raw, f"{where}.subsets[{i}]")
              for i, raw in enumerate(subsets)]:
        entry = {"m": list(a.elements())}
        v = weak_value[mode](config, a)
        if mode == "mc":
            v, entry["se"] = v
        entry["re"], entry["im"] = v.real, v.imag
        values.append(entry)
    _emit({"schema": SCHEMA, "kind": kind, "values": values}, args.output)
    return 0


def _verify_configs(args):
    """(swept values, config) for each report: the --config file, or one
    generated instance per seed and value of the scenario's sweep axis.
    The flags and the config file are read and checked when it is called;
    the generated instances are made one at a time as they are read."""
    scenario = SCENARIO_ALIASES[args.scenario]
    if args.config:
        cfg = config_from_dict(load_json(args.config), where=args.config)
        if cfg.scenario != scenario:
            raise InputFormatError(
                f"{args.config}: scenario {cfg.scenario!r} does not match "
                f"requested {scenario!r}")
        if args.tol is not None:
            cfg.tolerance = args.tol
        _check_beta(scenario, [cfg.beta])
        return [({}, cfg)]
    tol = _tolerance(args, SCENARIOS[scenario].tolerance)
    zero_h = args.hs == "zero" or args.scenario == "thm2"
    axis = SCENARIOS[scenario].sweep
    seeds = _once(_parse(_parse_seeds, args.seeds, "--seeds"), "--seeds")
    values = _once(getattr(args, axis), f"--{axis}") if axis else [None]
    _check_beta(scenario, values if axis == "beta" else args.beta[:1])

    def generated():
        for seed in seeds:
            for value in values:
                swept = {axis: value} if axis else {}
                yield swept, random_config(
                    scenario, seed, n_pointers=args.pointers,
                    system_dim=args.sysdim, pointer_dim=args.pointer_dim,
                    **{"tau": args.tau[0], "beta": args.beta[0], **swept},
                    zero_hamiltonian=zero_h, copies=(args.copies,),
                    n_vars=args.vars, tolerance=tol, mc_samples=args.samples)
    return generated()


def _check_beta(scenario: str, betas: list) -> None:
    """Refuse, before --out is made, a beta that the thermal state would
    refuse: one that is not positive, in thermal, or in multiset, whose
    thermal copies run unless its beta is 0 or unset."""
    if scenario == "multiset":
        betas = [b for b in betas if b]
    elif scenario != "thermal":
        return
    if any(not b > 0 for b in betas):
        raise DomainError("beta must be positive")


def _once(values: list, flag: str) -> list:
    """`values`, each of which names its own report; one given twice is
    malformed input naming `flag`."""
    twice = [v for i, v in enumerate(values) if v in values[:i]]
    if twice:
        raise InputFormatError(f"{flag}: {twice[0]!r} is given twice")
    return values


def _tag(value: float) -> str:
    """A swept value in a report name: its :g form when that reads back as
    the same float, else its repr, so distinct values name distinct
    reports."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def cmd_verify(args, argv: list) -> int:
    configs = _verify_configs(args)    # refuses bad flags before --out exists
    make_directory(args.out)
    reports = []
    paths = []
    for extras, cfg in configs:
        reports.append(run_verification(cfg).to_json_dict())
        tag = "_".join([f"seed{cfg.seed}"] +
                       [f"{k}{_tag(v)}" for k, v in extras.items()])
        path = os.path.join(args.out, f"report_{args.scenario}_{tag}.json")
        save_json(path, reports[-1])
        paths.append(path)

    csv_path = os.path.join(args.out, f"report_{args.scenario}.csv")
    reports_to_csv(reports, csv_path)
    manifest = {
        "schema": SCHEMA,
        "command": ["verify", args.scenario, "--seeds", args.seeds],
        "argv": argv,
        "scenario": SCENARIO_ALIASES[args.scenario],
        "reports": [os.path.basename(p) for p in paths],
        "csv": os.path.basename(csv_path),
    }
    save_json(os.path.join(args.out, f"manifest_{args.scenario}.json"),
              manifest)

    header = f"{'scenario':10s} {'seed':>6s} {'status':24s} " \
             f"{'records':>7s} {'max_error':>12s} {'result':>7s}"
    print(header)
    print("-" * len(header))
    n_fail = n_skip = 0
    for rep in reports:
        if rep["status"] != "ok":
            n_skip += 1
            verdict = "SKIP"
        elif rep["passed"]:
            verdict = "pass"
        else:
            n_fail += 1
            verdict = "FAIL"
        print(f"{args.scenario:10s} {str(rep['seed']):>6s} "
              f"{rep['status']:24s} {len(rep['records']):>7d} "
              f"{rep['max_abs_error']:>12.3e} {verdict:>7s}")
    print(f"\n{len(reports)} run(s): {len(reports) - n_fail - n_skip} "
          f"passed, {n_fail} failed, {n_skip} skipped "
          f"-> reports in {args.out}/")
    return 1 if n_fail else 0


def cmd_report(args) -> int:
    payload = report_from_dict(load_json(args.report), where=args.report)
    if args.csv:
        reports_to_csv([payload], args.csv)
    else:
        sys.stdout.write(report_csv([payload]))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="raise", under="ignore"):
            if args.command == "algebra":
                return cmd_algebra(args)
            if args.command == "weak-values":
                return cmd_weak_values(args)
            if args.command == "verify":
                return cmd_verify(args, argv)
            if args.command == "report":
                return cmd_report(args)
        raise InputFormatError(f"unknown command {args.command!r}")
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except MomalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
