"""Command-line front end.

Subcommands: ``params`` (closed-form vs computed code parameters),
``verify`` (named invariant suites), ``oracle`` (exhaustive intersection
maximization, shardable), ``construct`` (extremal witness files), and
``merge`` (combine sharded oracle reports).

Reports are JSON with a ``schema`` field, written to stdout or ``--out``, in
exactly the bytes json writes with indent 2 and sorted keys (tests hold to it).
Output is a pure function of the configuration (seed included): reruns are
byte-identical, and merged shard reports are byte-identical with the
unsharded run.  Exit codes: 0 pass, 1 invariant failure, parameter
mismatch, invalid input (a negative ``--seed`` among it), a usage error
(an unknown, missing or malformed option) or an output file that cannot be
written, 2 budget refusal or a negative ``--budget`` or ``--cap``, 3
unknown bound.  Every nonzero exit without a report writes a one-line
message to stderr.
``merge`` rejects a malformed partial report with exit 1: one that is not
a partial oracle report of schema 1, lacks a field merging reads, has one
of the wrong type, names a variety the oracle does not scan or a negative
cap, has scan fields its cell does not give (k other than C(n + d, d),
total_forms other than the class count, or a range outside
0 <= lo <= hi <= total_forms), or lists a maximizer that is not k codes of
the field its config names.  These checks run on every merge, partial or
full.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from itertools import chain
from math import comb

import numpy as np

from . import bounds as bnd
from . import codes as cds
from .field import FieldCtx, make_field
from .forms import form_to_json, form_values, projective_form_count
from .hermitian import make_standard_cone
from .limits import EVAL_BUDGET, MAXIMIZER_CAP, BudgetExceededError, check_count_digits
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BUDGET = 2
EXIT_UNKNOWN = 3


def _json_key(key) -> str:
    """A dict key as json writes it: a str, or the JSON text of a non-str key, quoted."""
    if not (key is None or isinstance(key, (str, int, float))):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return json.dumps(key if isinstance(key, str) else json.dumps(key))


def _json(obj, indent: str = "\n") -> str:
    """The bytes json writes with indent 2 and sorted keys.  Its indent encoder is
    pure Python, so a list of exact ints, or of equal-length rows of exact ints
    (maximizers), is formatted here by one ``%`` on a repeated template."""
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f"{_json_key(k)}: {_json(v, inner)}" for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if not isinstance(obj, (list, tuple)):
        return json.dumps(obj)  # scalars, and TypeError for what json refuses
    if not obj:
        return "[]"
    kinds = set(map(type, obj))
    if kinds == {int}:
        return "[" + inner + ("," + inner).join(["%d"] * len(obj)) % tuple(obj) + indent + "]"
    if kinds <= {list, tuple} and len(set(map(len, obj))) == 1 and obj[0]:
        flat = tuple(chain.from_iterable(obj))
        if set(map(type, flat)) == {int}:
            cell = inner + "  "
            row = "[" + cell + ("," + cell).join(["%d"] * len(obj[0])) + inner + "]"
            return "[" + inner + ("," + inner).join([row] * len(obj)) % flat + indent + "]"
    return "[" + inner + ("," + inner).join([_json(x, inner) for x in obj]) + indent + "]"


def _emit(report: dict, out: str | None) -> None:
    text = _json(report) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(command: str, ctx: FieldCtx, n: int | None, d: int | None, **config) -> dict:
    """The envelope of every report: schema 1 (the only one ``merge``
    reads), the command, and the canonical config (the field, n and d when
    set, then the command's own settings)."""
    cell = {key: value for key, value in (("n", n), ("d", d)) if value is not None}
    field = {"p": ctx.p, "e": ctx.e, "q": ctx.q, "q2": ctx.q2, "modulus": list(ctx.modulus)}
    return {"schema": 1, "command": command, "config": {**field, **cell, **config}}


class UsageError(Exception):
    """A command line the parser rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print its usage block and exit
    2, the budget-refusal code; the subcommand parsers inherit it."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _parse_shard(text: str) -> tuple[int, int]:
    try:
        index, total = text.split("/")
        return int(index), int(total)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("shard must look like INDEX/TOTAL, e.g. 0/4") from exc


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------


def cmd_params(args) -> int:
    ctx = make_field(args.p, args.e)
    theory = cds.theoretical_parameters(args.n, args.d, ctx.q, args.assume_conjecture)
    report = _report("params", ctx, args.n, args.d, assume_conjecture=args.assume_conjecture)
    report["theoretical"] = asdict(theory)
    if theory.dmin is None:
        report["computed"] = None
        report["note"] = "the bound this distance rests on is an open problem"
        _emit(report, args.out)
        return EXIT_UNKNOWN
    try:
        cone = make_standard_cone(ctx, args.n)
        code = cds.build_code(ctx, cone, args.d)
    except BudgetExceededError as exc:
        report["computed"] = None
        report["note"] = f"variety enumeration refused: {exc}"
        _emit(report, args.out)
        return EXIT_BUDGET
    try:
        dist = cds.weight_distribution(ctx, code, budget=args.budget)
        computed = cds.min_distance(ctx, code, "exhaustive_messages", distribution=dist)
        if args.weights_csv:
            with open(args.weights_csv, "w", encoding="utf-8") as fh:
                fh.write("weight,count\n")
                for w in sorted(dist):
                    fh.write(f"{w},{dist[w]}\n")
    except BudgetExceededError:
        if args.n > 4:
            report["computed"] = None
            report["note"] = "exhaustive scan over budget and no witness construction for n > 4"
            _emit(report, args.out)
            return EXIT_BUDGET
        witness = bnd.construct_extremal_form(ctx, cone, args.d)
        computed = cds.min_distance(ctx, code, "witness_only", witnesses=[witness.form])
    if args.generator_out:
        cds.write_generator_matrix(code, args.generator_out)
    report["computed"] = asdict(computed)
    match = {
        "m": computed.m == theory.m,
        "k": computed.k == theory.k,
        "dmin": computed.dmin == theory.dmin,
    }
    report["match"] = match
    _emit(report, args.out)
    return EXIT_OK if all(match.values()) else EXIT_FAIL


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    ctx = make_field(args.p, args.e)
    checks = run_suite(args.suite, ctx, n=args.n, d=args.d, seed=args.seed)
    report = _report("verify", ctx, args.n, args.d, suite=args.suite, seed=args.seed)
    report["checks"] = [asdict(c) for c in checks]
    report["passed"] = all(c.passed for c in checks)
    _emit(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# oracle and merge
# ---------------------------------------------------------------------------


# Report fields merging reads, with JSON types; oracle reports write scan and result from it.
_MERGE_FIELDS = {
    "config": {"p": int, "e": int, "q2": int, "n": int, "d": int, "variety": str},
    "scan": {"lo": int, "hi": int, "total_forms": int, "k": int, "n_points": int, "cap": int},
    "result": {"max_count": int, "n_maximizers": int, "maximizers": list},
}
_RESULT_SECTIONS = ("scan", "result")
_VARIETIES = ("cone", "nondegenerate", "space")


def _oracle_report(ctx: FieldCtx, variety: str, result: bnd.OracleResult, **fields) -> dict:
    """An oracle report of the scan over [result.lo, result.hi): a partial
    one carries ``partial``, and ``shard`` or ``merged``; a full one carries
    the bound and the characterization."""
    sections = {
        section: {key: getattr(result, key) for key in _MERGE_FIELDS[section]}
        for section in _RESULT_SECTIONS
    }
    return {**_report("oracle", ctx, result.n, result.d, variety=variety), **sections, **fields}


def _full_oracle_report(
    ctx: FieldCtx, target, variety: str, bound: bnd.BoundValue, result: bnd.OracleResult
) -> tuple[dict, int]:
    report = _oracle_report(
        ctx,
        variety,
        result,
        bound=asdict(bound),
        matches_bound=None if bound.is_unknown else result.max_count == bound.value,
        characterization=bnd.characterize_maximizers(ctx, target, result),
    )
    if bound.is_unknown:
        return report, EXIT_UNKNOWN
    if result.max_count > bound.value:
        return report, EXIT_FAIL
    return report, EXIT_OK


def cmd_oracle(args) -> int:
    ctx = make_field(args.p, args.e)
    try:
        target = bnd.oracle_target(ctx, args.variety, args.n)
        # refuses a degree outside the bound's regime before the scan, sharded or not
        bound = bnd.oracle_bound(args.variety, args.n, args.d, ctx.q, args.assume_conjecture)
        result = bnd.bruteforce_max_intersection(
            ctx, target, args.n, args.d, shard=args.shard, budget=args.budget, cap=args.cap
        )
    except BudgetExceededError as exc:
        report = _report("oracle", ctx, args.n, args.d, variety=args.variety)
        _emit({**report, "error": str(exc)}, args.out)
        return EXIT_BUDGET
    if args.shard != (0, 1):
        shard = {"index": args.shard[0], "total": args.shard[1]}
        _emit(_oracle_report(ctx, args.variety, result, partial=True, shard=shard), args.out)
        return EXIT_OK
    report, code = _full_oracle_report(ctx, target, args.variety, bound, result)
    _emit(report, args.out)
    return code


def _load_oracle_report(path: str) -> tuple[dict, bnd.OracleResult]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise ValueError(f"{path} is not a JSON report: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path} is not an oracle report: it is not a JSON object")
    if payload.get("schema") != 1:
        raise ValueError(f"{path} has report schema {payload.get('schema')!r}, expected 1")
    if payload.get("command") != "oracle":
        raise ValueError(f"{path} is a {payload.get('command')!r} report, not an oracle report")
    if payload.get("partial") is not True:
        raise ValueError(f"{path} is not a partial oracle report: it lacks \"partial\": true")
    for section, fields in _MERGE_FIELDS.items():
        part = payload.get(section)
        for key, kind in fields.items():
            if not isinstance(part, dict) or key not in part:
                raise ValueError(f"{path} is not an oracle report: it lacks {section}.{key}")
            if type(part[key]) is not kind:  # JSON true/false are bools, not ints
                raise ValueError(
                    f"{path} is not an oracle report: {section}.{key} = {part[key]!r} "
                    f"is not {kind.__name__}"
                )
    cfg, scan = payload["config"], payload["scan"]
    if cfg["variety"] not in _VARIETIES:
        raise ValueError(f"{path} is not an oracle report: unknown variety {cfg['variety']!r}")
    if scan["cap"] < 0:
        raise ValueError(f"{path} is not an oracle report: scan.cap = {scan['cap']} is negative")
    n, d, q2, k, total = cfg["n"], cfg["d"], cfg["q2"], scan["k"], scan["total_forms"]
    # an oracle scan holds fewer than 2^63 classes and q2^k > 2^63 from k = 64;
    # n, d >= 1 and C(n + d, d) exceeds both, so comb below stays small
    if not 0 <= scan["lo"] <= scan["hi"] <= total < 1 << 63:
        raise ValueError(
            f"{path} is not an oracle report: scan range [{scan['lo']}, {scan['hi']}) "
            f"is not inside [0, {total}], or total_forms is 2^63 or more"
        )
    if q2 < 2:
        raise ValueError(f"{path} is not an oracle report: config.q2 = {q2} is not a field size")
    check_count_digits(q2, n)  # a P^n too large to count is refused as by the oracle
    if not (min(n, d) >= 1 and max(n, d) < k < 64 and k == comb(n + d, d)):
        raise ValueError(
            f"{path} is not an oracle report: scan.k = {k} is not C(n + d, d) "
            f"for n = {n}, d = {d}"
        )
    if total != projective_form_count(q2, k):
        raise ValueError(
            f"{path} is not an oracle report: scan.total_forms = {total} is not the "
            f"number of form classes for q2 = {q2}, k = {k}"
        )
    values = {key: payload[sec][key] for sec in _RESULT_SECTIONS for key in _MERGE_FIELDS[sec]}
    result = bnd.OracleResult(n=cfg["n"], d=cfg["d"], q2=cfg["q2"], **values)
    for i, coeffs in enumerate(result.maximizers):
        if not (
            type(coeffs) is list
            and len(coeffs) == result.k
            and all(type(c) is int and 0 <= c < result.q2 for c in coeffs)
        ):
            raise ValueError(
                f"{path} is not an oracle report: result.maximizers[{i}] = {coeffs!r} "
                f"is not {result.k} codes in [0, {result.q2})"
            )
    return cfg, replace(result, maximizers=tuple(map(tuple, result.maximizers)))


def cmd_merge(args) -> int:
    configs, parts = zip(*(_load_oracle_report(path) for path in args.partials))
    if any(c != configs[0] for c in configs):
        sys.stderr.write("merge: partial reports disagree on configuration\n")
        return EXIT_FAIL
    cfg = configs[0]
    ctx = make_field(cfg["p"], cfg["e"])
    if cfg["q2"] != ctx.q2:
        raise ValueError(
            f"partial reports give q2 = {cfg['q2']}, but GF({ctx.q}) has q2 = {ctx.q2}"
        )
    merged = bnd.merge_oracle_results(list(parts))
    if merged.lo != 0 or merged.hi != merged.total_forms:
        # still a partial range; emit a re-mergeable partial report
        _emit(_oracle_report(ctx, cfg["variety"], merged, partial=True, merged=True), args.out)
        return EXIT_OK
    target = bnd.oracle_target(ctx, cfg["variety"], cfg["n"])
    bound = bnd.oracle_bound(cfg["variety"], cfg["n"], cfg["d"], ctx.q, args.assume_conjecture)
    report, code = _full_oracle_report(ctx, target, cfg["variety"], bound, merged)
    _emit(report, args.out)
    return code


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def cmd_construct(args) -> int:
    ctx = make_field(args.p, args.e)
    if args.n not in (2, 3, 4):  # before the cone, which may be over the point budget
        raise ValueError("witness construction covers n in {2, 3, 4}")
    cone = make_standard_cone(ctx, args.n)
    witness = bnd.construct_extremal_form(ctx, cone, args.d)
    code = cds.build_code(ctx, cone, args.d)
    theory = cds.theoretical_parameters(args.n, args.d, ctx.q)
    values = form_values(ctx, witness.form, cone.points)
    support = np.flatnonzero(values).tolist()
    weight = len(support)
    report = _report("construct", ctx, args.n, args.d)
    report["witness"] = {
        "description": witness.description,
        "predicted_count": witness.predicted_count,
        "intersection_count": code.m - weight,
        "form": form_to_json(witness.form),
    }
    report["code"] = {
        "m": code.m,
        "k": cds.code_dimension(ctx, code),
        "theoretical_dmin": theory.dmin,
        "witness_weight": weight,
        "matches_theoretical": weight == theory.dmin,
        "codeword_support": support,
    }
    _emit(report, args.out)
    return EXIT_OK if weight == theory.dmin else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_field_args(sub) -> None:
    sub.add_argument("--p", type=int, required=True, help="prime characteristic")
    sub.add_argument("--e", type=int, default=1, help="exponent, q = p^e (default 1)")


def _add_budget_arg(sub) -> None:
    text = "most form evaluations (classes x points) one scan may take (default %(default)s)"
    sub.add_argument("--budget", type=int, default=EVAL_BUDGET, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hermcodes",
        description="Hermitian-variety functional codes: parameters, bounds, witnesses",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)

    p = subs.add_parser("params", help="closed-form vs computed code parameters")
    _add_field_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    _add_budget_arg(p)
    p.add_argument("--assume-conjecture", action="store_true")
    p.add_argument("--weights-csv", default=None, help="write the weight distribution CSV here")
    p.add_argument("--generator-out", default=None, help="write the generator matrix file here")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_params)

    v = subs.add_parser("verify", help="run a named invariant suite")
    _add_field_args(v)
    v.add_argument("--suite", required=True, choices=[*SUITES, "all"])
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--d", type=int, default=None)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    o = subs.add_parser("oracle", help="exhaustive intersection maximization")
    _add_field_args(o)
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--d", type=int, required=True)
    o.add_argument("--variety", choices=_VARIETIES, default="cone")
    o.add_argument("--shard", type=_parse_shard, default=(0, 1), metavar="I/T")
    _add_budget_arg(o)
    o.add_argument("--cap", type=int, default=MAXIMIZER_CAP)
    o.add_argument("--assume-conjecture", action="store_true")
    o.add_argument("--out", default=None)
    o.set_defaults(func=cmd_oracle)

    c = subs.add_parser("construct", help="build an extremal witness form")
    _add_field_args(c)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_construct)

    m = subs.add_parser("merge", help="merge sharded oracle reports")
    m.add_argument("partials", nargs="+", help="partial oracle report JSON files")
    m.add_argument("--assume-conjecture", action="store_true")
    m.add_argument("--out", default=None)
    m.set_defaults(func=cmd_merge)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL
    for name in ("budget", "cap"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            sys.stderr.write(f"error: --{name} must be >= 0, got {value}\n")
            return EXIT_BUDGET
    seed = getattr(args, "seed", 0)
    if seed < 0:  # random.Random would draw |seed|'s samples
        sys.stderr.write(f"error: --seed must be >= 0, got {seed}\n")
        return EXIT_FAIL
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget refusal: {exc}\n")
        return EXIT_BUDGET
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
