"""Batch front door: load fixtures, run check suites, emit reports.

One command per process; every report embeds the tool version, input
digests and the tolerance set, and identical (inputs, seed, flags) produce
byte-identical JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from .contexts import bit_list, build_poset
from .ks import bundled_ks_poset, global_section_search, validate_rank_one_cover
from .ocat import (
    ODecomposition,
    OperatorCategory,
    characterize_check,
    check_sieve_on_o,
    support_subobject_check,
)
from .presheaves import check_nat_iso
from .schema import BUILTIN_RELATIONS, random_relation, survey_properties
from .serialization import SchemaError, contexts_from_json, load_json, operators_from_json, state_from_json
from .tolerances import DEFAULT, Tolerances
from .valuations import (
    _intervals,
    _supports,
    check_definition3,
    check_global_element_condition,
    check_subobject_condition,
    nu_rho,
    nu_rho_r,
    reconstruct_from_intervals,
    reconstruct_from_supports,
    supports_global_element,
    theorem1_verify,
    theorem2_verify,
)


def _sha256(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return "unreadable"


def _tolerances(specs: list[str] | None) -> Tolerances:
    """The tolerance set of the `--tol` overrides; a malformed one exits
    with a one-line message."""
    overrides = {}
    for spec in specs or []:
        if "=" not in spec:
            raise SystemExit(f"--tol expects name=value, got {spec!r}")
        name, value = spec.split("=", 1)
        try:
            overrides[name] = float(value)
        except ValueError:
            raise SystemExit(f"--tol {name} expects a number, got {value!r}") from None
        if not math.isfinite(overrides[name]):
            raise SystemExit(f"--tol {name} expects a finite number, got {value!r}")
    try:
        return DEFAULT.overridden(**overrides)
    except KeyError as exc:
        raise SystemExit(f"--tol: {exc.args[0]}") from None


def _envelope(args, tol: Tolerances, result: dict) -> dict:
    inputs = {}
    for attr in ("input", "state"):
        path = getattr(args, attr, None)
        if path:
            inputs[path] = _sha256(path)
    return {
        "tool": "toposval",
        "version": __version__,
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "tolerances": tol.as_dict(),
        "inputs": inputs,
        "result": result,
    }


def _flatten(prefix: str, value, rows: list[tuple[str, str]]):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, json.dumps(value, sort_keys=True)))


def _emit(args, report: dict) -> None:
    if args.format == "table":
        rows: list[tuple[str, str]] = []
        _flatten("", report["result"], rows)
        width = max((len(k) for k, _ in rows), default=0)
        lines = [f"{k.ljust(width)}  {v}" for k, v in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_poset(args, tol: Tolerances):
    doc = load_json(args.input)
    contexts, dim = contexts_from_json(doc, tol)
    return build_poset(
        contexts,
        add_trivial=args.add_trivial,
        close_under_meets=args.close_under_meets,
        dim=dim,
        tol=tol,
    )


def _load_state(args, tol: Tolerances):
    state = state_from_json(load_json(args.state), tol)
    if hasattr(state, "density"):
        state = state.density(tol)
    return state


def _load_valuation(args, tol: Tolerances):
    """The poset, and the valuation of the state at `--r` (certainty when
    it is not given)."""
    poset = _load_poset(args, tol)
    rho = _load_state(args, tol)
    return poset, nu_rho(rho, poset, tol) if args.r is None else nu_rho_r(rho, args.r, poset, tol)


def _mask_hex(mask: int | None) -> str | None:
    return None if mask is None else format(mask, "x")


def cmd_build_poset(args, tol: Tolerances) -> tuple[dict, int]:
    poset = _load_poset(args, tol)
    covers = poset.cover_pairs()
    return {
        "contextCount": len(poset.ids),
        "contexts": {
            cid: {"atoms": poset.context(cid).n_atoms, "dim": poset.context(cid).dim}
            for cid in poset.ids
        },
        "coverCount": len(covers),
        "hasseEdges": [list(c) for c in covers],
    }, 0


def cmd_check_iso(args, tol: Tolerances) -> tuple[dict, int]:
    poset = _load_poset(args, tol)
    report = check_nat_iso(poset)
    return report, 0 if report["passed"] else 1


def cmd_valuate(args, tol: Tolerances) -> tuple[dict, int]:
    _, alpha = _load_valuation(args, tol)
    return {"r": args.r, "valuation": alpha.dump()}, 0


def cmd_supports(args, tol: Tolerances) -> tuple[dict, int]:
    poset, alpha = _load_valuation(args, tol)
    ids = poset.index.ids
    return {
        "r": args.r,
        "supports": {cid: _mask_hex(s) for cid, s in zip(ids, _supports(alpha))},
        "intervals": {cid: bit_list(m) for cid, m in zip(ids, _intervals(alpha))},
        "subobjectCondition": check_subobject_condition(alpha),
        "globalElementCondition": check_global_element_condition(alpha),
    }, 0


def cmd_verify_theorems(args, tol: Tolerances) -> tuple[dict, int]:
    _, alpha = _load_valuation(args, tol)
    r = args.r
    d3 = check_definition3(alpha)
    t1 = theorem1_verify(alpha)
    t2 = theorem2_verify(alpha)
    _, rs = reconstruct_from_supports(alpha)
    _, ri = reconstruct_from_intervals(alpha)
    result = {
        "r": r,
        "definition3": d3,
        "theorem1": t1,
        "theorem2": t2,
        "reconstructFromSupports": rs,
        "reconstructFromIntervals": ri,
    }
    # contracts must hold for any input; the full-certainty valuation must
    # additionally satisfy every clause and both theorems' conditions
    ok = (
        t1.get("contract_ok", True)
        and t1.get("func_given_i_ok", True)
        and t2["contract_ok"]
        and t2["func_given_i_ok"]
        and t2["routes_agree"]
        and rs.get("iff_consistent", True)
        and ri.get("iff_consistent", True)
    )
    if r is None or r == 1.0:
        ok = ok and d3["passed"] and t1["conditions_hold"] and t2["conditions_hold"] \
            and rs["equal"] and ri["equal"]
    return result, 0 if ok else 1


def _relations(names: list[str]) -> list[str | int]:
    """Each `--relation`: a builtin name, or the N of random:N; an unknown
    name or an N that is not a non-negative integer exits with a one-line
    message, before anything is loaded or surveyed."""
    out: list[str | int] = []
    for name in names:
        if name.startswith("random:"):
            count = name.split(":", 1)[1]
            if not count.isdecimal():
                raise SystemExit(f"--relation {name}: random:N expects a non-negative integer N")
            out.append(int(count))
        elif name in BUILTIN_RELATIONS:
            out.append(name)
        else:
            raise SystemExit(f"unknown relation {name!r}; choose from "
                             f"{sorted(BUILTIN_RELATIONS)} or random:N")
    return out


def cmd_survey_relations(args, tol: Tolerances) -> tuple[dict, int]:
    wanted = _relations(args.relation or ["le"])
    poset = _load_poset(args, tol)
    rho = _load_state(args, tol)
    a = supports_global_element(nu_rho(rho, poset, tol))
    if not a.satisfies_matching:
        return {"error": "state supports do not form a global element"}, 1
    rng = np.random.default_rng(args.seed)
    reports = []
    drawn = 0   # random relations are numbered across every random:N
    for item in wanted:
        if isinstance(item, int):
            for i in range(drawn, drawn + item):
                rel = random_relation(rng, poset, name=f"random{i}")
                reports.append(survey_properties(a, rel))
            drawn += item
        else:
            reports.append(survey_properties(a, BUILTIN_RELATIONS[item]))
    ok = all(
        r["properties"]["func"]["status"] == "holds-exhaustively"
        and r["analyses"]["sievehood_paths_agree"]
        and r["analyses"]["null_paths_agree"]
        and r["analyses"]["monotonicity_paths_agree"]
        for r in reports
    )
    return {"a": {cid: _mask_hex(m) for cid, m in a.assignment.items()},
            "surveys": reports}, 0 if ok else 1


def cmd_ks(args, tol: Tolerances) -> tuple[dict, int]:
    if args.input:
        poset = _load_poset(args, tol)
        expected = args.expect
    else:
        poset = bundled_ks_poset(tol)
        expected = args.expect or "none"
    fixture_report = validate_rank_one_cover([poset.context(cid) for cid in poset.maximal_ids()], tol)
    verdict = global_section_search(poset, tol=tol)
    result = {
        "contextCount": len(poset.ids),
        "fixture": fixture_report,
        "exists": verdict["exists"],
        "witness": verdict["witness"],
        "nodesExplored": verdict["nodesExplored"],
    }
    code = 0
    if expected == "none" and verdict["exists"]:
        code = 1
    if expected == "exists" and not verdict["exists"]:
        code = 1
    return result, code


def cmd_ocat(args, tol: Tolerances) -> tuple[dict, int]:
    ops = operators_from_json(load_json(args.input), tol)
    state = state_from_json(load_json(args.state), tol)
    category = OperatorCategory(
        [ODecomposition.from_operator(op, id=name, tol=tol) for name, op in ops], tol
    )
    closure_ok, closure_w = category.check_composition_closure()
    characterize = []
    sieve_ok = True
    for aid in category.ids:
        a = category.objects[aid]
        n = len(a.spectrum)
        for mask in range(1 << n):
            delta = frozenset(a.spectrum[i] for i in range(n) if mask >> i & 1)
            rep = characterize_check(state, a, delta, category, tol)
            if not rep["passed"]:
                characterize.append({"operator": aid, **rep})
            ok, _ = check_sieve_on_o(state, a, delta, category, tol)
            sieve_ok = sieve_ok and ok
    supports = support_subobject_check(state, category, tol)
    result = {
        "operators": category.ids,
        "morphisms": [
            {"src": m.src, "dst": m.dst, "map": [list(p) for p in m.map.pairs]}
            for m in sorted(category.morphisms.values(), key=lambda m: (m.src, m.dst))
        ],
        "compositionClosure": {"passed": closure_ok, "witness": closure_w},
        "characterizationFailures": characterize,
        "sieveOnO": sieve_ok,
        "supportSubobject": supports,
    }
    ok = closure_ok and not characterize and sieve_ok and supports["passed"]
    return result, 0 if ok else 1


def _add_common(p: argparse.ArgumentParser, state: bool = False, poset: bool = True) -> None:
    """The options every command takes; the poset flags only where the
    command builds a poset (every command but ocat)."""
    p.add_argument("--input", help="input JSON file: contexts, or operators for ocat")
    if state:
        p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "table"), default="json")
    if poset:
        p.add_argument("--add-trivial", action="store_true", dest="add_trivial")
        p.add_argument("--close-under-meets", action="store_true", dest="close_under_meets")
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override a tolerance (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toposval",
        description="check suites for sieve-valued valuations over finite context posets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-poset", help="parse contexts and report the poset")
    _add_common(p)

    p = sub.add_parser("check-iso", help="verify the power-object isomorphism stage by stage")
    _add_common(p)

    p = sub.add_parser("valuate", help="dump a state's valuation table")
    _add_common(p, state=True)
    p.add_argument("--r", type=float, default=None, help="probability threshold (default: certainty)")

    p = sub.add_parser("supports", help="supports, intervals and their compatibility laws")
    _add_common(p, state=True)
    p.add_argument("--r", type=float, default=None)

    p = sub.add_parser("verify-theorems", help="definition clauses, both theorems, round-trips")
    _add_common(p, state=True)
    p.add_argument("--r", type=float, default=None)

    p = sub.add_parser("survey-relations", help="six-property survey for relation schemas")
    _add_common(p, state=True)
    p.add_argument("--relation", action="append",
                   help="builtin relation name or random:N (repeatable)")

    p = sub.add_parser("ks", help="global-section search (bundled fixture by default)")
    _add_common(p)
    p.add_argument("--expect", choices=("exists", "none"), default=None)

    p = sub.add_parser("ocat", help="operator-category suite: morphisms, supports, characterization")
    _add_common(p, state=True, poset=False)

    return parser


COMMANDS = {
    "build-poset": cmd_build_poset,
    "check-iso": cmd_check_iso,
    "valuate": cmd_valuate,
    "supports": cmd_supports,
    "verify-theorems": cmd_verify_theorems,
    "survey-relations": cmd_survey_relations,
    "ks": cmd_ks,
    "ocat": cmd_ocat,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "ks" and not args.input:
        raise SystemExit("--input is required for this command")
    if args.command == "ks" and not args.input:
        for flag, given in (("--add-trivial", args.add_trivial),
                            ("--close-under-meets", args.close_under_meets)):
            if given:
                parser.error(f"ks: {flag} needs --input; the bundled poset is always "
                             f"built with the trivial context and closed under meets")
    tol = _tolerances(args.tol)
    try:
        result, code = COMMANDS[args.command](args, tol)
    except (SchemaError, ValueError, OSError) as exc:
        report = _envelope(args, tol, {"error": str(exc)})
        _emit(args, report)
        return 2
    report = _envelope(args, tol, result)
    _emit(args, report)
    return code


if __name__ == "__main__":
    sys.exit(main())
