"""The benchmark's three workloads.

A workload is a shared set-up plus rounds of jobs.  Each round is a fixed
mix of job kinds whose inputs are a fixed function of (seed, round); one
job is one verdict, made with the same public calls, in the same order, as
the matching ``toposval`` command, then checked by that command's own pass
conditions plus the benchmark's independent expectations.

Every call into a program module runs inside a span named
``<module>.<step>``; checking and report serialization run inside
``bench.check``.  Spans cost nothing unless the tracer is enabled.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

import inputs
import oracle
from toposval.cli import main as cli_main
from toposval.contexts import build_poset
from toposval.ks import global_section_search, validate_rank_one_cover
from toposval.ocat import (
    ODecomposition,
    OperatorCategory,
    characterize_check,
    check_sieve_on_o,
    support_subobject_check,
)
from toposval.presheaves import check_nat_iso
from toposval.schema import BUILTIN_RELATIONS, random_relation, survey_properties
from toposval.serialization import contexts_from_json, load_json, operators_from_json, state_from_json
from toposval.tolerances import DEFAULT
from toposval.valuations import (
    check_definition3,
    check_global_element_condition,
    check_subobject_condition,
    interval,
    nu_rho,
    nu_rho_r,
    reconstruct_from_intervals,
    reconstruct_from_supports,
    support,
    supports_global_element,
    theorem1_verify,
    theorem2_verify,
)

TOL = DEFAULT

SPANS = (
    "serialization.load_json",
    "serialization.contexts_from_json",
    "serialization.state_from_json",
    "serialization.operators_from_json",
    "contexts.build_poset",
    "presheaves.check_nat_iso",
    "ks.validate_rank_one_cover",
    "ks.global_section_search",
    "valuations.table",
    "valuations.supports",
    "valuations.check_definition3",
    "valuations.theorem1_verify",
    "valuations.theorem2_verify",
    "valuations.reconstruct",
    "valuations.supports_global_element",
    "schema.random_relation",
    "schema.survey_properties",
    "ocat.from_operator",
    "ocat.OperatorCategory",
    "ocat.check_composition_closure",
    "ocat.characterize_check",
    "ocat.check_sieve_on_o",
    "ocat.support_subobject_check",
    "bench.check",
    "job",
)

COUNTERS = (
    "contexts.closed",
    "contexts.pairs",
    "ks.nodes",
    "ks.none",
    "ks.exists",
    "presheaves.elements",
    "valuations.cells",
    "valuations.member_tests",
    "schema.relations",
    "ocat.operators",
    "ocat.morphisms",
    "ocat.subsets",
)


@dataclass
class Job:
    kind: str
    files: dict[str, str]
    expect: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one job produced: its report, the report's digest, the checks
    that failed (none when the job passed) and its counters."""

    report: dict
    digest: str
    problems: list[str]
    counters: dict[str, int]


def outcome(report: dict, problems: list[str], counters: dict[str, int]) -> Outcome:
    return Outcome(report, digest_of(report), problems, counters)


def digest_of(obj) -> str:
    """SHA-256 of the object's canonical JSON."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _plain(obj):
    """The value as it reads back from the CLI's JSON report."""
    return json.loads(json.dumps(obj))


def _write(path: str, doc) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _rng(seed: int, salt: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt, round_index])


class Workload:
    name = ""
    salt = 0
    setup_repeats = 1
    warmup = False

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """The shared set-up done by the program (timed as setup_s)."""

    def make_round(self, round_index: int) -> list[Job]:
        raise NotImplementedError

    def run(self, job: Job, tr) -> Outcome:
        raise NotImplementedError

    def parity_job(self, jobs: list[Job]) -> Job:
        return jobs[0]

    def cli_parity(self, job: Job, done: Outcome) -> list[str]:
        """Run the job's input files through ``toposval.cli.main`` and
        return the mismatches against the benchmark's own verdict."""
        problems = []
        for argv, part, expected_code in self.cli_calls(job, done):
            out = os.path.join(self.workdir, "cli-report.json")
            code = cli_main(argv + ["--out", out])
            with open(out) as fh:
                result = json.load(fh)["result"]
            if code != expected_code:
                problems.append(f"{argv[0]}: exit code {code}, expected {expected_code}")
            if result != _plain(done.report[part]):
                problems.append(f"{argv[0]}: report differs from the benchmark's {part!r}")
        return problems

    def cli_calls(self, job: Job, done: Outcome):
        raise NotImplementedError

    def path(self, round_index: int, i: int, what: str) -> str:
        return os.path.join(self.workdir, f"r{round_index}-j{i}-{what}.json")


# --------------------------------------------------------------------------
# ks-ladder

class KsLadder(Workload):
    """Contexts document -> poset with trivial context and meet closure ->
    power-object isomorphism -> fixture validation -> global-section search
    (the ``check-iso`` and ``ks`` commands on one document)."""

    name = "ks-ladder"
    salt = 1
    warmup = True
    # (kind, bases, verdict the oracle must give).  The round's median and
    # tail fall among its six 18-ray jobs, so both read one fixed structure;
    # those jobs are spread through the round so that they sample it evenly.
    RAY18 = ("ray18", 9, False)
    LADDER = (
        ("dim2", 0, True), RAY18,
        ("peres", 6, True), RAY18,
        ("peres", 10, True), RAY18,
        ("peres", 13, True), RAY18,
        ("peres", 16, True), RAY18,
        ("peres", 18, False),
        ("peres", 24, False), RAY18,
    )

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.peres = inputs.peres24_bases()
        self.peres_index = {frozenset(b): i for i, b in enumerate(self.peres)}
        self.ks18 = inputs.ks18_bases()
        self.oracle_runs = 0
        self._oracle_cache: dict[frozenset, tuple[bool, int]] = {}
        for bases, count in ((self.ks18, 28), (self.peres, 94)):
            if self.oracle(bases) != (False, count):
                raise ValueError("a fixture does not give its known closed-context count and verdict")
        # one fixed subset per Peres size class; each job takes a seeded
        # symmetric image of it, so the closure work is the same every run
        self.templates = {k: self._template(k, want) for kind, k, want in self.LADDER if kind == "peres"}

    def oracle(self, bases) -> tuple[bool, int]:
        key = frozenset(bases)
        if key not in self._oracle_cache:
            self.oracle_runs += 1
            self._oracle_cache[key] = (oracle.section_exists(bases), oracle.closed_count(bases))
        return self._oracle_cache[key]

    def _template(self, k: int, want: bool) -> list[int]:
        if k == len(self.peres):
            return list(range(k))
        rng = np.random.default_rng(k)
        for _ in range(500):
            idx = sorted(int(i) for i in rng.choice(len(self.peres), size=k, replace=False))
            if oracle.section_exists([self.peres[i] for i in idx]) == want:
                return idx
        raise ValueError(f"no {k}-basis Peres subset with verdict {want} found")

    def make_round(self, round_index: int) -> list[Job]:
        rng = _rng(self.seed, self.salt, round_index)
        jobs = []
        for i, (kind, k, want) in enumerate(self.LADDER):
            if kind == "dim2":
                picked = sorted(int(j) for j in rng.choice(len(inputs.DIM2_BASES), size=4, replace=False))
                bases = [inputs.DIM2_BASES[j] for j in picked]
                ids = [f"D{j}" for j in picked]
            elif kind == "ray18":
                bases = list(self.ks18)
                ids = [f"B{j + 1}" for j in range(len(bases))]
            else:
                perm, signs = inputs.signed_permutation(rng, 4)
                bases = inputs.apply_signed_permutation(
                    [self.peres[j] for j in self.templates[k]], perm, signs)
                ids = [f"P{self.peres_index[frozenset(b)]:02d}" for b in bases]
            exists, count = self.oracle(bases)
            if exists != want:
                raise ValueError(f"{kind} job has oracle verdict {exists}, the ladder needs {want}")
            doc = inputs.contexts_doc(bases, ids, rng)
            label = kind if kind != "peres" else f"peres{k}"
            jobs.append(Job(label, {"input": _write(self.path(round_index, i, "contexts"), doc)},
                            expect={"exists": exists, "contextCount": count}))
        return jobs

    def run(self, job: Job, tr) -> Outcome:
        with tr.span("serialization.load_json"):
            doc = load_json(job.files["input"])
        with tr.span("serialization.contexts_from_json"):
            contexts, dim = contexts_from_json(doc, TOL)
        with tr.span("contexts.build_poset"):
            poset = build_poset(contexts, add_trivial=True, close_under_meets=True, dim=dim, tol=TOL)
        with tr.span("presheaves.check_nat_iso"):
            iso = check_nat_iso(poset)
        with tr.span("ks.validate_rank_one_cover"):
            fixture = validate_rank_one_cover([poset.context(c) for c in poset.maximal_ids()], TOL)
        with tr.span("ks.global_section_search"):
            verdict = global_section_search(poset)
        with tr.span("bench.check"):
            ks = {
                "contextCount": len(poset.ids),
                "fixture": fixture,
                "exists": verdict["exists"],
                "witness": verdict["witness"],
                "nodesExplored": verdict["nodesExplored"],
            }
            problems = []
            if verdict["exists"] != job.expect["exists"]:
                problems.append(f"verdict exists={verdict['exists']}, oracle says {job.expect['exists']}")
            if len(poset.ids) != job.expect["contextCount"]:
                problems.append(f"{len(poset.ids)} closed contexts, oracle says {job.expect['contextCount']}")
            if not fixture["ok"]:
                problems.append(f"fixture validation failed: {fixture['problems']}")
            if not iso["passed"]:
                problems.append("check-iso failed")
            report = {"ks": ks, "checkIso": iso}
            counters = {
                "contexts.closed": len(poset.ids),
                "contexts.pairs": len(poset.order),
                "ks.nodes": verdict["nodesExplored"],
                "ks.none": int(not verdict["exists"]),
                "ks.exists": int(verdict["exists"]),
                "presheaves.elements": iso["elementsChecked"],
            }
            done = outcome(report, problems, counters)
        return done

    def parity_job(self, jobs: list[Job]) -> Job:
        return next(j for j in jobs if j.kind == "ray18")

    def cli_calls(self, job: Job, done: Outcome):
        common = ["--input", job.files["input"], "--add-trivial", "--close-under-meets"]
        expect = "exists" if job.expect["exists"] else "none"
        agrees = done.report["ks"]["exists"] == job.expect["exists"]
        yield ["ks", *common, "--expect", expect], "ks", 0 if agrees else 1
        yield ["check-iso", *common], "checkIso", 0 if done.report["checkIso"]["passed"] else 1


# --------------------------------------------------------------------------
# state-verdicts

class StateVerdicts(Workload):
    """One state on the shared closed Peres-24 poset: valuation table,
    supports and intervals, definition 3, both theorems and both
    reconstructions, and at certainty the relation survey (the ``valuate``,
    ``supports``, ``verify-theorems`` and ``survey-relations`` commands)."""

    name = "state-verdicts"
    salt = 2
    setup_repeats = 3
    # four state kinds, each at the thresholds 1 (certainty), 0.8 and 0.6
    KINDS = ("ray", "general", "mixed2", "mixed4")
    THRESHOLDS = (None, 0.8, 0.6)

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.peres = inputs.peres24_bases()
        doc = inputs.contexts_doc(self.peres, [f"P{j:02d}" for j in range(len(self.peres))], None)
        self.poset_path = _write(os.path.join(workdir, "peres24.json"), doc)
        self.poset = None

    def setup(self) -> None:
        contexts, dim = contexts_from_json(load_json(self.poset_path), TOL)
        self.poset = build_poset(contexts, add_trivial=True, close_under_meets=True, dim=dim, tol=TOL)
        poset = self.poset
        self.cells = sum(1 << poset.context(c).n_atoms for c in poset.ids)
        self.member_tests = sum((1 << poset.context(c).n_atoms) * len(poset.down_set(c))
                                for c in poset.ids)

    def make_round(self, round_index: int) -> list[Job]:
        rng = _rng(self.seed, self.salt, round_index)
        jobs = []
        for i in range(len(self.KINDS) * len(self.THRESHOLDS)):
            kind = self.KINDS[i // len(self.THRESHOLDS)]
            r = self.THRESHOLDS[i % len(self.THRESHOLDS)]
            if kind == "ray":
                basis = self.peres[int(rng.integers(len(self.peres)))]
                phase = np.exp(2j * np.pi * rng.random())
                doc = inputs.pure_state_doc(phase * np.array(basis[int(rng.integers(4))], dtype=float))
            elif kind == "general":
                doc = inputs.random_pure_state_doc(rng, 4)
            else:
                doc = inputs.random_density_doc(rng, 4, int(kind[len("mixed"):]))
            label = f"{kind}@r={1.0 if r is None else r}"
            jobs.append(Job(label, {"state": _write(self.path(round_index, i, "state"), doc)},
                            params={"r": r, "relation_seed": int(rng.integers(2**31))}))
        return jobs

    def run(self, job: Job, tr) -> Outcome:
        poset = self.poset
        r = job.params["r"]
        with tr.span("serialization.load_json"):
            doc = load_json(job.files["state"])
        with tr.span("serialization.state_from_json"):
            rho = state_from_json(doc, TOL)
            if hasattr(rho, "density"):
                rho = rho.density()
        with tr.span("valuations.table"):
            alpha = nu_rho(rho, poset, TOL) if r is None else nu_rho_r(rho, r, poset, TOL)
            table = alpha.dump()
        with tr.span("valuations.supports"):
            sup = {cid: support(alpha, cid) for cid in poset.ids}
            supports = {
                "r": r,
                "supports": {cid: None if s is None else format(s.mask, "x") for cid, s in sup.items()},
                "intervals": {cid: sorted(k.atom_index for k in interval(alpha, cid)) for cid in poset.ids},
                "subobjectCondition": check_subobject_condition(alpha),
                "globalElementCondition": check_global_element_condition(alpha),
            }
        with tr.span("valuations.check_definition3"):
            d3 = check_definition3(alpha)
        with tr.span("valuations.theorem1_verify"):
            t1 = theorem1_verify(alpha)
        with tr.span("valuations.theorem2_verify"):
            t2 = theorem2_verify(alpha)
        with tr.span("valuations.reconstruct"):
            _, rs = reconstruct_from_supports(alpha)
            _, ri = reconstruct_from_intervals(alpha)
        surveys = None
        if r is None:
            with tr.span("valuations.supports_global_element"):
                a = supports_global_element(alpha)
            surveys = []
            if a.satisfies_matching:
                with tr.span("schema.survey_properties"):
                    surveys.append(survey_properties(a, BUILTIN_RELATIONS["le"]))
                with tr.span("schema.random_relation"):
                    rel = random_relation(np.random.default_rng(job.params["relation_seed"]),
                                          poset, name="random0")
                with tr.span("schema.survey_properties"):
                    surveys.append(survey_properties(a, rel))
        with tr.span("bench.check"):
            verify = {
                "r": r,
                "definition3": d3,
                "theorem1": t1,
                "theorem2": t2,
                "reconstructFromSupports": rs,
                "reconstructFromIntervals": ri,
            }
            problems = []
            # the pass conditions of `toposval verify-theorems`
            ok = (t1.get("contract_ok", True) and t1.get("func_given_i_ok", True)
                  and t2["contract_ok"] and t2["func_given_i_ok"] and t2["routes_agree"]
                  and rs.get("iff_consistent", True) and ri.get("iff_consistent", True))
            if r is None:
                ok = ok and d3["passed"] and t1["conditions_hold"] and t2["conditions_hold"] \
                    and rs["equal"] and ri["equal"]
            if not ok:
                problems.append("verify-theorems pass conditions fail")
            if r is None:
                # the pass conditions of `toposval survey-relations`
                if not a.satisfies_matching:
                    problems.append("state supports do not form a global element")
                elif not all(
                    s["properties"]["func"]["status"] == "holds-exhaustively"
                    and s["analyses"]["sievehood_paths_agree"]
                    and s["analyses"]["null_paths_agree"]
                    and s["analyses"]["monotonicity_paths_agree"]
                    for s in surveys
                ):
                    problems.append("survey-relations pass conditions fail")
            report = {"valuation": table, "supports": supports, "verify": verify, "surveys": surveys}
            counters = {
                "valuations.cells": self.cells,
                "valuations.member_tests": self.member_tests,
                "schema.relations": 0 if surveys is None else len(surveys),
            }
            done = outcome(report, problems, counters)
        return done

    def cli_calls(self, job: Job, done: Outcome):
        # The CLI reads the closed poset back as a contexts document (atoms
        # as matrices, ids kept), so it builds the same poset without
        # repeating the meet closure that set-up already timed.
        closed = os.path.join(self.workdir, "peres24-closed.json")
        _write(closed, {"dim": 4, "contexts": [
            {"id": cid, "dim": 4,
             "atoms": [inputs.encode_matrix(a.entries) for a in self.poset.context(cid).atoms]}
            for cid in self.poset.ids
        ]})
        argv = ["verify-theorems", "--input", closed, "--add-trivial", "--state", job.files["state"]]
        if job.params["r"] is not None:
            argv += ["--r", repr(job.params["r"])]
        verify_ok = not any(p.startswith("verify-theorems") for p in done.problems)
        yield argv, "verify", 0 if verify_ok else 1


# --------------------------------------------------------------------------
# operator-suite

class OperatorSuite(Workload):
    """An operator set and a state through the ``ocat`` command: spectral
    decompositions, the category, composition closure, the support
    characterization and sieve law for every eigenvalue subset, and the
    support subobject law."""

    name = "operator-suite"
    salt = 3
    warmup = True
    DIMS = (2, 3, 4, 5, 6)
    ROUND = 100   # twenty jobs per dimension; the tail is the middle dim-6 job

    def make_round(self, round_index: int) -> list[Job]:
        rng = _rng(self.seed, self.salt, round_index)
        jobs = []
        for i in range(self.ROUND):
            dim = self.DIMS[i % len(self.DIMS)]
            loose = (i // len(self.DIMS)) % 3 == 2
            ops = inputs.operator_set_doc(rng, dim, loose)
            if i % 2 == 0:
                state = inputs.random_pure_state_doc(rng, dim)
            else:
                state = inputs.random_density_doc(rng, dim, 1 + (i // 2) % dim)
            files = {"input": _write(self.path(round_index, i, "operators"), ops),
                     "state": _write(self.path(round_index, i, "state"), state)}
            jobs.append(Job(f"dim{dim}", files, params={"loose": loose}))
        return jobs

    def run(self, job: Job, tr) -> Outcome:
        with tr.span("serialization.load_json"):
            ops_doc = load_json(job.files["input"])
            state_doc = load_json(job.files["state"])
        with tr.span("serialization.operators_from_json"):
            ops = operators_from_json(ops_doc, TOL)
        with tr.span("serialization.state_from_json"):
            state = state_from_json(state_doc, TOL)
        objects = []
        for name, op in ops:
            with tr.span("ocat.from_operator"):
                objects.append(ODecomposition.from_operator(op, id=name, tol=TOL))
        with tr.span("ocat.OperatorCategory"):
            category = OperatorCategory(objects, TOL)
        with tr.span("ocat.check_composition_closure"):
            closure_ok, closure_w = category.check_composition_closure()
        characterize = []
        sieve_ok = True
        subsets = 0
        for aid in category.ids:
            a = category.objects[aid]
            n = len(a.spectrum)
            for mask in range(1 << n):
                subsets += 1
                delta = frozenset(a.spectrum[i] for i in range(n) if mask >> i & 1)
                with tr.span("ocat.characterize_check"):
                    rep = characterize_check(state, a, delta, category, TOL)
                if not rep["passed"]:
                    characterize.append({"operator": aid, **rep})
                with tr.span("ocat.check_sieve_on_o"):
                    ok, _ = check_sieve_on_o(state, a, delta, category, TOL)
                sieve_ok = sieve_ok and ok
        with tr.span("ocat.support_subobject_check"):
            supports = support_subobject_check(state, category, TOL)
        with tr.span("bench.check"):
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
            problems = []
            # the pass conditions of `toposval ocat`
            if not (closure_ok and not characterize and sieve_ok and supports["passed"]):
                problems.append("ocat pass conditions fail")
            # arrows the generator built in: identities, F0 = f0(A),
            # F1 = f1(A), and the unit as a function of everything
            built = {(x, x) for x in category.ids} | {("F0", "A"), ("F1", "A")} \
                | {("one", x) for x in category.ids}
            missing = sorted(built - set(category.morphisms))
            if missing:
                problems.append(f"constructed morphisms not discovered: {missing}")
            counters = {
                "ocat.operators": len(category.ids),
                "ocat.morphisms": len(category.morphisms),
                "ocat.subsets": subsets,
            }
            done = outcome({"ocat": result}, problems, counters)
        return done

    def cli_calls(self, job: Job, done: Outcome):
        argv = ["ocat", "--input", job.files["input"], "--state", job.files["state"]]
        ocat_ok = not any(p.startswith("ocat") for p in done.problems)
        yield argv, "ocat", 0 if ocat_ok else 1


WORKLOADS = {w.name: w for w in (KsLadder, StateVerdicts, OperatorSuite)}
