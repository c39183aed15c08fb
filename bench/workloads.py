"""The benchmark's four workloads: seeded fixtures, operations and checks.

Each operation makes the calls one CLI subcommand makes, each call wrapped in
its own span (see spans.py), and each has a check on its output that does
not depend on timing.  Inputs come from ``random.Random(seed)``, not from
the program's own generator, so a change to lampirs cannot change what the
benchmark feeds it.  The sizes of a workload are fixed; the seed picks the
instances (companion vectors, targets, generators, weights, stream seeds).
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from math import comb

from lampirs import cli
from lampirs.algebra import LaurentPoly, Poly, enumerate_irreducibles, poly_gcd
from lampirs.cbrank import (
    build_approach_sequence,
    cb_levels,
    classify_limit,
    level_closed_form,
    truncation,
)
from lampirs.formats import (
    canonical_json,
    distribution_to_json,
    format_triple,
    format_vector,
    fraction_str,
    measure_from_json,
    parse_triple,
)
from lampirs.fplinalg import right_nullspace
from lampirs.irs import (
    block_average_marginal,
    convergence_report,
    majority_invariance_estimate,
    sampler_law_report,
    splice_measures,
    window_of_submodule,
)
from lampirs.lamplighter import (
    GroupElement,
    SubgroupTriple,
    certify_convergence,
    conjugate_element,
    delta_site,
    power,
)
from lampirs.submodules import (
    LaurentVector,
    Submodule,
    construct_with_invariants,
    count_submodules,
    invariant_report,
    submodules_of_codimension,
    vanish_sequence,
)

HORIZON = 25
# certify-generic stops at term 12 so that its largest operation (p = 3 at
# radius 2) can run five times a pass and still take under a second.
GENERIC_HORIZON = 12


class Op:
    """One operation: ``run(tracer)`` is timed, ``check(output)`` is not."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


class Workload:
    """A fixed operation list, the CLI runs of its determinism check, the
    reference computation its checks need, and its nominal pass time."""

    def __init__(self, ops, cli_runs, pass_s, prepare=None):
        self.ops = ops
        self.cli_runs = cli_runs
        self.pass_s = pass_s
        self.prepare = prepare or (lambda: None)


# -- seeded inputs -----------------------------------------------------------


def _laurent(rnd, p, lo=-2, hi=2):
    out = LaurentPoly.zero(p)
    for exp in range(lo, hi + 1):
        c = rnd.randrange(p)
        if c:
            out = out + LaurentPoly.monomial(p, exp, c)
    return out


def _vector(rnd, n, p):
    return LaurentVector(p, [_laurent(rnd, p) for _ in range(n)])


def _nonzero_vector(rnd, n, p):
    v = _vector(rnd, n, p)
    while v.is_zero():
        v = _vector(rnd, n, p)
    return v


def _submodule(rnd, n, p, e, gens):
    return Submodule(n, p, e, [_nonzero_vector(rnd, n, p) for _ in range(gens)])


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _measure_text(rnd, mixture):
    """Measure JSON over F_2 with period-1 atoms: the point mass at a seeded
    subgroup, or a seeded mixture of the full subgroup, the span of 1 + x
    and a seeded subgroup."""
    p = 2
    atoms = [_submodule(rnd, 1, p, 1, 1)]
    if mixture:
        line = LaurentVector(p, [LaurentPoly.from_poly(Poly(p, (1, 1)))])
        atoms += [Submodule.full(1, p), Submodule(1, p, 1, [line])]
    weights = [1 + rnd.randrange(4) for _ in atoms]
    total = sum(weights)
    return json.dumps(
        {
            "schema": "lampirs.measure.v1",
            "n": 1,
            "p": p,
            "atoms": [
                {
                    "weight": fraction_str(Fraction(w, total)),
                    "period": U.period,
                    "gens": [format_vector(g) for g in U.gens],
                }
                for w, U in zip(weights, atoms)
            ],
        }
    )


def run_cli(argv):
    """lampirs.cli.main on argv; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# -- reference certificates ----------------------------------------------------


def _residue(U, w):
    """F_p coordinates of the canonical residue of w modulo U."""
    r = U.reduce_vector(w)
    return {(i, exp): c for i, poly in enumerate(r.coords) for exp, c in poly.terms()}


def _member_sets(triple, radius, shift_bound):
    """Per shift t, the set {w on sites [-radius, radius] : (w, t) in triple}.

    Membership of (w, t) means s | t and w + d_t in U, with d_t the lamps of
    (0, t)(v, s)^(-t/s), so the set is affine.  It is given by the reduced
    kernel of (c_d, c) -> c_d res(d_t) + sum_i c_i res(b_i) over the ball
    basis b_i, which is the same for equal sets; None when the set is empty.
    This is linear algebra, independent of the witness enumeration that
    ``certify_convergence`` does.
    """
    n, p, s, U = triple.n, triple.p, triple.s, triple.lamps
    basis = [
        _residue(U, delta_site(n, p, site, component=i))
        for i in range(n)
        for site in range(-radius, radius + 1)
    ]
    zero = LaurentVector.zero(n, p)
    keys = []
    for t in range(-shift_bound, shift_bound + 1):
        if (s == 0 and t != 0) or (s and t % s):
            keys.append(None)
            continue
        d = zero
        if s:
            d = (GroupElement(zero, t) * power(GroupElement(triple.v, s), -(t // s))).lamps
        cols = [_residue(U, d)] + basis
        support = sorted(set().union(*cols))
        kernel = right_nullspace([[col.get(k, 0) for col in cols] for k in support], p, len(cols))
        keys.append(kernel if kernel and kernel[0][0] else None)
    return keys


def reference_certificate(terms, limit, radius, shift_bound):
    """(stabilized, index) that certify_convergence must return."""
    target = _member_sets(limit, radius, shift_bound)
    last = 0
    for m, triple in enumerate(terms, start=1):
        if _member_sets(triple, radius, shift_bound) != target:
            last = m
    if last >= len(terms):
        return False, None
    return True, max(1, last + 1)


# -- certify-f2 and certify-generic ------------------------------------------


def _approach_fixture(rnd, p, e, rk, t):
    """Limit triple of shape (e, rk, t) at prime p with a seeded companion
    vector, and a target (1, r') below its own encoding (t, r) with a seeded
    r' < t r, so the terms' period (t e) does not depend on the seed."""
    U = construct_with_invariants(1, p, e, rk)
    s = t * e
    V = SubgroupTriple(s, U, U.reduce_vector(_vector(rnd, 1, p)))
    t_v, r_v = V.poset_encoding()
    return format_triple(V), (1, rnd.randrange(t_v * r_v))


def _approach_op(text, target, radius, shift_bound, horizon, cls):
    """The calls of ``lampirs approach``: parse, build, certify, classify, emit."""
    ref = {}

    def run(tr):
        V = tr.call("formats.parse_triple", parse_triple, text)
        seq = tr.call("cbrank.build_approach_sequence", build_approach_sequence, V, target, horizon)
        cert = tr.call(
            "lamplighter.certify_convergence",
            certify_convergence,
            lambda m: seq[m - 1],
            V,
            radius,
            shift_bound,
            horizon,
            cls=cls,
        )
        classification = tr.call("cbrank.classify_limit", classify_limit, seq, V)
        out = tr.call(
            "formats.canonical_json",
            canonical_json,
            {"convergence": cert.to_json(), "classification": classification},
        )
        tr.count("lamplighter.witness_checks", cert.witnesses_checked * cert.horizon)
        tr.count("formats.canonical_json.bytes", len(out))
        return seq, cert, classification

    def check(output):
        seq, cert, classification = output
        groups = classification["groups"]
        return (
            (cert.stabilized, cert.index) == ref["certificate"]
            and all(W.poset_encoding() == target for W in seq)
            and len(groups) == 1
            and groups[0]["strict"]
            and groups[0]["divides"]
            and not groups[0]["stabilizes"]
        )

    def prepare():
        V = parse_triple(text)
        seq = build_approach_sequence(V, target, horizon)
        ref["certificate"] = reference_certificate(seq, V, radius, shift_bound)

    return Op("approach", run, check), prepare


def _vanish_op(text, radius, horizon, cls):
    """U_m = f_m U with s = 0, certified against the zero subgroup."""
    ref = {}
    shift_bound = 1

    def run(tr):
        src = tr.call("formats.parse_triple", parse_triple, text)
        terms = tr.call("submodules.vanish_sequence", vanish_sequence, src.lamps, horizon)
        triples = [SubgroupTriple(0, W) for W in terms]
        limit = SubgroupTriple(0, Submodule.zero(src.n, src.p))
        cert = tr.call(
            "lamplighter.certify_convergence",
            certify_convergence,
            lambda m: triples[m - 1],
            limit,
            radius,
            shift_bound,
            horizon,
            cls=cls,
        )
        out = tr.call("formats.canonical_json", canonical_json, {"convergence": cert.to_json()})
        tr.count("lamplighter.witness_checks", cert.witnesses_checked * cert.horizon)
        tr.count("formats.canonical_json.bytes", len(out))
        return triples, limit, cert

    def check(output):
        triples, limit, cert = output
        if (cert.stabilized, cert.index) != ref["certificate"]:
            return False
        if cert.stabilized:
            return cert.witness is None
        # The reported witness must still tell the last term from the limit.
        g = cert.witness
        return triples[-1].contains_element(g) != limit.contains_element(g)

    def prepare():
        src = parse_triple(text)
        triples = [SubgroupTriple(0, W) for W in vanish_sequence(src.lamps, horizon)]
        limit = SubgroupTriple(0, Submodule.zero(src.n, src.p))
        ref["certificate"] = reference_certificate(triples, limit, radius, shift_bound)

    return Op("vanish", run, check), prepare


def _certify_workload(ops_prepares, cli_runs, pass_s):
    ops = [op for op, _ in ops_prepares]
    prepares = [prep for _, prep in ops_prepares]

    def prepare():
        for prep in prepares:
            prep()

    return Workload(ops, cli_runs, pass_s, prepare)


# Shapes (e, rk, t) are fixed so that every seed certifies balls of the same
# sizes; the seed picks the companion vector and the target encoding.
F2_SHAPES = ((2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 2, 2))
# (radius, number of shapes certified at it).  The two radius-5 operations
# per pass are the class op_tail_ms falls into.
F2_RADII = ((3, 4), (4, 6), (5, 2))


def certify_f2(seed, workdir):
    """p = 2 approach sequences; every term shares the limit's marker, so the
    bit-table fast path of certify_convergence does the work."""
    rnd = random.Random(seed)
    fixtures = [_approach_fixture(rnd, 2, *shape) for shape in F2_SHAPES]
    paths = [_write(workdir, f"f2_{i}.triple", text) for i, (text, _) in enumerate(fixtures)]
    ops = []
    for radius, count in F2_RADII:
        for (text, target), (e, _, t) in zip(fixtures[:count], F2_SHAPES):
            ops.append(_approach_op(text, target, radius, 2 * t * e, HORIZON, f"p2_r{radius}"))
    (_, target), (e, _, t) = fixtures[0], F2_SHAPES[0]
    cli_runs = [
        ["approach", "--triple", paths[0], "--target", "%d,%d" % target,
         "--count", str(HORIZON), "--ball", f"3,{2 * t * e},{HORIZON}"],
    ]
    return _certify_workload(ops, cli_runs, pass_s=2.0)


# (p, shape, radius, instances); shift bound s, so three shifts carry members.
# The five radius-2 operations per pass are the class op_tail_ms falls into;
# with four passes the tail's rank falls near the middle of that class.
GENERIC_APPROACH = (
    (3, (2, 1, 1), 1, 3),
    (3, (3, 2, 1), 1, 3),
    (5, (2, 1, 1), 1, 2),
    (3, (2, 1, 1), 2, 5),
)


def _vanish_fixture(rnd, width):
    """s = 0 triple whose lamp generator spans ``width`` sites, with seeded
    offset and inner coefficients.  With width 2, every f_m U up to the
    horizon has elements in a radius-4 ball, so the sequence does not
    stabilize within the horizon."""
    p = 2
    coeffs = [1] + [rnd.randrange(p) for _ in range(width - 2)] + [1]
    gen = LaurentPoly.from_poly(Poly(p, coeffs)).shifted(rnd.randrange(-2, 3))
    return format_triple(SubgroupTriple(0, Submodule(1, p, 1, [LaurentVector(p, [gen])])))


def certify_generic(seed, workdir):
    """p = 3 and p = 5 approach sequences and p = 2 vanishing sequences with
    s = 0: certify_convergence runs its per-witness contains_element loop."""
    rnd = random.Random(seed)
    ops = []
    first = None
    for p, (e, rk, t), radius, count in GENERIC_APPROACH:
        for _ in range(count):
            text, target = _approach_fixture(rnd, p, e, rk, t)
            ops.append(_approach_op(text, target, radius, t * e, GENERIC_HORIZON, f"p{p}_r{radius}"))
            if first is None:
                first = (_write(workdir, "generic_0.triple", text), target, t * e)
    # (radius, generator width, instances)
    for radius, width, count in ((3, 3, 4), (4, 2, 1)):
        for _ in range(count):
            ops.append(_vanish_op(_vanish_fixture(rnd, width), radius, GENERIC_HORIZON, f"p2s0_r{radius}"))
    path, target, shift_bound = first
    cli_runs = [
        ["approach", "--triple", path, "--target", "%d,%d" % target,
         "--count", str(GENERIC_HORIZON), "--ball", f"1,{shift_bound},{GENERIC_HORIZON}"],
    ]
    return _certify_workload(ops, cli_runs, pass_s=5.5)


# -- splice ------------------------------------------------------------------

SPLICE_WINDOWS = (1, 2, 3)
SPLICE_NAI = (11, 51, 201)
SPLICE_TRIALS = 8000
SAMPLER_TRIALS = 40000
MAJORITY_TRIALS = 20000


def _splice_op(texts, n_ai, width, trials, stream_seed):
    cls = f"w{width}_nai{n_ai}"

    def run(tr):
        mu1, mu2 = (
            tr.call("formats.measure_from_json", measure_from_json, json.loads(text))
            for text in texts
        )
        empirical, target, report = tr.call(
            "irs.splice_measures",
            splice_measures,
            mu1,
            mu2,
            n_ai,
            0,
            width - 1,
            trials,
            stream_seed,
            cls=cls,
        )
        payload = {
            "n_ai": n_ai,
            "tv": fraction_str(report["tv"]),
            "within_bound": report["within_bound"],
            "empirical": tr.call("formats.distribution_to_json", distribution_to_json, empirical),
            "target": tr.call("formats.distribution_to_json", distribution_to_json, target),
        }
        out = tr.call("formats.canonical_json", canonical_json, payload)
        tr.count("irs.splice_trials", trials)
        tr.count("formats.canonical_json.bytes", len(out))
        return empirical, report

    def check(output):
        empirical, report = output
        central = Fraction(comb(n_ai - 1, (n_ai - 1) // 2), 2**n_ai)
        return (
            report["within_bound"]
            and report["majority_sym_diff_exact"] == central
            and sum(empirical.atoms.values()) == 1
        )

    return Op("splice", run, check)


def _sampler_op(text, m, j, trials, stream_seed):
    def run(tr):
        mu = tr.call("formats.measure_from_json", measure_from_json, json.loads(text))
        report = tr.call("irs.sampler_law_report", sampler_law_report, mu, m, 0, j, trials, stream_seed)
        tr.count("irs.sampler_trials", trials)
        return report

    return Op("sampler", run, lambda report: report["within_tolerance"])


def _majority_op(n_ai, trials, stream_seed):
    exact = Fraction(comb(n_ai - 1, (n_ai - 1) // 2), 2**n_ai)

    def run(tr):
        return tr.call(
            "irs.majority_invariance_estimate", majority_invariance_estimate, n_ai, trials, stream_seed
        )

    # Five binomial standard deviations, compared in exact rationals.
    return Op("majority", run, lambda est: (est - exact) ** 2 <= 25 * exact * (1 - exact) / trials)


def splice(seed, workdir):
    """Majority-set splicing, the block-average sampler and the majority
    invariance estimate: Monte Carlo over irs and rng, no certification."""
    rnd = random.Random(seed)
    points = [_measure_text(rnd, False) for _ in range(2)]
    mixtures = [_measure_text(rnd, True) for _ in range(2)]
    paths = [_write(workdir, f"mu_{i}.json", text) for i, text in enumerate(points + mixtures)]
    ops = []
    for width, n_ai in product(SPLICE_WINDOWS, SPLICE_NAI):
        pair = (rnd.choice(points), rnd.choice(mixtures))
        ops.append(_splice_op(pair, n_ai, width, SPLICE_TRIALS, rnd.getrandbits(64)))
    # The sampler is the longest operation, the class op_tail_ms falls into.
    # Two per pass, so that the tail's rank falls inside the class.
    for _ in range(2):
        ops.append(_sampler_op(rnd.choice(mixtures), 4, 1, SAMPLER_TRIALS, rnd.getrandbits(64)))
    for n_ai in SPLICE_NAI:
        ops.append(_majority_op(n_ai, MAJORITY_TRIALS, rnd.getrandbits(64)))
    cli_runs = [
        ["mix", "--nai", "11,51", "--trials", "2000", "--seed", str(seed),
         "--window", "0,1", "--mu1", paths[0], "--mu2", paths[2]],
        ["irs", "--mu", paths[3], "--m", "4", "--j", "1"],
    ]
    return Workload(ops, cli_runs, pass_s=2.1)


# -- lattice -----------------------------------------------------------------

COUNT_GRID = ((2, 2, 3), (2, 1, 6), (3, 2, 2), (3, 1, 4), (5, 2, 1), (5, 1, 3))
# (n, p, b, r) of prescribed-invariant constructions
CONSTRUCT_GRID = ((1, 2, 4, 2), (2, 2, 3, 4), (1, 3, 3, 2), (2, 3, 2, 3), (1, 5, 2, 1), (2, 5, 3, 5))
# (n, p, stored period, generator count) of seeded subgroups
FORM_GRID = ((1, 2, 2, 1), (1, 3, 3, 2), (2, 2, 2, 2), (2, 3, 1, 2), (1, 2, 4, 2), (2, 2, 3, 1))
# (lamp period e, shift generator s) of conjugated triples
CONJUGATION_GRID = ((1, 2), (2, 2), (2, 4), (3, 3), (3, 6), (4, 4))
# (p, minimal period e0, rank at e0, stored period E)
INVARIANT_GRID = ((2, 1, 1, 16), (3, 1, 1, 16), (2, 2, 1, 32), (3, 3, 2, 24))
CB_GRID = ((8, 12), (10, 16), (12, 20))
IRREDUCIBLE_GRID = ((2, 40), (3, 25), (5, 40))
IRS_GRID = ((2, 1), (4, 1), (8, 2), (4, 2), (8, 1), (2, 2))
LATTICE_ROUNDS = 8


def _count_op(p, k, a):
    def run(tr):
        subs = tr.call("submodules.submodules_of_codimension", submodules_of_codimension, p, k, a)
        payload = {"p": p, "k": k, "a": a, "formula": str(count_submodules(p, k, a)), "enumerated": len(subs)}
        out = tr.call("formats.canonical_json", canonical_json, payload)
        tr.count("submodules.enumerated", len(subs))
        tr.count("formats.canonical_json.bytes", len(out))
        return subs

    def check(subs):
        expected = count_submodules(p, k, a)
        return len(subs) == expected and len({U.canonical_key() for U in subs}) == expected

    return Op("count", run, check)


def _invariants_op(rnd, p, e0, r0, period):
    U = construct_with_invariants(1, p, e0, r0).with_period(period)
    text = format_triple(SubgroupTriple(period, U, U.reduce_vector(_vector(rnd, 1, p))))

    def run(tr):
        V = tr.call("formats.parse_triple", parse_triple, text)
        report = tr.call("submodules.invariant_report", invariant_report, V.lamps, V.s)
        out = tr.call("formats.canonical_json", canonical_json, {"e": report.e, "rk": report.rank})
        tr.count("formats.canonical_json.bytes", len(out))
        return report

    return Op("invariants", run, lambda report: (report.e, report.rank) == (e0, r0))


def _construct_op(n, p, b, r):
    def run(tr):
        return tr.call("submodules.construct_with_invariants", construct_with_invariants, n, p, b, r)

    def check(U):
        report = invariant_report(U, b)
        return (report.e, report.rank) == (b, r)

    return Op("construct", run, check)


def _canonical_op(rnd, n, p, e, count):
    gens = [_nonzero_vector(rnd, n, p) for _ in range(count)]

    def run(tr):
        U = Submodule(n, p, e, gens)
        return U, tr.call("submodules.Submodule.canonical", U.canonical)

    def check(output):
        U, canon = output
        return canon.equals(U) and canon.period == U.minimal_period()

    return Op("canonical", run, check)


def _contains_op(rnd, n, p, e, count):
    gens = [_nonzero_vector(rnd, n, p) for _ in range(count)]
    extra = _nonzero_vector(rnd, n, p)

    def run(tr):
        U = Submodule(n, p, e, gens)
        W = Submodule(n, p, e, gens + [extra])
        return (
            U,
            tr.call("submodules.Submodule.contains_submodule", W.contains_submodule, U),
            tr.call("submodules.Submodule.contains_submodule", U.contains_submodule, W),
        )

    def check(output):
        U, big_has_small, small_has_big = output
        return big_has_small and small_has_big == U.contains_vector(extra)

    return Op("contains", run, check)


def _word_ball(n, p, radius):
    gens = [GroupElement(delta_site(n, p, 0, component=c), 0) for c in range(n)]
    gens.append(GroupElement(LaurentVector.zero(n, p), 1))
    gens += [g.inverse() for g in gens]
    ball = {GroupElement.identity(n, p)}
    frontier = set(ball)
    for _ in range(radius):
        frontier = {w * g for w in frontier for g in gens} - ball
        ball |= frontier
    return sorted(ball, key=lambda g: (g.shift, format_vector(g.lamps)))


def _conjugation_op(rnd, ball, e, s):
    """Conjugate a triple and test membership on a word ball, where most
    elements are not members, and on members built from the triple's marker
    and generators."""
    p = 2
    U = _submodule(rnd, 1, p, e, 1)
    V = SubgroupTriple(s, U, U.reduce_vector(_vector(rnd, 1, p)))
    text = format_triple(V)
    g = GroupElement(_vector(rnd, 1, p), rnd.randrange(-3, 4))
    members = [GroupElement(V.v, s)] + [GroupElement(gen.shifted(k * e), 0) for gen in U.gens for k in (-1, 0, 1)]
    probes = ball + members + [a * b for a in members for b in members]
    moved = [conjugate_element(g, h) for h in probes]

    def run(tr):
        V = tr.call("formats.parse_triple", parse_triple, text)
        conj = tr.call("lamplighter.SubgroupTriple.conjugated", V.conjugated, g)
        image = [tr.call("lamplighter.SubgroupTriple.contains_element", conj.contains_element, h) for h in moved]
        source = [tr.call("lamplighter.SubgroupTriple.contains_element", V.contains_element, h) for h in probes]
        return V, conj, image, source

    def check(output):
        V, conj, image, source = output
        return image == source and conj.s == V.s

    return Op("conjugation", run, check)


def _cb_op(t_max, product_max):
    def run(tr):
        poset = tr.call("cbrank.truncation", truncation, t_max, product_max)
        levels = tr.call("cbrank.cb_levels", cb_levels, poset)
        rows = [{"t": t, "r": r, "level": lvl} for (t, r), lvl in sorted(levels.items())]
        out = tr.call("formats.canonical_json", canonical_json, {"levels": rows})
        tr.count("formats.canonical_json.bytes", len(out))
        return levels

    return Op("cb", run, lambda levels: all(lvl == level_closed_form(x) for x, lvl in levels.items()))


def _mobius(m):
    result, f = 1, 2
    while f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return 0
            result = -result
        f += 1
    return -result if m > 1 else result


def _necklace(p, d):
    """Number of monic irreducibles of degree d over F_p (Gauss's formula)."""
    return sum(_mobius(d // k) * p**k for k in range(1, d + 1) if d % k == 0) // d


def _irreducibles_op(p, count):
    def run(tr):
        return tr.call("algebra.enumerate_irreducibles", enumerate_irreducibles, p, count)

    def check(found):
        degrees = [f.degree for f in found]
        complete = range(1, max(degrees))
        return (
            len(set(found)) == count
            and degrees == sorted(degrees)
            and all(f.leading() == 1 and f.constant() for f in found)
            # x is left out: it is a unit in the Laurent ring.
            and all(degrees.count(d) == _necklace(p, d) - (d == 1) for d in complete)
        )

    return Op("irreducibles", run, check)


def _gcd_op(rnd, p, irreducibles, batch=8):
    cases = []
    for _ in range(batch):
        a, b = rnd.sample(irreducibles, 2)
        coeffs = [rnd.randrange(p) for _ in range(4)] + [1 + rnd.randrange(p - 1)]
        c = Poly(p, coeffs)
        cases.append((a * c, b * c, c.monic()))

    def run(tr):
        return [tr.call("algebra.poly_gcd", poly_gcd, f, g) for f, g, _ in cases]

    return Op("gcd", run, lambda gcds: gcds == [want for _, _, want in cases])


def _irs_op(text, m, j):
    """The calls of ``lampirs irs`` at one m."""

    def run(tr):
        mu = tr.call("formats.measure_from_json", measure_from_json, json.loads(text))
        report = tr.call("irs.convergence_report", convergence_report, mu, m, j)
        marginal = tr.call("irs.block_average_marginal", block_average_marginal, mu, m, 0, j)
        payload = {
            "tv": fraction_str(report["tv"]),
            "pass": report["pass"],
            "marginal": tr.call("formats.distribution_to_json", distribution_to_json, marginal),
        }
        out = tr.call("formats.canonical_json", canonical_json, payload)
        tr.count("formats.canonical_json.bytes", len(out))
        return report, marginal

    def check(output):
        report, marginal = output
        return (
            report["pass"]
            and report["tv"] <= Fraction(2 * (j + 1), m)
            and sum(marginal.atoms.values()) == 1
        )

    return Op("irs", run, check)


def _window_op(rnd, width):
    p = 2
    gens = [_nonzero_vector(rnd, 1, p) for _ in range(2)]
    lo = rnd.randrange(-2, 1)
    hi = lo + width - 1

    def run(tr):
        U = Submodule(1, p, 1, gens)
        return U, tr.call("irs.window_of_submodule", window_of_submodule, U, lo, hi)

    def check(output):
        # Count the configurations on the window that lie in U, one by one.
        U, ws = output
        inside = 0
        for code in range(p**width):
            w = LaurentPoly.zero(p)
            for k in range(width):
                if (code >> k) & 1:
                    w = w + delta_site(1, p, lo + k).coords[0]
            inside += U.contains_vector(LaurentVector(p, [w]))
        return inside == p**ws.dim

    return Op("window", run, check)


def lattice(seed, workdir):
    """Many small exact operations on fresh objects: canonical forms built
    cold, invariants, constructions, conjugation, derivative levels, the
    polynomial layer, and exact block-average marginals."""
    rnd = random.Random(seed)
    ball = _word_ball(1, 2, 3)
    measures = [_measure_text(rnd, True) for _ in range(3)]
    paths = [_write(workdir, f"lattice_mu_{i}.json", text) for i, text in enumerate(measures)]
    ops = []
    for _ in range(LATTICE_ROUNDS):
        ops += [_count_op(*args) for args in COUNT_GRID]
        ops += [_invariants_op(rnd, *args) for args in INVARIANT_GRID]
        ops += [_construct_op(*args) for args in CONSTRUCT_GRID * 2]
        ops += [_canonical_op(rnd, *args) for args in FORM_GRID * 2]
        ops += [_contains_op(rnd, *args) for args in FORM_GRID * 2]
        ops += [_conjugation_op(rnd, ball, *args) for args in CONJUGATION_GRID]
        ops += [_cb_op(*args) for args in CB_GRID]
        ops += [_irreducibles_op(*args) for args in IRREDUCIBLE_GRID]
        ops += [_gcd_op(rnd, p, enumerate_irreducibles(p, 12)) for p in (2, 3, 5)]
        ops += [_irs_op(rnd.choice(measures), m, j) for m, j in IRS_GRID]
        ops += [_window_op(rnd, width) for width in (4, 5, 6, 6)]
    # An enumeration well above the rest in cost, twice a pass: op_tail_ms
    # falls inside its class, not on the slowest of many small operations.
    ops += [_count_op(2, 2, 5) for _ in range(2)]
    cli_runs = [
        ["count", "2", "2", "3", "--enumerate"],
        ["cb", "--tmax", "8", "--prodmax", "12"],
        ["irs", "--mu", paths[0], "--m", "4", "--j", "1"],
    ]
    return Workload(ops, cli_runs, pass_s=1.8)


WORKLOADS = {
    "certify-f2": certify_f2,
    "certify-generic": certify_generic,
    "splice": splice,
    "lattice": lattice,
}
