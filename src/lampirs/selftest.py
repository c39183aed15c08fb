"""Acceptance suite: every verification criterion as a seeded, exact check.

``run_criteria(seed)`` executes the eleven computational criteria and
returns a JSON-serializable report plus wall-clock timings.  The report
contains only integers, strings, booleans and "num/den" rationals, so two
runs with the same seed serialize to identical bytes; timings are kept
out of the report for exactly that reason.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .algebra import LaurentPoly, Poly
from .cbrank import (
    build_approach_sequence,
    cb_levels,
    classify_limit,
    level_closed_form,
    truncation,
)
from .errors import ConsistencyError
from .formats import fraction_str
from .irs import (
    SubgroupMeasure,
    _leq_with_sqrt_tolerance,
    block_average_marginal,
    block_shift_term_marginal,
    convergence_report,
    majority_invariance_estimate,
    majority_symmetric_difference,
    sampler_law_report,
    splice_measures,
)
from .lamplighter import (
    GroupElement,
    SubgroupTriple,
    certify_convergence,
    conjugate_element,
    delta_site,
)
from .rng import SplitMix64, derive_seed
from .submodules import (
    LaurentVector,
    Submodule,
    construct_with_invariants,
    count_submodules,
    invariant_report,
    submodules_of_codimension,
)

DEFAULT_SEED = 7


# -- seeded generators -------------------------------------------------------


def random_laurent_poly(rng, p, lo=-2, hi=2):
    return LaurentPoly(p, lo, Poly(p, [rng.below(p) for _ in range(lo, hi + 1)]))


def random_vector(rng, n, p, lo=-2, hi=2):
    return LaurentVector(p, (random_laurent_poly(rng, p, lo, hi) for _ in range(n)))


def random_submodule(rng, n, p, e):
    count = 1 + rng.below(2)
    gens = [random_vector(rng, n, p) for _ in range(count)]
    return Submodule(n, p, e, gens)


# -- criteria ----------------------------------------------------------------


def criterion_counting(seed):
    """Enumeration equals the closed-form count, distinct and right codimension."""
    grid = (
        [(2, 1, a) for a in range(0, 5)]
        + [(2, 2, a) for a in range(0, 4)]
        + [(3, 1, a) for a in range(0, 4)]
        + [(3, 2, a) for a in range(0, 3)]
    )
    cases = []
    ok = True
    for p, k, a in grid:
        subs = submodules_of_codimension(p, k, a)
        formula = count_submodules(p, k, a)
        keys = {U.canonical_key() for U in subs}
        codims_ok = True
        for U in subs:
            form = U.form(1)
            degsum = sum(
                max(q for (j, q), _ in row if j == c) for row, c in zip(form.rows, form.pivots)
            )
            if form.rank != k or degsum != a:
                codims_ok = False
        match = len(subs) == formula and len(keys) == formula and codims_ok
        ok = ok and match
        cases.append(
            {
                "p": p,
                "k": k,
                "a": a,
                "enumerated": len(subs),
                "formula": str(formula),
                "distinct": len(keys),
                "codimension_verified": codims_ok,
                "match": match,
            }
        )
    return ok, {"cases": cases}


def criterion_full_module_rank(seed):
    """Rescaled rank of the full module is n*m."""
    cases = []
    ok = True
    for n in range(1, 4):
        for m in range(1, 5):
            got = Submodule.full(n, 2).rescaled_rank(m)
            good = got == n * m
            ok = ok and good
            cases.append({"n": n, "m": m, "rank": got, "expected": n * m})
    return ok, {"cases": cases}


def criterion_rank_multiplicativity(seed):
    """rk under x^(b*e) equals b times rk under x^e, on seeded subgroups."""
    rng = SplitMix64(derive_seed(seed, 3))
    checked = 0
    ok = True
    samples = []
    while checked < 100:
        n = 1 + rng.below(2)
        p = (2, 3)[rng.below(2)]
        e = 1 + rng.below(4)
        b = 1 + rng.below(3)
        U = random_submodule(rng, n, p, e)
        lhs = U.rescaled_rank(b * e)
        rhs = b * U.rescaled_rank(e)
        good = lhs == rhs
        ok = ok and good
        if checked < 5:
            samples.append(
                {"n": n, "p": p, "e": e, "b": b, "rk_be": lhs, "b_rk_e": rhs}
            )
        checked += 1
    return ok, {"checked": checked, "samples": samples}


def criterion_constructions(seed):
    """Prescribed (period, rank) constructions verify through the invariants."""
    cases = []
    ok = True
    for n in (1, 2):
        for b in range(1, 5):
            for r in range(1, n * b + 1):
                U = construct_with_invariants(n, 2, b, r)
                rep = invariant_report(U, b)
                good = rep.e == b and rep.rank == r
                ok = ok and good
                cases.append(
                    {"n": n, "b": b, "r": r, "e": rep.e, "rank": rep.rank, "ok": good}
                )
    return ok, {"cases": cases}


def criterion_poset_levels(seed):
    """Derivative levels on the truncation match t*r; chain levels 2, 4, 8."""
    elements = truncation(8, 12)
    levels = cb_levels(elements)
    mismatches = [
        {"t": t, "r": r, "level": lvl, "closed_form": level_closed_form((t, r))}
        for (t, r), lvl in sorted(levels.items())
        if lvl != level_closed_form((t, r))
    ]
    chain = [levels[(2**i, 1)] for i in range(1, 4)]
    ok = not mismatches and chain == [2, 4, 8]
    return ok, {
        "elements": len(elements),
        "mismatches": mismatches,
        "chain_levels": chain,
    }


def criterion_approach_pipeline(seed):
    """Seeded approach sequences: exact encoding, convergence, classification."""
    rng = SplitMix64(derive_seed(seed, 6))
    instances = []
    ok = True
    # Lamp periods e >= 2 so the scaled irreducibles outgrow the witness ball
    # inside the horizon, and t <= 2 so the marker powers' lamp support stays
    # short; the (e, rk, t) shapes are fixed for coverage of encodings, the
    # companion v and the target are seeded.
    shapes = [
        (2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 2, 1), (3, 1, 2),
        (3, 2, 2), (2, 1, 2), (3, 1, 2), (2, 1, 1), (3, 2, 2),
    ]
    for e, rk, t in shapes:
        U = construct_with_invariants(1, 2, e, rk)
        s = t * e
        v = U.reduce_vector(random_vector(rng, 1, 2))
        V = SubgroupTriple(s, U, v)
        t_v, r_v = V.poset_encoding()
        candidates = [
            (tp, rp)
            for tp in range(1, t_v + 1)
            if t_v % tp == 0
            for rp in range(0, (t_v * r_v - 1) // tp + 1)
            if tp * rp < t_v * r_v
        ]
        target = candidates[rng.below(len(candidates))]
        seq = build_approach_sequence(V, target, 25)
        encodings_ok = all(W.poset_encoding() == target for W in seq)
        cert = certify_convergence(lambda m: seq[m - 1], V, 4, 2 * s, 25)
        try:
            classification = classify_limit(seq, V)
            groups = classification["groups"]
            classify_ok = (
                len(groups) == 1
                and groups[0]["strict"]
                and groups[0]["divides"]
                and not groups[0]["stabilizes"]
            )
        except ConsistencyError:
            classify_ok = False
        good = encodings_ok and cert.stabilized and classify_ok
        ok = ok and good
        instances.append(
            {
                "s": s,
                "e": e,
                "rk": rk,
                "encoding": [t_v, r_v],
                "target": list(target),
                "encodings_exact": encodings_ok,
                "stabilization_index": cert.index,
                "witnesses": cert.witnesses_checked,
                "classified_strict": classify_ok,
            }
        )
    return ok, {"instances": instances}


def _word_ball(n, p, radius):
    gens = [GroupElement(delta_site(n, p, 0, component=c), 0) for c in range(n)]
    gens += [GroupElement(LaurentVector.zero(n, p), 1)]
    gens += [g.inverse() for g in gens]
    ball = {GroupElement.identity(n, p)}
    frontier = set(ball)
    for _ in range(radius):
        frontier = {w * g for w in frontier for g in gens} - ball
        ball |= frontier
    return sorted(ball, key=lambda g: (g.shift, tuple(str(c) for c in g.lamps.coords)))


def criterion_conjugation(seed):
    """Encoding and shift projection are conjugation-invariant; the closed form
    agrees with elementwise conjugation on a word ball."""
    rng = SplitMix64(derive_seed(seed, 7))
    ball = _word_ball(1, 2, 3)
    checked = 0
    ok = True
    ball_checks = 0
    while checked < 200:
        e = 1 + rng.below(2)
        t = 1 + rng.below(3)
        s = t * e
        U = random_submodule(rng, 1, 2, e)
        V = SubgroupTriple(s, U, U.reduce_vector(random_vector(rng, 1, 2)))
        g = GroupElement(random_vector(rng, 1, 2), rng.below(7) - 3)
        conj = V.conjugated(g)
        inv_ok = (
            conj.s == V.s and conj.poset_encoding() == V.poset_encoding()
        )
        for h in ball:
            if conj.contains_element(conjugate_element(g, h)) != V.contains_element(h):
                inv_ok = False
            ball_checks += 1
        ok = ok and inv_ok
        checked += 1
    return ok, {"checked": checked, "ball_membership_checks": ball_checks}


def _measure_grid(seed):
    p, n = 2, 1
    full = Submodule.full(n, p)
    zero = Submodule.zero(n, p)
    rng = SplitMix64(derive_seed(seed, 8))
    weights = [1 + rng.below(4) for _ in range(3)]
    total = sum(weights)
    shifted_line = Submodule(n, p, 1, [LaurentVector(p, (LaurentPoly(p, 0, Poly(p, (1, 1))),))])
    three_atom = SubgroupMeasure.mixture(
        [
            (Fraction(weights[0], total), full),
            (Fraction(weights[1], total), shifted_line),
            (Fraction(weights[2], total), zero),
        ]
    )
    return [
        ("point_full", SubgroupMeasure.point(full)),
        ("point_zero", SubgroupMeasure.point(zero)),
        (
            "even_mixture",
            SubgroupMeasure.mixture([(Fraction(1, 2), full), (Fraction(1, 2), zero)]),
        ),
        ("seeded_three_atom", three_atom),
    ]


def criterion_stationarity(seed):
    """mu_m marginals are shift-equal and single-block terms reproduce mu."""
    grid = _measure_grid(seed)
    ok = True
    details = []
    for name, mu in grid:
        stationary = True
        local = True
        for m in range(1, 7):
            for j in range(0, 3):
                base = block_average_marginal(mu, m, 0, j)
                for a in range(1, m + 1):
                    if block_average_marginal(mu, m, a, a + j).transported(0) != base:
                        stationary = False
                target = mu.marginal(0, j)
                for k in range(m):
                    if j + k < m:
                        if block_shift_term_marginal(mu, m, k, 0, j) != target:
                            local = False
        ok = ok and stationary and local
        details.append({"measure": name, "stationary": stationary, "block_local": local})
    return ok, {"measures": details}


def criterion_tv_bound(seed):
    """Exact distances obey the conservative bound and decrease in m."""
    grid = _measure_grid(seed)
    fixed_points = {"point_full", "point_zero"}
    ok = True
    rows = []
    for name, mu in grid:
        for j in range(0, 3):
            tvs = {}
            for m in (2, 4, 8):
                report = convergence_report(mu, m, j)
                ok = ok and report["pass"]
                tvs[m] = report["tv"]
                rows.append(
                    {
                        "measure": name,
                        "j": j,
                        "m": m,
                        "tv": fraction_str(report["tv"]),
                        "conservative_bound": fraction_str(report["conservative_bound"]),
                        "bound_ok": report["pass"],
                        "literal_bound_held": report["literal_bound_held"],
                    }
                )
            if not (tvs[2] >= tvs[4] >= tvs[8]):
                ok = False
            if name not in fixed_points and j >= 1 and not tvs[8] < tvs[2]:
                ok = False
            if name in fixed_points and any(tvs[m] != 0 for m in (2, 4, 8)):
                ok = False
    return ok, {"rows": rows}


def criterion_sampler_law(seed):
    """Seeded sampler frequencies match the exact marginal within 0.02."""
    grid = dict(_measure_grid(seed))
    mu = grid["even_mixture"]
    rep = sampler_law_report(mu, 4, 0, 1, 10**5, derive_seed(seed, 10))
    tv = rep["tv"]
    ok = tv <= Fraction(2, 100) and rep["within_tolerance"]
    return ok, {
        "trials": rep["trials"],
        "tv": fraction_str(tv),
        "limit": "1/50",
        "within_statistical_tolerance": rep["within_tolerance"],
        "support": rep["support"],
    }


def criterion_splice(seed):
    """Spliced measures approach the even mixture as the majority window grows.

    The window is the two cells [0, 1]: on one cell every trial takes the
    whole window from one side, so the spliced marginal equals the mixture
    for every n_ai and there is no trend to measure.  For these two point
    masses each trial's spliced atom is full, zero, or one of the two
    single-site atoms; the last two occur exactly when the majority sets of
    cells 0 and 1 disagree, with probability
    majority_symmetric_difference(n_ai), split evenly between them by the
    coin-flip symmetry.  So the exact L1 distance to the mixture is
    2 * majority_symmetric_difference(n_ai), and the empirical distances
    must decrease strictly in n_ai and lie within the Monte Carlo
    tolerance of it.
    """
    p, n = 2, 1
    lo, hi = 0, 1
    mu1 = SubgroupMeasure.point(Submodule.full(n, p))
    mu2 = SubgroupMeasure.point(Submodule.zero(n, p))
    rows = []
    tvs = []
    invariance = []
    ok = True
    for n_ai in (11, 51, 201, 401):
        empirical, target, rep = splice_measures(
            mu1, mu2, n_ai, lo, hi, 10**5, derive_seed(seed, 11, n_ai)
        )
        est = majority_invariance_estimate(
            n_ai, 10**5, derive_seed(seed, 1101, n_ai)
        )
        sym_diff = majority_symmetric_difference(n_ai)
        tv_exact = 2 * sym_diff
        within_exact = _leq_with_sqrt_tolerance(
            abs(rep["tv"] - tv_exact), Fraction(0), rep["mc_tolerance_sq"]
        )
        tvs.append(rep["tv"])
        invariance.append(est)
        rows.append(
            {
                "n_ai": n_ai,
                "tv": fraction_str(rep["tv"]),
                "tv_exact": fraction_str(tv_exact),
                "within_exact_tolerance": within_exact,
                "lambda_all_first": fraction_str(rep["lambda_all_first"]),
                "boundary_defect_bound": fraction_str(rep["boundary_defect_bound"]),
                "within_bound": rep["within_bound"],
                "invariance_estimate": fraction_str(est),
                "invariance_exact": fraction_str(sym_diff),
            }
        )
        ok = ok and rep["within_bound"] and within_exact
    decreasing_tv = all(a > b for a, b in zip(tvs, tvs[1:]))
    final_small = tvs[-1] <= Fraction(5, 100)
    invariance_decreasing = all(a > b for a, b in zip(invariance, invariance[1:]))
    ok = ok and decreasing_tv and final_small and invariance_decreasing
    return ok, {
        "window": [lo, hi],
        "rows": rows,
        "tv_nonincreasing": decreasing_tv,
        "tv_final_small": final_small,
        "invariance_decreasing": invariance_decreasing,
    }


CRITERIA = [
    (1, "submodule_counting", criterion_counting),
    (2, "full_module_rank", criterion_full_module_rank),
    (3, "rank_multiplicativity", criterion_rank_multiplicativity),
    (4, "prescribed_constructions", criterion_constructions),
    (5, "poset_levels", criterion_poset_levels),
    (6, "approach_pipeline", criterion_approach_pipeline),
    (7, "conjugation_invariance", criterion_conjugation),
    (8, "stationarity_block_locality", criterion_stationarity),
    (9, "tv_bound", criterion_tv_bound),
    (10, "sampler_law", criterion_sampler_law),
    (11, "splice_mixing", criterion_splice),
]


def run_criteria(seed=DEFAULT_SEED):
    """Run criteria 1-11; returns (report, timings).  Timings stay out of
    the report so that equal seeds give byte-identical serializations."""
    results = []
    timings = {}
    all_passed = True
    for num, name, fn in CRITERIA:
        started = time.perf_counter()
        passed, details = fn(seed)
        timings[name] = time.perf_counter() - started
        all_passed = all_passed and passed
        results.append(
            {"criterion": num, "name": name, "passed": passed, "details": details}
        )
    report = {
        "schema": "lampirs.selftest.v1",
        "seed": seed,
        "criteria": results,
        "all_passed": all_passed,
    }
    return report, timings
