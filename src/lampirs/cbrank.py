"""Derivative levels of the divisor-product encoding order.

The derivative of a finite strictly ordered set removes its minimal
elements; the level of an element is the step at which it becomes
minimal.  Applied to the order on pairs (t, r) given by

    (t', r') < (t, r)   iff   t' divides t  and  t' r' < t r,

finite downward-closed truncations certify that the levels are unbounded
along the chain (2, 1), (4, 1), (8, 1), ...; each element's level matches
the closed form t*r (0 when r = 0), which is verified against levels
computed from the order rather than assumed.

Levels are computed by divisor columns: the pairs (t', r') of one t' form
a chain, so the pairs of a column below (t, r) have their largest level at
the largest such r', found by bisection.  A pair reads one level from each
column of a divisor of t.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import ConsistencyError, DomainError, ResourceBudgetError
from .lamplighter import SubgroupTriple
from .submodules import approach_sequence

# Largest truncation, in elements.  A truncation and its levels are held
# whole, and ``cb`` prints a row per element.  cb_levels bisects one column
# per divisor of t for each pair, about 1 ms on the 999-element chain
# truncation(1, 998) on a 2-core host; its slowest input under the budget is
# the 999 columns of truncation(999, 0), 30 to 60 ms, where each column is
# tested against every other for divisibility.
TRUNCATION_BUDGET = 1000


def poset_less(a, b):
    """Strict order on encoding pairs: divisibility plus product comparison.

    It is a strict order.  Irreflexive: t*r < t*r never holds.  Transitive:
    t1 | t2 and t2 | t3 give t1 | t3, and t1*r1 < t2*r2 < t3*r3 gives
    t1*r1 < t3*r3.
    """
    (t1, r1), (t2, r2) = a, b
    return t2 % t1 == 0 and t1 * r1 < t2 * r2


def truncation(t_max, product_max):
    """Downward-closed finite piece of the encoding order.

    Elements: pairs (t, r) with 1 <= t <= t_max, r >= 0 and t*r <= product_max.
    Anything below such a pair is again such a pair, so levels computed inside
    agree with levels in the infinite order.
    """
    if t_max < 1 or product_max < 0:
        raise DomainError("bad truncation bounds")
    size = 0
    for t in range(1, t_max + 1):
        # every t adds at least (t, 0), so this loop ends past the budget
        size += product_max // t + 1
        if size > TRUNCATION_BUDGET:
            raise ResourceBudgetError(
                f"truncation ({t_max}, {product_max}) with element count at least",
                size,
                TRUNCATION_BUDGET,
            )
    return tuple(
        (t, r)
        for t in range(1, t_max + 1)
        for r in range(0, product_max // t + 1)
    )


def cb_levels(elements):
    """Level of each pair under iterated removal of minimal elements of ``poset_less``.

    In a finite strict order the step that removes x is 1 + the largest
    level of a pair below x, or 0 if there is none.  Every pair below x has
    a smaller product t*r, so in one sweep in order of t*r each level is
    read from levels already known.  The pairs below (t, r) lie in the
    columns t' dividing t, those of column t' being the (t', r') with
    t'*r' < t*r.  A column is a chain, so its levels rise with r': the
    largest of them is the level of the largest r' <= (t*r - 1) // t'
    present, one bisection of the column's sorted r'.  Any finite set of
    pairs with t >= 1 is taken, downward closed or not; a t < 1 is refused.
    """
    columns = {}  # t: the sorted r of the pairs (t, r)
    for t, r in sorted(set(elements)):
        columns.setdefault(t, []).append(r)
    if any(t < 1 for t in columns):
        raise DomainError("encoding pairs need t >= 1")
    divisors = {t: [u for u in columns if t % u == 0] for t in columns}
    levels = {}
    for x in sorted(elements, key=lambda pair: pair[0] * pair[1]):
        t, r = x
        level = 0
        for u in divisors[t]:
            rs = columns[u]
            i = bisect_right(rs, (t * r - 1) // u)
            if i:
                level = max(level, levels[u, rs[i - 1]] + 1)
        levels[x] = level
    return levels


def level_closed_form(point):
    """Conjectured level t*r (0 for r = 0); must match cb_levels on truncations."""
    t, r = point
    return 0 if r == 0 else t * r


def unbounded_rank_certificate(product_max_list):
    """Levels grow without bound along the chain (2^i, 1): finite certificate.

    For each bound B, compute all levels on the truncation (t <= B, t*r <= B)
    and report the maximum level, the levels of the chain points inside, and
    whether every level matches the closed form.
    """
    bounds = list(product_max_list)
    if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
        raise DomainError("bounds must be strictly increasing")
    stages = []
    chain_levels = {}
    closed_form_ok = True
    for bound in bounds:
        elements = truncation(bound, bound)
        levels = cb_levels(elements)
        for point, lvl in levels.items():
            if lvl != level_closed_form(point):
                closed_form_ok = False
        chain = {}
        power = 2
        while power <= bound:
            chain[power] = levels[(power, 1)]
            chain_levels[power] = levels[(power, 1)]
            power *= 2
        stages.append(
            {
                "bound": bound,
                "elements": len(elements),
                "max_level": max(levels.values()),
                "chain_levels": {str(k): v for k, v in sorted(chain.items())},
            }
        )
    ordered = [chain_levels[k] for k in sorted(chain_levels)]
    strictly_increasing = all(a < b for a, b in zip(ordered, ordered[1:]))
    max_levels = [st["max_level"] for st in stages]
    return {
        "stages": stages,
        "chain_strictly_increasing": strictly_increasing,
        "max_levels_nondecreasing": all(
            a <= b for a, b in zip(max_levels, max_levels[1:])
        ),
        "closed_form_matches": closed_form_ok,
    }


def build_approach_sequence(triple, target, count):
    """Subgroups with encoding ``target`` converging to the given subgroup.

    Requires target < encoding(triple) in the divisor-product order.  With
    (t*e, U, v) the triple and b = t/t', the lamp parts come from
    :func:`approach_sequence` and the shift data is kept fixed, so every
    output has the requested encoding and the sequence converges.
    """
    t_target, r_target = target
    if t_target < 1:
        raise DomainError(f"target t must be >= 1, got {t_target}")
    source = triple.poset_encoding()
    if not poset_less(target, source):
        raise DomainError(
            f"target {target} is not strictly below the encoding {source}"
        )
    b = source[0] // t_target
    lamp_parts = approach_sequence(triple.lamps, b, r_target, count)
    return [SubgroupTriple(triple.s, U_m, triple.v) for U_m in lamp_parts]


def classify_limit(sequence, limit):
    """Group a convergent sequence by encoding and check the limit constraints.

    Every group (t', r') must satisfy t' | t and t'r' <= t*r for the limit's
    encoding (t, r), with strict inequality unless the group's tail
    stabilizes to the limit subgroup.  A violation raises ConsistencyError.
    Equal subgroups have equal encodings, so a group's tail is compared
    with the limit only when the group has the limit's encoding; an
    approach term, which records its encoding, then needs no form.
    """
    t, r = limit.poset_encoding()
    order = []
    groups = {}
    for idx, triple in enumerate(sequence):
        enc = triple.poset_encoding()
        if enc not in groups:
            groups[enc] = []
            order.append(enc)
        groups[enc].append(idx)
    report = []
    for enc in order:
        t_g, r_g = enc
        indices = groups[enc]
        # The group stabilizes when its last term is a copy of the limit.
        stabilizes = enc == (t, r) and sequence[indices[-1]].same_subgroup(limit)
        divisibility_ok = t % t_g == 0
        product = t_g * r_g
        bound_ok = product <= t * r
        strict = product < t * r
        if not divisibility_ok or not bound_ok:
            raise ConsistencyError(
                f"subsequence with encoding {enc} violates the limit "
                f"constraints against {(t, r)}"
            )
        if not stabilizes and not strict:
            raise ConsistencyError(
                f"non-stabilizing subsequence with encoding {enc} must have "
                f"t'r' strictly below t*r = {t * r}"
            )
        report.append(
            {
                "t": t_g,
                "r": r_g,
                "size": len(indices),
                "divides": divisibility_ok,
                "product_bound_ok": bound_ok,
                "strict": strict,
                "stabilizes": stabilizes,
            }
        )
    return {"limit_encoding": {"t": t, "r": r}, "groups": report}
