"""Brute-force reference statistics.

Deliberately independent of the analytics module: every number comes from a
fresh loop over the profile list at query time, with no shared accumulation,
so these can confirm or refute the production implementations.
``realisation`` and ``class_takes`` do the same for the generator's solver.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product


def strategy_count(profiles, strategy_id):
    return sum(1 for p in profiles if strategy_id in p)


def cooc_count(profiles, a, b):
    return sum(1 for p in profiles if a in p and b in p)


def exact_count(profiles, pattern):
    wanted = frozenset(pattern)
    return sum(1 for p in profiles if frozenset(p) == wanted)


def containment_count(profiles, pattern):
    wanted = frozenset(pattern)
    return sum(1 for p in profiles if wanted <= frozenset(p))


def size_counts(profiles):
    out = {}
    for p in profiles:
        out[len(p)] = out.get(len(p), 0) + 1
    return out


def conditional(profiles, a, b):
    return Fraction(cooc_count(profiles, a, b), strategy_count(profiles, a))


def distinct_patterns(profiles):
    return {frozenset(p) for p in profiles}


def realisation(marginals, sizes, pinned=()):
    """Some list of strategy sets with sizes[k] sets of size k, each strategy
    in exactly marginals[s] of them and each pinned pattern at least its
    minimum number of times; None if there is none.

    Exhaustive over multisets of sets drawn from the strategies with a
    positive marginal, so only for small specs.
    """
    pinned = dict(pinned)
    active = sorted(s for s, m in marginals.items() if m > 0)
    per_size = [
        combinations_with_replacement([frozenset(p) for p in combinations(active, k)], c)
        for k, c in sorted(sizes.items())
    ]
    for choice in product(*per_size):
        sets = [p for group in choice for p in group]
        if all(strategy_count(sets, s) == m for s, m in marginals.items()) and all(
            exact_count(sets, p) >= m for p, m in pinned.items()
        ):
            return sets
    return None


def class_takes(residual, k, c, order):
    """``generate._class_takes`` as it was first written: the level found by
    bisecting on the total taken, one probe per halving of [min(residual) - c,
    max(residual)].
    """
    def taken(level: int) -> int:
        return sum(min(max(r - level, 0), c) for r in residual)

    need = k * c
    low, high = min(residual) - c, max(residual)  # taken(low) = n*c >= need > 0 = taken(high)
    while high - low > 1:
        mid = (low + high) // 2
        if taken(mid) >= need:
            low = mid
        else:
            high = mid
    takes = [min(max(r - low - 1, 0), c) for r in residual]
    extra = need - sum(takes)
    for j in order:
        if extra and residual[j] - c <= low < residual[j]:
            takes[j] += 1
            extra -= 1
    return takes
