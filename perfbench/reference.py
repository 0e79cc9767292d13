"""The benchmark's own counting code, for spot checks; imports nothing from qgordon.

* `membership_count`: brute force over every partition (or overpartition)
  of n, keeping those that meet the multiplicity-side conditions;
* `product_coefficients`: the congruence side as a product,
  prod 1/(1 - q^v) over the allowed part values v (times the distinct-part
  product for overlined parts), expanded one factor at a time.  For s = 0
  this is the Gordon / Bressoud / Lovejoy product that the x = 1
  specialization of the constructed series and the multiplicity-side count
  must both equal.
"""

from __future__ import annotations

from oracle import REGULAR


def _partitions(n: int, smallest: int = 1):
    """Every partition of n as a {part: multiplicity} dict."""
    if n == 0:
        yield {}
        return
    for v in range(smallest, n + 1):
        for rest in _partitions(n - v, v):
            out = dict(rest)
            out[v] = out.get(v, 0) + 1
            yield out


def _overpartitions(n: int):
    """Every overpartition of n as ({part: plain multiplicity}, {overlined parts})."""
    for plain_weight in range(n + 1):
        for plain in _partitions(plain_weight):
            for lined in _distinct_partitions(n - plain_weight):
                yield plain, lined


def _distinct_partitions(n: int, smallest: int = 1):
    if n == 0:
        yield frozenset()
        return
    for v in range(smallest, n + 1):
        for rest in _distinct_partitions(n - v, v + 1):
            yield rest | {v}


def admissible(k, a, d, s, plain: dict, lined, over: bool) -> bool:
    """Multiplicity-side conditions, with f_i plain and fbar_i overlined counts.

    (i) f_1 < a; (ii) f_i + fbar_i + f_(i+1) < k for every i; (iii) when that
    window equals k - delta with 1 <= delta <= d - 1, the residue
    (a + s - 1 - f_odd - rho(i)) mod d is below delta, where f_odd is
    f_i + fbar_i for odd i and f_(i+1) for even i, and
    rho(i) = sum over j <= i of (-1)^j fbar_j.
    """
    if plain.get(1, 0) >= a:
        return False
    top = max(list(plain) + list(lined) + [0])
    rho = 0
    for i in range(1, top + 1):
        fbar = 1 if i in lined else 0
        rho += fbar if i % 2 == 0 else -fbar
        here = plain.get(i, 0) + fbar
        window = here + plain.get(i + 1, 0)
        if window >= k:
            return False
        delta = k - window
        if 1 <= delta <= d - 1:
            f_odd = here if i % 2 else plain.get(i + 1, 0)
            if (a + s - 1 - f_odd - (rho if over else 0)) % d >= delta:
                return False
    return True


def membership_count(k, a, d, s, flavor, n) -> int:
    """Number of (over)partitions of n meeting the conditions, by brute force."""
    if flavor == REGULAR:
        return sum(1 for p in _partitions(n) if admissible(k, a, d, s, p, (), False))
    return sum(1 for p, lined in _overpartitions(n) if admissible(k, a, d, s, p, lined, True))


def _times_geometric(coeffs: list, v: int) -> None:
    # multiply by 1/(1 - q^v) in place
    for t in range(v, len(coeffs)):
        coeffs[t] += coeffs[t - v]


def _times_binomial(coeffs: list, v: int) -> None:
    # multiply by (1 + q^v) in place
    for t in range(len(coeffs) - 1, v - 1, -1):
        coeffs[t] += coeffs[t - v]


def product_coefficients(k, a, d, flavor, n_max) -> list:
    """Coefficients of q^0..q^n_max of the congruence-side product at s = 0.

    Regular flavor, M = 2k+2-d: prod over v not congruent to 0, +-a mod M of
    1/(1 - q^v); needs 2a != M (that counter is product-defined).
    Over flavor, M = 2k+1-d: the same over the non-overlined parts, times
    prod over all v of (1 + q^v); when 2a = M, both products run instead over
    the v that are not multiples of k + (1-d)/2.
    """
    if flavor == REGULAR:
        modulus = 2 * k + 2 - d
        if 2 * a == modulus:
            raise ValueError("the 2a = M counter has no product of this shape")
    else:
        modulus = 2 * k + 1 - d
    coeffs = [1] + [0] * n_max
    if flavor != REGULAR and 2 * a == modulus:
        kappa = k + (1 - d) // 2
        allowed = [v for v in range(1, n_max + 1) if v % kappa]
        for v in allowed:
            _times_geometric(coeffs, v)
            _times_binomial(coeffs, v)
        return coeffs
    bad = {0, a % modulus, (-a) % modulus}
    for v in range(1, n_max + 1):
        if v % modulus not in bad:
            _times_geometric(coeffs, v)
        if flavor != REGULAR:
            _times_binomial(coeffs, v)
    return coeffs
