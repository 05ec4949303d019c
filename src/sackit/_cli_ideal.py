"""The `ideal ulrich`, `ideal powers` and `lemma42` commands, loaded when one
of them runs."""

from math import comb

from . import ideals, semigroup
from .cli import _key_values
from .errors import SackitError, TooLarge

# Most ratio checks one lemma42 sweep runs: n = cmax = 144 is 497,640 checks,
# 1.6-2.0 s on 2 vCPU (Python 3.11), and the cost grows faster than the count
MAX_RATIO_CHECKS = 500_000


def _load_ideal(gens, ideal):
    H = semigroup.NumericalSemigroup.from_generators(gens)
    return ideals.SemigroupIdeal.from_generators(H, ideal)


def ideal_ulrich(gens, ideal, q):
    I = _load_ideal(gens, ideal)
    if q is None:
        q = ideals.search_reduction(I)
        if q is None:
            raise SackitError("no stable reduction degree among the generators")
    data = ideals.is_ulrich(I, q).to_json_dict()
    return data, _key_values(data)


def ideal_powers(gens, ideal, up_to):
    I = _load_ideal(gens, ideal)
    layers = ideals.power_layer_lengths(I, up_to)
    mu = I.mu()
    colength = I.colength()
    predicted = [ideals.ulrich_rank_formula(1, mu, i) * colength for i in range(1, up_to + 1)]
    data = {
        "mu": mu,
        "colength": colength,
        "layers": list(layers),
        "predicted": predicted,
        "matches": [a == b for a, b in zip(layers, predicted)],
    }
    lines = [f"mu={mu} colength={colength}", "i    enumerated  predicted  match"]
    for i, (got, want) in enumerate(zip(layers, predicted), start=1):
        lines.append(f"{str(i).ljust(4)} {str(got).ljust(11)} {str(want).ljust(10)} "
                     f"{str(got == want).lower()}")
    return data, "\n".join(lines)


def lemma42(n_max, cmax):
    if n_max < 2:
        raise SackitError("need --n >= 2")
    # the sweep's ratio checks, the sum of (n-1)(cmax-n+1) over
    # 2 <= n <= min(N, cmax), which is the sum of j(cmax-j) over 1 <= j <= k
    k = max(min(n_max, cmax) - 1, 0)
    checks = cmax * k * (k + 1) // 2 - k * (k + 1) * (2 * k + 1) // 6
    if checks > MAX_RATIO_CHECKS:
        raise TooLarge(f"a sweep of {checks} ratio checks is above the supported "
                       f"{MAX_RATIO_CHECKS}")
    ratio_checked = 0
    ratio_failures = []
    identity_checked = 0
    identity_failures = []
    for n in range(2, min(n_max, cmax) + 1):
        for c in range(n, cmax + 1):
            # below = 1 + a_2 + ... + a_(l-1), with a_i = ulrich_rank_formula(n, c, i - 1)
            below = 1
            for ell in range(2, n + 1):
                a = ideals.ulrich_rank_formula(n, c, ell - 1)
                ratio_checked += 1
                if below >= a:
                    ratio_failures.append([n, c, ell])
                if ell >= 3:
                    identity_checked += 1
                    if below != comb(ell - 2 + n, n) + (c - n) * comb(ell - 3 + n, n):
                        identity_failures.append([n, c, ell])
                below += a
    data = {
        "n": n_max,
        "cmax": cmax,
        "ratio_checked": ratio_checked,
        "ratio_failures": ratio_failures,
        "identity_checked": identity_checked,
        "identity_failures": identity_failures,
    }
    lines = [f"ratio checks:    {ratio_checked} run, {len(ratio_failures)} failed",
             f"identity checks: {identity_checked} run, {len(identity_failures)} failed"]
    for tag, failures in (("ratio", ratio_failures), ("identity", identity_failures)):
        lines += [f"FAIL {tag}: n={n} c={c} l={ell}" for n, c, ell in failures]
    return data, "\n".join(lines)
