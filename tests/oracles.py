"""High-precision reference values shared by the test modules.

One oracle per quantity, each in mpmath on the float inputs the code sees:

* ``mp_section`` / ``mp_sturm_counts``: the exact section L D L^T of a float
  factor and its Sturm counts at ``prec`` bits;
* ``mp_basic_sum``: r_phi_s by its term recurrence at 80 digits.

The chain-sum oracle is ``jspec.verification._chain_bruteforce``, which
criterion 15 also runs.  pytest does not collect this module (its name does
not start with ``test_``).
"""

import mpmath


def mp_section(T):
    """Diagonal and off-diagonal of the exact section L D L^T built from T's
    float factor, at the working precision."""
    d = [mpmath.mpf(float(x)) for x in T.d]
    l = [mpmath.mpf(float(x)) for x in T.l]
    diag = [d[n] + (l[n - 1] ** 2 * d[n - 1] if n else 0) for n in range(T.size)]
    return diag, [l[n] * d[n] for n in range(T.size - 1)]


def mp_sturm_counts(T, xs, prec=200) -> list[int]:
    """Eigenvalues of T strictly below each shift in xs, counted in
    ``prec``-bit arithmetic on the exact section L D L^T of T's float factor.

    A zero pivot, which is not counted, is taken as a tiny positive one: the
    pivots at x minus a tiny amount, where the count is the same unless x is
    an eigenvalue of T.
    """
    counts = []
    with mpmath.workprec(prec):
        diag, off = mp_section(T)
        off_sq = [o ** 2 for o in off]
        for x in xs:
            x = mpmath.mpf(x)
            d = diag[0] - x
            count = int(d < 0)
            for b, o2 in zip(diag[1:], off_sq):
                if d == 0:
                    d = mpmath.eps * max(abs(x), 1)
                d = (b - x) - o2 / d
                count += d < 0
            counts.append(count)
    return counts


def mp_basic_sum(upper, lower, q, z):
    """r_phi_s(upper; lower; q, z) by its term recurrence at 80 digits, summed
    to a term below 1e-40 of the absolute sum where the term ratio is below
    0.95.  Returns (sum, sum of |terms|) as 80-digit mpf values."""
    with mpmath.workdps(80):
        upper, lower = [mpmath.mpf(a) for a in upper], [mpmath.mpf(b) for b in lower]
        q, z = mpmath.mpf(q), mpmath.mpf(z)
        e = 1 + len(lower) - len(upper)
        t = s = ab = qm = mpmath.mpf(1)
        for _ in range(20000):
            ratio = (-qm) ** e * z / (1 - qm * q)
            for a in upper:
                ratio *= 1 - a * qm
            for b in lower:
                ratio /= 1 - b * qm
            t *= ratio
            s += t
            ab += abs(t)
            qm *= q
            if abs(t) < mpmath.mpf(10) ** -40 * ab and abs(ratio) < 0.95:
                return s, ab
    raise AssertionError("the oracle sum did not settle")
