"""The verify suites: each sets one route to a statement of the paper
against the other at one parameter point.

`SUITES` declares each suite once. Its runner is called as
runner(run_census, budget_bits, <its flags>), where run_census(kind,
params, label=None) runs a rank census with the command's --threads,
--budget-bits and --checkpoint (plus .label, or .kind), and returns
(computed, expected), two JSON-ready dicts that are equal when the
statement holds there. Five suites (thm3.1, thm3.3, thm3.8, thm3.9 and
landsberg) set one census against one closed table, and share
`_census_against_table` for it. Only `persym verify` loads this module,
and each runner imports the modules it calls in its own body.
"""

from collections import Counter

from .exceptions import bigint_bits, check_budget


def _over_power_of_two(n, e):
    """n / 2^e as a report prints it: an int when exact, else "m/2^e" in
    lowest terms."""
    shift = min(e, (n & -n).bit_length() - 1) if n else e
    n, e = n >> shift, e - shift
    return n if e == 0 else "%d/2^%d" % (n, e)


def _census_against_table(run_census, shape, table):
    """run_census(*shape), then table(formulas), the closed table it should
    equal, both as the CLI prints them. The census runs first, so its
    budget refuses a shape before any of the table is built."""
    from . import census, formulas

    got = run_census(*shape)
    return census._table_text(got), census._table_text(table(formulas))


def verify_window_census(run_census, budget_bits, s, k):
    """Window rank census against the closed product form."""
    return _census_against_table(run_census, ("gamma", (s, k)),
                                 lambda f: f.gamma_table(s, k))


def verify_profile_census(run_census, budget_bits, s, k):
    """Rank profile census of the four nested windows against the closed table."""
    if not 1 <= s <= k:
        raise ValueError("requires 1 <= s <= k, got s=%d k=%d" % (s, k))
    return _census_against_table(run_census, ("quad", (1, s, k)),
                                 lambda f: f.quad_table(s, k))


def _even_moment(s, k, g_tally, quads, q):
    """Integral of g^{2q} over the window grid, and the weighted (j,j,j,j)
    sum, each an integer over a power of two."""
    lhs = sum(count * value ** (2 * q) for value, count in g_tally.items())
    rhs = sum(quads[(j, j, j, j)] << 2 * q * (s - 1 - j) for j in range(s))
    return (_over_power_of_two(lhs, k + s - 1),
            _over_power_of_two(rhs << (s + k - 2) * (2 * q - 1), 2 * q * (s - 1)))


def verify_even_moments(run_census, budget_bits, s, k, q):
    """Even power sums of g against the weighted diagonal profile counts.

    Also counts the grid points where g^2 = g1 * g2 (boundary factorisation).
    g, g1 and g2 are the direct sums over the whole grid, so the power sums
    set the exponential sum itself against the census."""
    from . import expsum

    if q < 1:
        raise ValueError("--q must be at least 1, got %d" % q)
    # 2q values of up to 2q(k+s) bits are printed
    check_budget(bigint_bits(2 * q, 2 * q * (k + s)), budget_bits, "verify thm3.5 q=%d" % q)
    expsum._g_depth(s, k)  # g's refusals, then the census's, before any grid sum
    quads = run_census("quad", (1, s, k))
    g = expsum.g_vector(s, k)
    g1, g2 = expsum.g_boundary_vectors(s, k)
    factored = sum(a * a == b * c for a, b, c in zip(g, g1, g2))
    gs = Counter(g)
    computed, expected = {"g^2 factors": factored}, {"g^2 factors": 1 << (k + s - 1)}
    for i in range(1, q + 1):
        computed["q=%d" % i], expected["q=%d" % i] = _even_moment(s, k, gs, quads, i)
    return computed, expected


def verify_one_extra_row(run_census, budget_bits, m, k):
    """Census with one appended row against the printed case tables."""
    return _census_against_table(run_census, ("stacked", (1, m, k)),
                                 lambda f: f.stacked1_gamma_table(m, k))


def verify_stacked_census(run_census, budget_bits, n, m, k):
    """Census with n appended rows against the coefficient expansion."""
    return _census_against_table(run_census, ("stacked", (n, m, k)),
                                 lambda f: f.stacked_gamma_table(n, m, k))


def verify_coefficient_rows(run_census, budget_bits, n):
    """Coefficient recurrence against the closed alternating sum and stored rows.

    The closed side grows about as N^5, so N is charged as a
    2^bit_length(N^4) point domain before any of it runs (28 bits: N <= 127).
    """
    from . import formulas

    if n < 1:
        raise ValueError("--n must be at least 1, got %d" % n)
    check_budget((n ** 4).bit_length(), budget_bits, "verify cor3.10 n=%d" % n)
    computed, expected = {}, {}
    for row, rec in enumerate(formulas.a_coeff_rows(n)):
        if row == 0:
            continue  # no free row: nothing to compare
        computed["closed n=%d" % row] = [
            formulas.a_coeff_closed(row, j) for j in range(row + 1)
        ]
        expected["closed n=%d" % row] = rec
        if row <= 5:
            computed["table n=%d" % row] = list(formulas.a_coeff_table(row))
            expected["table n=%d" % row] = rec
    return computed, expected


def verify_multi_count(run_census, budget_bits, q, n, k, m):
    """Brute-force representation count against the stacked-census formula.

    With n = 0 and m <= k - 1 the paper's piecewise form is checked too.
    """
    from . import census, formulas

    computed = {"R": census.repcount_bruteforce(q, n, k, m, budget_bits=budget_bits)}
    expected = {"R": census.repcount_multi_formula(q, n, k, m, budget_bits=budget_bits)}
    if n == 0 and m <= k - 1:
        computed["R piecewise"] = formulas.repcount_piecewise(q, k, m)
        expected["R piecewise"] = expected["R"]
    return computed, expected


def verify_unstructured(run_census, budget_bits, rows, k):
    """Rank census over all matrices of a shape against the classical product.

    A rows x k matrix is one k-bit row with rows - 1 free rows below it.
    """
    if rows < 1:
        raise ValueError("--rows must be at least 1, got %d" % rows)
    return _census_against_table(run_census, ("stacked", (rows - 1, 0, k), "landsberg"),
                                 lambda f: f.landsberg_table(rows, k))


def verify_partition_suite(run_census, budget_bits, s, k):
    """Deletion and parity identities tying the window censuses together."""
    from . import expsum

    if not 2 <= s <= k:  # the deletion identities are stated for s <= k
        raise ValueError("the partition suite needs 2 <= s <= k, got s=%d k=%d" % (s, k))
    expsum._g_depth(s, k)  # g's refusals, then the census's, before any grid sum
    quads = run_census("quad", (1, s, k))
    gs = Counter(expsum.g_vector(s, k))
    computed, expected = {}, {}
    for q in (0, 1, 2):
        power = 2 * q + 1
        total = sum(count * value**power for value, count in gs.items())
        computed["odd power %d" % power] = total
        expected["odd power %d" % power] = 0
    for j in range(s):
        computed["pair j=%d" % j] = quads[(j, j, j, j)]
        expected["pair j=%d" % j] = quads[(j, j, j, j + 1)]
    for j in range(s - 1):
        computed["skew j=%d" % j] = (
            quads[(j, j + 1, j + 1, j + 1)]
            + quads[(j, j + 1, j, j + 1)]
            + quads[(j, j, j + 1, j + 1)]
        )
        expected["skew j=%d" % j] = 0
    narrow = run_census("gamma", (s, k - 1), "narrow")
    short = run_census("gamma", (s - 1, k), "short")
    for i in range(s - 1):
        computed["shrink i=%d" % i] = narrow[i]
        expected["shrink i=%d" % i] = short[i]
        computed["delete i=%d" % i] = 2 * narrow[i]
        expected["delete i=%d" % i] = (
            2 * quads[(i, i, i, i)] + quads[(i - 1, i, i, i + 1)]
        )
    for q in (1, 2):
        key = "even power q=%d" % q
        computed[key], expected[key] = _even_moment(s, k, gs, quads, q)
    return computed, expected


def verify_row_split(run_census, budget_bits, m, k):
    """Split of the one-extra-row census by whether the row stays in span."""
    from . import census, formulas

    tally = run_census("sigma", (m, k))
    merged = Counter()
    for (_, i), count in tally.items():
        merged[i] += count
    computed = census._table_text(tally)
    computed.update(("sum,%d" % i, count) for i, count in sorted(merged.items()))
    # expected keys come from the formulas alone, so a rank the census lost shows
    ranks = range(min(k, m + 2) + 1)
    gamma = formulas.gamma_table(1 + m, k)
    sums = formulas.stacked_gamma_table(1, m, k)
    expected = {"same,%d" % i: (1 << i) * gamma.get(i, 0) for i in ranks}
    expected.update(("up,%d" % i, ((1 << k) - (1 << (i - 1))) * gamma.get(i - 1, 0))
                    for i in ranks[1:])
    expected.update(("sum,%d" % i, sums.get(i, 0)) for i in ranks)
    return computed, {key: count for key, count in expected.items() if count}


# suite: (its runner, its flags' defaults in call order, help for the flags
# whose help says more than their default)
SUITES = {
    "thm3.1": (verify_window_census, {"s": 3, "k": 4}, {}),
    "thm3.3": (verify_profile_census, {"s": 2, "k": 3}, {}),
    "thm3.5": (verify_even_moments, {"s": 2, "k": 2, "q": 2}, {
        "q": "powers g^2 .. g^2q; the report prints 2q values of up to 2q(k+s) bits, and "
        "printing W 64-bit words takes about W^2 steps, so q is refused when the bit length "
        "of 2q W^2, W = q(k+s)//32 + 1, is over --budget-bits (default: %(default)s)"}),
    "thm3.8": (verify_one_extra_row, {"m": 1, "k": 3}, {}),
    "thm3.9": (verify_stacked_census, {"n": 1, "m": 2, "k": 3}, {}),
    "cor3.10": (verify_coefficient_rows, {"n": 5}, {
        "n": "rows 1..N of the coefficient triangle; the closed side grows about as N^5, so "
        "N is refused when the bit length of N^4 is over --budget-bits (default: %(default)s)"}),
    "thm3.11": (verify_multi_count, {"q": 1, "n": 1, "k": 3, "m": 2}, {}),
    "landsberg": (verify_unstructured, {"rows": 2, "k": 2}, {}),
    "lemmas5.x": (verify_partition_suite, {"s": 2, "k": 3}, {}),
    "sigma6.x": (verify_row_split, {"m": 1, "k": 2}, {}),
}
