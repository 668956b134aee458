"""The verify suites: each sets one route to a statement of the paper
against the other at one parameter point.

A suite runner takes its parameters p, the parsed command line args and
run_census(kind, params, label=None), which runs a rank census with the
command's --threads, --budget-bits and --checkpoint (plus .label, or
.kind). It returns (computed, expected), two JSON-ready dicts that are
equal when the statement holds there. Five suites (thm3.1, thm3.3,
thm3.8, thm3.9 and landsberg) set one census against one closed table,
and share `_census_against_table` for it. Only `persym verify` loads
this module, and each runner imports the modules it calls in its own body.
"""

from collections import Counter

from .exceptions import check_budget


def _render(value):
    """JSON-friendly form of a count; dyadic fractions become strings."""
    from .dyadic import DyadicRational

    if isinstance(value, DyadicRational):
        if value.is_integer():
            return value.to_int()
        return "%d/2^%d" % (value.mantissa, -value.exponent)
    return value


def _census_against_table(run_census, census_args, table):
    """run_census(*census_args), then table(formulas), the closed table it
    should equal, both as the CLI prints them. The census runs first, so
    its budget refuses a shape before any of the table is built."""
    from . import census, formulas

    got = run_census(*census_args)
    return census._table_text(got), census._table_text(table(formulas))


def verify_window_census(p, args, run_census):
    """Window rank census against the closed product form."""
    s, k = p["s"], p["k"]
    return _census_against_table(run_census, ("gamma", (s, k)),
                                 lambda f: f.gamma_table(s, k))


def verify_profile_census(p, args, run_census):
    """Rank profile census of the four nested windows against the closed table."""
    s, k = p["s"], p["k"]
    if not 1 <= s <= k:
        raise ValueError("requires 1 <= s <= k, got s=%d k=%d" % (s, k))
    return _census_against_table(run_census, ("quad", (p["l"], s, k)),
                                 lambda f: f.quad_table(s, k))


def _even_moment(s, k, g_tally, quads, q):
    """Integral of g^{2q} over the window grid, and the weighted (j,j,j,j) sum."""
    from . import census
    from .dyadic import DyadicRational

    lhs = census.integrate_tally(g_tally, k + s - 1, 2 * q)
    rhs = DyadicRational(0)
    for j in range(s):
        rhs += DyadicRational(quads[(j, j, j, j)], -2 * q * j)
    rhs *= DyadicRational(1, (s + k - 2) * (2 * q - 1))
    return _render(lhs), _render(rhs)


def verify_even_moments(p, args, run_census):
    """Even power sums of g against the weighted diagonal profile counts.

    Also counts the grid points where g^2 = g1 * g2 (boundary factorisation).
    g, g1 and g2 are the direct sums over the whole grid, so the power sums
    set the exponential sum itself against the census."""
    from . import expsum

    s, k = p["s"], p["k"]
    if p["q"] < 1:
        raise ValueError("--q must be at least 1, got %d" % p["q"])
    g = expsum.g_vector(s, k)
    g1, g2 = expsum.g_boundary_vectors(s, k)
    factored = sum(a * a == b * c for a, b, c in zip(g, g1, g2))
    gs = Counter(g)
    quads = run_census("quad", (1, s, k))
    computed, expected = {"g^2 factors": factored}, {"g^2 factors": 1 << (k + s - 1)}
    for q in range(1, p["q"] + 1):
        computed["q=%d" % q], expected["q=%d" % q] = _even_moment(s, k, gs, quads, q)
    return computed, expected


def verify_one_extra_row(p, args, run_census):
    """Census with one appended row against the printed case tables."""
    m, k = p["m"], p["k"]
    return _census_against_table(run_census, ("stacked", (1, m, k)),
                                 lambda f: f.stacked1_gamma_table(m, k))


def verify_stacked_census(p, args, run_census):
    """Census with n appended rows against the coefficient expansion."""
    n, m, k = p["n"], p["m"], p["k"]
    return _census_against_table(run_census, ("stacked", (n, m, k)),
                                 lambda f: f.stacked_gamma_table(n, m, k))


def verify_coefficient_rows(p, args, run_census):
    """Coefficient recurrence against the closed alternating sum and stored rows.

    The closed side grows about as N^5, so N is charged as a
    2^bit_length(N^4) point domain before any of it runs (28 bits: N <= 127).
    """
    from . import formulas

    if p["n"] < 1:
        raise ValueError("--n must be at least 1, got %d" % p["n"])
    check_budget((p["n"] ** 4).bit_length(), args.budget_bits, "verify cor3.10 n=%d" % p["n"])
    computed, expected = {}, {}
    for n, rec in enumerate(formulas.a_coeff_rows(p["n"])):
        if n == 0:
            continue  # no free row: nothing to compare
        computed["closed n=%d" % n] = [
            formulas.a_coeff_closed(n, j) for j in range(n + 1)
        ]
        expected["closed n=%d" % n] = rec
        if n <= 5:
            computed["table n=%d" % n] = list(formulas.a_coeff_table(n))
            expected["table n=%d" % n] = rec
    return computed, expected


def verify_multi_count(p, args, run_census):
    """Brute-force representation count against the stacked-census formula.

    With n = 0 and m <= k - 1 the paper's piecewise form is checked too.
    """
    from . import census, formulas

    q, n, k, m = p["q"], p["n"], p["k"], p["m"]
    computed = {"R": census.repcount_bruteforce(q, n, k, m, budget_bits=args.budget_bits)}
    expected = {"R": census.repcount_multi_formula(q, n, k, m)}
    if n == 0 and m <= k - 1:
        computed["R piecewise"] = formulas.repcount_piecewise(q, k, m)
        expected["R piecewise"] = expected["R"]
    return computed, expected


def verify_unstructured(p, args, run_census):
    """Rank census over all matrices of a shape against the classical product.

    A rows x k matrix is one k-bit row with rows - 1 free rows below it.
    """
    rows, k = p["rows"], p["k"]
    if rows < 1:
        raise ValueError("--rows must be at least 1, got %d" % rows)
    return _census_against_table(run_census, ("stacked", (rows - 1, 0, k), "landsberg"),
                                 lambda f: f.landsberg_table(rows, k))


def verify_partition_suite(p, args, run_census):
    """Deletion and parity identities tying the window censuses together."""
    from . import expsum

    s, k = p["s"], p["k"]
    if not 2 <= s <= k:  # the deletion identities are stated for s <= k
        raise ValueError("the partition suite needs 2 <= s <= k, got s=%d k=%d" % (s, k))
    gs = Counter(expsum.g_vector(s, k))
    quads = run_census("quad", (1, s, k))
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


def verify_row_split(p, args, run_census):
    """Split of the one-extra-row census by whether the row stays in span."""
    from . import census, formulas

    m, k = p["m"], p["k"]
    tally = run_census("sigma", (m, k))
    merged = Counter()
    for (_, i), count in tally.items():
        merged[i] += count
    computed = census._table_text(tally)
    computed.update(("sum,%d" % i, count) for i, count in sorted(merged.items()))
    # expected keys come from the formulas alone, so a rank the census lost shows
    ranks = range(min(k, m + 2) + 1)
    expected = {"same,%d" % i: (1 << i) * formulas.gamma_closed(1 + m, k, i)
                for i in ranks}
    expected.update(("up,%d" % i, ((1 << k) - (1 << (i - 1)))
                     * formulas.gamma_closed(1 + m, k, i - 1)) for i in ranks[1:])
    expected.update(("sum,%d" % i, formulas.stacked1_gamma_closed(m, k, i))
                    for i in ranks)
    return computed, {key: count for key, count in expected.items() if count}
