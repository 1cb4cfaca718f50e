"""Division and S-polynomials on tuple monomials: the oracle for the packed
Buchberger check in ``markovfiber.toric``.

Monomials are exponent tuples in flat row-major order, a generator is a
(lead, trail) pair of them, and polynomials are dicts from monomial to
coefficient.  Every operation is the textbook one, variable by variable, so
the nibble arithmetic of ``_divide_packed`` and ``_s_polynomial_packed`` is
checked against it.  It is kept only as a test oracle.
"""

from markovfiber.toric import MAX_DIVISION_STEPS, ToricError


def unpack(packed, n_vars):
    """Packed monomial -> exponent tuple: variable k is nibble k."""
    return tuple((packed >> (4 * k)) & 0xF for k in range(n_vars))


def unpacked(gens, n_vars):
    """Packed (lead, trail) generators as tuple-monomial pairs."""
    return [(unpack(lead, n_vars), unpack(trail, n_vars)) for lead, trail in gens]


def lex_key(mon):
    """Lex order with x_11 smallest and x_RC largest: the reversed exponent
    tuple lists exponents from the largest variable down, so plain tuple
    comparison decides."""
    return tuple(reversed(mon))


def as_poly(g):
    """The binomial lead - trail as a polynomial."""
    lead, trail = g
    return {lead: 1, trail: -1}


def _mon_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mon_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mon_quot(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mon_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def s_polynomial(g1, g2):
    """S(g1, g2) = (lcm/lead1) g1 - (lcm/lead2) g2; the lcm terms cancel."""
    (lead1, trail1), (lead2, trail2) = g1, g2
    lcm = _mon_lcm(lead1, lead2)
    m1 = _mon_quot(lcm, lead1)
    m2 = _mon_quot(lcm, lead2)
    poly = {}
    for mon, c in ((_mon_mul(m1, trail1), -1), (_mon_mul(m2, trail2), 1)):
        c0 = poly.get(mon, 0) + c
        if c0:
            poly[mon] = c0
        else:
            poly.pop(mon, None)
    return poly


def divide(poly, G, max_steps=MAX_DIVISION_STEPS):
    """Multivariate division; True iff the remainder is zero.

    Each step rewrites the lex-largest term by the first generator whose
    lead divides it; a term no generator divides is a nonzero remainder
    term, which settles the answer immediately.
    """
    poly = dict(poly)
    steps = 0
    while poly:
        steps += 1
        if steps > max_steps:
            raise ToricError(f"division exceeded {max_steps} steps")
        mon = max(poly, key=lex_key)
        coef = poly[mon]
        for lead, trail in G:
            if _mon_divides(lead, mon):
                q = _mon_quot(mon, lead)
                del poly[mon]
                t = _mon_mul(q, trail)
                c0 = poly.get(t, 0) + coef
                if c0:
                    poly[t] = c0
                else:
                    poly.pop(t, None)
                break
        else:
            return False
    return True


def s_poly_reduces(g1, g2, G, max_steps=MAX_DIVISION_STEPS):
    return divide(s_polynomial(g1, g2), G, max_steps=max_steps)
