"""Division and S-polynomials on tuple monomials: the oracle for the packed
Buchberger check in ``markovfiber.toric``.

Monomials are exponent tuples in flat row-major order and polynomials are
dicts from monomial to coefficient.  Every operation is the textbook one,
variable by variable, so the nibble arithmetic of ``_divide_packed`` and
``_s_polynomial_packed`` is checked against it.  It is kept only as a test
oracle.
"""

from markovfiber.toric import MAX_DIVISION_STEPS, ToricError


def as_poly(g):
    """The binomial lead - trail as a polynomial."""
    return {g.lead: 1, g.trail: -1}


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
    lcm = _mon_lcm(g1.lead, g2.lead)
    m1 = _mon_quot(lcm, g1.lead)
    m2 = _mon_quot(lcm, g2.lead)
    poly = {}
    for mon, c in ((_mon_mul(m1, g1.trail), -1), (_mon_mul(m2, g2.trail), 1)):
        c0 = poly.get(mon, 0) + c
        if c0:
            poly[mon] = c0
        else:
            poly.pop(mon, None)
    return poly


def divide(poly, G, order, max_steps=MAX_DIVISION_STEPS):
    """Multivariate division; True iff the remainder is zero.

    Each step rewrites the order-largest term by the first generator whose
    lead divides it; a term no generator divides is a nonzero remainder
    term, which settles the answer immediately.
    """
    poly = dict(poly)
    steps = 0
    while poly:
        steps += 1
        if steps > max_steps:
            raise ToricError(f"division exceeded {max_steps} steps")
        mon = max(poly, key=order.key)
        coef = poly[mon]
        for g in G:
            if _mon_divides(g.lead, mon):
                q = _mon_quot(mon, g.lead)
                del poly[mon]
                t = _mon_mul(q, g.trail)
                c0 = poly.get(t, 0) + coef
                if c0:
                    poly[t] = c0
                else:
                    poly.pop(t, None)
                break
        else:
            return False
    return True


def s_poly_reduces(g1, g2, G, order, max_steps=MAX_DIVISION_STEPS):
    return divide(s_polynomial(g1, g2), G, order, max_steps=max_steps)
