"""Acceptance gate: one check per shipped guarantee, one PASS/FAIL line each.

Run `python3 -m pytest tests/test_acceptance.py -s -q`
to see the per-criterion lines; plain pytest shows them only on failure.
"""

import itertools
import random
from fractions import Fraction

from quadalg.algebra import (
    U_RELATION,
    U_TO_V,
    V_RELATION,
    V_TO_U,
    AlgebraClass,
    classify,
    classify_h,
    poly_from_sf,
    qas_iso,
    sf_from_poly,
)
from quadalg.congruence2 import (
    Canon2Label,
    canonical_mat2,
    reciprocal_equivalent,
    stab_membership,
)
from quadalg.matrix import (
    Mat2,
    Mat3,
    StdFormMatrix,
    matrix_from_coeffs,
    sf_map,
)
from quadalg.ncrewrite import NCPoly, locally_confluent, reduce as nc_reduce, substitute
from quadalg.polyio import load_system, parse_poly
from quadalg.scalar import as_scalar
from quadalg.sfcanon import (
    CANONICAL_TAGS,
    CanonicalClass,
    SfWitness,
    canonical_matrix,
    orbit_sample_with_witness,
    sf_canonicalize,
    sf_congruent,
    verify_witness,
)


def report(name: str, ok: bool) -> None:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {name} failed"


ZERO = as_scalar(0)
ONE = as_scalar(1)
IDENT2 = Mat2(ONE, ZERO, ZERO, ONE)


def small_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def nonzero_fraction(rng: random.Random) -> Fraction:
    while True:
        f = small_fraction(rng)
        if f != 0:
            return f


def random_std_matrix(rng: random.Random) -> StdFormMatrix:
    while True:
        coeffs = [small_fraction(rng) for _ in range(7)]
        if any(c != 0 for c in coeffs[:4]):
            return matrix_from_coeffs(coeffs)


def random_witness(rng: random.Random, scaled: bool = True) -> SfWitness:
    """Small integer P1 (invertible) and P2, then a nonzero rational scale,
    or scale 1 when not scaled."""
    while True:
        lin = Mat2(*[as_scalar(rng.randint(-3, 3)) for _ in range(4)])
        if not lin.det().is_zero():
            break
    translation = (as_scalar(rng.randint(-3, 3)), as_scalar(rng.randint(-3, 3)))
    return SfWitness(lin, translation, nonzero_fraction(rng) if scaled else 1)


def all_canonical_classes():
    out = []
    for tag in CANONICAL_TAGS:
        if tag in ("QPLANE", "QWEYL"):
            out.append(CanonicalClass(tag, as_scalar(2)))
        else:
            out.append(CanonicalClass(tag))
    return out


def is_identity_witness(w: SfWitness) -> bool:
    return (
        w.linear == IDENT2
        and w.translation == (ZERO, ZERO)
        and w.scale == ONE
    )


def test_criterion_1_canonical_fixed_points():
    ok = True
    for cls in all_canonical_classes():
        m = canonical_matrix(cls)
        found, canonical, w = sf_canonicalize(m)
        ok = ok and found == cls and canonical == m and is_identity_witness(w)
    report("canonical fixed points", ok)


def test_criterion_2_orbit_soundness():
    rng = random.Random(20260814)
    ok = True
    for trial in range(500):
        m = random_std_matrix(rng)
        mate = random_witness(rng).apply(m)
        c1, k1, w1 = sf_canonicalize(m)
        c2, k2, w2 = sf_canonicalize(mate)
        same = reciprocal_equivalent(c1, c2) and k1 == k2
        # witness from mate to m, composed out of the two canonicalization
        # witnesses through the shared canonical matrix
        composed = w2.then(w1.inverse())
        ok = ok and same and verify_witness(m, mate, composed)
        if trial % 10 == 0:
            decided, w = sf_congruent(m, mate)
            ok = ok and decided and verify_witness(m, mate, w)
    report("orbit soundness (500 mates)", ok)


def test_criterion_3_equivalence_relation_witnesses():
    rng = random.Random(31337)
    ok = True
    for _ in range(500):
        m = random_std_matrix(rng)
        n, w = orbit_sample_with_witness(m, rng)
        ok = ok and verify_witness(n, m, w)
        # independent re-multiplication of the defining identity
        phat = w.embed()
        folded = sf_map(phat.transpose() * m.embed() * phat).scale(w.scale)
        ok = ok and folded == n
        # symmetry
        ok = ok and verify_witness(m, n, w.inverse())
        # transitivity through a second hop
        o, w2 = orbit_sample_with_witness(n, rng)
        ok = ok and verify_witness(o, m, w.then(w2))
    report("equivalence witnesses (500 instances)", ok)


def test_criterion_4_fold_commutes_with_substitution():
    rng = random.Random(424242)
    ok = True
    for _ in range(1000):
        entries = [as_scalar(small_fraction(rng)) for _ in range(9)]
        m = Mat3((tuple(entries[0:3]), tuple(entries[3:6]), tuple(entries[6:9])))
        phat = random_witness(rng, scaled=False).embed()
        lhs = sf_map(phat.transpose() * m * phat)
        rhs = sf_map(phat.transpose() * sf_map(m).embed() * phat)
        ok = ok and lhs == rhs
    report("fold/substitution identity (1000 samples)", ok)


def test_criterion_5_name_table():
    cases = [
        ("xy - 2yx", AlgebraClass("OQ", as_scalar(2))),
        ("xy + yx", AlgebraClass("OQ", as_scalar(-1))),
        ("xy - yx", AlgebraClass("OQ", as_scalar(1))),
        ("xy - 2yx - 1", AlgebraClass("WEYL_Q", as_scalar(2))),
        ("xy + yx - 1", AlgebraClass("WEYL_Q", as_scalar(-1))),
        ("xy - yx - 1", AlgebraClass("WEYL_Q", as_scalar(1))),
        ("yx - xy + y^2", AlgebraClass("JORDAN")),
        ("yx - xy + y^2 + 1", AlgebraClass("JORDAN1")),
        ("yx - xy + y", AlgebraClass("U")),
        ("x^2 + y", AlgebraClass("KX")),
        ("x^2", AlgebraClass("RX2")),
        ("x^2 - 1", AlgebraClass("RX2M1")),
        ("yx", AlgebraClass("RYX")),
        ("yx - 1", AlgebraClass("S")),
    ]
    ok = all(classify(parse_poly(text)) == expected for text, expected in cases)
    via_v = classify(parse_poly("yx - xy + y^2 + x"))
    ok = ok and via_v == AlgebraClass("U", via_v=True) and via_v.via_v
    report("defining-polynomial name table", ok)


def test_criterion_6_reciprocal_parameter_pairing():
    rng = random.Random(1729)
    ok = True

    def weyl(q):
        return matrix_from_coeffs([0, 1, -q, 0, 0, 0, -1])

    def plane(q):
        return matrix_from_coeffs([0, 1, -q, 0, 0, 0, 0])

    for _ in range(50):
        q = nonzero_fraction(rng)
        for build in (weyl, plane):
            decided, w = sf_congruent(build(q), build(1 / q))
            ok = ok and decided and verify_witness(build(q), build(1 / q), w)
        p = nonzero_fraction(rng)
        if p in (q, 1 / q):
            continue
        ok = ok and not sf_congruent(weyl(p), weyl(q))[0]
        ok = ok and not sf_congruent(plane(p), plane(q))[0]
    report("q vs 1/q pairing (50 draws)", ok)


def _stab_samplers(rng: random.Random):
    def x2(r):
        return Mat2(
            as_scalar(r.choice([1, -1])),
            ZERO,
            as_scalar(small_fraction(r)),
            as_scalar(nonzero_fraction(r)),
        )

    def diagonal(r):
        t = nonzero_fraction(r)
        return Mat2(as_scalar(t), ZERO, ZERO, as_scalar(1 / t))

    def jordan(r):
        sign = as_scalar(r.choice([1, -1]))
        return Mat2(sign, as_scalar(small_fraction(r)) * sign, ZERO, sign)

    def neg_one(r):
        if r.random() < 0.5:
            return diagonal(r)
        s = nonzero_fraction(r)
        return Mat2(ZERO, as_scalar(s), as_scalar(1 / s), ZERO)

    def sl2(r):
        a = nonzero_fraction(r)
        b, c = small_fraction(r), small_fraction(r)
        d = (1 + b * c) / a
        return Mat2(as_scalar(a), as_scalar(b), as_scalar(c), as_scalar(d))

    return [
        (Canon2Label("X2"), x2),
        (Canon2Label("YX"), diagonal),
        (Canon2Label("JORDAN"), jordan),
        (Canon2Label("Q", as_scalar(2)), diagonal),
        (Canon2Label("Q", as_scalar(-1)), neg_one),
        (Canon2Label("Q", as_scalar(1)), sl2),
    ]


def _perturb(rng: random.Random, p: Mat2, label) -> Mat2:
    lmat = canonical_mat2(label)
    entries = [p.a, p.b, p.c, p.d]
    for _ in range(32):
        i = rng.randrange(4)
        bumped = list(entries)
        bumped[i] = bumped[i] + as_scalar(rng.choice([1, 2, -1]))
        cand = Mat2(*bumped)
        if cand.det().is_zero():
            continue
        if cand.transpose() * lmat * cand != lmat:
            return cand
    raise AssertionError("could not perturb out of the stabilizer")


def test_criterion_7_stabilizer_families():
    rng = random.Random(55)
    ok = True
    for label, sampler in _stab_samplers(rng):
        lmat = canonical_mat2(label)
        members = [sampler(rng) for _ in range(100)]
        for p in members:
            ok = ok and p.transpose() * lmat * p == lmat
            ok = ok and stab_membership(label, p)
        for p in members:
            ok = ok and not stab_membership(label, _perturb(rng, p, label))
        for _ in range(20):
            p, q = rng.choice(members), rng.choice(members)
            ok = ok and stab_membership(label, p * q)
            ok = ok and stab_membership(label, p.inverse())
    report("stabilizer families (6 x 100 members)", ok)


def test_criterion_8_homogenization_separates_more():
    # downstairs the two enveloping-type relations name the same algebra ...
    u_cls, v_cls = classify(U_RELATION), classify(V_RELATION)
    ok = u_cls.tag == v_cls.tag == "U" and reciprocal_equivalent(u_cls, v_cls)
    ok = ok and not sf_congruent(sf_from_poly(U_RELATION), sf_from_poly(V_RELATION))[0]
    # ... upstairs all eleven representatives get distinct class names
    seen = []
    for cls in all_canonical_classes():
        h = classify_h(poly_from_sf(canonical_matrix(cls)))
        seen.append(h.tag)
    ok = ok and len(set(seen)) == len(seen) == len(CANONICAL_TAGS)
    h_u = classify_h(U_RELATION)
    h_v = classify_h(V_RELATION)
    ok = ok and h_u.tag == "H_ENV" and h_v.tag == "H_ENVV"
    ok = ok and not reciprocal_equivalent(h_u, h_v)
    report("homogenization separation", ok)


def test_criterion_9_rewriting_identities():
    systems = {name: load_system(name)[0] for name in ("u", "v", "h_os", "h_sxx", "h_kx")}
    ok = all(locally_confluent(s) for s in systems.values())

    x, y = NCPoly.variable("x"), NCPoly.variable("y")
    # the non-affine bridge: relation images vanish, generators round-trip
    ok = ok and nc_reduce(substitute(U_TO_V, U_RELATION), systems["v"], 8).is_zero()
    ok = ok and nc_reduce(substitute(V_TO_U, V_RELATION), systems["u"], 8).is_zero()
    ok = ok and nc_reduce(
        substitute(V_TO_U, U_TO_V["x"]) - x, systems["u"], 8
    ).is_zero()
    ok = ok and nc_reduce(
        substitute(V_TO_U, U_TO_V["y"]) - y, systems["u"], 8
    ).is_zero()

    # zero-divisor identities in the non-domain homogenizations
    ok = ok and nc_reduce(parse_poly("yxy - yz^2"), systems["h_os"], 8).is_zero()
    ok = ok and nc_reduce(
        parse_poly("x^2 - xz + zx - z^2"), systems["h_sxx"], 8
    ).is_zero()
    ok = ok and nc_reduce(parse_poly("xyz - yxz"), systems["h_kx"], 8).is_zero()
    # the chain behind the last identity: both sides normalize to -x^3
    ok = ok and nc_reduce(parse_poly("xyz + x^3"), systems["h_kx"], 8).is_zero()
    ok = ok and nc_reduce(parse_poly("yxz + x^3"), systems["h_kx"], 8).is_zero()
    report("rewriting identities", ok)


def test_criterion_10_qas_exhaustive():
    params = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(1, 3)]
    matrices = []
    for a, b, c in itertools.product(params, repeat=3):
        matrices.append(
            (
                (ONE, as_scalar(a), as_scalar(b)),
                (as_scalar(1 / a), ONE, as_scalar(c)),
                (as_scalar(1 / b), as_scalar(1 / c), ONE),
            )
        )

    def by_definition(p, q):
        # independent check, straight from the definition: some permutation
        # sigma has p[i][j] == q[sigma(i)][sigma(j)] everywhere
        for sigma in itertools.permutations(range(3)):
            if all(
                p[i][j] == q[sigma[i]][sigma[j]] for i in range(3) for j in range(3)
            ):
                return True
        return False

    ok = True
    for p, q in itertools.product(matrices, repeat=2):
        decided, perm = qas_iso(p, q)
        ok = ok and decided == by_definition(p, q)
        if decided:
            ok = ok and all(
                p[i][j] == q[perm[i]][perm[j]] for i in range(3) for j in range(3)
            )
    report("parameter-matrix isomorphism (exhaustive n=3)", ok)
