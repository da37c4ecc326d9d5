"""The three workloads: seeded corpus, the timed operation and its grading.

Each workload builds its whole corpus from the seed before anything is
timed, so the program only ever receives the generated inputs.  `run` is
the operation the closed loop times; `check` grades one result and raises
`WrongVerdict` when the program is wrong.  A raised exception is a typed
refusal: it counts as a failed op and is never graded.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List

import quadalg.ncrewrite as ncrewrite
import quadalg.polyio as polyio

from exact import (
    CANONICAL_TAGS,
    FIXTURE_RULES,
    PARAMETRIC,
    WORDS,
    Lin,
    ReferenceReducer,
    WrongVerdict,
    canonical_slots,
    embed,
    embed_affine,
    fold_congruence,
    relation_text,
    tag_of_algebra,
)

DEGREE_BOUND = 12
SYSTEMS = ("h_kx", "h_os", "h_sxx", "u", "v")
RADICANDS = (2, 3, 5, 6, 7, -1, -2, -3)
PRIMES = (2, 3, 5, 7, 11, 13)
NONPARAMETRIC = tuple(t for t in CANONICAL_TAGS if t not in PARAMETRIC)


# --- generators ---------------------------------------------------------------


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))


def _nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))


def _substitution(rng: random.Random):
    """Random rational (P1, P2, alpha) with P1 invertible and alpha nonzero."""
    while True:
        p1 = ((_rational(rng), _rational(rng)), (_rational(rng), _rational(rng)))
        if p1[0][0] * p1[1][1] - p1[0][1] * p1[1][0] != 0:
            return p1, (_rational(rng), _rational(rng)), _nonzero(rng)


def _orbit(rng: random.Random, slots):
    """An equivalent relation: alpha * fold(P^T M P) for a random (P, alpha)."""
    p1, p2, alpha = _substitution(rng)
    return fold_congruence(embed(slots), embed_affine(p1, p2), alpha), (p1, p2, alpha)


def _q_value(rng: random.Random, kind: str) -> Lin:
    if kind == "one":
        return Lin.of(1)
    if kind == "minus_one":
        return Lin.of(-1)
    if kind == "rational":
        while True:
            q = _nonzero(rng)
            if abs(q) != 1:
                return Lin.of(q)
    # tower depth 1: a + b*sqrt(d)
    return Lin({1: _rational(rng), rng.choice((2, 3, 5, -1, -3)): _nonzero(rng)})


def _random_relation(rng: random.Random) -> list:
    while True:
        slots = [_rational(rng) for _ in WORDS]
        if any(slots[:4]):
            return slots


def _one_sqrt_relation(rng: random.Random) -> list:
    """A random rational relation with one slot times sqrt(r)."""
    while True:
        slots = [Lin.of(x) for x in _random_relation(rng)]
        slot = rng.randrange(7)
        slots[slot] = Lin({rng.choice(RADICANDS): _nonzero(rng)})
        if any(not s.is_zero() for s in slots[:4]):
            return slots


def _four_radicand_relation(rng: random.Random) -> list:
    """c1 sqrt(p1) x^2 + c2 sqrt(p2) yx + c3 sqrt(p3) xy + c4 sqrt(p4): valid,
    but its canonical form needs tower depth 5, over the budget of 4."""
    p = rng.sample(PRIMES, 4)
    slots = [Lin.of(0)] * 7
    for slot, prime in zip((0, 2, 1, 6), p):
        slots[slot] = Lin({prime: _nonzero(rng)})
    return slots


def _class_sample(rng: random.Random, tag: str, q_kind: str = "rational"):
    q = _q_value(rng, q_kind) if tag in PARAMETRIC else None
    return q, canonical_slots(tag, q)


# --- shared grading -------------------------------------------------------------


def scalars(texts) -> list:
    return [polyio.parse_scalar(t) for t in texts]


def slot_scalars(slots) -> list:
    return scalars(Lin.of(s).text() for s in slots)


def _witness(doc) -> tuple:
    (a, b), (c, d) = (scalars(row) for row in doc["P1"])
    e, f = scalars(doc["P2"])
    (alpha,) = scalars([doc["alpha"]])
    return ((a, b), (c, d)), (e, f), alpha


def witness_depth(doc) -> int:
    p1, p2, alpha = _witness(doc)
    return max(s.tower_depth for s in (*p1[0], *p1[1], *p2, alpha))


def check_witness(doc, source, target, what: str) -> None:
    """target == alpha * fold(P^T source P), entry by entry (Scalar slots),
    with P1 invertible and alpha nonzero: a singular P1 can fold many
    relations onto x^2 or x^2 - 1."""
    p1, p2, alpha = _witness(doc)
    (a, b), (c, d) = p1
    if (a * d - b * c).is_zero():
        raise WrongVerdict(f"{what}: witness P1 is singular")
    if alpha.is_zero():
        raise WrongVerdict(f"{what}: witness alpha is zero")
    got = fold_congruence(embed(source), embed_affine(p1, p2), alpha)
    for word, g, t in zip(WORDS, got, target):
        if not (g - t).is_zero():
            raise WrongVerdict(f"{what}: witness fails on slot {word or '1'!r}")


def check_q(q_text, expected: Lin, what: str) -> None:
    (q,) = scalars([q_text])
    (e,) = slot_scalars([expected])
    if not ((q - e).is_zero() or (q * e - 1).is_zero()):
        raise WrongVerdict(f"{what}: q = {q_text}, expected {expected.text()} or its inverse")


def poly_slots(text: str, words=WORDS) -> list:
    f = polyio.parse_poly(text)
    return [f.coeff(w) for w in words]


def check_classification(doc, item, what: str) -> dict:
    """Grade a classify report (JSON shape) against the item's source relation."""
    tag = tag_of_algebra(doc["algebra"], doc["via_v"])
    q_text = doc.get("q")
    if (tag in PARAMETRIC) != (q_text is not None):
        raise WrongVerdict(f"{what}: q present for {tag} is {q_text is not None}")
    expected = item.get("tag")
    if expected is not None:
        if tag != expected:
            raise WrongVerdict(f"{what}: class {tag}, expected {expected}")
        if q_text is not None:
            check_q(q_text, item["q"], what)
    target = canonical_slots(tag, scalars([q_text])[0] if q_text else None)
    canon_f = poly_slots(doc["canonical_f"])
    if any(not (a - b).is_zero() for a, b in zip(canon_f, target)):
        raise WrongVerdict(f"{what}: canonical_f {doc['canonical_f']!r} is not the {tag} form")
    check_witness(doc["witness"], slot_scalars(item["slots"]), target, what)
    return {"class": tag, "depth": witness_depth(doc["witness"])}


def check_congruence(doc, item, what: str) -> dict:
    """Grade a congruent report against the pair's answer known by construction."""
    want_c, want_i = item["congruent"], item["isomorphic"]
    if doc["sf_congruent"] is not want_c or doc["isomorphic"] is not want_i:
        raise WrongVerdict(
            f"{what}: sf_congruent={doc['sf_congruent']} isomorphic={doc['isomorphic']},"
            f" expected {want_c}/{want_i}")
    info = {"class": item["stratum"]}
    if want_c:
        check_witness(doc["witness"], slot_scalars(item["g"]), slot_scalars(item["f"]), what)
        info["depth"] = witness_depth(doc["witness"])
    elif want_i:
        if doc.get("witness") != "envv-bridge":
            raise WrongVerdict(f"{what}: bridge pair lacks the bridge token")
    elif "witness" in doc:
        raise WrongVerdict(f"{what}: non-isomorphic pair carries a witness")
    return info


def check_normal_form(terms: Dict[str, object], item, what: str) -> None:
    """Compare (word -> exact value) with the stored reference normal form."""
    ref = item["normal_form"]
    got = {}
    for w, c in terms.items():
        fr = c.as_fraction()
        if fr is None:
            raise WrongVerdict(f"{what}: irrational coefficient on {w!r}")
        got[w] = fr
    if got != ref:
        raise WrongVerdict(f"{what}: normal form differs from the reference")


def _reference_normal_form(reducers, system: str, word: str):
    if len(word) > DEGREE_BOUND:
        return None
    return dict(reducers[system].word(word))


# --- workloads -------------------------------------------------------------------


class Workload:
    """A seeded corpus plus the op that the closed loop times."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.items: List[dict] = self.generate()
        for i, item in enumerate(self.items):
            item["id"] = i

    def generate(self) -> List[dict]:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result) -> dict:
        raise NotImplementedError

    def load(self) -> None:
        """Fresh per-process state for the timed op, rebuilt before every
        pass so that no cache kept on it outlives one pass over the corpus."""

    def summary(self, result):
        """Comparable form of a result, to test that repeats agree."""
        return result

    def cli_argv(self, item) -> List[str]:
        """The equivalent `quadalg` command line, for the in-process CLI probe."""
        raise NotImplementedError


class CanonOrbit(Workload):
    """Classify one relation per op: the core library path."""

    name = "canon-orbit"

    # Stratum sizes per corpus.  Every class, q kind and radicand appears a
    # fixed number of times, so seeds change coefficients, not the mix.
    PER_NONPARAMETRIC = 30
    Q_KINDS = ("rational",) * 12 + ("one", "minus_one") * 4 + ("depth1",) * 12
    RANDOM = 64
    SQRT_SCALED = 16
    SQRT_CONSTANT = 8
    # Generic sqrt relations cost from about 10 ms to a few seconds, with
    # several modes, so a seeded sample of them would move op_ms_p95 more
    # than any code change.  They are a fixed set instead, the same for every
    # seed, like the x^n y^n family of reduce-words.  This set costs 20-330 ms
    # per op; its band around 65 ms holds the 95th percentile.
    ONE_SQRT_FIXED = 40
    FOUR_RADICAND_FIXED = 8

    def generate(self):
        rng = self.rng
        items = []
        for tag in NONPARAMETRIC:
            for _ in range(self.PER_NONPARAMETRIC):
                items.append({"stratum": f"a:{tag}", "tag": tag, "q": None,
                              "source": canonical_slots(tag)})
        for tag in PARAMETRIC:
            for kind in self.Q_KINDS:
                q, source = _class_sample(rng, tag, kind)
                items.append({"stratum": f"a:{tag}:{kind}", "tag": tag, "q": q,
                              "source": source})
        for item in items:
            item["slots"], _ = _orbit(rng, item.pop("source"))
        items += [{"stratum": "b:random", "slots": _random_relation(rng)}
                  for _ in range(self.RANDOM)]
        tags = CANONICAL_TAGS * (self.SQRT_SCALED // len(CANONICAL_TAGS) + 1)
        for k, tag in enumerate(tags[:self.SQRT_SCALED]):
            # the whole relation times c*sqrt(r): same class, every slot irrational
            q, source = _class_sample(rng, tag)
            slots, _ = _orbit(rng, source)
            factor = Lin({RADICANDS[k % len(RADICANDS)]: _nonzero(rng)})
            items.append({"stratum": "c:sqrt-scaled", "tag": tag, "q": q,
                          "slots": [factor * Fraction(Lin.of(s).terms.get(1, 0)) for s in slots]})
        with_constant = ("X2_MINUS1", "S", "JORDAN1", "QWEYL")
        for k in range(self.SQRT_CONSTANT):
            # constant c*sqrt(r): scaling it away admits a new tower level
            tag = with_constant[k % len(with_constant)]
            q, source = _class_sample(rng, tag)
            source = list(source)
            source[6] = Lin({RADICANDS[k % len(RADICANDS)]: _nonzero(rng)})
            items.append({"stratum": "c:sqrt-constant", "tag": tag, "q": q,
                          "slots": _orbit(rng, source)[0]})
        fixed = random.Random("canon-orbit:fixed")
        items += [{"stratum": "c:one-sqrt-fixed", "slots": _one_sqrt_relation(fixed)}
                  for _ in range(self.ONE_SQRT_FIXED)]
        items += [{"stratum": "c:four-radicand-fixed", "slots": _four_radicand_relation(fixed)}
                  for _ in range(self.FOUR_RADICAND_FIXED)]
        for item in items:
            item["text"] = relation_text(item["slots"])
        return items

    def run(self, item):
        return polyio.classification_report(polyio.parse_poly(item["text"]))

    def check(self, item, result):
        return check_classification(result, item, f"classify {item['text']!r}")

    def cli_argv(self, item):
        return ["classify", item["text"], "--format", "json"]


class CongruentPairs(Workload):
    """Compare two relations per op: sf_congruent and iso_check."""

    name = "congruent-pairs"

    # Every class, q kind and ordered class pair appears a fixed number of
    # times, so seeds change coefficients, not the mix.
    MATES_PER_TAG = 8
    Q_KINDS = ("rational", "one", "rational", "minus_one")
    RECIPROCAL = 24
    BRIDGE = 32
    REFUSED = 8

    def generate(self):
        rng = self.rng
        items = []
        for tag in CANONICAL_TAGS:
            for k in range(self.MATES_PER_TAG):
                _, source = _class_sample(rng, tag, self.Q_KINDS[k % len(self.Q_KINDS)])
                items.append({"stratum": "mates", "f": _orbit(rng, source)[0],
                              "g": _orbit(rng, source)[0], "congruent": True,
                              "isomorphic": True})
        for k in range(self.RECIPROCAL):
            tag = PARAMETRIC[k % 2]
            q = _q_value(rng, "rational")
            items.append({"stratum": "reciprocal",
                          "f": _orbit(rng, canonical_slots(tag, q))[0],
                          "g": _orbit(rng, canonical_slots(tag, _lin_inverse(q)))[0],
                          "congruent": True, "isomorphic": True})
        for k in range(self.BRIDGE):
            pair = [_orbit(rng, canonical_slots("UFORM"))[0],
                    _orbit(rng, canonical_slots("VFORM"))[0]]
            if k % 2:
                pair.reverse()
            items.append({"stratum": "bridge", "f": pair[0], "g": pair[1],
                          "congruent": False, "isomorphic": True})
        for tf in CANONICAL_TAGS:
            for tg in CANONICAL_TAGS:
                if tf == tg or {tf, tg} == {"UFORM", "VFORM"}:
                    continue
                sf = _class_sample(rng, tf)[1]
                sg = _class_sample(rng, tg)[1]
                items.append({"stratum": "non-isomorphic", "f": _orbit(rng, sf)[0],
                              "g": _orbit(rng, sg)[0], "congruent": False,
                              "isomorphic": False})
        # refusal costs vary by 2x with the coefficients, so the refused pairs
        # are the same for every seed, like canon-orbit's fixed sqrt set
        fixed = random.Random("congruent-pairs:fixed")
        for _ in range(self.REFUSED):
            f = _four_radicand_relation(fixed)
            items.append({"stratum": "four-radicand-mates-fixed", "f": f,
                          "g": _orbit(fixed, f)[0], "congruent": True, "isomorphic": True})
        for item in items:
            item["f_text"] = relation_text(item["f"])
            item["g_text"] = relation_text(item["g"])
        return items

    def run(self, item):
        return polyio.congruence_report(
            polyio.parse_poly(item["f_text"]), polyio.parse_poly(item["g_text"]))

    def check(self, item, result):
        return check_congruence(result, item, f"congruent {item['f_text']!r} {item['g_text']!r}")

    def cli_argv(self, item):
        return ["congruent", item["f_text"], item["g_text"], "--format", "json"]


def _lin_inverse(q: Lin) -> Lin:
    """1/q for q = a + b sqrt(d) (at most one radicand besides 1)."""
    a = q.terms.get(1, Fraction(0))
    rads = [r for r in q.terms if r != 1]
    if not rads:
        return Lin.of(1 / a)
    (d,) = rads
    b = q.terms[d]
    norm = a * a - b * b * d
    return Lin({1: a / norm, d: -b / norm})


class ReduceWords(Workload):
    """Rewrite one word per op under a shipped fixture system."""

    name = "reduce-words"

    # x^a y^b family: x^n y^n up to the largest n per system, which keeps
    # the slowest op at a few seconds on the seed (u: n=6, about 2 s; v grows
    # faster, n=3), and the off-diagonal x^a y^b below it on u and v.  Its
    # costs do not depend on the seed, and they fill the top 5% of ops.
    # n=7 is over the degree bound of 12 and is refused on every system.
    FAMILY_MAX = {"u": 6, "v": 3, "h_os": 6, "h_sxx": 6, "h_kx": 6}
    GRID_MAX = {"u": 5, "v": 3}
    REFUSED_N = 7
    # random words: (count, alphabet, min length, max length), each length
    # equally often; short enough on u and v to stay below the family's
    # heavy end
    RANDOM = {"u": (48, "xy", 3, 6), "v": (40, "xy", 3, 4),
              "h_os": (32, "xyz", 4, 12), "h_sxx": (32, "xyz", 4, 12),
              "h_kx": (24, "xyz", 4, 12)}

    def generate(self):
        rng = self.rng
        reducers = {s: ReferenceReducer(FIXTURE_RULES[s]) for s in SYSTEMS}
        items = []
        for system in SYSTEMS:
            top = self.GRID_MAX.get(system, 0)
            shapes = [(n, n) for n in range(1, self.FAMILY_MAX[system] + 1)]
            shapes += [(a, b) for a in range(1, top + 1) for b in range(1, top + 1) if a != b]
            shapes.append((self.REFUSED_N, self.REFUSED_N))
            for a, b in shapes:
                items.append({"stratum": f"family:{system}", "system": system,
                              "word": "x" * a + "y" * b})
            count, alphabet, lo, hi = self.RANDOM[system]
            for k in range(count):  # every length equally often
                word = "".join(rng.choice(alphabet) for _ in range(lo + k % (hi - lo + 1)))
                items.append({"stratum": f"random:{system}", "system": system, "word": word})
        for item in items:
            item["text"] = item["word"]
            item["normal_form"] = _reference_normal_form(reducers, item["system"], item["word"])
        return items

    def load(self):
        self.systems = {s: polyio.load_system(s)[0] for s in SYSTEMS}

    def run(self, item):
        return ncrewrite.reduce(
            polyio.parse_poly(item["text"]), self.systems[item["system"]], DEGREE_BOUND)

    def check(self, item, result):
        check_normal_form(dict(result.terms()), item, f"reduce {item['system']} {item['text']!r}")
        return {"class": item["system"]}

    def summary(self, result):
        return sorted((w, str(c)) for w, c in result.terms())

    def cli_argv(self, item):
        return ["reduce", "--system", item["system"], item["text"], "--format", "json"]


WORKLOADS = {w.name: w for w in (CanonOrbit, CongruentPairs, ReduceWords)}
