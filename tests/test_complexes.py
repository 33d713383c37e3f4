"""Complex documents, boundary operators, chains, cochains and mass."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import random_complex, torus_grid
from oracles import (boundary_matrix, chain_vector, lift_chain, reduce_chain,
                     reference_faces, reference_load, reference_pairing)

from homnorm.complexes import (Chain, Cochain, ComplexFormatError,
                               NotACycleError, WeightedComplex,
                               _is_calibration, complex_from_json,
                               complex_to_json, dump_complex,
                               load_complex, mass)
from homnorm.fixtures import SUITE, rp2_6
from homnorm.homology import (class_of_cycle, homology_decomposition,
                              reduce_class)
from homnorm.optimize import min_int, min_mod
from homnorm.rings import (INT, RAT, canonicalize, mod_ring, parse_element,
                           ring_from_tag)

TRIANGLE_DOC = json.dumps({
    "name": "triangle-circle",
    "dimension": 1,
    "simplices": {"0": [[0], [1], [2]], "1": [[0, 1], [0, 2], [1, 2]]},
})


def test_load_triangle_circle_defaults_unit_weights():
    K = load_complex(TRIANGLE_DOC)
    assert K.dim == 1
    assert K.n_simplices(0) == 3 and K.n_simplices(1) == 3
    assert all(w == 1 for w in K.weights[1])


def test_load_rejects_missing_face():
    doc = json.dumps({
        "name": "broken", "dimension": 2,
        "simplices": {"0": [[0], [1], [2]],
                      "1": [[0, 1], [0, 2]],
                      "2": [[0, 1, 2]]},
    })
    with pytest.raises(ComplexFormatError, match=r"\[1, 2\]"):
        load_complex(doc)


def test_load_rejects_nonpositive_weight():
    doc = json.dumps({
        "name": "flat", "dimension": 1,
        "simplices": {"0": [[0], [1]], "1": [[0, 1]]},
        "weights": {"1": ["0/1"]},
    })
    with pytest.raises(ComplexFormatError, match="nonpositive weight"):
        load_complex(doc)


def test_load_rejects_duplicates_and_unsorted():
    dup = json.dumps({
        "name": "dup", "dimension": 1,
        "simplices": {"0": [[0], [1]], "1": [[0, 1], [0, 1]]},
    })
    with pytest.raises(ComplexFormatError, match="duplicate"):
        load_complex(dup)
    unsorted_doc = json.dumps({
        "name": "unsorted", "dimension": 1,
        "simplices": {"0": [[0], [1]], "1": [[1, 0]]},
    })
    with pytest.raises(ComplexFormatError, match="strictly increasing"):
        load_complex(unsorted_doc)


def test_load_rejects_garbage():
    with pytest.raises(ComplexFormatError, match="parse error"):
        load_complex("{not json")
    with pytest.raises(ComplexFormatError, match="parse error"):
        load_complex("[" * 5000)  # deeper than the decoder's recursion limit
    with pytest.raises(ComplexFormatError):
        load_complex(json.dumps({"name": "x", "dimension": 1,
                                 "simplices": {"0": [[0]]}}))
    # a string in place of a vertex list, and a dimension that is not an
    # integer: rejected rather than read as vertices or truncated
    with pytest.raises(ComplexFormatError, match="vertex list"):
        load_complex(json.dumps({"name": "s", "dimension": 1,
                                 "simplices": {"0": "012", "1": [[0, 1]]}}))
    with pytest.raises(ComplexFormatError, match="vertex list"):
        load_complex(json.dumps({"name": "s", "dimension": 1,
                                 "simplices": {"0": ["0", "1"],
                                               "1": [[0, 1]]}}))
    for dim in (1.9, True, "1"):
        with pytest.raises(ComplexFormatError, match="dimension"):
            load_complex(json.dumps({"name": "d", "dimension": dim,
                                     "simplices": {"0": [[0], [1]],
                                                   "1": [[0, 1]]}}))
    # weights for a degree the complex does not have, and a name that is
    # not a string: rejected rather than ignored or converted
    with pytest.raises(ComplexFormatError, match="weights listed outside"):
        load_complex(json.dumps({"name": "w", "dimension": 1,
                                 "simplices": {"0": [[0], [1]], "1": [[0, 1]]},
                                 "weights": {"5": ["1"]}}))
    with pytest.raises(ComplexFormatError, match="'name' must be a string"):
        load_complex(json.dumps({"name": [1, 2], "dimension": 1,
                                 "simplices": {"0": [[0], [1]],
                                               "1": [[0, 1]]}}))


@pytest.mark.parametrize("weights", [{"1": [5]}, {"1": [0.5]}, {"1": [None]},
                                     {"1": "7"}, {"1": 5}])
def test_load_rejects_weights_that_are_not_rational_strings(weights):
    doc = json.dumps({"name": "w", "dimension": 1,
                      "simplices": {"0": [[0], [1]], "1": [[0, 1]]},
                      "weights": weights})
    with pytest.raises(ComplexFormatError, match="p/q"):
        load_complex(doc)


@pytest.mark.parametrize("weight", ["\u0663", "1/\u0662", "1_0", "+3"])
def test_load_rejects_weights_that_are_not_ascii_decimal(weight):
    doc = json.dumps({"name": "w", "dimension": 1,
                      "simplices": {"0": [[0], [1]], "1": [[0, 1]]},
                      "weights": {"1": [weight]}})
    with pytest.raises(ComplexFormatError, match="bad rational literal"):
        load_complex(doc)


def _load_outcome(obj):
    try:
        K = complex_from_json(obj)
    except ComplexFormatError as exc:
        return "error", str(exc)
    return K.simplices, K.weights, tuple(map(K.faces, range(K.dim + 1)))


def _reference_outcome(obj):
    try:
        simplices, weights = reference_load(obj)
    except ComplexFormatError as exc:
        return "error", str(exc)
    return simplices, weights, tuple(reference_faces(simplices, d)
                                     for d in range(len(simplices)))


def _mutate(rng: random.Random, doc: dict, kind: str) -> dict:
    """A copy of ``doc`` with one seeded change of the given kind."""
    doc = json.loads(json.dumps(doc))
    simp, weights = doc["simplices"], doc.get("weights", {})
    dim = doc["dimension"]
    k = rng.randrange(dim if kind == "drop-face" else dim + 1)
    level, wlevel = simp[str(k)], weights.get(str(k))
    i = rng.randrange(len(level))
    if kind == "drop-face":
        del level[i]
        if wlevel is not None:
            del wlevel[i]
    elif kind == "duplicate":
        j = rng.randrange(len(level) + 1)
        level.insert(j, list(level[i]))
        if wlevel is not None:
            wlevel.insert(j, wlevel[i])
    elif kind == "shuffle-level":
        order = rng.sample(range(len(level)), len(level))
        simp[str(k)] = [level[j] for j in order]
        if wlevel is not None:
            weights[str(k)] = [wlevel[j] for j in order]
    elif kind == "reorder-vertices":
        k = rng.randrange(1, dim + 1)
        level = simp[str(k)]
        i = rng.randrange(len(level))
        level[i] = level[i][::-1]
    elif kind == "swap-vertices":
        k = rng.randrange(1, dim + 1)
        s = simp[str(k)][rng.randrange(len(simp[str(k)]))]
        j = rng.randrange(k)
        s[j], s[j + 1] = s[j + 1], s[j]
    elif kind == "negative-vertex":
        s = level[i]
        j = rng.randrange(len(s))
        s[j] = -1 - s[j]
    elif kind == "vertex-count":
        s = level[i]
        if len(s) > 1 and rng.random() < 0.5:
            del s[rng.randrange(len(s))]
        else:
            s.append(max(s) + 1 + rng.randrange(3))
    else:  # a weight literal, one of the given kind's
        literals = {"bad-weight": ["0/1", "0", "-1/2", "-3", "1/0", "x",
                                   "1.5", "", "2/-3", "--1"],
                    "good-weight": [" 2/3 ", "4/6", "7", "10/5"]}[kind]
        wlevel = weights.setdefault(str(k), ["1/1"] * len(level))
        wlevel[i] = rng.choice(literals)
        doc["weights"] = weights
    return doc


LOAD_MUTATIONS = {"drop-face": False, "duplicate": False,
                  "reorder-vertices": False, "swap-vertices": False,
                  "negative-vertex": False,
                  "vertex-count": False, "bad-weight": False,
                  "shuffle-level": True, "good-weight": True}


def torus3_grid(k: int, seed) -> WeightedComplex:
    """The Freudenthal triangulation of the k x k x k cube with opposite
    faces identified, its vertices relabelled by ``seed``: each unit cube is
    cut into the six tetrahedra along its main diagonal, and every face of
    one is listed.  Edges weigh 1 to 3 by a seeded draw."""
    rng = random.Random(seed)
    perm = rng.sample(range(k ** 3), k ** 3)
    steps = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    tetrahedra = set()
    for x in itertools.product(range(k), repeat=3):
        for order in itertools.permutations(steps):
            path = [x]
            for e in order:
                path.append(tuple(a + b for a, b in zip(path[-1], e)))
            tetrahedra.add(tuple(sorted(
                perm[(p[0] % k) * k * k + (p[1] % k) * k + p[2] % k]
                for p in path)))
    levels = [sorted({f for t in tetrahedra
                      for f in itertools.combinations(t, d + 1)})
              for d in range(4)]
    weights = [[Fraction(1)] * len(level) for level in levels]
    weights[1] = [Fraction(rng.randint(1, 3)) for _ in levels[1]]
    return WeightedComplex(f"torus3-{k}", levels, weights)


def test_load_matches_the_reference_reader():
    """Fixture documents, relabelled T3/T4 grid documents (one with its
    weights left to the default), two dimension-3 documents (the boundary
    of the 4-simplex and a relabelled 3-torus grid), seeded mutations of
    them and documents with two seeded mutations load to the reference
    reader's simplices, weights and faces, or fail with its message: the
    first violation in document order, among dropped faces, duplicate
    simplices, shuffled levels, reversed or swapped vertices, negative
    vertices, wrong vertex counts, and zero, negative, malformed or
    equivalent weight literals."""
    rng = random.Random("load-differential")
    docs = [complex_to_json(make()) for make in SUITE.values()]
    docs += [complex_to_json(torus_grid(k, seed=seed, weights=weights))
             for k, seed, weights in ((3, 5, (1, 1, 1)),
                                      (3, 6, (1, 2, Fraction(3, 2))),
                                      (4, 7, (1, 1, 1)),
                                      (4, 8, (Fraction(1, 3), 2, 5)))]
    del docs[-1]["weights"]
    sphere3 = [list(itertools.combinations(range(5), d + 1))
               for d in range(4)]
    docs.append(complex_to_json(WeightedComplex("sphere3", sphere3)))
    docs.append(complex_to_json(torus3_grid(3, seed=9)))
    for doc in docs:
        assert _load_outcome(doc) == _reference_outcome(doc)
        assert _load_outcome(doc)[0] != "error"
        for kind, valid in LOAD_MUTATIONS.items():
            for _ in range(3):
                mutated = _mutate(rng, doc, kind)
                got = _load_outcome(mutated)
                assert got == _reference_outcome(mutated), (doc["name"], kind)
                assert (got[0] != "error") == valid, (doc["name"], kind, got)
        for _ in range(12):
            kinds = rng.sample(sorted(LOAD_MUTATIONS), 2)
            mutated = _mutate(rng, _mutate(rng, doc, kinds[0]), kinds[1])
            assert _load_outcome(mutated) == _reference_outcome(mutated), \
                (doc["name"], kinds)


def test_document_round_trip(torus, mobius):
    for K in (torus, mobius):
        K2 = load_complex(dump_complex(K))
        assert complex_to_json(K2) == complex_to_json(K)


def test_boundary_triangle_circle(tc):
    assert tc.n_simplices(0) == 3 and len(tc.faces(1)) == 3
    for faces in tc.faces(1):
        assert len({i for i, _ in faces}) == 2
        assert sorted(sign for _, sign in faces) == [-1, 1]


def test_boundary_single_triangle():
    K = WeightedComplex("disk", [[(0,), (1,), (2,)],
                                 [(0, 1), (0, 2), (1, 2)],
                                 [(0, 1, 2)]])
    assert dict(K.faces(2)[0]) == {0: 1, 1: -1, 2: 1}


def test_boundary_squares_to_zero():
    """Walking faces of faces, every d-simplex reaches each (d-2)-face with
    signs summing to zero, on every fixture and a grid in every degree."""
    for K in [make() for make in SUITE.values()] + [torus_grid(3, seed=2)]:
        for d in range(2, K.dim + 1):
            lower = K.faces(d - 1)
            for faces in K.faces(d):
                total: dict[int, int] = {}
                for i, sign in faces:
                    for k, sign2 in lower[i]:
                        total[k] = total.get(k, 0) + sign * sign2
                assert not any(total.values())


def test_faces_follow_the_definition(tc, torus, rp2, mobius):
    """``faces(d)`` lists, for each d-simplex, the (d-1)-simplex left by
    omitting vertex i with sign (-1)^i, in the order of i; vertices have
    none; each degree is built once and degrees out of range are refused."""
    for K in (tc, torus, rp2, mobius, torus_grid(3, seed=2)):
        assert K.faces(0) == ((),) * K.n_simplices(0)
        for d in range(1, K.dim + 1):
            assert K.faces(d) is K.faces(d)
            assert K.faces(d) == tuple(
                tuple((K.index_of(d - 1, s[:i] + s[i + 1:]), (-1) ** i)
                      for i in range(d + 1))
                for s in K.simplices[d])
        for d in (-1, K.dim + 1):
            with pytest.raises(ValueError):
                K.faces(d)


def test_mass_examples():
    K = WeightedComplex("two-edges",
                        [[(0,), (1,), (2,), (3,)], [(0, 1), (2, 3)]],
                        [[Fraction(1)] * 4, [Fraction(3, 2), Fraction(2)]])
    T = Chain.make(K, 1, INT, {0: 2, 1: -3})
    assert mass(K, T) == 9
    T4 = reduce_chain(T, mod_ring(4))
    assert mass(K, T4) == 5
    assert mass(K, Chain.zero(K, 1, INT)) == 0


def test_reduce_chain_examples(tc):
    T = Chain.make(tc, 1, INT, {0: 2, 1: -3})
    R = reduce_chain(T, mod_ring(4))
    assert dict(R.coeffs) == {0: 2, 1: 1}
    assert not reduce_chain(Chain.zero(tc, 1, INT), mod_ring(4)).coeffs
    dropped = reduce_chain(Chain.make(tc, 1, INT, {0: 5}), mod_ring(5))
    assert not dropped.coeffs


def test_lift_chain_round_trip(tc):
    T = Chain.make(tc, 1, mod_ring(5), {0: 3, 2: 1})
    lifted = lift_chain(T)
    assert dict(lifted.coeffs) == {0: -2, 2: 1}
    assert reduce_chain(lifted, mod_ring(5)) == T
    assert mass(tc, lifted) == mass(tc, T)


def test_mass_norm_axioms_random_chains(torus, mobius):
    rng = random.Random("mass-axioms")
    for K in (torus, mobius):
        n1 = K.n_simplices(1)
        for ring in (INT, RAT, mod_ring(6)):
            for _ in range(300):
                def rand_chain():
                    coeffs = {}
                    for i in rng.sample(range(n1), rng.randint(0, 4)):
                        if ring.is_rat:
                            coeffs[i] = Fraction(rng.randint(-5, 5),
                                                 rng.randint(1, 4))
                        elif ring.is_mod:
                            coeffs[i] = rng.randrange(6)
                        else:
                            coeffs[i] = rng.randint(-5, 5)
                    return Chain.make(K, 1, ring, coeffs)
                T, S = rand_chain(), rand_chain()
                neg = Chain.make(K, 1, ring, [(i, -v) for i, v in T.coeffs])
                total = Chain.make(K, 1, ring, T.coeffs + S.coeffs)
                assert mass(K, neg) == mass(K, T)
                assert mass(K, total) <= mass(K, T) + mass(K, S)
                assert (mass(K, T) == 0) == (not T.coeffs)


def test_mass_never_increases_under_reduction(torus):
    rng = random.Random("mass-reduce")
    n1 = torus.n_simplices(1)
    for _ in range(200):
        T = Chain.make(torus, 1, INT,
                       {i: rng.randint(-6, 6) for i in rng.sample(range(n1), 5)})
        for target in (RAT, mod_ring(2), mod_ring(5), mod_ring(9)):
            assert mass(torus, reduce_chain(T, target)) <= mass(torus, T)


def _canonicalize_fold(ring, items):
    """Chain coefficients by canonicalizing every value and every sum."""
    acc = {}
    for idx, value in items:
        v = canonicalize(ring, value)
        if v:
            acc[idx] = canonicalize(ring, acc.get(idx, canonicalize(ring, 0)) + v)
            if not acc[idx]:
                del acc[idx]
    return tuple(sorted(acc.items()))


def test_chain_make_matches_a_canonicalize_fold(torus):
    rng = random.Random("chain-make")
    n1 = torus.n_simplices(1)
    for ring in (INT, RAT, mod_ring(2), mod_ring(5), mod_ring(12)):
        for _ in range(150):
            items = []
            for _ in range(rng.randint(0, 10)):
                idx = rng.randrange(n1)
                kind = rng.randrange(4)
                if kind == 0:
                    value = rng.choice([0, 1, -1, 5, -12, 24, 10 ** 20 + 3])
                elif kind == 1:
                    value = Fraction(rng.randint(-30, 30),
                                     rng.randint(1, 4) if ring.is_rat else 1)
                elif kind == 2:
                    value = rng.choice([True, False])
                else:  # a pair that cancels, with a term between them
                    value = rng.randint(-9, 9)
                    items += [(idx, value), (rng.randrange(n1), 2)]
                    value = -value
                items.append((idx, value))
            expected = _canonicalize_fold(ring, items)
            got = Chain.make(torus, 1, ring, items).coeffs
            assert got == expected
            assert [type(v) for _, v in got] == [type(v) for _, v in expected]
    for ring, message in ((INT, "is not an integer"),
                          (mod_ring(4), "is not a residue")):
        with pytest.raises(ValueError, match=message):
            Chain.make(torus, 1, ring, [(0, 1), (1, Fraction(1, 2))])
    with pytest.raises(ValueError, match="no degree-1 simplex"):
        Chain.make(torus, 1, INT, {n1: 1})


def test_chain_serialization_round_trip(tc):
    for ring, coeffs in ((INT, {0: -2, 2: 5}), (RAT, {1: Fraction(1, 3)}),
                         (mod_ring(7), {0: 6})):
        T = Chain.make(tc, 1, ring, coeffs)
        doc = T.to_json()
        assert doc["ring"] == ring.tag and doc["degree"] == 1
        back = Chain.make(tc, doc["degree"], ring_from_tag(doc["ring"]),
                          [(i, parse_element(ring, v))
                           for i, v in doc["coefficients"]])
        assert back == T


def test_cochain_closed_and_pairing(mobius):
    phi = Cochain.make(mobius, 1,
                       [Fraction(i + 1, 3) for i in range(mobius.n_simplices(1))])
    z = Chain.make(mobius, 1, INT, {0: 1, 3: -2})
    assert reference_pairing(phi, chain_vector(z)) == \
        Fraction(1, 3) - 2 * Fraction(4, 3)
    n = mobius.n_simplices(1)
    assert _is_calibration(mobius, 1, [0] * n, [1] * n)


def test_fractions_pass_through_unwrapped(tc):
    """Cochain values and complex weights that are already Fractions are
    kept as the same objects; ints and "p/q" strings become Fractions of
    the same value."""
    given = [Fraction(2, 3), 5, "7/4"]
    expect = [Fraction(2, 3), Fraction(5), Fraction(7, 4)]
    phi = Cochain.make(tc, 1, given)
    K = WeightedComplex("w", tc.simplices, [[1, 1, 1], given])
    for got in (phi.values, K.weights[1]):
        assert got == tuple(expect)
        assert all(type(v) is Fraction for v in got)
        assert got[0] is given[0]


def _dense_boundary(T: Chain) -> list:
    A = boundary_matrix(T.complex, T.degree)
    v = chain_vector(T)
    out = [sum((A.data[i][j] * v[j] for j in range(A.cols)), 0)
           for i in range(A.rows)]
    return [x % T.ring.modulus for x in out] if T.ring.is_mod else out


def _random_cycle(rng: random.Random, K, d: int, dec) -> list:
    """An integral cycle: basis cycles and boundaries with random
    coefficients."""
    vec = [0] * K.n_simplices(d)
    for b in dec.free_basis + dec.torsion_basis:
        a = rng.randint(-2, 2)
        for i, v in b.coeffs:
            vec[i] += a * v
    for faces in (K.faces(d + 1) if d < K.dim else ()):
        a = rng.choice((0, 0, 1, -2))
        for i, sign in faces:
            vec[i] += a * sign
    return vec


def test_cycle_test_matches_the_dense_boundary():
    """``Chain.is_cycle`` and ``class_of_cycle`` share one face walk: a
    chain is a cycle, and has a class, exactly when its dense boundary
    vanishes (mod n over Z/n).  Random chains and random cycles over Z, Q
    and Z/2..Z/4, in every degree of the fixtures, relabelled grids and
    random complexes, and chains that are cycles only mod n: the mod-n
    cotorsion generators and twice the rp2 fundamental chain mod 4."""
    rng = random.Random("cycle-test")
    complexes = [make() for make in SUITE.values()]
    complexes += [torus_grid(3, seed=1), torus_grid(4, seed=3)]
    complexes += [random_complex(rng) for _ in range(4)]
    seen = {True: 0, False: 0}
    only_mod_n = 0

    def check(T: Chain) -> None:
        nonlocal only_mod_n
        dense = _dense_boundary(T)
        assert T.is_cycle() == (not any(dense)), (T.complex.name, T.degree)
        if any(dense):
            with pytest.raises(NotACycleError):
                class_of_cycle(T.complex, T.degree, T)
        else:
            assert class_of_cycle(T.complex, T.degree, T).ring == T.ring
            if T.ring.is_mod:
                only_mod_n += any(_dense_boundary(lift_chain(T)))
        seen[not any(dense)] += 1

    for K in complexes:
        for d in range(K.dim + 1):
            n = K.n_simplices(d)
            dec = homology_decomposition(K, d)
            for ring in (INT, RAT, mod_ring(2), mod_ring(3), mod_ring(4)):
                scale = Fraction(1, rng.randint(1, 3)) if ring.is_rat else 1
                for _ in range(2):
                    support = rng.sample(range(n), rng.randint(0, n))
                    check(Chain.make(K, d, ring, {
                        i: rng.randint(-5, 5) * scale for i in support}))
                    check(Chain.from_vector(K, d, ring, [
                        v * scale for v in _random_cycle(rng, K, d, dec)]))
                if ring.is_mod:
                    for _, _, wvec in dec.mod(ring.modulus).cotorsion:
                        check(Chain.from_vector(K, d, ring, wvec))
    K = rp2_6()
    fundamental = [1] * K.n_simplices(2)
    for coeff, n, cycle in ((1, 2, True), (1, 4, False), (2, 4, True)):
        T = Chain.from_vector(K, 2, mod_ring(n), [coeff * v for v in fundamental])
        assert T.is_cycle() is cycle
        check(T)
    assert seen[True] and seen[False] and only_mod_n


def test_scaled_weights_sibling(mobius):
    K2 = mobius.with_scaled_weights(1, [0, 1], Fraction(1, 2))
    assert K2.weights[1][0] == mobius.weights[1][0] / 2
    assert K2.weights[1][2] == mobius.weights[1][2]
    assert K2.simplices == mobius.simplices
    with pytest.raises(ValueError):
        mobius.with_scaled_weights(1, [99], Fraction(1, 2))
    with pytest.raises(ValueError):
        mobius.with_scaled_weights(1, [0], Fraction(0))
    with pytest.raises(ValueError):
        mobius.with_scaled_weights(3, [], Fraction(1, 2))


@pytest.mark.parametrize("name", SUITE)
def test_scaled_weights_sibling_shares_only_weight_free_state(name):
    """A sibling shares the face tables and decompositions of its complex,
    the last rebound to it, and the mod-n decompositions of either, built
    before or after the split; its memo of the tables that read the
    weights is its own and starts empty."""
    K = SUITE[name]()
    decs = [homology_decomposition(K, d) for d in range(K.dim + 1)]
    for dec in decs:
        dec.mod(4)
    dec1 = decs[1]
    unit = [1] + [0] * (dec1.betti + len(dec1.torsion) - 1)
    c = dec1.class_coords(INT, unit[:dec1.betti], unit[dec1.betti:])
    min_int(K, 1, c)
    min_mod(K, 1, reduce_class(c, mod_ring(4)))
    K2 = K.with_scaled_weights(1, [0, 2], Fraction(1, 3))
    assert K2.weights[1][0] == K.weights[1][0] / 3
    assert K2.weights[1][1] == K.weights[1][1]
    assert all(K2.weights[d] is K.weights[d]
               for d in range(K.dim + 1) if d != 1)
    assert all(K2.faces(d) is K.faces(d) for d in range(K.dim + 1))
    assert K2.index_of(1, K.simplices[1][2]) == 2
    for d, dec in enumerate(decs):
        dec2 = homology_decomposition(K2, d)
        assert dec2 is not dec and dec2.complex is K2
        assert (dec2.betti, dec2.torsion_factors) == (dec.betti,
                                                      dec.torsion_factors)
        for b2, b in zip(dec2.free_basis + dec2.torsion_basis,
                         dec.free_basis + dec.torsion_basis, strict=True):
            assert b2.complex is K2 and b2.coeffs == b.coeffs
            assert mass(K2, b2) == sum(K2.weights[d][i] * abs(v)
                                       for i, v in b.coeffs)
        assert dec2.mod(4) is dec.mod(4)
        assert dec2.mod(5) is dec.mod(5)
        assert all(dec2.dual_cocycle(i) is dec.dual_cocycle(i)
                   for i in range(dec.betti))
    assert ("weights", 1) in K._memo
    assert not K2._memo and K2._memo is not K._memo
    assert K2.integer_weights(1) != K.integer_weights(1)


def test_complex_invariants_are_one_line_errors():
    with pytest.raises(ComplexFormatError,
                       match=r"^complex has no simplices at all$"):
        WeightedComplex("empty", [])
    with pytest.raises(ComplexFormatError,
                       match=r"^weights do not cover every degree$"):
        WeightedComplex("w", [[(0,), (1,)], [(0, 1)]], [[1, 1]])
    with pytest.raises(ComplexFormatError,
                       match=r"^degree 0: 1 weights for 2 simplices$"):
        WeightedComplex("w", [[(0,), (1,)]], [[1]])
    with pytest.raises(ComplexFormatError,
                       match=r"^degree 1: 2 weights for 3 simplices$"):
        load_complex(json.dumps({**json.loads(TRIANGLE_DOC),
                                 "weights": {"1": ["1/2", "1/3"]}}))


@pytest.mark.parametrize("doc,message", [
    ([], "document root must be an object"),
    ({"name": "x", "dimension": 0}, "missing or malformed field: 'simplices'"),
    ({"name": "x", "dimension": 0, "simplices": [[[0]]]},
     "'simplices' must map degree -> list"),
    ({"name": "x", "dimension": 0, "simplices": {"0": [[0]]},
      "weights": ["1"]}, "'weights' must map degree -> list"),
    ({"name": "x", "dimension": 0,
      "simplices": {"0": [[0], [1]], "1": [[0, 1]]}},
     "simplices listed beyond declared dimension: degree 1"),
], ids=["root", "missing", "simplices", "weights", "beyond"])
def test_malformed_documents_are_one_line_errors(doc, message):
    with pytest.raises(ComplexFormatError) as exc:
        complex_from_json(doc)
    assert str(exc.value) == message


def test_out_of_range_arguments_are_refused(tc):
    with pytest.raises(ComplexFormatError) as exc:
        tc.index_of(1, (0, 9))
    assert str(exc.value) == \
        "no degree-1 simplex [0, 9] in complex 'triangle-circle'"
    for make in (lambda: Chain.make(tc, 2, INT, {}),
                 lambda: Cochain.make(tc, 2, [])):
        with pytest.raises(ValueError, match=r"^degree 2 out of range 0\.\.1$"):
            make()
    with pytest.raises(ValueError, match=r"^cochain value count does not "
                                         r"match simplex count$"):
        Cochain.make(tc, 1, [Fraction(1)] * 2)
    other = load_complex(TRIANGLE_DOC)
    with pytest.raises(ValueError,
                       match=r"^chain does not live on this complex$"):
        mass(tc, Chain.make(other, 1, INT, {0: 1}))
