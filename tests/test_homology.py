"""Homology decompositions, class coordinates, reductions and the kernel lemma."""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from homnorm.complexes import Chain, NotACycleError, WeightedComplex
from homnorm.fixtures import (SUITE, MOBIUS_CORE_EDGES, klein8, mobius_band,
                              rp2_6, torus7)
from homnorm.homology import (HomologyDecomposition, InfeasibleClassError,
                              class_of_cycle, homology_decomposition,
                              reduce_class)
from homnorm.rings import INT, RAT, mod_ring

from conftest import moore_space, random_complex, torus_grid
from oracles import (IntMatrix, ReferenceHomologyDecomposition,
                     ReferenceModDecomposition, boundary_matrix,
                     kernel_witness, reduce_chain, smith_normal_form,
                     solve_with_snf)


def _representative(dec, c):
    return Chain.from_vector(dec.complex, dec.degree, c.ring,
                             dec.representative_vector(c))


def _class_of(dec, vec, ring):
    """``coords_of_cycle`` of the chain over ``ring`` with dense vector
    ``vec`` (over Z/n, an integer lift of it)."""
    return dec.coords_of_cycle(
        Chain.from_vector(dec.complex, dec.degree, ring, vec))


def _orders(md):
    return tuple(order for order, _, _ in md.cotorsion)


def test_fixture_decompositions(tc, torus, rp2, klein):
    expected = {
        "tc": (tc, 1, 1, (), 1),
        "torus": (torus, 1, 2, (), 1),
        "rp2": (rp2, 1, 0, ((2, 1),), 2),
        "klein": (klein, 1, 1, ((2, 1),), 2),
    }
    for K, d, betti, torsion, tau in expected.values():
        dec = homology_decomposition(K, d)
        assert dec.betti == betti
        assert dec.torsion_factors == torsion
        assert dec.torsion_number == tau
    assert homology_decomposition(rp2, 2).betti == 0
    assert homology_decomposition(rp2, 2).torsion_factors == ()
    assert homology_decomposition(torus, 2).betti == 1
    assert homology_decomposition(klein, 2).betti == 0


def test_basis_cycles_are_cycles(tc, torus, rp2, klein, mobius):
    for K in (tc, torus, rp2, klein, mobius):
        for d in range(K.dim + 1):
            dec = homology_decomposition(K, d)
            for ch in dec.free_basis + dec.torsion_basis:
                assert ch.is_cycle()
            prod = 1
            for p, nu in dec.torsion_factors:
                prod *= p ** nu
            assert dec.torsion_number == prod


def test_class_of_cycle_triangle_circle(tc):
    z = Chain.make(tc, 1, INT, {tc.index_of(1, (0, 1)): 1,
                                tc.index_of(1, (1, 2)): 1,
                                tc.index_of(1, (0, 2)): -1})
    c = class_of_cycle(tc, 1, z)
    assert c.free_part in ((1,), (-1,))


def test_class_of_boundary_is_zero(torus):
    B = boundary_matrix(torus, 2)
    vec = B.mul_vec([1, -2, 0, 3] + [0] * (B.cols - 4))
    z = Chain.from_vector(torus, 1, INT, vec)
    assert class_of_cycle(torus, 1, z).is_zero()
    zq = Chain.from_vector(torus, 1, RAT, [Fraction(v) for v in vec])
    assert class_of_cycle(torus, 1, zq).is_zero()
    z5 = reduce_chain(z, mod_ring(5))
    assert class_of_cycle(torus, 1, z5).is_zero()


def test_class_of_rp2_mod2_fundamental(rp2):
    fund = Chain.make(rp2, 2, mod_ring(2),
                      {i: 1 for i in range(rp2.n_simplices(2))})
    assert fund.is_cycle()
    c = class_of_cycle(rp2, 2, fund)
    assert not c.is_zero()
    assert c.cotorsion_part == (1,)


def test_not_a_cycle_rejected(tc):
    z = Chain.make(tc, 1, INT, {0: 1})
    with pytest.raises(NotACycleError):
        class_of_cycle(tc, 1, z)


def test_reduce_class_examples(torus, rp2, klein):
    dec_t = homology_decomposition(torus, 1)
    c = dec_t.class_coords(INT, (3, 0))
    r = reduce_class(c, mod_ring(2))
    assert r.free_part == (1, 0) and r.cotorsion_part == ()

    dec_r = homology_decomposition(rp2, 1)
    t = dec_r.class_coords(INT, (), (1,))
    assert reduce_class(t, RAT).is_zero()

    dec_k = homology_decomposition(klein, 1)
    kb = dec_k.class_coords(INT, (1,), (1,))
    rk = reduce_class(kb, mod_ring(2))
    assert rk.free_part == (1,) and rk.torsion_part == (1,)


def test_reduce_class_injective_on_torsion_when_tau_divides(rp2, klein):
    for K in (rp2, klein):
        dec = homology_decomposition(K, 1)
        for n in (2, 4, 6, 8):
            seen = set()
            for b in range(2):
                c = dec.class_coords(INT, (0,) * dec.betti, (b,))
                r = reduce_class(c, mod_ring(n))
                key = (r.free_part, r.torsion_part, r.cotorsion_part)
                assert key not in seen
                seen.add(key)


def test_kernel_witness_examples(klein):
    dec = homology_decomposition(klein, 1)
    X = dec.class_coords(INT, (3,), (1,))
    Y = dec.class_coords(INT, (1,), (1,))
    W = kernel_witness(X, Y, 2)
    assert W is not None and W.free_part == (1,) and W.torsion_part == (0,)
    assert kernel_witness(X, X, 2).is_zero()
    X2 = dec.class_coords(INT, (0,), (1,))
    Y2 = dec.class_coords(INT, (0,), (0,))
    assert kernel_witness(X2, Y2, 2) is None
    with pytest.raises(ValueError):
        kernel_witness(X, Y, 3)  # tau = 2 does not divide 3


def test_kernel_witness_exhaustive_klein(klein):
    dec = homology_decomposition(klein, 1)
    for n in (2, 4, 6):
        ring = mod_ring(n)
        for a1 in range(-2, 3):
            for b1 in range(2):
                for a2 in range(-2, 3):
                    for b2 in range(2):
                        X = dec.class_coords(INT, (a1,), (b1,))
                        Y = dec.class_coords(INT, (a2,), (b2,))
                        W = kernel_witness(X, Y, n)
                        same = reduce_class(X, ring) == reduce_class(Y, ring)
                        if same:
                            assert W is not None
                            assert b1 == b2
                            assert tuple(n * w for w in W.free_part) == \
                                (a1 - a2,)
                        else:
                            assert W is None


def test_in_reduction_image(rp2, torus):
    """A mod-n class is the reduction of an integral class exactly when its
    cotorsion coordinates vanish."""
    fund2 = Chain.make(rp2, 2, mod_ring(2),
                       {i: 1 for i in range(rp2.n_simplices(2))})
    c = class_of_cycle(rp2, 2, fund2)
    assert any(c.cotorsion_part)

    dec_t2 = homology_decomposition(torus, 2)
    fund = dec_t2.class_coords(INT, (1,))
    r3 = reduce_class(fund, mod_ring(3))
    assert not any(r3.cotorsion_part)

    zero = c.scale(0)
    assert zero.is_zero() and not any(zero.cotorsion_part)


def test_cotorsion_vectors_are_built_only_when_read():
    """Class coordinates and reductions take the cotorsion count and
    orders from the gcds; the dense generator triples wait for a reader."""
    for n in range(2, 9):
        dec = HomologyDecomposition(rp2_6(), 2)
        md = dec.mod(n)
        ring = mod_ring(n)
        c = dec.class_coords(ring, (), (), (1,) * len(md.cotorsion_orders))
        zero = reduce_class(dec.class_coords(INT, ()), ring)
        assert zero.is_zero()
        assert len(zero.cotorsion_part) == len(c.cotorsion_part)
        assert "cotorsion" not in vars(md)
        assert md.cotorsion_orders == _orders(md) == (
            (2,) if n % 2 == 0 else ())
        assert md.cotorsion is md.cotorsion


def test_in_reduction_image_matches_cotorsion_flag(rp2, klein):
    for K, d in ((rp2, 1), (rp2, 2), (klein, 1), (klein, 2)):
        dec = homology_decomposition(K, d)
        for n in (2, 3, 4, 6):
            md = dec.mod(n)
            ring = mod_ring(n)
            frees = [(0,) * dec.betti]
            if dec.betti:
                frees.append((1,) + (0,) * (dec.betti - 1))
            for free in frees:
                for t in range(max(1, 2 if dec.torsion else 1)):
                    torsion = (t,) * len(dec.torsion)
                    for g in range(2):
                        cot = tuple(
                            g % order for order, _, _ in md.cotorsion)
                        c = dec.class_coords(ring, free, torsion, cot)
                        lift = dec.class_coords(INT, c.free_part,
                                                c.torsion_part)
                        assert (reduce_class(lift, ring) == c) == \
                            all(v == 0 for v in c.cotorsion_part)


def test_mod_decomposition_runs_no_smith_normal_form(monkeypatch):
    import homnorm.homology as homology
    calls = []
    real_snf = homology.sparse_smith_normal_form
    monkeypatch.setattr(homology, "sparse_smith_normal_form",
                        lambda *A, **kw:
                        calls.append(A) or real_snf(*A, **kw))
    # Fresh complexes, so no other test has filled their caches.
    for K in (torus7(), rp2_6()):
        decs = [homology_decomposition(K, d) for d in range(K.dim + 1)]
        calls.clear()
        for dec in decs:
            for n in range(2, 51):
                md = dec.mod(n)
                c = dec.class_coords(
                    mod_ring(n), (1,) * dec.betti, (1,) * len(dec.torsion),
                    (1,) * len(md.cotorsion))
                rep = _representative(dec, c)
                assert class_of_cycle(K, dec.degree, rep) == c
                assert (not any(c.cotorsion_part)) == (not md.cotorsion)
        assert calls == []


def test_decomposition_runs_the_form_each_boundary_allows(monkeypatch):
    """Per degree, the forms that run.  For the boundary: in degree 1 the
    incidence path; in any other degree the signed-graph path tracking V,
    and the sparse form (tracking V) where it returns None, for a factor 2
    (the closed non-orientable rp2 and klein, M_2) or a row of more than
    two entries (M_3, an edge on three triangles).  For the next boundary
    in kernel coordinates the signed-graph path tracking U, and the sparse
    form (tracking U) where it returns None, for a factor 2 (rp2, klein,
    M_2 in degree 1) or a row of more than two entries (M_3 in degree 1,
    the vertex rows of degree 0).  The shape of the rows decides, not the
    degree: the empty boundary of degree 0 and the boundary of a solid
    tetrahedron in degree 2 are signed graphs."""
    import homnorm.homology as homology
    runs = []

    def spy(name, form, track=False):
        def run(*args, **kw):
            res = form(*args, **kw)
            runs.append(name + (" " + kw.get("_track", "u") if track else "")
                        + ("" if res else " None"))
            return res
        monkeypatch.setattr(homology, form.__name__, run)

    spy("incidence", homology.incidence_smith_normal_form)
    spy("signed", homology.signed_graph_smith_normal_form, track=True)
    real_snf = homology.sparse_smith_normal_form
    monkeypatch.setattr(homology, "sparse_smith_normal_form",
                        lambda *A, **kw: runs.append(
                            "sparse " + kw["_track"]) or real_snf(*A, **kw))
    forest = ["incidence", "signed u"]
    factor_two = ["incidence", "signed u None", "sparse u"]
    zero = ["signed v", "signed u None", "sparse u"]
    top = ["signed v", "signed u"]
    top_factor_two = ["signed v None", "sparse v", "signed u"]
    for K, one, two in ((torus7(), forest, top),
                        (rp2_6(), factor_two, top_factor_two),
                        (klein8(), factor_two, top_factor_two),
                        (mobius_band(), forest, top),
                        (moore_space(2), factor_two, top_factor_two),
                        (moore_space(3), factor_two, top_factor_two),
                        (torus_grid(4, "degree-one"), forest, top)):
        for d, want in enumerate((zero, one, two)):
            runs.clear()
            HomologyDecomposition(K, d)
            assert runs == want, (K.name, d)
    # Below the top degree the boundary goes to the signed-graph path too:
    # each edge of a solid tetrahedron lies on two triangles, and the
    # replay runs; each edge of a solid 4-simplex lies on three, and the
    # replay declines for the sparse form.
    for n, want in ((4, ["signed v", "signed u"]),
                    (5, ["signed v None", "sparse v", "signed u"])):
        solid = WeightedComplex("solid", [list(itertools.combinations(
            range(n), k)) for k in range(1, n + 1)])
        runs.clear()
        HomologyDecomposition(solid, 2)
        assert runs == want, n


def test_degree_one_builds_only_the_cycles_that_name_classes():
    """Of the fundamental cycles, the kernel columns of V_A, the degree-1
    decomposition builds only those that K' combines: one per free class
    on the forest path (torus, grid), those of U_C^-1's columns on the
    sparse one (klein)."""
    for K in (torus7(), klein8(), torus_grid(5, "named-cycles")):
        dec = HomologyDecomposition(K, 1)
        rA = dec._rankA
        read = sorted({rA + k for j in dec._kprime
                       for k in dec._snfC.u_inv_cols[j]})
        built = [j for j, line in enumerate(dec._snfA.v_cols._lines)
                 if line is not None]
        assert built == read
        assert len(built) < K.n_simplices(1) - rA
        if K.name != "klein-8":
            assert len(built) == dec.betti


def test_mod_decomposition_group_order_matches_uct(tc, torus, rp2, klein, mobius):
    for K in (tc, torus, rp2, klein, mobius):
        for d in range(K.dim + 1):
            dec = homology_decomposition(K, d)
            lower_torsion = (homology_decomposition(K, d - 1).torsion
                             if d >= 1 else ())
            for n in range(2, 10):
                md = dec.mod(n)
                size = n ** dec.betti
                for tf in dec.torsion:
                    size *= gcd(tf.order, n)
                for order in _orders(md):
                    size *= order
                expected = n ** dec.betti
                for tf in dec.torsion:
                    expected *= gcd(tf.order, n)
                for tf in lower_torsion:
                    expected *= gcd(tf.order, n)
                assert size == expected
                assert _orders(md) == tuple(
                    gcd(tf.order, n) for tf in lower_torsion
                    if gcd(tf.order, n) > 1)


def test_mod_coords_round_trip(rp2, klein):
    rng = random.Random("mod-round-trip")
    moore, grid = moore_space(4, 6), torus_grid(4, seed=5)
    for K, d in ((rp2, 1), (rp2, 2), (klein, 1), (moore, 1), (moore, 2),
                 (grid, 1)):
        dec = homology_decomposition(K, d)
        for n in (2, 3, 4, 6):
            md = dec.mod(n)
            ring = mod_ring(n)
            for _ in range(10):
                free = tuple(rng.randrange(n) for _ in range(dec.betti))
                torsion = tuple(rng.randrange(max(1, gcd(tf.order, n)))
                                for tf in dec.torsion)
                cot = tuple(rng.randrange(order)
                            for order, _, _ in md.cotorsion)
                c = dec.class_coords(ring, free, torsion, cot)
                rep = _representative(dec, c)
                assert rep.is_cycle()
                back = class_of_cycle(K, d, rep)
                assert back == c


def test_naturality_of_reduction(torus, klein, mobius):
    rng = random.Random("naturality")
    for K in (torus, klein, mobius, moore_space(4, 6), torus_grid(4, seed=5)):
        dec = homology_decomposition(K, 1)
        B = boundary_matrix(K, 2)
        for _ in range(25):
            free = tuple(rng.randint(-2, 2) for _ in range(dec.betti))
            torsion = tuple(rng.randrange(tf.order) for tf in dec.torsion)
            c = dec.class_coords(INT, free, torsion)
            vec = dec.representative_vector(c)
            y = [rng.randint(-2, 2) for _ in range(B.cols)]
            bnd = B.mul_vec(y)
            z = Chain.from_vector(K, 1, INT,
                                  [a + b for a, b in zip(vec, bnd)])
            assert class_of_cycle(K, 1, z) == c
            for target in (RAT, mod_ring(2), mod_ring(3), mod_ring(6)):
                left = class_of_cycle(K, 1, reduce_chain(z, target))
                right = reduce_class(c, target)
                assert left == right
            q = dec.class_coords(RAT, tuple(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(dec.betti)))
            assert class_of_cycle(K, 1, _representative(dec, q)) == q


def permuted_copy(K: WeightedComplex, rng: random.Random) -> WeightedComplex:
    """``K`` with its edges and triangles shuffled by ``rng``."""
    perm1 = list(range(K.n_simplices(1)))
    perm2 = list(range(K.n_simplices(2)))
    rng.shuffle(perm1)
    rng.shuffle(perm2)
    return WeightedComplex(
        K.name + "-perm",
        [K.simplices[0],
         [K.simplices[1][i] for i in perm1],
         [K.simplices[2][i] for i in perm2]],
        [K.weights[0],
         [K.weights[1][i] for i in perm1],
         [K.weights[2][i] for i in perm2]])


def test_decomposition_invariants_under_permutation(rp2, klein):
    rng = random.Random("permute")
    for K in (rp2, klein):
        for _ in range(3):
            K2 = permuted_copy(K, rng)
            for d in range(3):
                a = homology_decomposition(K, d)
                b = homology_decomposition(K2, d)
                assert (a.betti, a.torsion_factors) == (b.betti, b.torsion_factors)


def _parts(c):
    return c.free_part, c.torsion_part, c.cotorsion_part


def test_mod_decomposition_matches_reference(tc, torus, rp2, klein, mobius):
    rng = random.Random("mod-reference")
    complexes = [tc, torus, rp2, klein, mobius]
    complexes += [permuted_copy(K, rng) for K in (rp2, klein) for _ in range(2)]
    complexes += [torus_grid(3, seed=7), torus_grid(4, seed=5)]
    # Cotorsion of order 3 and 4 pins the sign of the generators.
    complexes += [moore_space(3), moore_space(4)]
    for K in complexes:
        for d in range(K.dim + 1):
            dec = homology_decomposition(K, d)
            n_simp = K.n_simplices(d)
            B = boundary_matrix(K, d + 1)
            for n in range(2, 13):
                md = dec.mod(n)
                ref = ReferenceModDecomposition(dec, n)
                assert _orders(md) == ref.cotorsion_orders
                for (_, _, w), (_, _, w_ref) in zip(md.cotorsion, ref.cotorsion):
                    assert [v % n for v in w] == [v % n for v in w_ref]
                ring = mod_ring(n)
                for _ in range(4):
                    c = dec.class_coords(
                        ring,
                        tuple(rng.randrange(n) for _ in range(dec.betti)),
                        tuple(rng.randrange(gcd(tf.order, n))
                              for tf in dec.torsion),
                        tuple(rng.randrange(order)
                              for order in _orders(md)))
                    vec = dec.representative_vector(c)
                    vec_ref = dec.representative_vector(dec.class_coords(
                        ring, c.free_part, c.torsion_part,
                        (0,) * len(md.cotorsion)))
                    for g, (_, _, w_ref) in zip(c.cotorsion_part,
                                                ref.cotorsion):
                        vec_ref = [a + g * b for a, b in zip(vec_ref, w_ref)]
                    assert [v % n for v in vec] == [v % n for v in vec_ref]
                    # Another lift of the same class: add a random boundary
                    # and n times a random chain.
                    bnd = B.mul_vec([rng.randint(-2, 2) for _ in range(B.cols)])
                    x = [a + b + n * rng.randint(-2, 2)
                         for a, b in zip(vec, bnd)]
                    got = _class_of(dec, x, ring)
                    assert got == c
                    assert _parts(got) == ref.coords_of_cycle(x)
                    assert ref.in_image(x) == (not any(c.cotorsion_part)) \
                        == (not any(got.cotorsion_part))
                    # A random chain, in higher degrees rarely a cycle.
                    junk = [rng.randint(-n, n) for _ in range(n_simp)]
                    try:
                        expected = ref.coords_of_cycle(junk)
                    except NotACycleError:
                        assert not ref.in_image(junk)
                        with pytest.raises(NotACycleError):
                            _class_of(dec, junk, ring)
                    else:
                        got = _class_of(dec, junk, ring)
                        assert _parts(got) == expected
                        assert ref.in_image(junk) == (
                            not any(got.cotorsion_part))


def test_mod_decomposition_with_two_cotorsion_generators():
    # H_1 = Z/2 + Z/4 + Z/3, so H_2 mod n has up to two cotorsion
    # generators.  The closed form and the reference may pick different
    # bases of that summand, so only basis-free facts are compared.
    K = moore_space(4, 6)
    dec = homology_decomposition(K, 2)
    rng = random.Random("two-cotorsion")
    for n in range(2, 25):
        md = dec.mod(n)
        ring = mod_ring(n)
        ref = ReferenceModDecomposition(dec, n)
        orders = _orders(md)
        assert orders == ref.cotorsion_orders
        assert len(orders) == (n % 2 == 0) + (n % 2 == 0 or n % 3 == 0)
        for order, _, w_ref in ref.cotorsion:
            gamma = _class_of(dec, w_ref, ring).cotorsion_part
            assert lcm(*(e // gcd(e, g) for e, g in zip(orders, gamma))) \
                == order
        for _ in range(4):
            c = dec.class_coords(ring, (), (),
                                 tuple(rng.randrange(e) for e in orders))
            x = [v + n * rng.randint(-2, 2)
                 for v in dec.representative_vector(c)]
            assert _class_of(dec, x, ring) == c
            assert ref.in_image(x) == (not any(c.cotorsion_part))


def test_class_coords_validation(torus):
    dec = homology_decomposition(torus, 1)
    with pytest.raises(InfeasibleClassError):
        dec.class_coords(INT, (1,))  # needs two free coordinates
    with pytest.raises(InfeasibleClassError):
        dec.class_coords(RAT, (Fraction(1), Fraction(0)), (1,))
    with pytest.raises(InfeasibleClassError):
        dec.class_coords(INT, (1, 0), (), (1,))


def test_coords_of_cycle_refuses_a_chain_of_another_complex_or_degree(torus):
    """A cycle is read only by the decomposition of its own complex and
    degree: an equal complex loaded apart, a sibling of other weights and
    another degree are refused, as ``class_of_cycle`` refuses them, while
    the sibling's own decomposition reads the same coordinates."""
    dec = homology_decomposition(torus, 1)
    b = dec.free_basis[1]
    sibling = torus.with_scaled_weights(1, [0], Fraction(1, 2))
    elsewhere = [Chain(torus7(), 1, INT, b.coeffs),
                 Chain(sibling, 1, INT, b.coeffs),
                 Chain.make(torus, 0, INT, {0: 1}),
                 Chain.zero(torus, 2, INT)]
    for z in elsewhere:
        with pytest.raises(ValueError, match="does not live"):
            dec.coords_of_cycle(z)
        with pytest.raises(ValueError, match="does not live"):
            class_of_cycle(torus, 1, z)
    c = dec.coords_of_cycle(b)
    assert c.free_part == (0, 1)
    assert homology_decomposition(sibling, 1).coords_of_cycle(
        elsewhere[1]).free_part == c.free_part


def test_mobius_core_is_generator(mobius):
    coeffs = {}
    for e in MOBIUS_CORE_EDGES:
        idx = mobius.index_of(1, tuple(sorted(e)))
        coeffs[idx] = 1 if e[0] < e[1] else -1
    coeffs[mobius.index_of(1, (0, 4))] = -1
    core = Chain.make(mobius, 1, INT, coeffs)
    assert core.is_cycle()
    assert class_of_cycle(mobius, 1, core).free_part in ((1,), (-1,))


READER_RINGS = [INT, RAT, mod_ring(4), mod_ring(6)]


def _reader_complexes(rp2, klein, torus, mobius):
    return [rp2, klein, torus, mobius, moore_space(4, 6), torus_grid(3, seed=2)]


def _random_coefficient(rng, ring, bound):
    v = rng.randint(-bound, bound)
    return Fraction(v, rng.randint(1, 3)) if ring.is_rat else v


def _random_cycle(rng, snf, ring):
    """A random cycle (over Z/n, an integer lift of one) drawn from the Smith
    normal form of the boundary matrix, not from any homology basis."""
    y = []
    for j in range(snf.V.cols):
        d = snf.diag[j] if j < len(snf.diag) else 0
        step = ring.modulus // gcd(d, ring.modulus) if ring.is_mod else int(d == 0)
        y.append(step * _random_coefficient(rng, ring, 3))
    return [sum(v * c for v, c in zip(row, y)) for row in snf.V.data]


def _homologous(B, diff, ring):
    """True iff ``diff`` lies in im B (over Z/n: im B + n Z^m) over ``ring``."""
    if ring.is_rat:
        scale = lcm(*(Fraction(v).denominator for v in diff))
        res = smith_normal_form(B)
        rank = sum(1 for v in res.diag if v)
        return not any(res.U.mul_vec([int(v * scale) for v in diff])[rank:])
    cols = [B.column(j) for j in range(B.cols)]
    if ring.is_mod:
        cols += [[ring.modulus * (i == k) for i in range(B.rows)]
                 for k in range(B.rows)]
    res = smith_normal_form(IntMatrix.from_columns(cols, B.rows))
    return solve_with_snf(res, [int(v) for v in diff]) is not None


@pytest.mark.parametrize("ring", READER_RINGS, ids=lambda r: r.tag)
def test_coords_of_cycle_rejects_exactly_the_non_cycles(ring, rp2, klein,
                                                        torus, mobius):
    rng = random.Random(f"reader-cycles-{ring.tag}")
    seen = set()
    for K in _reader_complexes(rp2, klein, torus, mobius):
        for d in range(K.dim + 1):
            dec = homology_decomposition(K, d)
            bd = boundary_matrix(K, d)
            snf = smith_normal_form(bd)
            for _ in range(6):
                if rng.random() < 0.5:
                    x = _random_cycle(rng, snf, ring)
                else:
                    x = [_random_coefficient(rng, ring, 2)
                         for _ in range(K.n_simplices(d))]
                image = bd.mul_vec(x)
                if ring.is_mod:
                    is_cycle = not any(v % ring.modulus for v in image)
                else:
                    is_cycle = not any(image)
                seen.add(is_cycle)
                if is_cycle:
                    c = _class_of(dec, x, ring)
                    assert c.ring == ring
                else:
                    with pytest.raises(NotACycleError):
                        _class_of(dec, x, ring)
    assert seen == {True, False}


@pytest.mark.parametrize("ring", READER_RINGS, ids=lambda r: r.tag)
def test_coords_of_cycle_names_the_class_of_a_random_cycle(ring, rp2, klein,
                                                           torus, mobius):
    # The reference representative of the coordinates read off a cycle must
    # differ from it by a boundary (over Z/n, by a boundary plus n times a
    # chain), and reading the representative must give the same coordinates.
    rng = random.Random(f"reader-classes-{ring.tag}")
    for K in _reader_complexes(rp2, klein, torus, mobius):
        for d in range(K.dim + 1):
            dec = homology_decomposition(K, d)
            snf = smith_normal_form(boundary_matrix(K, d))
            B = boundary_matrix(K, d + 1)
            for _ in range(4):
                x = _random_cycle(rng, snf, ring)
                c = _class_of(dec, x, ring)
                rep = dec.representative_vector(c)
                assert _homologous(B, [a - b for a, b in zip(x, rep)], ring)
                assert _class_of(dec, rep, ring) == c


def _differential_cases(tc, torus, rp2, klein, mobius):
    moore = moore_space(4, 6)
    cases = [(K, d) for K in (tc, torus, rp2, klein, mobius, moore)
             for d in range(K.dim + 1)]
    cases += [(torus_grid(k, f"diff-{k}"), 1) for k in (3, 4, 5, 6)]
    cases += [(torus_grid(k, f"diff-{k}"), 2) for k in (4, 6, 8)]
    return cases


def test_decomposition_matches_the_dense_reference(tc, torus, rp2, klein,
                                                   mobius):
    rng = random.Random("dense-reference")
    for K, d in _differential_cases(tc, torus, rp2, klein, mobius):
        dec = HomologyDecomposition(K, d)
        ref = ReferenceHomologyDecomposition(K, d)
        assert dec.betti == ref.betti
        assert dec._invariant_factors == ref.invariant_factors
        assert dec.free_basis == ref.free_basis
        assert [(tf.prime, tf.exponent, tf.order, tf.column, tf.idempotent,
                 tf.cycle) for tf in dec.torsion] == ref.torsion
        for n in range(2, 7):
            assert dec.mod(n).cotorsion == ref.cotorsion(n)
        for ring in READER_RINGS:
            for _ in range(3):
                x = _random_cycle(rng, ref._snfA, ring)
                assert _class_of(dec, x, ring) == dec.class_coords(
                    ring, *ref.coords_of_cycle(x, ring))
                if ring.is_rat:
                    free = tuple(_random_coefficient(rng, ring, 3)
                                 for _ in range(dec.betti))
                    c = dec.class_coords(ring, free)
                else:
                    c = dec.class_coords(
                        ring, tuple(rng.randint(-3, 3) for _ in range(dec.betti)),
                        tuple(rng.randint(-3, 3) for _ in dec.torsion),
                        tuple(rng.randint(-3, 3) for _ in
                              (dec.mod(ring.modulus).cotorsion
                               if ring.is_mod else ())))
                assert dec.representative_vector(c) == \
                    ref.representative_vector(c)


def test_decomposition_and_classes_build_no_dense_transform():
    K = torus_grid(8, "no-dense")
    for d in (1, 2):
        dec = homology_decomposition(K, d)
        z = dec.free_basis[0]
        for ring in (INT, RAT, mod_ring(5)):
            cycle = reduce_chain(
                Chain.make(K, d, INT, [(i, 3 * v) for i, v in z.coeffs]), ring)
            c = class_of_cycle(K, d, cycle)
            assert c == reduce_class(dec.class_coords(
                INT, (3,) + (0,) * (dec.betti - 1)), ring)
            assert class_of_cycle(K, d, _representative(dec, c)) == c


def _dual_cocycle_cases():
    """(complex, degree) for the fixtures in every degree, relabelled unit
    and anisotropic T3/T4 grids in degrees 1 and 2, M(Z/4) + M(Z/6) and
    random complexes in degree 1."""
    for make in SUITE.values():
        K = make()
        for d in range(K.dim + 1):
            yield K, d
    for k in (3, 4):
        for seed, weights in ((k, (1, 1, 1)), (k + 10, (1, 2, Fraction(3, 2)))):
            K = torus_grid(k, seed=seed, weights=weights)
            yield K, 1
            yield K, 2
    yield moore_space(4, 6), 1
    rng = random.Random("dual-cocycle")
    for _ in range(12):
        yield random_complex(rng), 1


def test_dual_cocycles_are_dual_to_the_free_basis():
    """eta_i(b_j) is 1 if i == j, else 0; eta_i vanishes on the torsion
    basis and on the boundary of every (d+1)-simplex; its entries are
    integers."""
    seen = 0
    for K, d in _dual_cocycle_cases():
        dec = homology_decomposition(K, d)
        cofaces = K.faces(d + 1) if d < K.dim else ()
        for i in range(dec.betti):
            eta = dec.dual_cocycle(i)
            assert all(type(v) is int and v for v in eta.values())

            def pair(z):
                return sum(eta.get(s, 0) * v for s, v in z.coeffs)

            assert [pair(b) for b in dec.free_basis] == \
                [int(j == i) for j in range(dec.betti)], (K.name, d, i)
            assert not any(pair(t) for t in dec.torsion_basis)
            assert not any(sum(sign * eta.get(s, 0) for s, sign in fs)
                           for fs in cofaces)
            seen += 1
        with pytest.raises(IndexError):
            dec.dual_cocycle(dec.betti)
    assert seen >= 40


def test_decomposition_arguments_are_checked(tc, rp2):
    with pytest.raises(ValueError, match=r"^degree 2 out of range 0\.\.1$"):
        HomologyDecomposition(tc, 2)
    dec = homology_decomposition(rp2, 1)
    with pytest.raises(InfeasibleClassError,
                       match=r"^expected 1 torsion coordinates, got 0$"):
        dec.class_coords(INT, (), ())
    # H_2(RP^2; Z/2) is all cotorsion: one coordinate of order 2.
    top = homology_decomposition(rp2, 2)
    with pytest.raises(InfeasibleClassError,
                       match=r"^expected 1 cotorsion coordinates mod 2, "
                             r"got 0$"):
        top.class_coords(mod_ring(2), (), (), ())
    with pytest.raises(ValueError, match=r"^modulus must be >= 2$"):
        dec.mod(1)
    with pytest.raises(ValueError, match=r"^reduce_class expects integral "
                                         r"class coordinates$"):
        reduce_class(dec.class_coords(mod_ring(2), (), (1,)), RAT)
