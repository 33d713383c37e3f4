"""Homology decompositions, class coordinates, reductions and the kernel lemma."""

import random
from fractions import Fraction
from math import gcd

import pytest

from homnorm.complexes import Chain, NotACycleError, WeightedComplex, reduce_chain
from homnorm.fixtures import MOBIUS_CORE_EDGES, torus7
from homnorm.hasse import scan_moduli
from homnorm.homology import (InfeasibleClassError, class_of_cycle,
                              homology_decomposition, in_reduction_image,
                              kernel_witness, reduce_class)
from homnorm.rings import INT, RAT, mod_ring


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
    B = torus.boundary_matrix(2)
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
    fund2 = Chain.make(rp2, 2, mod_ring(2),
                       {i: 1 for i in range(rp2.n_simplices(2))})
    c = class_of_cycle(rp2, 2, fund2)
    assert in_reduction_image(rp2, 2, c) is False

    dec_t2 = homology_decomposition(torus, 2)
    fund = dec_t2.class_coords(INT, (1,))
    r3 = reduce_class(fund, mod_ring(3))
    assert in_reduction_image(torus, 2, r3) is True

    zero = homology_decomposition(rp2, 2).zero_class(mod_ring(2))
    assert in_reduction_image(rp2, 2, zero) is True


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
                        assert in_reduction_image(K, d, c) == \
                            all(v == 0 for v in c.cotorsion_part)


def test_image_solver_is_built_only_by_in_reduction_image():
    K = torus7()  # a fresh complex, so no other test has filled its caches
    dec = homology_decomposition(K, 1)
    scan_moduli(K, 1, dec.class_coords(INT, (1, 0)), 2, 8)
    assert sorted(dec._mod_cache) == list(range(2, 9))
    assert all("_image_solver" not in md.__dict__
               for md in dec._mod_cache.values())
    md = dec.mod(3)
    ring = mod_ring(3)
    assert in_reduction_image(K, 1, dec.class_coords(ring, (1, 2)))
    solver = md.__dict__["_image_solver"]
    assert in_reduction_image(K, 1, dec.zero_class(ring))
    assert md.__dict__["_image_solver"] is solver
    assert all("_image_solver" not in other.__dict__
               for n, other in dec._mod_cache.items() if n != 3)


def test_mod_decomposition_group_order_matches_uct(tc, torus, rp2, klein, mobius):
    for K in (tc, torus, rp2, klein, mobius):
        for d in range(K.dim + 1):
            dec = homology_decomposition(K, d)
            lower_torsion = (homology_decomposition(K, d - 1).torsion
                             if d >= 1 else ())
            for n in range(2, 10):
                md = dec.mod(n)
                size = 1
                for e in md._factor_orders:
                    size *= e
                expected = n ** dec.betti
                for tf in dec.torsion:
                    expected *= gcd(tf.order, n)
                for tf in lower_torsion:
                    expected *= gcd(tf.order, n)
                assert size == expected
                assert md.cotorsion_orders == tuple(
                    gcd(tf.order, n) for tf in lower_torsion
                    if gcd(tf.order, n) > 1)


def test_mod_coords_round_trip(rp2, klein):
    rng = random.Random("mod-round-trip")
    for K, d in ((rp2, 1), (rp2, 2), (klein, 1)):
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
                rep = dec.representative(c)
                assert rep.is_cycle()
                back = class_of_cycle(K, d, rep)
                assert back == c


def test_naturality_of_reduction(torus, klein, mobius):
    rng = random.Random("naturality")
    for K in (torus, klein, mobius):
        dec = homology_decomposition(K, 1)
        B = K.boundary_matrix_or_empty(2)
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


def test_decomposition_invariants_under_permutation(rp2, klein):
    rng = random.Random("permute")
    for K in (rp2, klein):
        for _ in range(3):
            perm1 = list(range(K.n_simplices(1)))
            perm2 = list(range(K.n_simplices(2)))
            rng.shuffle(perm1)
            rng.shuffle(perm2)
            K2 = WeightedComplex(
                K.name + "-perm",
                [K.simplices[0],
                 [K.simplices[1][i] for i in perm1],
                 [K.simplices[2][i] for i in perm2]],
                [K.weights[0],
                 [K.weights[1][i] for i in perm1],
                 [K.weights[2][i] for i in perm2]])
            for d in range(3):
                a = homology_decomposition(K, d)
                b = homology_decomposition(K2, d)
                assert (a.betti, a.torsion_factors) == (b.betti, b.torsion_factors)


def test_class_coords_validation(torus):
    dec = homology_decomposition(torus, 1)
    with pytest.raises(InfeasibleClassError):
        dec.class_coords(INT, (1,))  # needs two free coordinates
    with pytest.raises(InfeasibleClassError):
        dec.class_coords(RAT, (Fraction(1), Fraction(0)), (1,))
    with pytest.raises(InfeasibleClassError):
        dec.class_coords(INT, (1, 0), (), (1,))


def test_mobius_core_is_generator(mobius):
    coeffs = {}
    for e in MOBIUS_CORE_EDGES:
        idx = mobius.index_of(1, tuple(sorted(e)))
        coeffs[idx] = 1 if e[0] < e[1] else -1
    coeffs[mobius.index_of(1, (0, 4))] = -1
    core = Chain.make(mobius, 1, INT, coeffs)
    assert core.is_cycle()
    assert class_of_cycle(mobius, 1, core).free_part in ((1,), (-1,))
