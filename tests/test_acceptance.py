"""Acceptance suite: one test per criterion, timed, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance here is exact (rational equality) and every time
budget is asserted.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import pytest

from conftest import random_class, random_complex, small_corpus
from oracles import (brute_force_min_int, brute_force_min_mod,
                     brute_force_min_real)

from homnorm.complexes import Chain, dump_complex
from homnorm.fixtures import (klein8, mobius_band, mobius_boundary_indices,
                              rp2_6, torus7, triangle_circle)
from homnorm.hasse import (empirical_threshold, federer_sequence, gap_sweep,
                           lift_minimizer, scan_moduli)
from homnorm.homology import (class_of_cycle, homology_decomposition,
                              reduce_class)
from homnorm.optimize import min_int, min_mod, min_real, verify_certificate
from homnorm.rings import INT, RAT, canonical_lift, canonicalize, mod_ring, norm


def _report(num: int, label: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    line = f"criterion {num} PASS ({elapsed:.2f}s < {budget:g}s): {label}"
    print(line, flush=True)
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_norm_axioms():
    started = time.monotonic()
    rng = random.Random("acceptance-axioms")

    def check(ring, e, f):
        assert norm(ring, canonicalize(ring, -e)) == norm(ring, e)
        assert norm(ring, canonicalize(ring, e + f)) <= \
            norm(ring, e) + norm(ring, f)
        assert (norm(ring, e) == 0) == (canonicalize(ring, e) ==
                                        canonicalize(ring, 0))

    for _ in range(10_000):
        check(INT, rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        check(RAT, Fraction(rng.randint(-999, 999), rng.randint(1, 99)),
              Fraction(rng.randint(-999, 999), rng.randint(1, 99)))
    for n in range(2, 13):
        ring = mod_ring(n)
        for e in range(n):
            for f in range(n):
                check(ring, e, f)
    randomized_mod = 0
    for n in range(13, 65):
        ring = mod_ring(n)
        for _ in range(200):
            check(ring, rng.randrange(n), rng.randrange(n))
            randomized_mod += 1
    assert randomized_mod >= 10_000
    _report(1, "norm axioms (Z, Q, Z/n for n <= 64)", started, 10.0)


def test_criterion_2_homology_fixtures():
    expected = [
        (triangle_circle, 1, 1, (), 1),
        (torus7, 1, 2, (), 1),
        (rp2_6, 1, 0, ((2, 1),), 2),
        (klein8, 1, 1, ((2, 1),), 2),
    ]
    for builder, d, betti, torsion, tau in expected:
        K = builder()
        started = time.monotonic()
        dec = homology_decomposition(K, d)
        assert (dec.betti, dec.torsion_factors, dec.torsion_number) == \
            (betti, torsion, tau), K.name
        if K.name == "rp2-6":
            dec2 = homology_decomposition(K, 2)
            assert dec2.betti == 0 and dec2.torsion_factors == ()
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"{K.name} took {elapsed:.2f}s"
    print("criterion 2 PASS (each fixture < 1s): homology fixtures exact",
          flush=True)


def test_criterion_3_oracle_equivalence():
    started = time.monotonic()
    for K, d, coord_list in small_corpus():
        assert K.n_simplices(d) <= 6
        dec = homology_decomposition(K, d)
        for free, torsion in coord_list:
            c = dec.class_coords(INT, free, torsion)
            rep = min_int(K, d, c)
            value, chains = brute_force_min_int(K, d, c)
            assert rep.minimizer_count_exact
            assert rep.value == value and set(rep.minimizers) == chains
            creal = reduce_class(c, RAT)
            assert min_real(K, d, creal).value == \
                brute_force_min_real(K, d, creal)
            for n in (2, 3, 4, 5, 6):
                cm = reduce_class(c, mod_ring(n))
                repm = min_mod(K, d, cm)
                vm, chm = brute_force_min_mod(K, d, cm)
                assert repm.minimizer_count_exact
                assert repm.value == vm and set(repm.minimizers) == chm
    _report(3, "engines match brute force on every <= 6-simplex complex",
            started, 60.0)


def test_criterion_4_inequality_suite():
    started = time.monotonic()
    rng = random.Random("acceptance-inequalities")
    for _ in range(100):
        K = random_complex(rng, max_vertices=8)
        assert K.n_simplices(0) <= 8
        dec = homology_decomposition(K, 1)
        c = random_class(rng, dec)
        vi = min_int(K, 1, c, cap=64).value
        vr = min_real(K, 1, reduce_class(c, RAT)).value
        assert vr <= vi
        k = rng.randint(2, 6)
        assert min_int(K, 1, c.scale(k), cap=64).value <= k * vi
        for n in range(2, 9):
            w = reduce_class(c, mod_ring(n))
            vw = min_mod(K, 1, w, cap=64).value
            assert vw <= vi
            for kk in range(-((n - 1) // 2), n // 2 + 1):
                if kk in (0, 1) or gcd(kk, n) != 1:
                    continue
                vkw = min_mod(K, 1, w.scale(kk), cap=64).value
                lift_inv = canonical_lift(pow(kk, -1, n), n)
                assert vw <= abs(lift_inv) * vkw
                assert vkw <= abs(kk) * vw
                assert Fraction(2, n) * vw <= vkw <= Fraction(n, 2) * vw
    _report(4, "norm inequalities on 100 random complexes, zero violations",
            started, 120.0)


def test_criterion_5_strong_duality_across_corpus():
    started = time.monotonic()
    runs = 0
    for K, d, coord_list in small_corpus():
        dec = homology_decomposition(K, d)
        for free, torsion in coord_list:
            c = reduce_class(dec.class_coords(INT, free, torsion), RAT)
            rep = min_real(K, d, c)
            assert rep.certificate is not None
            assert verify_certificate(K, d, c, rep.certificate, rep.value)
            runs += 1
    for builder, d in ((triangle_circle, 1), (torus7, 1), (rp2_6, 1),
                       (klein8, 1), (mobius_band, 1), (torus7, 2)):
        K = builder()
        dec = homology_decomposition(K, d)
        frees = [(1,) + (0,) * (dec.betti - 1)] if dec.betti else [()]
        for free in frees:
            c = dec.class_coords(RAT, tuple(Fraction(a) for a in free))
            rep = min_real(K, d, c)
            assert verify_certificate(K, d, c, rep.certificate, rep.value)
            runs += 1
    rng = random.Random("acceptance-duality")
    for _ in range(20):
        K = random_complex(rng)
        dec = homology_decomposition(K, 1)
        c = reduce_class(random_class(rng, dec), RAT)
        rep = min_real(K, 1, c)
        assert verify_certificate(K, 1, c, rep.certificate, rep.value)
        runs += 1
    _report(5, f"strong duality verified exactly on {runs} LP runs",
            started, 60.0)


def test_criterion_6_hasse_threshold_demo():
    started = time.monotonic()
    K = mobius_band(Fraction(1, 4))
    dec = homology_decomposition(K, 1)
    c = dec.class_coords(INT, (1,))
    rows = scan_moduli(K, 1, c, 2, 64)
    by_n = {r.n: r for r in rows}
    assert by_n[3].equal is False  # the gap modulus, gcd(3, 2) = 1
    assert by_n[3].value_mod < by_n[3].value_int
    threshold = empirical_threshold(rows, dec.torsion_number)
    assert threshold is not None and threshold < 64
    assert threshold == 4  # frozen from the full scan
    for r in rows:
        if r.n >= threshold:
            assert r.equal and r.bijection is True
    _report(6, f"scan n in [2,64]: gap at n=3, threshold N={threshold}",
            started, 300.0)


def test_criterion_7_federer_limit():
    started = time.monotonic()
    K = mobius_band(Fraction(1, 4))
    dec = homology_decomposition(K, 1)
    c = dec.class_coords(INT, (1,))
    rows = federer_sequence(K, 1, c, 6)
    real = rows[0].value_real
    assert real == Fraction(5, 8)
    # Frozen values derived by independent exhaustive/MILP enumeration.
    assert [r.value_int for r in rows] == [
        Fraction(3, 2), Fraction(5, 4), Fraction(11, 4),
        Fraction(5, 2), Fraction(4), Fraction(15, 4)]
    values = {r.k: r.value_int for r in rows}
    for j in values:
        for k in values:
            if j + k in values:
                assert values[j + k] <= values[j] + values[k]
    odd = []
    for r in rows:
        if r.k % 2 == 0:
            assert r.ratio == real
        else:
            assert r.ratio > real
            odd.append(r.ratio)
    assert all(a >= b for a, b in zip(odd, odd[1:]))

    tcx = triangle_circle()
    dect = homology_decomposition(tcx, 1)
    for r in federer_sequence(tcx, 1, dect.class_coords(INT, (1,)), 6):
        assert r.ratio == r.value_real == 3
    _report(7, "Federer ratios: even-k exact, odd-k strictly above and "
               "non-increasing", started, 120.0)


def test_criterion_8_non_reduction_demo():
    started = time.monotonic()
    K = rp2_6()
    fund = Chain.make(K, 2, mod_ring(2), {i: 1 for i in range(K.n_simplices(2))})
    c = class_of_cycle(K, 2, fund)
    assert not c.is_zero()
    assert any(c.cotorsion_part)  # not the reduction of an integral class
    rep = min_mod(K, 2, c)
    assert rep.minimizer_count_exact and len(rep.minimizers) == 1
    lifted = lift_minimizer(rep.minimizers[0])
    assert lifted.is_cycle is False
    assert lifted.mass_preserved
    _report(8, "RP2 mod-2 fundamental class: not a reduction, lift not a cycle",
            started, 1.0)


def test_criterion_9_lavrentiev_sweep():
    started = time.monotonic()
    K = mobius_band(Fraction(1, 4))
    dec = homology_decomposition(K, 1)
    c = dec.class_coords(INT, (1,))
    factors = [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    rows = gap_sweep(K, 1, c, mobius_boundary_indices(K), factors, [3])
    real_ratios = [r.gap_ratio_real for r in rows]
    mod_ratios = [r.gap_ratio_mod[3] for r in rows]
    assert all(a < b for a, b in zip(real_ratios, real_ratios[1:]))
    assert all(a < b for a, b in zip(mod_ratios, mod_ratios[1:]))
    rho = Fraction(5)  # prescribed threshold exceeded at the smallest factor
    assert real_ratios[-1] > rho and mod_ratios[-1] > rho
    assert all(r.in_lavrentiev_real and r.in_lavrentiev_mod[3] for r in rows)
    _report(9, "gap ratios strictly increasing past rho = 5", started, 120.0)


def test_criterion_10_cli_determinism(tmp_path):
    started = time.monotonic()
    paths = {}
    for name, builder in (("tc", triangle_circle), ("rp2", rp2_6),
                          ("klein", klein8), ("mobius", mobius_band)):
        p = tmp_path / f"{name}.cplx"
        p.write_text(dump_complex(builder()), encoding="utf-8")
        paths[name] = str(p)
    shrink = ",".join(str(i) for i in mobius_boundary_indices(mobius_band()))
    commands = [
        ["homology", paths["klein"], "--dim", "1"],
        ["norm", paths["rp2"], "--dim", "1", "--class", "t:1", "--ring", "Z"],
        ["norm", paths["mobius"], "--dim", "1", "--class", "f:1",
         "--ring", "Z/3"],
        ["scan", paths["mobius"], "--dim", "1", "--class", "f:1",
         "--n", "2..10"],
        ["federer", paths["mobius"], "--dim", "1", "--class", "f:1",
         "--k-max", "4"],
        ["sweep", paths["mobius"], "--dim", "1", "--class", "f:1",
         "--shrink", shrink, "--factors", "1/1,1/2,1/4", "--n", "3"],
        ["lift", paths["rp2"], "--dim", "2",
         "--chain", ",".join(f"{i}=1" for i in range(10)), "--ring", "Z/2"],
        ["certify", paths["tc"], "--dim", "1", "--class", "f:1"],
        ["bijection", paths["mobius"], "--dim", "1", "--class", "f:1",
         "--n", "3"],
    ]
    for argv in commands:
        outputs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "homnorm.cli"] + argv,
                                  capture_output=True)
            assert proc.returncode == 0, (argv, proc.stderr)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] and outputs[0], argv
    _report(10, f"{len(commands)} CLI runs byte-identical on repeat",
            started, 120.0)
