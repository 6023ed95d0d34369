"""Tests of the benchmark's reference arithmetic.

    python3 -m pytest perfbench -q
"""

import time

import bench
import refarith as ref
from refspeed import SpeedProbe

X2_X_1 = [(0, 1), (1, 1), (2, 1)]


def test_power_coeff_hand_cases():
    assert [ref.power_coeff([(0, 1), (1, 1)], 3, n, 5) for n in range(5)] == [1, 3, 3, 1, 0]
    # (x^2 + x + 1)^2 = x^4 + 2x^3 + 3x^2 + 2x + 1
    assert [ref.power_coeff(X2_X_1, 2, n, 7) for n in range(6)] == [1, 2, 3, 2, 1, 0]
    # (x^3 - x)^2 = x^6 - 2x^4 + x^2
    assert [ref.power_coeff([(1, -1), (3, 1)], 2, n, 5) for n in range(7)] == [0, 0, 1, 0, 3, 0, 1]
    assert ref.power_coeff([(3, 2)], 2, 6, 7) == 4


def test_dense_and_multinomial_expansions_agree():
    f = ref.dense_coeffs([(0, 1), (1, 1), (3, 1)])
    dense = ref.poly_power(f, 4, 7)
    assert dense == [ref.power_coeff([(0, 1), (1, 1), (3, 1)], 4, n, 7) for n in range(13)]


def test_det_mod_hand_cases():
    assert ref.det_mod([[1, 2], [3, 4]], 7) == 5
    assert ref.det_mod([[0, 1], [1, 0]], 7) == 6
    assert ref.det_mod([[1, 2], [2, 4]], 7) == 0
    assert ref.det_mod([[0, 0, 2], [0, 3, 0], [4, 0, 0]], 11) == (-24) % 11


def test_discriminant_hand_cases():
    assert ref.discriminant([1, 3, 1], 7) == (9 - 4) % 7  # b^2 - 4c
    assert ref.discriminant([1, 1, 0, 1], 11) == (-4 - 27) % 11  # -4a^3 - 27b^2
    assert ref.discriminant([-1, 0, 1], 13) == 4


def test_m_matrix_determinant_hand_case():
    # (x^2+x+1)^4 mod 5 = 1,4,0,1,4,1,0,4,1; M_2 = [[c3, c4], [c8, c9]] = [[1, 4], [1, 0]]
    assert ref.sparse_det(5, 4, 2, X2_X_1) == (0 - 4) % 5


def test_t1_decision_on_B_member():
    # (2, 4, 1) is in B0 at p = 7, so Theorem 1 makes x^r - x pass:
    # [x^6](x^2-1)^4 = -4, Delta(x^2-1) = 4, eps0 = -1; [x^6](x^2-x)^4 = 6 = -1.
    assert ref.in_B(7, 2, 4, 1)
    assert ref.eps0(7, 2, 4, 1) == 6
    assert ref.t1_passes(7, 2, 4, 1)


def test_c1_candidates_small_prime():
    # p = 7: r in {2, 3, 6}; r = 2 members lie in B0, and (3, 4, 1) in B-.
    assert ref.c1_candidates(7) == [(3, 2 + 2 * 2, 1), (6, 1 + 5, 1)]


def test_corrupted_determinant_is_rejected(monkeypatch):
    cands = [(3, 6, 1)]
    chk = bench.Checks()
    bench.check_t1_decisions(chk, 7, cands, passed=set())
    assert (chk.attempted, chk.mismatched) == (2, 0)

    honest = bench.xr_minus_x_det
    monkeypatch.setattr(bench, "xr_minus_x_det", lambda p, r, e, d: (honest(p, r, e, d) + 1) % p)
    chk = bench.Checks()
    bench.check_t1_decisions(chk, 7, cands, passed=set())
    assert chk.mismatched == 1


def test_wrong_t1_decision_is_rejected():
    chk = bench.Checks()
    bench.check_t1_decisions(chk, 7, [(3, 6, 1)], passed={(3, 6, 1)})
    assert chk.mismatched == 1


def test_speed_probe_counts_stretches_between_samples():
    probe = SpeedProbe()
    probe.sample()
    assert (probe.ref, probe.program_ns) == (0.0, 0)  # no stretch before the first sample
    time.sleep(0.02)
    probe.sample()
    assert probe.program_ns >= 20_000_000
    assert probe.ref > 0 and probe.wrong == 0
    # a sample arriving inside another one is skipped, not nested
    probe._busy = True
    before = (probe.ref, probe.program_ns)
    probe.sample()
    assert (probe.ref, probe.program_ns) == before
