"""Acceptance gate: one test per criterion, each printing a PASS line.

All results are exact integer computations; every comparison is exact
equality.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import itertools
import json
import random
import time

import pytest

from properk import (
    AbGroup,
    AmalgamSpec,
    CoxeterMatrix,
    assemble_abutment,
    bredon_cochain,
    bredon_cohomology,
    build_amalgam_orbit_complex,
    build_bestvina_orbit_complex,
    build_davis_orbit_complex,
    build_e2,
    closed_form_amalgam,
    closed_form_path_family,
    closed_form_polygon_family,
    closed_form_right_angled,
    compare,
    smith_normal_form,
    uct_verify,
)
from properk.ahss import EXACT_MATCH, MATCH_UP_TO_EXTENSION
from properk.cli import main
from properk.coxeter import INFINITY, UnsupportedStabilizerError
from properk.groups import cyclic
from properk.reprings import ko_ranks
from conftest import det, random_int_matrix, reorient

Z = AbGroup.free
Z2 = AbGroup.elementary_2
ZERO = AbGroup.zero()

PIPELINE_BUDGET_SECONDS = 10.0


def announce(number: int, text: str) -> None:
    print(f"ACCEPTANCE CRITERION {number}: PASS - {text}")


def timed_abutment(complex_, theory):
    start = time.perf_counter()
    reports = assemble_abutment(build_e2(complex_, theory))
    elapsed = time.perf_counter() - start
    assert elapsed < PIPELINE_BUDGET_SECONDS, f"pipeline took {elapsed:.1f}s"
    return reports


def independent_sigma(spec: AmalgamSpec) -> int:
    # sum over vertices of m_i * r_i * r_{i+1} (with r_0 = r_{k+1} = 1)
    # minus the sum of the r_i: evaluated here from scratch, not read off
    # any implementation.
    r = [1] + list(spec.r) + [1]
    total = sum(spec.m[i] * r[i] * r[i + 1] for i in range(spec.k + 1))
    return total - sum(spec.r)


def independent_ko_sigma_omega_theta(spec: AmalgamSpec) -> tuple[int, int, int]:
    r = [1] + list(spec.r) + [1]
    orders = [spec.m[i] * r[i] * r[i + 1] for i in range(spec.k + 1)]
    k = spec.k
    r_sum = sum(spec.r)
    sigma2 = sum(s // 2 for s in orders) - r_sum / 2 + k / 2 + 1
    omega2 = sum((-1) ** m for m in spec.m) / 2 + k / 2 + 3 / 2
    theta2 = sum(-(-s // 2) for s in orders) - r_sum / 2 - k / 2 - 1
    assert sigma2 == int(sigma2) and omega2 == int(omega2) and theta2 == int(theta2)
    return int(sigma2), int(omega2), int(theta2)


def test_criterion_1_amalgam_k_theory():
    cases = [
        ("SL2(Z)", AmalgamSpec(r=(2,), m=(3, 2)), 8),
        ("PSL2(Z)", AmalgamSpec(r=(1,), m=(3, 2)), 4),
        ("D_infinity", AmalgamSpec(r=(1,), m=(2, 2)), 3),
    ]
    for name, spec, frozen_sigma in cases:
        sigma = independent_sigma(spec)
        assert sigma == frozen_sigma, name
        x = build_amalgam_orbit_complex(spec)
        reports = timed_abutment(x, "k")
        assert reports[0].resolved == Z(sigma), name
        assert reports[1].resolved == ZERO, name
        verdicts = compare(reports, closed_form_amalgam(spec, "k"))
        assert all(v.verdict == EXACT_MATCH for v in verdicts), name
    announce(1, "amalgam K-theory: SL2(Z)=Z^8, PSL2(Z)=Z^4, D_inf=Z^3, "
                "all matching the independently evaluated rank formula")


def test_criterion_2_amalgam_ko_theory():
    cases = [
        ("PSL2(Z)", AmalgamSpec(r=(1,), m=(3, 2)), (3, 2, 1)),
        ("D_infinity", AmalgamSpec(r=(1,), m=(2, 2)), (3, 3, 0)),
    ]
    for name, spec, (sigma, omega, theta) in cases:
        assert independent_ko_sigma_omega_theta(spec) == (sigma, omega, theta), name
        x = build_amalgam_orbit_complex(spec)
        reports = timed_abutment(x, "ko")
        expected = {
            0: Z(sigma), 4: Z(sigma),
            1: Z2(omega),
            2: AbGroup.from_divisors(theta, [2] * omega),
            6: Z(theta),
            3: ZERO, 5: ZERO, 7: ZERO,
        }
        for n, group in expected.items():
            assert reports[n].resolved == group, (name, n)
        verdicts = compare(reports, closed_form_amalgam(spec, "ko"))
        assert all(v.verdict == EXACT_MATCH for v in verdicts), name
    announce(2, "amalgam KO-theory matches the 8-periodic table, "
                "including KO^-6 = Z^theta and vanishing at degrees 3, 5, 7")


def test_criterion_3_right_angled_theorem(ra_corpus):
    pentagon_rows = [[INFINITY] * 5 for _ in range(5)]
    for i in range(5):
        pentagon_rows[i][i] = 1
        pentagon_rows[i][(i + 1) % 5] = pentagon_rows[(i + 1) % 5][i] = 2
    pentagon = CoxeterMatrix.from_rows(pentagon_rows)
    d = 11
    x = build_bestvina_orbit_complex(pentagon)
    reports = timed_abutment(x, "ko")
    expected = [Z(d), Z2(d), Z2(d), ZERO, Z(d), ZERO, ZERO, ZERO]
    assert [reports[n].resolved for n in range(8)] == expected
    k_reports = timed_abutment(x, "k")
    assert [r.resolved for r in k_reports] == [Z(d), ZERO]

    for matrix in ra_corpus:
        cx = build_bestvina_orbit_complex(matrix)
        for theory in ("k", "ko"):
            reports = assemble_abutment(build_e2(cx, theory))
            verdicts = compare(reports, closed_form_right_angled(matrix, theory))
            assert all(v.verdict == EXACT_MATCH for v in verdicts), (matrix.entries, theory)
    announce(3, f"right-angled theorem: pentagon d={d} in the stated residues; "
                f"{len(ra_corpus)} random matrices on <=6 generators match the "
                "closed form in every degree for K and KO")


def test_criterion_4_path_family():
    for n in (3, 5, 8):
        matrix = CoxeterMatrix.path_family(n)
        x = build_bestvina_orbit_complex(matrix)
        k_reports = timed_abutment(x, "k")
        assert k_reports[0].resolved == Z(n + 2)
        assert k_reports[1].resolved == ZERO
        ko_reports = timed_abutment(x, "ko")
        expected = [Z(n + 2), Z2(n + 2), Z2(n + 2), ZERO, Z(n + 2), ZERO, ZERO, ZERO]
        assert [ko_reports[q].resolved for q in range(8)] == expected
        for theory in ("k", "ko"):
            verdicts = compare(assemble_abutment(build_e2(x, theory)),
                               closed_form_path_family(n, theory))
            assert all(v.verdict == EXACT_MATCH for v in verdicts)
    announce(4, "braid-path family n in {3,5,8}: K^even = Z^{n+2}, K^odd = 0, "
                "KO column matches the 8-periodic table")


def test_criterion_5_polygon_family():
    for n in (3, 5, 8):
        matrix = CoxeterMatrix.polygon_family(n)
        x = build_bestvina_orbit_complex(matrix)
        k_reports = timed_abutment(x, "k")
        assert k_reports[0].resolved == Z(n + 3)
        assert k_reports[1].resolved == Z(1)
        ko_reports = timed_abutment(x, "ko")
        # degree 1 mod 8 is a genuine extension problem with the stated pieces
        assert ko_reports[1].extension_ambiguous
        assert ko_reports[1].pieces == ((0, Z2(n + 3)), (1, Z2(1)))
        assert ko_reports[2].resolved == Z2(n + 3)
        assert ko_reports[4].resolved == Z(n + 3)
        verdicts = {v.degree: v.verdict
                    for v in compare(ko_reports, closed_form_polygon_family(n, "ko"))}
        assert verdicts[1] == MATCH_UP_TO_EXTENSION
        assert verdicts[0] == MATCH_UP_TO_EXTENSION  # Z/2 next to Z^{n+3}
        for degree in (2, 3, 4, 5, 6, 7):
            assert verdicts[degree] == EXACT_MATCH
        k_verdicts = compare(k_reports, closed_form_polygon_family(n, "k"))
        assert all(v.verdict == EXACT_MATCH for v in k_verdicts)
    announce(5, "braid-polygon family n in {3,5,8}: K^even = Z^{n+3}, K^odd = Z; "
                "KO degree 1 (mod 8) reported as MATCH_UP_TO_EXTENSION with "
                "pieces (Z/2)^{n+3} and Z/2")


def test_criterion_6_ko_point_oracle():
    # The table for cyclic groups: free rank floor(s/2)+1 at n=0,4 and
    # ceil(s/2)-1 at n=2,6; (Z/2)^{(3+(-1)^s)/2} at n=1,2; zero at n=3,5,7.
    for s in range(1, 13):
        fl, ce = s // 2 + 1, (s + 1) // 2 - 1
        t = (3 + (-1) ** s) // 2
        table = {0: (fl, 0), 1: (0, t), 2: (ce, t), 3: (0, 0),
                 4: (fl, 0), 5: (0, 0), 6: (ce, 0), 7: (0, 0)}
        for n in range(8):
            assert ko_ranks(cyclic(s), n) == table[n], (s, n)
    announce(6, "Segal-decomposition KO point coefficients reproduce the "
                "cyclic-group table for s = 1..12, n = 0..7")


def test_criterion_7_model_independence(ra_corpus):
    matrices = ([CoxeterMatrix.path_family(n) for n in (3, 5, 8)]
                + [CoxeterMatrix.polygon_family(n) for n in (3, 5, 8)]
                + list(ra_corpus))
    assert len(ra_corpus) == 50
    for matrix in matrices:
        davis = build_davis_orbit_complex(matrix)
        bestvina = build_bestvina_orbit_complex(matrix)
        for theory in ("k", "ko"):
            a = assemble_abutment(build_e2(davis, theory))
            b = assemble_abutment(build_e2(bestvina, theory))
            assert a == b, (matrix.entries, theory)
    announce(7, f"Davis and Bestvina pipelines agree in every degree on "
                f"{len(matrices)} Coxeter matrices (both braid families and "
                "50 random right-angled ones), for K and KO")


def test_criterion_8_structural_suites(ra_corpus):
    # (a) boundary squares to zero on every assembled complex: the complex
    # and cochain constructors validate this; exercise them across the corpus
    # and double-check one composite by hand.
    sample = [build_amalgam_orbit_complex(AmalgamSpec(r=(3, 5), m=(2, 3, 2)))]
    sample += [build_bestvina_orbit_complex(m) for m in ra_corpus[:10]]
    sample += [build_davis_orbit_complex(CoxeterMatrix.polygon_family(4))]
    for x in sample:
        for p in range(x.dim - 1):
            assert (x.incidence[p] * x.incidence[p + 1]).is_zero()
        c = bredon_cochain(x, "k", 0)
        for p in range(c.length - 1):
            assert (c.free_d[p + 1] * c.free_d[p]).is_zero()

    # (b) Smith factorization identity on 1000 random small matrices.
    rng = random.Random(20240601)
    for _ in range(1000):
        m = random_int_matrix(rng, max_dim=6, bound=5)
        u, d, v = smith_normal_form(m)
        assert u * m * v == d
        assert det(u) in (1, -1) and det(v) in (1, -1)
        diag = [d.entry(i, i) for i in range(min(d.rows, d.cols)) if d.entry(i, i)]
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))

    # (c) universal coefficients on every K^0 cochain complex produced.
    for x in sample:
        assert uct_verify(bredon_cochain(x, "k", 0))

    # (d) cohomology is invariant under random reorientation of cells.
    for x in sample[:6]:
        base = bredon_cohomology(x, "k", 0)
        for _ in range(3):
            assert bredon_cohomology(reorient(x, rng), "k", 0) == base
    announce(8, "structural suites: d.d = 0 everywhere, 1000 random SNF "
                "factorizations U.M.V = D with unimodular U, V, universal "
                "coefficients on every produced K^0 complex, and sign-flip "
                "invariance of cohomology")


def test_criterion_9_scope_honesty(capsys):
    # Affine A3: a braid 4-cycle with commuting opposite generators.  Its
    # subset {s0, s1, s2} generates the symmetric group S4, which the
    # stabilizer catalogue refuses by name; the published values for that
    # family are intentionally not reproduced.
    argv = ["coxeter", "--matrix", "1,3,2,3;3,1,3,2;2,3,1,3;3,2,3,1", "--theory", "k"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 1
    err = json.loads(out)["error"]
    assert err["kind"] == "unsupported_stabilizer"
    assert err["subset"] == ["s0", "s1", "s2"]
    assert "unsupported stabilizer" in err["message"]
    with pytest.raises(UnsupportedStabilizerError):
        build_davis_orbit_complex(CoxeterMatrix.from_rows(
            [[1, 3, 2, 3], [3, 1, 3, 2], [2, 3, 1, 3], [3, 2, 3, 1]]))
    announce(9, "affine A3 input exits with an unsupported-stabilizer error "
                "naming {s0, s1, s2}; S4 representation rings are out of scope")


def test_amalgam_parameter_grid_exact_match():
    # Full grid k <= 3, r_i in {1,3,5}, m_i in {2,3,4}: the pipeline output
    # matches the closed form in every degree, for K everywhere and for KO
    # (odd edges guarantee a single nonzero column, so no ambiguity arises).
    specs = []
    for k in (1, 2, 3):
        for r in itertools.product((1, 3, 5), repeat=k):
            for m in itertools.product((2, 3, 4), repeat=k + 1):
                specs.append(AmalgamSpec(r=r, m=m))
    for spec in specs:
        x = build_amalgam_orbit_complex(spec)
        reports = assemble_abutment(build_e2(x, "k"))
        assert all(v.verdict == EXACT_MATCH
                   for v in compare(reports, closed_form_amalgam(spec, "k"))), spec
    rng = random.Random(77)
    ko_sample = rng.sample(specs, 400)
    for spec in ko_sample:
        x = build_amalgam_orbit_complex(spec)
        reports = assemble_abutment(build_e2(x, "ko"))
        assert not any(r.extension_ambiguous for r in reports), spec
        assert all(v.verdict == EXACT_MATCH
                   for v in compare(reports, closed_form_amalgam(spec, "ko"))), spec


def test_amalgam_coxeter_agreement_for_d_infinity():
    # the 2-generator right-angled matrix with the off-diagonal at infinity
    # presents the same group as the Z2 * Z2 amalgam
    matrix = CoxeterMatrix.from_rows([[1, INFINITY], [INFINITY, 1]])
    spec = AmalgamSpec(r=(1,), m=(2, 2))
    for theory in ("k", "ko"):
        via_coxeter = assemble_abutment(build_e2(build_davis_orbit_complex(matrix), theory))
        via_amalgam = assemble_abutment(build_e2(build_amalgam_orbit_complex(spec), theory))
        assert via_coxeter == via_amalgam
