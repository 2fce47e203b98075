import random
from collections import Counter

import pytest

from properk.abelian import AbGroup
from properk.ahss import (
    EXACT_MATCH,
    MATCH_UP_TO_EXTENSION,
    MISMATCH,
    ClosedForm,
    E2Page,
    ExtensionProblem,
    _is_admissible_extension,
    assemble_abutment,
    build_e2,
    closed_form_amalgam,
    closed_form_path_family,
    closed_form_polygon_family,
    closed_form_right_angled,
    compare,
    detect_collapse,
)
from properk.coxeter import CoxeterMatrix, build_bestvina_orbit_complex, build_davis_orbit_complex
from properk.orbit import AmalgamSpec, build_amalgam_orbit_complex
import corpus

Z = AbGroup.free
Z2 = AbGroup.elementary_2
ZERO = AbGroup.zero()


def synthetic_page(period, columns):
    """Page from a dict {(p, n): AbGroup}; everything else zero."""
    dim = max((p for p, _ in columns), default=0)
    rows = []
    for n in range(period):
        rows.append(tuple(columns.get((p, n), ZERO) for p in range(dim + 1)))
    return E2Page("ko" if period == 8 else "k", period, tuple(rows))


def test_polygon_ko_page_matches_the_two_column_table():
    n = 5
    x = build_bestvina_orbit_complex(CoxeterMatrix.polygon_family(n))
    page = build_e2(x, "ko")
    col0 = [page.entry(0, q) for q in range(8)]
    col1 = [page.entry(1, q) for q in range(8)]
    assert col0 == [Z(n + 3), Z2(n + 3), Z2(n + 3), ZERO, Z(n + 3), ZERO, ZERO, ZERO]
    assert col1 == [Z(1), Z2(1), Z2(1), ZERO, Z(1), ZERO, ZERO, ZERO]
    assert [page.entry(2, q).is_zero for q in range(8)] == [True] * 8


def test_amalgam_k_page_single_column():
    x = build_amalgam_orbit_complex(AmalgamSpec(r=(2,), m=(3, 2)))
    page = build_e2(x, "k")
    assert page.entry(0, 0) == Z(8)
    assert page.entry(1, 0).is_zero and page.entry(0, 1).is_zero


def test_detect_collapse_two_columns():
    x = build_bestvina_orbit_complex(CoxeterMatrix.polygon_family(4))
    assert detect_collapse(build_e2(x, "ko"))


def test_detect_collapse_single_column():
    page = synthetic_page(2, {(0, 0): Z(3)})
    assert detect_collapse(page)


def test_all_zero_page():
    page = synthetic_page(8, {})
    assert detect_collapse(page)
    reports = assemble_abutment(page)
    assert all(r.resolved == ZERO and not r.pieces for r in reports)


def test_detect_collapse_positional_d2_pair():
    # nonzero source at (p, q) = (0, 0) and target at (2, -1)
    page = synthetic_page(2, {(0, 0): Z(1), (2, 1): Z(1)})
    assert not detect_collapse(page)


def test_detect_collapse_is_exhaustive_on_synthetic_pages():
    # independent re-scan: collapse is claimed only when no d_r source/target
    # pair is simultaneously nonzero
    rng = random.Random(13)
    for _ in range(60):
        period = rng.choice((2, 8))
        dim = rng.randint(0, 4)
        cols = {}
        for p in range(dim + 1):
            for n in range(period):
                if rng.random() < 0.25:
                    cols[(p, n)] = Z(1)
        page = synthetic_page(period, cols)
        expected = True
        for r in range(2, dim + 1):
            for p in range(dim + 1):
                for n in range(period):
                    if not page.entry(p, n).is_zero and not page.entry(p + r, (n + r - 1) % period).is_zero:
                        expected = False
        assert detect_collapse(page) == expected


def test_abutment_polygon_k():
    n = 5
    x = build_bestvina_orbit_complex(CoxeterMatrix.polygon_family(n))
    reports = assemble_abutment(build_e2(x, "k"))
    assert reports[0].resolved == Z(n + 3)
    assert not reports[0].extension_ambiguous
    assert reports[1].resolved == Z(1)
    assert reports[1].pieces == ((1, Z(1)),)


def test_abutment_polygon_ko_extension_flags():
    n = 5
    x = build_bestvina_orbit_complex(CoxeterMatrix.polygon_family(n))
    reports = assemble_abutment(build_e2(x, "ko"))
    # degree 1: pieces (Z/2)^{n+3} and Z/2, genuinely ambiguous
    assert reports[1].extension_ambiguous
    assert reports[1].pieces == ((0, Z2(n + 3)), (1, Z2(1)))
    assert reports[1].resolved is None
    # degree 0: torsion piece above a free piece; not resolved either
    assert reports[0].extension_ambiguous
    assert reports[0].pieces == ((0, Z(n + 3)), (1, Z2(1)))
    # degrees 3 and 7 come from the lone H^1 = Z piece
    assert reports[3].resolved == Z(1) and reports[3].pieces == ((1, Z(1)),)
    assert reports[7].resolved == Z(1)
    assert reports[4].resolved == Z(n + 3)


def test_abutment_requires_collapse():
    page = synthetic_page(2, {(0, 0): Z(1), (2, 1): Z(1)})
    with pytest.raises(ValueError):
        assemble_abutment(page)


def test_abutment_all_free_pieces_resolve():
    page = synthetic_page(2, {(0, 0): Z(2), (1, 1): Z(3)})
    reports = assemble_abutment(page)
    assert reports[0].resolved == Z(5)
    assert not reports[0].extension_ambiguous


# ---------------------------------------------------------------------------
# Closed forms


def test_closed_form_amalgam_k_values():
    # sigma = sum of vertex orders minus sum of edge orders
    assert closed_form_amalgam(AmalgamSpec(r=(2,), m=(3, 2)), "k").degrees[0] == Z(8)
    assert closed_form_amalgam(AmalgamSpec(r=(1,), m=(3, 2)), "k").degrees[0] == Z(4)
    assert closed_form_amalgam(AmalgamSpec(r=(1,), m=(2, 2)), "k").degrees[0] == Z(3)


def test_closed_form_amalgam_ko_values():
    cf = closed_form_amalgam(AmalgamSpec(r=(1,), m=(3, 2)), "ko")
    assert cf.degrees[0] == Z(3)            # sigma
    assert cf.degrees[1] == Z2(2)           # omega
    assert cf.degrees[2] == AbGroup.from_divisors(1, [2, 2])
    assert cf.degrees[6] == Z(1)            # theta
    assert cf.degrees[3] == ZERO and cf.degrees[5] == ZERO and cf.degrees[7] == ZERO
    cf = closed_form_amalgam(AmalgamSpec(r=(1,), m=(2, 2)), "ko")
    assert cf.degrees[0] == Z(3) and cf.degrees[1] == Z2(3) and cf.degrees[6] == ZERO


def test_closed_form_degenerate_single_factor():
    # k = 0: a finite cyclic group, whose classifying space is a point;
    # the formulas degenerate to the point coefficients of Z/5.
    spec = AmalgamSpec(r=(), m=(5,))
    x = build_amalgam_orbit_complex(spec)
    for theory in ("k", "ko"):
        reports = assemble_abutment(build_e2(x, theory))
        verdicts = compare(reports, closed_form_amalgam(spec, theory))
        assert all(v.verdict == EXACT_MATCH for v in verdicts)
    assert closed_form_amalgam(spec, "ko").degrees[0] == Z(3)  # floor(5/2) + 1


def test_closed_form_amalgam_ko_rejects_even_edges():
    with pytest.raises(ValueError):
        closed_form_amalgam(AmalgamSpec(r=(2,), m=(3, 2)), "ko")


def test_closed_form_right_angled():
    m = CoxeterMatrix.from_rows([[1, 0], [0, 1]])
    assert closed_form_right_angled(m, "k").degrees[0] == Z(3)
    cf = closed_form_right_angled(m, "ko")
    assert cf.degrees[1] == Z2(3) and cf.degrees[6] == ZERO
    empty = CoxeterMatrix.from_rows([])
    assert closed_form_right_angled(empty, "k").degrees[0] == Z(1)
    with pytest.raises(ValueError):
        closed_form_right_angled(CoxeterMatrix.path_family(2), "k")


def test_closed_form_families():
    assert closed_form_path_family(5, "k").degrees == (Z(7), ZERO)
    cf = closed_form_polygon_family(5, "ko")
    assert cf.degrees[0] == AbGroup.from_divisors(8, [2])
    assert isinstance(cf.degrees[1], ExtensionProblem)
    assert cf.degrees[3] == Z(1) and cf.degrees[7] == Z(1)
    assert cf.degrees[5] == ZERO and cf.degrees[6] == ZERO


# ---------------------------------------------------------------------------
# compare()


def test_compare_exact_match_pipeline_vs_closed_form():
    spec = AmalgamSpec(r=(2,), m=(3, 2))
    x = build_amalgam_orbit_complex(spec)
    reports = assemble_abutment(build_e2(x, "k"))
    verdicts = compare(reports, closed_form_amalgam(spec, "k"))
    assert [v.verdict for v in verdicts] == [EXACT_MATCH, EXACT_MATCH]


def test_compare_flags_extension_degrees():
    n = 5
    x = build_bestvina_orbit_complex(CoxeterMatrix.polygon_family(n))
    reports = assemble_abutment(build_e2(x, "ko"))
    verdicts = compare(reports, closed_form_polygon_family(n, "ko"))
    by_degree = {v.degree: v.verdict for v in verdicts}
    assert by_degree[0] == MATCH_UP_TO_EXTENSION
    assert by_degree[1] == MATCH_UP_TO_EXTENSION
    for d in (2, 3, 4, 5, 6, 7):
        assert by_degree[d] == EXACT_MATCH


def test_compare_negative_control():
    spec = AmalgamSpec(r=(2,), m=(3, 2))
    x = build_amalgam_orbit_complex(spec)
    reports = assemble_abutment(build_e2(x, "k"))
    perturbed = ClosedForm("k", 2, (Z(9), ZERO))  # sigma + 1
    verdicts = compare(reports, perturbed)
    assert verdicts[0].verdict == MISMATCH
    assert "Z^8" in verdicts[0].detail and "Z^9" in verdicts[0].detail


def test_compare_mismatched_extension_pieces():
    # degree 0 collects E^{0,0} and E^{1,-1}, i.e. rows 0 and 1
    page = synthetic_page(8, {(0, 0): Z2(2), (1, 1): Z2(1)})
    reports = assemble_abutment(page)
    assert reports[0].extension_ambiguous
    closed = ClosedForm("ko", 8, tuple(
        ExtensionProblem(((0, Z2(3)), (1, Z2(1)))) if n == 0 else ZERO
        for n in range(8)))
    verdicts = compare(reports, closed)
    assert verdicts[0].verdict == MISMATCH
    # matching pieces give the extension verdict
    matching = ClosedForm("ko", 8, tuple(
        ExtensionProblem(((0, Z2(2)), (1, Z2(1)))) if n == 0 else ZERO
        for n in range(8)))
    assert compare(reports, matching)[0].verdict == MATCH_UP_TO_EXTENSION


def test_compare_resolved_report_against_a_closed_form_extension():
    # Two free pieces resolve to their sum, which realizes the closed-form
    # extension of the same pieces and no extension with other pieces.
    reports = assemble_abutment(synthetic_page(2, {(0, 0): Z(1), (1, 1): Z(2)}))
    assert reports[0].resolved == Z(3) and not reports[0].extension_ambiguous

    def closed(pieces):
        return ClosedForm("k", 2, (ExtensionProblem(pieces), ZERO))

    same = compare(reports, closed(((0, Z(1)), (1, Z(2)))))
    assert [v.verdict for v in same] == [MATCH_UP_TO_EXTENSION, EXACT_MATCH]
    assert same[0].detail == "computed Z^3 realizes the closed-form extension"
    other = compare(reports, closed(((0, Z2(1)), (1, Z(2)))))[0]
    assert other.verdict == MISMATCH
    assert other.detail == ("computed Z^3 cannot realize the closed-form extension "
                            "[p=0: Z/2, p=1: Z^2]")


def test_compare_closed_form_that_is_no_admissible_extension_is_a_mismatch():
    # An ambiguous degree with pieces (Z/2)^2 and Z/2 admits the split
    # extension (Z/2)^3 but not Z/2 + Z/4, which the recognizer refuses.
    reports = assemble_abutment(synthetic_page(8, {(0, 0): Z2(2), (1, 1): Z2(1)}))
    assert reports[0].extension_ambiguous

    def closed(group):
        return ClosedForm("ko", 8, tuple(group if n == 0 else ZERO for n in range(8)))

    assert compare(reports, closed(Z2(3)))[0].verdict == MATCH_UP_TO_EXTENSION
    verdict = compare(reports, closed(AbGroup.from_divisors(0, [4, 2])))[0]
    assert verdict.verdict == MISMATCH
    assert verdict.detail == ("closed form Z/2 (+) Z/4 is not an admissible extension "
                              "of [p=0: Z/2 (+) Z/2, p=1: Z/2]")


def test_admissible_extension_of_no_piece_and_of_one_piece():
    assert _is_admissible_extension(ZERO, ())
    assert not _is_admissible_extension(Z2(1), ())
    assert _is_admissible_extension(Z2(1), ((3, Z2(1)),))
    assert not _is_admissible_extension(Z(1), ((3, Z2(1)),))
    assert not _is_admissible_extension(Z2(2), ((3, Z2(1)),))


def test_mixed_stabilizer_group_outside_all_closed_forms():
    # Three generators with m01 = 3, m12 = 2, m02 = infinity: stabilizers mix
    # an odd dihedral with an elementary abelian 2-group.  No closed form
    # applies; frozen values from the kernel count 3 + 4 - 2 = 5 of the
    # assembled degree-0 system, cross-checked by both models.
    m = CoxeterMatrix.from_rows([[1, 3, 0], [3, 1, 2], [0, 2, 1]])
    assert m.detect_family() is None and not m.is_right_angled()
    expected_ko = [Z(5), Z2(5), Z2(5), ZERO, Z(5), ZERO, ZERO, ZERO]
    from properk.coxeter import build_davis_orbit_complex

    for builder in (build_bestvina_orbit_complex, build_davis_orbit_complex):
        x = builder(m)
        k_reports = assemble_abutment(build_e2(x, "k"))
        assert [r.resolved for r in k_reports] == [Z(5), ZERO]
        ko_reports = assemble_abutment(build_e2(x, "ko"))
        assert [r.resolved for r in ko_reports] == expected_ko


def test_periodicity_of_coefficients():
    x = build_amalgam_orbit_complex(AmalgamSpec(r=(1,), m=(3, 2)))
    from properk.bredon import bredon_cohomology

    for n in range(8):
        assert bredon_cohomology(x, "ko", n) == bredon_cohomology(x, "ko", n + 8)


# ---------------------------------------------------------------------------
# Whole pages of the corpus inputs against the pages their closed forms fix


def degree_zero_page(closed: ClosedForm) -> list[list[AbGroup]]:
    """The page behind a right-angled, path or amalgam closed form: each
    degree's group at p = 0, and nothing above."""
    return [[closed.entry(n)] for n in range(closed.period)]


def polygon_page(n: int, theory: str) -> list[list[AbGroup]]:
    """The page behind ``closed_form_polygon_family``: H^0 = Z^{n+3} and
    H^1 = Z in the integral rows, their mod-2 reductions in KO rows 1 and
    2, and every other row zero."""
    integral = [Z(n + 3), Z(1)]
    if theory == "k":
        return [integral, []]
    mod2 = [Z2(n + 3), Z2(1)]
    return [integral, mod2, mod2, [], integral, [], [], []]


def assert_page_is(page: E2Page, expected: list[list[AbGroup]], label) -> None:
    """Entry by entry, every entry that ``expected`` does not list zero."""
    assert page.period == len(expected), label
    for n, row in enumerate(expected):
        width = max(page.dim + 1, len(row))
        got = [page.entry(p, n) for p in range(width)]
        assert got == row + [ZERO] * (width - len(row)), (label, n)


def corpus_inputs(group: corpus.Group, flags: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The distinct values of ``flags`` over a corpus group's command
    lines, in order of first use."""
    return list(dict.fromkeys(tuple(argv[argv.index(flag) + 1] for flag in flags)
                              for argv in group.argvs))


def ints(text: str) -> tuple[int, ...]:
    return tuple(map(int, text.split(","))) if text else ()


def closed_page(matrix: CoxeterMatrix, theory: str) -> list[list[AbGroup]] | None:
    """The page that the matrix's closed form fixes, or None without one."""
    if matrix.is_right_angled():
        return degree_zero_page(closed_form_right_angled(matrix, theory))
    family = matrix.detect_family()
    if family is None:
        return None
    kind, n = family
    if kind == "path":
        return degree_zero_page(closed_form_path_family(n, theory))
    return polygon_page(n, theory)


@pytest.mark.parametrize("theory", ["k", "ko"])
def test_amalgam_corpus_pages_are_their_closed_forms(theory):
    inputs = corpus_inputs(corpus.amalgam_grid(), ("--r", "--m"))
    assert len(inputs) == 148
    for r, m in inputs:
        spec = AmalgamSpec(ints(r), ints(m))
        page = build_e2(build_amalgam_orbit_complex(spec), theory)
        assert_page_is(page, degree_zero_page(closed_form_amalgam(spec, theory)), (r, m))


@pytest.mark.parametrize("build", [build_davis_orbit_complex, build_bestvina_orbit_complex],
                         ids=["davis", "bestvina"])
@pytest.mark.parametrize("theory", ["k", "ko"])
def test_coxeter_corpus_pages_are_their_closed_forms(build, theory):
    # The zero-generator matrix is written as empty inline text, which the
    # CLI refuses; every other corpus matrix is read back from its text.
    texts = [text for group in (corpus.right_angled(), corpus.families())
             for (text,) in corpus_inputs(group, ("--matrix",)) if text]
    checked = Counter()
    for text in texts:
        matrix = CoxeterMatrix.from_rows([ints(row) for row in text.split(";")])
        expected = closed_page(matrix, theory)
        if expected is not None:
            assert_page_is(build_e2(build(matrix), theory), expected, text)
            checked[(matrix.detect_family() or ("right-angled",))[0]] += 1
    assert checked == {"right-angled": 54, "path": 8, "polygon": 7}
