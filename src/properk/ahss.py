"""Atiyah-Hirzebruch spectral sequence: E2 page, positional collapse,
abutment with extension flags, and closed-form cross-checks.

Differentials are never computed.  Collapse at E2 is detected purely
positionally (no d_r can have nonzero source and target); when that test
fails the answer is reported as undetermined beyond E2, never guessed.
When several E-infinity pieces contribute to one total degree, the abutment
is resolved only when the direct sum is forced: a single nonzero piece, or
all pieces free.  Which filtration index sits at the bottom of the abutment
is deliberately not asserted, so a torsion piece next to a free piece stays
flagged as an extension problem.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import AbGroup
from .bredon import bredon_rows
from .coxeter import CoxeterMatrix
from .orbit import AmalgamSpec, OrbitComplex


@dataclass(frozen=True)
class E2Page:
    """One coefficient period of E2 rows.

    ``rows[n][p]`` is the Bredon cohomology H^p with coefficients in the
    theory's degree -n functor, n = 0..period-1; Bott periodicity identifies
    every other row with one of these.  ``period`` is the number of rows:
    each is stored, whether it was computed or derived from others.
    """

    theory: str
    rows: tuple[tuple[AbGroup, ...], ...]

    def __post_init__(self):
        if len({len(r) for r in self.rows}) > 1:
            raise ValueError("rows must have a common length")

    @property
    def period(self) -> int:
        return len(self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows[0]) - 1

    def entry(self, p: int, n: int) -> AbGroup:
        """E2^{p, q} with q = -n (n arbitrary, reduced mod the period)."""
        if not 0 <= p <= self.dim:
            return AbGroup.zero()
        return self.rows[n % self.period][p]


def build_e2(complex_: OrbitComplex, theory: str) -> E2Page:
    """One period of rows, from the page's distinct cochain complexes only.

    ``bredon.bredon_rows`` assembles one complex per theory, the other
    distinct KO complexes as parts of it, and derives the remaining rows.
    """
    return E2Page(theory, bredon_rows(complex_, theory))


class NoCollapseError(ValueError):
    """The E2 page does not collapse for positional reasons, so the abutment
    is not determined by it."""


def detect_collapse(page: E2Page) -> bool:
    """True iff no differential d_r (r >= 2) has nonzero source and target.

    d_r moves (p, q) to (p + r, q - r + 1); q is read modulo the period.
    False means "undetermined beyond E2", not that a differential is
    actually nonzero.
    """
    for r in range(2, page.dim + 1):
        for p in range(0, page.dim - r + 1):
            for n in range(page.period):
                source = page.entry(p, n)
                target = page.entry(p + r, n + r - 1)
                if not source.is_zero and not target.is_zero:
                    return False
    return True


@dataclass(frozen=True)
class AbutmentReport:
    """E-infinity pieces contributing to one total degree -n (mod period).

    ``pieces`` lists the nonzero E^{p, -n-p} by filtration p.  ``resolved``
    is present exactly when the group is forced: at most one nonzero piece,
    or all pieces free (an extension of a free group by a free group
    splits).  Otherwise it is None, and ``extension_ambiguous`` flags the degree.
    """

    degree: int
    pieces: tuple[tuple[int, AbGroup], ...]
    resolved: AbGroup | None

    @property
    def extension_ambiguous(self) -> bool:
        return self.resolved is None

    def to_json(self) -> dict:
        return {
            "pieces": [{"p": p, "group": g.to_json()} for p, g in self.pieces],
            "resolved": None if self.resolved is None else self.resolved.to_json(),
            "extension_ambiguous": self.extension_ambiguous,
        }


def assemble_abutment(page: E2Page) -> tuple[AbutmentReport, ...]:
    """Collect E2 = E-infinity pieces per total degree, under collapse."""
    if not detect_collapse(page):
        raise NoCollapseError("page is not known to collapse at E2; abutment undetermined")
    reports = []
    for n in range(page.period):
        pieces = []
        for p in range(page.dim + 1):
            g = page.entry(p, n + p)
            if not g.is_zero:
                pieces.append((p, g))
        if len(pieces) <= 1:
            resolved = pieces[0][1] if pieces else AbGroup.zero()
        elif all(g.is_free() for _, g in pieces):
            resolved = AbGroup.free(sum(g.rank for _, g in pieces))
        else:
            resolved = None
        reports.append(AbutmentReport(n, tuple(pieces), resolved))
    return tuple(reports)


# ---------------------------------------------------------------------------
# Closed forms


@dataclass(frozen=True)
class ExtensionProblem:
    """A closed-form value that is itself only known up to extension."""

    pieces: tuple[tuple[int, AbGroup], ...]


ClosedEntry = AbGroup | ExtensionProblem


@dataclass(frozen=True)
class ClosedForm:
    """The value of each total degree -n, n = 0..period-1, period = len(degrees)."""

    degrees: tuple[ClosedEntry, ...]

    def entry(self, n: int) -> ClosedEntry:
        return self.degrees[n % len(self.degrees)]


def closed_form_amalgam(spec: AmalgamSpec, theory: str) -> ClosedForm:
    """Graded answer for an amalgam of finite cyclic groups.

    With s_i = m_i·r_i·r_{i+1} the vertex orders (r_0 = r_{k+1} = 1):

        K:  Z^sigma in even degrees, 0 in odd, with
            sigma = sum_i s_i - sum_i r_i;
        KO (all r_i odd):
            Z^sigma'              n = 0, 4 (mod 8)
            (Z/2)^omega           n = 1
            (Z/2)^omega ⊕ Z^theta n = 2
            Z^theta               n = 6
            0                     n = 3, 5, 7
        with sigma' = sum floor(s_i/2) - (sum r_i)/2 + k/2 + 1,
             omega  = (sum (-1)^{m_i} + k + 3)/2,
             theta  = sum ceil(s_i/2) - (sum r_i)/2 - k/2 - 1.
    """
    k = spec.k
    orders = [spec.vertex_order(i) for i in range(k + 1)]
    r_sum = sum(spec.r)
    if theory == "k":
        sigma = sum(orders) - r_sum
        return ClosedForm((AbGroup.free(sigma), AbGroup.zero()))
    if theory != "ko":
        raise ValueError("theory must be 'k' or 'ko'")
    if any(ri % 2 == 0 for ri in spec.r):
        raise ValueError("the KO closed form requires every edge order r_i to be odd")
    # With all r_i odd the half-integer terms pair up to integers.
    sigma = sum(s // 2 for s in orders) - (r_sum - k) // 2 + 1
    omega = (sum((-1) ** m for m in spec.m) + k + 3) // 2
    theta = sum((s + 1) // 2 for s in orders) - (r_sum + k) // 2 - 1
    degrees: list[ClosedEntry] = [
        AbGroup.free(sigma),
        AbGroup.elementary_2(omega),
        AbGroup.from_divisors(theta, [2] * omega),
        AbGroup.zero(),
        AbGroup.free(sigma),
        AbGroup.zero(),
        AbGroup.free(theta),
        AbGroup.zero(),
    ]
    return ClosedForm(tuple(degrees))


def closed_form_right_angled(matrix: CoxeterMatrix, theory: str) -> ClosedForm:
    """Graded answer for a right-angled Coxeter group with d spherical subgroups."""
    if not matrix.is_right_angled():
        raise ValueError("the right-angled closed form needs off-diagonal labels in {2, oo}")
    return _real_type_form(len(matrix.poset), theory)


def closed_form_path_family(n: int, theory: str) -> ClosedForm:
    """Closed form for the braid-path family on n+1 generators."""
    if n < 1:
        raise ValueError("the path family needs n >= 1")
    return _real_type_form(n + 2, theory)


def _real_type_form(d: int, theory: str) -> ClosedForm:
    """The table the right-angled and path closed forms share: K is
    (Z^d, 0) and KO is (Z^d, (Z/2)^d, (Z/2)^d, 0, Z^d, 0, 0, 0)."""
    if theory == "k":
        return ClosedForm((AbGroup.free(d), AbGroup.zero()))
    if theory != "ko":
        raise ValueError("theory must be 'k' or 'ko'")
    free, mod2, zero = AbGroup.free(d), AbGroup.elementary_2(d), AbGroup.zero()
    return ClosedForm((free, mod2, mod2, zero, free, zero, zero, zero))


def closed_form_polygon_family(n: int, theory: str) -> ClosedForm:
    """Closed form for the braid-polygon family on n+1 generators.

    The model is a polygon with one 2-cell, so the page has two nonzero
    columns: H^0 and H^1 = (Z^{n+3}, Z) for the integral rows and their
    mod-2 reductions ((Z/2)^{n+3}, Z/2) in KO degrees 1 and 2.  Reading the
    abutment off the collapsed page:

        n = 0 (mod 8): pieces Z^{n+3} and Z/2   -> Z/2 ⊕ Z^{n+3} as the
                        split extension (reported as the standard
                        resolution; the pipeline flags it, see compare());
        n = 1:          extension of Z/2 by (Z/2)^{n+3}, genuinely ambiguous;
        n = 2:          (Z/2)^{n+3};
        n = 3, 7:       Z   (the lone H^1 piece of an integral row);
        n = 4:          Z^{n+3};
        n = 5, 6:       0.
    """
    if n < 2:
        raise ValueError("the polygon family needs n >= 2")
    if theory == "k":
        return ClosedForm((AbGroup.free(n + 3), AbGroup.free(1)))
    if theory != "ko":
        raise ValueError("theory must be 'k' or 'ko'")
    z2 = AbGroup.elementary_2(1)
    degrees: list[ClosedEntry] = [
        AbGroup.from_divisors(n + 3, [2]),
        ExtensionProblem(((0, AbGroup.elementary_2(n + 3)), (1, z2))),
        AbGroup.elementary_2(n + 3),
        AbGroup.free(1),
        AbGroup.free(n + 3),
        AbGroup.zero(),
        AbGroup.zero(),
        AbGroup.free(1),
    ]
    return ClosedForm(tuple(degrees))


# ---------------------------------------------------------------------------
# Verdicts


EXACT_MATCH = "EXACT_MATCH"
MATCH_UP_TO_EXTENSION = "MATCH_UP_TO_EXTENSION"
MISMATCH = "MISMATCH"


@dataclass(frozen=True)
class Verdict:
    degree: int  # n, for the total degree -n
    verdict: str
    detail: str

    def to_json(self, reports: tuple[AbutmentReport, ...]) -> dict:
        return {"degree": -self.degree if self.degree else 0, "verdict": self.verdict,
                "detail": self.detail,
                "pieces": [{"p": p, "group": g.to_json()} for p, g in reports[self.degree].pieces]}


def _is_admissible_extension(candidate: AbGroup, pieces: tuple[tuple[int, AbGroup], ...]) -> bool:
    """Could ``candidate`` be the middle of the filtration with these pieces?

    Conservative recognizer.  The split extension, the direct sum of the
    pieces, is always admissible, and a free quotient forces splitness, so
    equality with it is accepted; anything else is refused rather than
    guessed (refusal shows up as MISMATCH with the diff naming the
    candidate).
    """
    return candidate == AbGroup.zero().direct_sum(*(g for _, g in pieces))


def compare(reports: tuple[AbutmentReport, ...], closed: ClosedForm) -> tuple[Verdict, ...]:
    """Per-degree verdict of the pipeline output against a closed form."""
    if len(reports) != len(closed.degrees):
        raise ValueError("period mismatch between pipeline output and closed form")
    verdicts = []
    for report in reports:
        expected = closed.entry(report.degree)
        if isinstance(expected, ExtensionProblem):
            if report.extension_ambiguous:
                if report.pieces == expected.pieces:
                    verdicts.append(Verdict(report.degree, MATCH_UP_TO_EXTENSION,
                                            "both sides are the same unresolved extension"))
                else:
                    verdicts.append(Verdict(report.degree, MISMATCH,
                                            "extension pieces differ: "
                                            f"computed {_fmt(report.pieces)}, "
                                            f"closed form {_fmt(expected.pieces)}"))
            elif report.resolved is not None and _is_admissible_extension(report.resolved,
                                                                          expected.pieces):
                verdicts.append(Verdict(report.degree, MATCH_UP_TO_EXTENSION,
                                        f"computed {report.resolved} realizes the closed-form extension"))
            else:
                verdicts.append(Verdict(report.degree, MISMATCH,
                                        f"computed {report.resolved} cannot realize the "
                                        f"closed-form extension {_fmt(expected.pieces)}"))
        else:
            if not report.extension_ambiguous:
                if report.resolved == expected:
                    verdicts.append(Verdict(report.degree, EXACT_MATCH, str(expected)))
                else:
                    verdicts.append(Verdict(report.degree, MISMATCH,
                                            f"computed {report.resolved}, closed form {expected}"))
            elif _is_admissible_extension(expected, report.pieces):
                verdicts.append(Verdict(report.degree, MATCH_UP_TO_EXTENSION,
                                        f"closed form {expected} is one admissible extension "
                                        f"of {_fmt(report.pieces)}"))
            else:
                verdicts.append(Verdict(report.degree, MISMATCH,
                                        f"closed form {expected} is not an admissible extension "
                                        f"of {_fmt(report.pieces)}"))
    return tuple(verdicts)


def _fmt(pieces: tuple[tuple[int, AbGroup], ...]) -> str:
    return "[" + ", ".join(f"p={p}: {g}" for p, g in pieces) + "]"
