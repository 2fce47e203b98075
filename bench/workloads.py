"""Seeded job lists for the benchmark workloads.

A job is one `properk` command line.  The seed decides the inputs and
nothing else; the program only ever sees the generated argv.  Why each
workload exists is recorded in BENCHMARK.json and bench/NOTES.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from properk.coxeter import INFINITY, CoxeterMatrix, build_davis_orbit_complex

DEFAULT_SEED = 1
CORPUS_SEED = 20240601  # the right-angled corpus of tests/conftest.py
THEORIES = ("k", "ko")
FAMILY_SIZES = (10, 20, 40, 80, 160)
# amalgam-wide slots: (edge orders r_1..r_k, target vertex order).  The seed
# moves each vertex order by up to 2 %, so almost every restriction
# descriptor is new while the work and memory per pass, which grow with
# sum(r) times the vertex orders, stay nearly the same.
AMALGAM_SLOTS = (
    ((15,), 10_000), ((11, 15), 9_000), ((9, 11, 13), 8_000), ((7, 9, 9, 11), 7_000),
    ((13,), 6_000), ((9, 13), 5_000), ((7, 9, 11), 4_000), ((5, 7, 7, 9), 3_000),
    ((11,), 2_000), ((7, 11), 1_000),
)


@dataclass(frozen=True)
class Job:
    """``name`` identifies the input up to symmetries that leave the report
    unchanged, so a recorded digest applies to every seed that produces it."""

    name: str
    argv: tuple[str, ...]


def matrix_arg(matrix: CoxeterMatrix) -> str:
    return ";".join(",".join(str(x) for x in row) for row in matrix.entries)


def coxeter_job(name: str, matrix: CoxeterMatrix, theory: str, model: str = "both") -> Job:
    argv = ("coxeter", "--matrix", matrix_arg(matrix), "--theory", theory,
            "--model", model, "--check")
    return Job(f"{name}/{theory}/{model}", argv)


def amalgam_job(r: tuple[int, ...], m: tuple[int, ...], theory: str) -> Job:
    r_arg = ",".join(map(str, r))
    m_arg = ",".join(map(str, m))
    argv = ("amalgam", "--r", r_arg, "--m", m_arg, "--theory", theory, "--check")
    return Job(f"amalgam r={r_arg} m={m_arg}/{theory}", argv)


def relabel(matrix: CoxeterMatrix, rng: random.Random) -> CoxeterMatrix:
    """The same Coxeter group with its generators renumbered at random.

    The report does not change; the order of cells, and so the order in
    which the exact linear algebra meets them, does.
    """
    perm = list(range(matrix.size))
    rng.shuffle(perm)
    return CoxeterMatrix.from_rows(
        [[matrix.m(perm[i], perm[j]) for j in range(matrix.size)] for i in range(matrix.size)])


def d_inf_power(k: int) -> CoxeterMatrix:
    """(Z2*Z2)^k on 2k generators: s_{2i}, s_{2i+1} generate one D_inf
    factor (label infinity), generators of different factors commute."""
    return CoxeterMatrix.from_rows(
        [[1 if a == b else INFINITY if a // 2 == b // 2 else 2 for b in range(2 * k)]
         for a in range(2 * k)])


def random_right_angled(rng: random.Random, size: int, p_commute: float = 0.4) -> CoxeterMatrix:
    rows = [[INFINITY] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = 1
        for j in range(i + 1, size):
            label = 2 if rng.random() < p_commute else INFINITY
            rows[i][j] = rows[j][i] = label
    return CoxeterMatrix.from_rows(rows)


def right_angled_corpus() -> list[CoxeterMatrix]:
    """The corpus of tests/conftest.py: 50 right-angled matrices on 2..6
    generators, resampling any whose Davis model exceeds 900 cells."""
    rng = random.Random(CORPUS_SEED)
    out: list[CoxeterMatrix] = []
    while len(out) < 50:
        matrix = random_right_angled(rng, rng.randint(2, 6))
        if sum(build_davis_orbit_complex(matrix).counts()) > 900:
            continue
        out.append(matrix)
    return out


def davis_dinf4(seed: int) -> list[Job]:
    return [coxeter_job("dinf4", relabel(d_inf_power(4), random.Random(seed)), "ko")]


def amalgam_wide(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for r, target in AMALGAM_SLOTS:
        padded = (1,) + r + (1,)
        m = tuple(round(target * rng.uniform(0.98, 1.02)) // (padded[i] * padded[i + 1])
                  for i in range(len(padded) - 1))
        jobs.extend(amalgam_job(r, m, theory) for theory in THEORIES)
    return jobs


def coxeter_corpus(seed: int) -> list[Job]:
    # The seed relabels a fixed corpus rather than drawing a new one: a new
    # draw moves the median job by a third from seed to seed.
    matrices = [(f"ra{i:02d}", mx) for i, mx in enumerate(right_angled_corpus())]
    for n in FAMILY_SIZES:
        matrices.append((f"path{n}", CoxeterMatrix.path_family(n)))
        matrices.append((f"polygon{n}", CoxeterMatrix.polygon_family(n)))
    rng = random.Random(seed)
    relabelled = [(name, relabel(mx, rng)) for name, mx in matrices]
    return [coxeter_job(name, mx, theory) for name, mx in relabelled for theory in THEORIES]


# name -> (job list generator, warm-up job run once during set-up)
WORKLOADS = {
    "davis-dinf4": (davis_dinf4, coxeter_job("dinf2", d_inf_power(2), "ko")),
    "amalgam-wide": (amalgam_wide, amalgam_job((3,), (5, 7), "ko")),
    "coxeter-corpus": (coxeter_corpus, coxeter_job("path3", CoxeterMatrix.path_family(3), "ko")),
}

# Outside every timed workload: the Davis model of D_inf^5 (about 49k cells)
# does not fit in memory today.  Recorded as ok / oom / error, never gated.
FRONTIER = coxeter_job("dinf5", d_inf_power(5), "ko", model="davis")
