"""Command-line front end.

Two subcommands:

  properk amalgam --r 2 --m 3,2 --theory k --check
  properk coxeter --file pentagon.json --theory ko --model both --check

Exit status: 0 on success (including verdicts that only match up to an
extension problem), 2 when --check finds a MISMATCH, 1 otherwise, with a
machine-readable error object whose kind names the failure:
invalid_input (an --out file that cannot be written included, reported on
stdout), unsupported_stabilizer, unsupported_restriction,
no_collapse (the E2 page does not collapse positionally),
model_disagreement (the Davis and Bestvina E2 pages differ, a bug) or
too_large (--emit complex or cochain would write more dense matrix
entries than EMIT_ENTRY_BUDGET, predicted before anything is assembled).
A reader that closes stdout before the report is written, as `| head`
may, also gets status 1, with nothing on stderr.
Output is deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii

from .ahss import (
    MISMATCH,
    AbutmentReport,
    ClosedForm,
    E2Page,
    NoCollapseError,
    assemble_abutment,
    build_e2,
    closed_form_amalgam,
    closed_form_path_family,
    closed_form_polygon_family,
    closed_form_right_angled,
    compare,
)
from .bredon import bredon_cochain, part_assembler, part_sizes
from .coxeter import (
    CoxeterMatrix,
    UnsupportedStabilizerError,
    build_bestvina_orbit_complex,
    build_davis_orbit_complex,
)
from .groups import UnsupportedRestrictionError
from .orbit import AmalgamSpec, OrbitComplex, build_amalgam_orbit_complex
from .reprings import kept_types, period

# Most dense matrix entries an --emit complex or --emit cochain report may
# write.  Each costs 14 to 19 bytes of output and about 12 bytes of peak
# memory above the interpreter's own, since the report is written row by row
# (D_inf^4 Davis --emit complex and Bestvina KO --emit cochain, CPython
# 3.11), so the budget is near 190 MB of output and 120 MB of memory.
EMIT_ENTRY_BUDGET = 10_000_000


class InputError(ValueError):
    pass


class ModelDisagreementError(Exception):
    """Two models of the same group gave different reports: a bug."""


class TooLargeError(Exception):
    """A dense --emit payload would exceed EMIT_ENTRY_BUDGET."""

    def __init__(self, emit: str, entries: int):
        super().__init__(f"--emit {emit} would write {entries} dense matrix entries, "
                         f"over the budget of {EMIT_ENTRY_BUDGET}")
        self.entries = entries


def _complex_entries(complex_: OrbitComplex) -> int:
    """Dense entries of --emit complex: its incidence matrices."""
    counts = complex_.counts()
    return sum(a * b for a, b in zip(counts, counts[1:]))


def _cochain_entries(complex_: OrbitComplex, theory: str) -> int:
    """Dense entries of --emit cochain, from the number of cells with each
    stabilizer alone: in every coefficient degree, each differential's
    free, tor2 and cross blocks, sized by the parts that ``bredon_cochain``
    assembles (``bredon.part_sizes``), before anything is assembled."""
    layers = [Counter(cells).items() for cells in complex_.cells]
    total = 0
    for n in range(period(theory)):
        sizes = [part_sizes(complex_, theory, types) for types in kept_types(theory, n)]
        ranks = [[sum(count * size[stabilizer] for stabilizer, count in layer) for size in sizes]
                 for layer in layers]  # (free, tor) per dimension
        total += sum(f1 * f0 + t1 * (t0 + f0) for (f0, t0), (f1, t1) in zip(ranks, ranks[1:]))
    return total


def _refuse_dense(emit: str, entries: int) -> None:
    if entries > EMIT_ENTRY_BUDGET:
        raise TooLargeError(emit, entries)


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"expected a comma-separated integer list, got {text!r}") from exc


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _parse_matrix_arg(text: str) -> CoxeterMatrix:
    return CoxeterMatrix.from_rows([chunk.split(",") for chunk in text.split(";")])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="properk",
        description="Equivariant K/KO-theory of classifying spaces for proper actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--theory", choices=("k", "ko"), default="k")
    shared.add_argument("--emit", choices=("result", "complex", "cochain", "e2page"),
                        default="result")
    shared.add_argument("--check", action="store_true",
                        help="compare against the applicable closed form")
    shared.add_argument("--out", help="write the report to this file instead of stdout")
    shared.add_argument("--from-complex",
                        help="advanced: read a previously dumped orbit complex instead of building one")

    am = sub.add_parser("amalgam", parents=[shared],
                        help="amalgamated product of finite cyclic groups")
    am.add_argument("--r", default="", help="comma-separated edge orders r_1..r_k")
    am.add_argument("--m", default="", help="comma-separated vertex parameters m_0..m_k")
    am.add_argument("--file", help="JSON file with {\"r\": [...], \"m\": [...]}")

    cox = sub.add_parser("coxeter", parents=[shared], help="Coxeter group")
    cox.add_argument("--file", help="JSON file with {\"size\": n, \"m\": [[...]]} (0 = infinity)")
    cox.add_argument("--matrix", help="inline matrix, rows separated by ';', entries by ','")
    cox.add_argument("--model", choices=("davis", "bestvina", "both"), default="both")
    return parser


def _amalgam_input(args) -> AmalgamSpec:
    if args.file:
        data = _load_json(args.file)
        try:
            return AmalgamSpec.from_json(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad amalgam JSON: {exc}") from exc
    try:
        return AmalgamSpec(_parse_int_list(args.r), _parse_int_list(args.m))
    except ValueError as exc:
        raise InputError(f"bad amalgam parameters: {exc}") from exc


def _coxeter_input(args) -> CoxeterMatrix:
    if args.file:
        data = _load_json(args.file)
        try:
            return CoxeterMatrix.from_json(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad Coxeter JSON: {exc}") from exc
    if args.matrix is not None:
        try:
            return _parse_matrix_arg(args.matrix)
        except ValueError as exc:
            raise InputError(f"bad inline matrix: {exc}") from exc
    raise InputError("coxeter needs --file or --matrix")


def _loaded_complex(path: str) -> OrbitComplex:
    data = _load_json(path)
    if isinstance(data, dict) and "complex" in data:  # a whole --emit complex report
        data = data["complex"]
    try:
        return OrbitComplex.from_json(data)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad orbit complex JSON: {exc}") from exc


def _coxeter_closed_form(matrix: CoxeterMatrix, theory: str) -> ClosedForm:
    if matrix.is_right_angled():
        return closed_form_right_angled(matrix, theory)
    family = matrix.detect_family()
    if family is None:
        raise InputError(
            "--check needs a closed form: the matrix is neither right-angled nor "
            "one of the recognized braid path/polygon families")
    kind, n = family
    if kind == "path":
        return closed_form_path_family(n, theory)
    return closed_form_polygon_family(n, theory)


def _degree_key(n: int) -> str:
    return str(-n) if n else "0"


def _result_payload(page: E2Page, reports: tuple[AbutmentReport, ...], description: str) -> dict:
    degrees = {}
    for report in reports:
        entry = report.to_json()
        entry["pretty"] = str(report.resolved) if report.resolved is not None else (
            "extension of " + " and ".join(str(g) for _, g in report.pieces))
        degrees[_degree_key(report.degree)] = entry
    return {
        "group": description,
        "theory": page.theory,
        "period": page.period,
        "degrees": degrees,
    }


def _page_payload(page: E2Page) -> dict:
    return {
        "theory": page.theory,
        "period": page.period,
        "rows": {_degree_key(n): [g.to_json() for g in page.rows[n]]
                 for n in range(page.period)},
    }


def _complex_payload(complex_: OrbitComplex) -> list[dict]:
    _refuse_dense("complex", _complex_entries(complex_))
    return complex_.to_json()


def _cochain_payload(complex_: OrbitComplex, theory: str) -> dict:
    _refuse_dense("cochain", _cochain_entries(complex_, theory))
    parts = part_assembler(complex_, theory, peel=False)
    provenance = [
        [{"from_cell": j, "to_cell": k, "alpha": alpha, "descriptor": str(desc)}
         for j, k, alpha, desc in complex_.sorted_faces(p)]
        for p in range(complex_.dim)
    ]
    out = []
    for n in range(period(theory)):
        cochain = bredon_cochain(complex_, theory, n, parts)
        out.append({
            "coefficient_degree": _degree_key(n),
            "free_ranks": list(cochain.free_ranks),
            "tor2_ranks": list(cochain.tor2_ranks),
            "differentials": [{"p": p,
                               "free": cochain.free_d[p].to_rows(),
                               "tor2": cochain.tor_d[p].to_rows(),
                               "cross": cochain.cross_d[p].to_rows(),
                               "provenance": provenance[p]}
                              for p in range(cochain.length)],
        })
    return {"theory": theory, "cochains": out}


def _pages_agree(a: E2Page, b: E2Page) -> bool:
    """Whether two pages agree entry by entry, each zero above its dimension."""
    return all(a.entry(p, n) == b.entry(p, n)
               for n in range(a.period) for p in range(max(a.dim, b.dim) + 1))


def _verdict_payload(reports: tuple[AbutmentReport, ...],
                     closed: ClosedForm) -> tuple[list[dict], bool]:
    verdicts = compare(reports, closed)
    payload = [v.to_json(reports) for v in verdicts]
    return payload, any(v.verdict == MISMATCH for v in verdicts)


def _run(args) -> tuple[dict, int]:
    amalgam = args.command == "amalgam"
    # A loaded complex needs the group only for the closed form.
    group = ((_amalgam_input if amalgam else _coxeter_input)(args)
             if args.check or not args.from_complex else None)
    if args.from_complex:
        complexes = {"loaded": _loaded_complex(args.from_complex)}
        description = (f"{'amalgam' if amalgam else 'Coxeter group'} "
                       f"from {args.from_complex}")
    elif amalgam:
        complexes = {"amalgam": build_amalgam_orbit_complex(group)}
        description = group.describe()
    else:
        # Looked up per call, so a rebound builder (a tracer, a test) is used.
        builders = {"davis": build_davis_orbit_complex,
                    "bestvina": build_bestvina_orbit_complex}
        names = tuple(builders) if args.model == "both" else (args.model,)
        if args.emit in ("complex", "cochain"):
            names = names[:1]  # only the first model is printed
        complexes = {name: builders[name](group) for name in names}
        description = f"Coxeter group on {group.size} generators"
    primary_name = next(iter(complexes))
    primary = complexes[primary_name]
    model = {} if amalgam else {"model": primary_name}
    if args.emit == "complex":
        return {"group": description, **model, "complex": _complex_payload(primary)}, 0
    # A loaded complex is refused where its restrictions need it
    # (``reprings.refuse_even_cyclic``), as under coxeter.
    if (amalgam and args.theory == "ko" and not args.from_complex
            and any(r % 2 == 0 for r in group.r)):
        raise UnsupportedRestrictionError(
            f"KO needs every edge order r_i odd; got r = {list(group.r)}")
    if args.emit == "cochain":
        return _cochain_payload(primary, args.theory), 0
    pages = {name: build_e2(cx, args.theory) for name, cx in complexes.items()}
    page = pages[primary_name]
    if len(pages) > 1 and not _pages_agree(*pages.values()):
        raise ModelDisagreementError(
            "Davis and Bestvina E2 pages disagree; this is a bug, please report it")
    if args.emit == "e2page":
        return _page_payload(page), 0
    # An abutment is a function of its page, so agreeing pages agree there.
    report = assemble_abutment(page)
    payload = _result_payload(page, report, description) | model
    if len(pages) > 1:
        payload["models_agree"] = True
    mismatch = False
    if args.check:
        closed_form = closed_form_amalgam if amalgam else _coxeter_closed_form
        payload["verdicts"], mismatch = _verdict_payload(report, closed_form(group, args.theory))
    return payload, 2 if mismatch else 0


def _error(kind: str, message: str, **extra) -> tuple[dict, int]:
    return {"error": {"kind": kind, "message": message, **extra}}, 1


def write_report(payload: dict, sink) -> None:
    """Write to ``sink``, piece by piece through its ``write``, the bytes of
    ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, for a
    payload of dicts with string keys, lists, strings, ints, bools and
    None.  ``json.dumps`` with an indent runs its pure-Python encoder, one
    generator step per token; this writer escapes through the same C
    function and writes a list of plain ints, a dense matrix row, in one
    piece.  No piece is longer than one such row, so the report is never
    held whole.  Any other type or key raises TypeError, possibly after part
    of the report is written: only a payload built wrongly in this module,
    a programming error, can do that."""
    write = sink.write
    _write(payload, "\n", write)
    write("\n")


def _write(value, newline: str, write) -> None:
    """Write ``value``, whose lines start with ``newline``'s indent."""
    cls = type(value)
    if cls is str:
        write(encode_basestring_ascii(value))
    elif cls is int:
        write(int.__repr__(value))
    elif cls is dict:
        if not value:
            write("{}")
            return
        inner = newline + "  "
        opening = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            write(opening + encode_basestring_ascii(key) + ": ")
            _write(value[key], inner, write)
            opening = "," + inner
        write(newline + "}")
    elif cls is list:
        if not value:
            write("[]")
            return
        inner = newline + "  "
        if {*map(type, value)} == {int}:
            # A dense matrix row is one write, not one per entry: that
            # halves the time to write a large --emit complex|cochain.
            write("[" + inner + ("," + inner).join(map(int.__repr__, value))
                  + newline + "]")
            return
        opening = "[" + inner
        for item in value:
            write(opening)
            _write(item, inner, write)
            opening = "," + inner
        write(newline + "]")
    elif value is None:
        write("null")
    elif cls is bool:
        write("true" if value else "false")
    else:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


# Built once: parse_args leaves the parser unchanged.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        payload, status = _run(args)
    except UnsupportedStabilizerError as exc:
        payload, status = _error("unsupported_stabilizer", str(exc),
                                 subset=[f"s{i}" for i in exc.subset])
    except UnsupportedRestrictionError as exc:
        payload, status = _error("unsupported_restriction", str(exc))
    except NoCollapseError as exc:
        payload, status = _error("no_collapse", str(exc))
    except ModelDisagreementError as exc:
        payload, status = _error("model_disagreement", str(exc))
    except TooLargeError as exc:
        payload, status = _error("too_large", str(exc), predicted_entries=exc.entries,
                                 budget=EMIT_ENTRY_BUDGET)
    except ValueError as exc:  # InputError and the layers' input errors too
        payload, status = _error("invalid_input", str(exc))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                write_report(payload, fh)
            return status
        except OSError as exc:
            # The report, error or not, goes nowhere: say so on stdout.
            payload, status = _error("invalid_input", f"cannot write {args.out}: {exc}")
    try:
        write_report(payload, sys.stdout)
        # A report shorter than stdout's buffer meets a closed reader only
        # when it is flushed, so flush it here.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe, as `| head` does.  Point stdout at
        # os.devnull, so that the interpreter's last flush of the rest of
        # the report stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
