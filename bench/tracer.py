"""Per-layer tracing of properk from outside the package.

The tracer rebinds public functions of each properk module to timing
wrappers, in every properk module namespace that imported them, and puts
the originals back on ``uninstall``.  Nothing under src/ changes.

A span's self time is its duration minus the time of the spans it caused.
The wrappers' own bookkeeping (counting entries, hashing descriptors) is
charged to no layer: it shows only in the traced run's wall time, which is
why the benchmark reports ``trace.overhead_s``.
"""

from __future__ import annotations

import sys
from time import perf_counter

CLI = "cli.self_s"
COXETER = "coxeter.build_s"
ORBIT_BUILD = "orbit.build_s"
ORBIT_VALIDATE = "orbit.validate_s"
REPRINGS = "reprings.restriction_s"
BREDON = "bredon.assemble_s"
DDCHECK = "abelian.ddcheck_s"
COHOMOLOGY = "abelian.cohomology_s"
SNF = "abelian.snf_s"
AHSS = "ahss.abutment_s"
LAYER_TIMES = (CLI, COXETER, ORBIT_BUILD, ORBIT_VALIDATE, REPRINGS, BREDON,
               DDCHECK, COHOMOLOGY, SNF, AHSS)

COUNTS = ("cli.report_bytes", "orbit.cells", "orbit.incidence_entries",
          "orbit.incidence_nnz", "reprings.restriction_calls",
          "reprings.restriction_distinct", "bredon.cochain_entries",
          "bredon.cochain_nnz", "abelian.snf_calls", "abelian.snf_max_entries")


def _int_stats(matrices) -> tuple[int, int]:
    entries = sum(len(m.entries) for m in matrices)
    return entries, entries - sum(m.entries.count(0) for m in matrices)


def _mod2_stats(matrices) -> tuple[int, int]:
    return (sum(m.rows * m.cols for m in matrices),
            sum(b.bit_count() for m in matrices for b in m.bits))


class Tracer:
    """Self time per layer and exact counts, accumulated until ``reset``."""

    def __init__(self):
        self._rebound: list[tuple[object, str, object]] = []
        # Every attribute an uninstall failed to restore, as "owner.name".
        self.unrestored: list[str] = []
        # One frame per open span: [layer, time spent in spans it caused].
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        self.times: dict[str, float] = dict.fromkeys(LAYER_TIMES, 0.0)
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self._restriction_keys: set = set()
        self._stack[:] = [[None, 0.0]]

    # -- counters, called after a span closes -------------------------------

    def _count_complex(self, args, _result) -> None:
        cx = args[0]
        c = self.counts
        c["orbit.cells"] += sum(len(layer) for layer in cx.cells)
        entries, nnz = _int_stats(cx.incidence)
        c["orbit.incidence_entries"] += entries
        c["orbit.incidence_nnz"] += nnz

    def _count_restriction(self, args, _result) -> None:
        # Nested calls (restriction_ko -> restriction_k0) are one request.
        if self._stack[-1][0] == REPRINGS:
            return
        self.counts["reprings.restriction_calls"] += 1
        self._restriction_keys.add(args)
        self.counts["reprings.restriction_distinct"] = len(self._restriction_keys)

    def _count_cochain(self, _args, result) -> None:
        i_entries, i_nnz = _int_stats(result.free_d)
        m_entries, m_nnz = _mod2_stats(result.tor_d + result.cross_d)
        self.counts["bredon.cochain_entries"] += i_entries + m_entries
        self.counts["bredon.cochain_nnz"] += i_nnz + m_nnz

    def _count_snf(self, _args, _result) -> None:
        # invariant_factors finishing on smith_normal_form is one computation.
        if self._stack[-1][0] != SNF:
            self.counts["abelian.snf_calls"] += 1

    def _count_dense_snf(self, args, result) -> None:
        self._count_snf(args, result)
        size = args[0].rows * args[0].cols
        self.counts["abelian.snf_max_entries"] = max(self.counts["abelian.snf_max_entries"], size)

    # -- installation --------------------------------------------------------

    def _targets(self):
        from properk import abelian, ahss, bredon, cli, coxeter, orbit, reprings

        return (
            (cli, "main", CLI, None),
            (coxeter, "enumerate_spherical_subsets", COXETER, None),
            (coxeter, "build_davis_orbit_complex", COXETER, None),
            (coxeter, "build_bestvina_orbit_complex", COXETER, None),
            (orbit, "build_amalgam_orbit_complex", ORBIT_BUILD, None),
            (orbit.OrbitComplex, "__post_init__", ORBIT_VALIDATE, self._count_complex),
            (reprings, "restriction_k0", REPRINGS, self._count_restriction),
            (reprings, "restriction_ko", REPRINGS, self._count_restriction),
            (bredon, "assemble_cochain", BREDON, self._count_cochain),
            (abelian.SplitCochainComplex, "__post_init__", DDCHECK, None),
            (abelian, "cohomology", COHOMOLOGY, None),
            (abelian, "invariant_factors", SNF, self._count_snf),
            (abelian, "smith_normal_form", SNF, self._count_dense_snf),
            (ahss, "build_e2", AHSS, None),
            (ahss, "assemble_abutment", AHSS, None),
            (ahss, "compare", AHSS, None),
        )

    def _wrap(self, fn, layer: str, counter):
        stack = self._stack

        def traced(*args, **kwargs):
            start = perf_counter()
            frame = [layer, 0.0]
            stack.append(frame)
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                self.times[layer] += perf_counter() - start - frame[1]
                stack.pop()
                if done and counter is not None:
                    counter(args, result)
                stack[-1][1] += perf_counter() - start

        return traced

    def install(self) -> None:
        """Rebind every target wherever a properk module holds it."""
        if self._rebound:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sys.modules.items()
                   if name == "properk" or name.startswith("properk.")]
        for owner, attr, layer, counter in self._targets():
            original = vars(owner)[attr]
            wrapper = self._wrap(original, layer, counter)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        self._rebound.append((holder, name, original))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._rebound):
            setattr(holder, name, original)
        self.unrestored += [f"{holder.__name__}.{name}" for holder, name, original in self._rebound
                            if vars(holder)[name] is not original]
        self._rebound = []
