"""The benchmark's per-layer tracer, run against the current sources.

``bench/tracer.py`` rebinds properk functions by name from outside the
package, so a renamed or removed function would silently drop a layer from
the traced benchmark.  One traced job checks that every target still binds,
that the counters see work, that the originals are restored and that
tracing leaves the report unchanged.
"""

import importlib.util
from pathlib import Path

from properk import cli
from properk.coxeter import CoxeterMatrix

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("properk_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_job_counts_layers_and_restores(capsys):
    rows = CoxeterMatrix.path_family(3).entries
    argv = ["coxeter", "--matrix", ";".join(",".join(map(str, row)) for row in rows),
            "--theory", "ko", "--model", "both", "--check"]
    assert cli.main(argv) == 0
    untraced = capsys.readouterr().out
    main = cli.main
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert cli.main is not main  # looked up through the module, so traced
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    assert capsys.readouterr().out == untraced
    assert tracer.unrestored == []
    assert cli.main is main
    assert tracer.counts["bredon.cochain_entries"] > 0
    assert tracer.counts["abelian.snf_calls"] > 0
    # The model build and the validation of each complex are timed.
    assert tracer.times["coxeter.build_s"] > 0
    assert tracer.times["orbit.validate_s"] > 0
