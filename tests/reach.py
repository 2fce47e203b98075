"""The lines of src/properk that no run of the byte-identity corpus reaches.

    python3 tests/reach.py                  # every module
    python3 tests/reach.py coxeter orbit    # only these modules
    python3 tests/reach.py --check          # fail on a line not in the baseline
    python3 tests/reach.py --record         # rewrite tests/reach_baseline.json

Runs every group of ``tests/corpus.py`` in this process under a
``sys.settrace`` line tracer, then lists per module, and per function in
it, each executable line that no run executed, with its text.  The
executable lines of a module are those its compiled code objects map
instructions to, so comments, blank lines and docstrings are not counted.
Tracing makes the corpus several times slower.

The baseline lists the unreached lines of every module by module,
qualified function and stripped text, not by line number, so moving code
does not change it.  ``--check`` fails when a line is unreached that the
baseline does not hold, as often as the baseline holds it: new code the
corpus cannot reach needs a corpus run, or a deliberate ``--record``.  A
baseline line that is now reached is reported, and ``--record`` drops it.
Which lines are executable differs between interpreters, so the baseline
is recorded and checked on one: CPython 3.12.  Neither this script nor the
corpus imports pytest or hypothesis, so it runs without the test extras.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "properk"
BASELINE = HERE / "reach_baseline.json"


def executable_lines(path: Path) -> dict[int, str]:
    """Each executable line of the module at ``path``, with the qualified
    name of the innermost function or class holding it ("" at the top)."""
    owner: dict[int, str] = {}
    stack = [(compile(path.read_text(), str(path), "exec"), "")]
    while stack:
        code, name = stack.pop()
        # A code object starts at its def or class line, which its parent
        # runs; only its body lines are its own.
        first = code.co_firstlineno if name else 0
        owner.update((line, name) for _, _, line in code.co_lines()
                     if line is not None and line != first)
        stack.extend((const, const.co_qualname if hasattr(const, "co_qualname") else const.co_name)
                     for const in code.co_consts if hasattr(const, "co_lines"))
    return owner


def trace_corpus() -> dict[str, set[int]]:
    """The lines of each src/properk file executed while importing the
    package and running every corpus group."""
    reached: dict[str, set[int]] = {}
    prefix = str(SRC) + "/"

    def local(frame, event, _arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def enter(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        reached.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.settrace(enter)
    try:
        import corpus  # imports properk under the tracer, so module code counts

        for make in corpus.GROUPS:
            corpus.run_group(make())
    finally:
        sys.settrace(None)
    return reached


def unreached(modules: list[Path]) -> dict[str, list[tuple[int, str, str]]]:
    """Per module name, its executable lines that no corpus run reaches,
    as (line number, qualified function, stripped text)."""
    sys.path.insert(0, str(HERE))
    reached = trace_corpus()
    out = {}
    for path in modules:
        owner = executable_lines(path)
        lines = path.read_text().splitlines()
        out[path.stem] = [(line, owner[line], lines[line - 1].strip())
                          for line in sorted(set(owner) - reached.get(str(path), set()))]
    return out


def keys(missed: dict[str, list[tuple[int, str, str]]]) -> Counter:
    return Counter((module, name, text) for module, lines in missed.items()
                   for _, name, text in lines)


def check(missed: dict[str, list[tuple[int, str, str]]]) -> int:
    baseline = Counter({tuple(key): count for *key, count in json.loads(BASELINE.read_text())})
    current = keys(missed)
    for module, name, text in sorted((baseline - current).elements()):
        print(f"now reached, --record drops it: {module} {name or '<module>'}: {text}")
    new = current - baseline
    failed = sum(new.values())
    for module, lines in missed.items():
        for line, name, text in lines:
            if new[module, name, text]:
                new[module, name, text] -= 1
                print(f"not reached and not in the baseline: {module}.py:{line} "
                      f"{name or '<module>'}: {text}")
    print(f"{sum(current.values())} lines not reached, {failed} of them not in the baseline")
    return 1 if failed else 0


def record(missed: dict[str, list[tuple[int, str, str]]]) -> None:
    entries = sorted([*key, count] for key, count in keys(missed).items())
    BASELINE.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n")
    print(f"recorded {sum(keys(missed).values())} unreached lines in {BASELINE}")


def main(argv: list[str]) -> int:
    modules = sorted(SRC.glob("*.py"))
    if argv in (["--check"], ["--record"]):
        missed = unreached(modules)
        if argv == ["--record"]:
            record(missed)
            return 0
        return check(missed)
    if any(arg.startswith("-") for arg in argv):
        raise SystemExit(__doc__)
    if argv:
        modules = [path for path in modules if path.stem in argv]
    missed = unreached(modules)
    total = 0
    for path in modules:
        lines = missed[path.stem]
        count = len(executable_lines(path))
        total += count
        print(f"{path.name}: {count} executable lines, {len(lines)} not reached")
        last = None
        for line, name, text in lines:
            if name != last:
                last = name
                print(f"  {last or '<module>'}")
            print(f"    {line:5d}  {text}")
    print(f"total: {total} executable lines, {sum(map(len, missed.values()))} not reached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
