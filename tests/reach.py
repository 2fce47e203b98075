"""The lines of src/properk that no run of the byte-identity corpus reaches.

    python3 tests/reach.py                  # every module
    python3 tests/reach.py coxeter orbit    # only these modules

Runs every group of ``tests/corpus.py`` in this process under a
``sys.settrace`` line tracer, then lists per module, and per function in
it, each executable line that no run executed, with its text.  The
executable lines of a module are those its compiled code objects map
instructions to, so comments, blank lines and docstrings are not counted.
Tracing makes the corpus several times slower.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "properk"


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


def main(argv: list[str]) -> int:
    modules = sorted(SRC.glob("*.py"))
    if argv:
        modules = [path for path in modules if path.stem in argv]
    sys.path.insert(0, str(HERE))
    reached = trace_corpus()
    total = missed = 0
    for path in modules:
        owner = executable_lines(path)
        lines = path.read_text().splitlines()
        unreached = sorted(set(owner) - reached.get(str(path), set()))
        total += len(owner)
        missed += len(unreached)
        print(f"{path.name}: {len(owner)} executable lines, {len(unreached)} not reached")
        last = None
        for line in unreached:
            if owner[line] != last:
                last = owner[line]
                print(f"  {last or '<module>'}")
            print(f"    {line:5d}  {lines[line - 1].strip()}")
    print(f"total: {total} executable lines, {missed} not reached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
