"""No float where the library code runs: a trace of every frame under ``src/``.

``test_exactness.py`` scans the source for float literals, ``float()`` calls
and non-integer ``math`` functions; it cannot see ``int / int``, which makes
a float from two exact operands.  Here the library runs under ``sys.settrace``
and every frame whose code lies under the package directory is checked when
it returns (and, for a generator, at each yield): no local and no returned
value, looked into through tuples and lists, may be a float or a complex.
Two things are exempt: ``QField.__float__``, the one conversion out of the
exact types, and a value that a frame received as an argument when the
frame then refuses it by raising (``qf(0.5)``).
"""

import inspect
import sys
import textwrap
from pathlib import Path

import pytest

import atfkit
from atfkit import cli, orbits, render
from atfkit.scalars import QField
from atfkit.verify import run_all

SOURCE = str(Path(atfkit.__file__).parent)
INEXACT = (float, complex)
SQRT2_LEVEL = "0/1+1/8*sqrt(2)"


def inexact(value, depth: int = 2) -> bool:
    if isinstance(value, INEXACT):
        return True
    return depth > 0 and isinstance(value, (tuple, list)) and any(inexact(v, depth - 1) for v in value)


def library(code) -> bool:
    return code.co_filename.startswith(SOURCE) and code is not QField.__float__.__code__


class Audit:
    """A ``sys.settrace`` function that lists each float or complex held by
    a library frame as ``(function, name)``, the name ``return`` for a
    returned value.

    A float that a frame received as an argument is left to the frame that
    refuses it: it is exempt when the frame exits by raising, and handed to
    the calling library frame, which holds it too, when the frame returns
    (``_operand(0.5)`` returns None and ``qf`` raises)."""

    def __init__(self):
        self.found = set()
        self.modules = set()  # the modules whose frames ran
        self.passed = {}  # id of a library frame -> argument floats its callees returned with

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if not library(code):
            return None
        frame.f_trace_lines = False
        self.modules.add(Path(code.co_filename).stem)
        # the positional, keyword-only, *args and **kwargs parameters, as received
        stars = bool(code.co_flags & inspect.CO_VARARGS) + bool(code.co_flags & inspect.CO_VARKEYWORDS)
        count = code.co_argcount + code.co_kwonlyargcount + stars
        received = [frame.f_locals.get(name) for name in code.co_varnames[:count]]
        raised = False

        def check(frame, event, arg):
            nonlocal raised
            if event == "exception":
                raised = True
            elif event == "return":
                passed = self.passed.pop(id(frame), [])
                for name, value in frame.f_locals.items():
                    if inexact(value):
                        where = (code.co_name, name)
                        if any(value is r for r in received):
                            passed.append(where)
                        else:
                            self.found.add(where)
                if inexact(arg):
                    self.found.add((code.co_name, "return"))
                caller = frame.f_back
                if passed and not raised:
                    if caller is not None and library(caller.f_code):
                        self.passed.setdefault(id(caller), []).extend(passed)
                    else:
                        self.found.update(passed)
            return check

        return check


def audited(run) -> Audit:
    audit = Audit()
    sys.settrace(audit)
    try:
        run()
    finally:
        sys.settrace(None)
    return audit


def commands(tmp: Path) -> list[list[str]]:
    pi0 = str(tmp / "pi0.json")
    return [
        ["build", "-o", pi0],
        ["render", pi0, "--strips", "--eigenlines", "-o", str(tmp / "pi0.svg")],
        ["orbit", "--h", SQRT2_LEVEL, "--bins", "10"],
        ["orbit", "--h", "1/4"],
        ["orbit", "--h", SQRT2_LEVEL, "--n", "200", "--dump", str(tmp / "orbit.csv")],
        ["classify", "--name", "CP2(3)"],
        ["mcg"],
    ]


def run_commands(tmp: Path, capsys, checked: bool = True) -> None:
    for argv in commands(tmp):
        code = cli.main(argv)
        assert code == 0 or not checked, argv
        capsys.readouterr()


def planted(monkeypatch, module, name: str, line: str, fault: str) -> None:
    """Replace ``module.name`` by its source with ``line`` written as
    ``fault``, compiled under the module's file name so the audit traces it."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(line) == 1
    namespace = dict(vars(module))
    exec(compile(source.replace(line, fault), module.__file__, "exec"), namespace)
    monkeypatch.setattr(module, name, namespace[name])


def test_no_float_is_held_where_the_library_runs(tmp_path, capsys):
    def run():
        assert run_all(2026) == 0
        run_commands(tmp_path, capsys)

    audit = audited(run)
    assert audit.found == set()
    # every module but the package's __init__ ran under the trace
    assert audit.modules == {path.stem for path in Path(SOURCE).glob("*.py")} - {"__init__"}


def test_the_audit_exempts_a_refused_argument_and_float_conversion():
    def run():
        with pytest.raises(ValueError, match="exact int or Fraction"):
            atfkit.qf(0.5)
        assert float(QField(1, 1, 2)) > 2

    assert audited(run).found == set()


def test_the_audit_finds_a_true_division_in_the_records(monkeypatch, tmp_path, capsys):
    """A planted fault: ``(end - q0) // q1`` written ``(end - q0) / q1`` in
    ``orbits._records``, a float from two ints that the source scan of
    ``test_exactness.py`` cannot see."""
    planted(monkeypatch, orbits, "_records", "j = (end - q0) // q1", "j = (end - q0) / q1")
    found = audited(lambda: run_commands(tmp_path, capsys, checked=False)).found
    assert {("_records", "j"), ("_records", "return")} <= found


def test_the_audit_finds_a_float_coordinate_in_render(monkeypatch, tmp_path, capsys):
    """A planted fault: ``render._decimal20`` reads the coordinate it prints
    through ``float()`` as well."""
    planted(monkeypatch, render, "_decimal20", "    A *= _TEN20\n", "    approx = float(A) / D\n    A *= _TEN20\n")
    found = audited(lambda: run_commands(tmp_path, capsys)).found
    assert found == {("_decimal20", "approx")}
