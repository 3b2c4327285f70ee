"""Every tolerance lives in samurai/tolerances.py: no module of the package
may write a small float literal of its own."""

import ast
import io
import tokenize
from pathlib import Path

import samurai

PACKAGE = Path(samurai.__file__).parent


def small_literals(path):
    """(line, text) of every numeric literal in (0, 1e-6) in a source file."""
    out = []
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type == tokenize.NUMBER and 0.0 < abs(ast.literal_eval(tok.string)) < 1e-6:
            out.append((tok.start[0], tok.string))
    return out


def test_no_tolerance_literal_outside_the_table():
    found = {
        path.name: small_literals(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "tolerances.py"
    }
    assert {name: lits for name, lits in found.items() if lits} == {}


def test_the_scan_sees_literals():
    assert len(small_literals(PACKAGE / "tolerances.py")) == 5
