"""``psi run`` is total: every program ends with exit code 0, 1, 2 or 3,
no exception escapes, and every failure is reported as ``error: L:C: ``
at a line ``L`` of the program, with and without ``--trace``."""

import io
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from psipp.cli import run_file

VOCABULARY = [
    "var", "function", "infix", "prefix", "begin", "end", "if", "then",
    "else", "Return", "par", "Object", "fail", "EVAL",
    "x", "y", "n", "a", "A", "B", "C", "D", "Foo", "Group", "Algebra",
    "Complex", "Monomial", "integer", "i", "print", "kind", "mono",
    "simplify", "conjugate", "Re", "Im", "zz",
    "0", "1", "2", "3000000000", "²", "٣", "\t", "{ two\nlines }",
    "+", "-", "*", "=", ":=", "(", ")", ",", ";", ":", ".",
]

# one item per line, tokens separated by spaces so one can be inserted
LINES = [
    "var x , y : Algebra ;",
    "var n : integer ;",
    "Foo = Object ( Algebra ) ; end ;",
    "function Foo . infix * ( A , B : Foo ) : Foo ; begin Return := A end ;",
    "function twice ( A : Algebra ) : Algebra ; par C , D : Algebra ; "
    "begin if A = C + D then Return := C * D else Return := A * A end ;",
    "a := ( i + x ) * i ;",
    "print ( simplify ( a ) ) ;",
    "kind ( a ) ;",
    "n := 3 ;",
    "print ( EVAL ( n * 2 + 1 ) ) ;",
    "print ( twice ( x + y ) ) ;",
    "print ( mono ( 1 , 2 , 0 , 1 ) * conjugate ( mono ( 0 , 1 , 1 , 1 ) ) ) ;",
    "print ( Complex . ( i * ( 1 , 2 ) ) ) ;",
    "print ( ( 1 , 2 ) . Re - i . Im ) ;",
    "print ( simplify ( ( x + y ) * ( x - y ) ) ) ;",
]

token_soup = st.lists(st.sampled_from(VOCABULARY), max_size=30).map(" ".join)


@st.composite
def near_valid(draw):
    """Valid lines in any order, with one token inserted into one of them
    or, so that more programs get past the parser, none."""
    lines = draw(st.lists(st.sampled_from(LINES), min_size=1, max_size=8))
    token = draw(st.none() | st.sampled_from(VOCABULARY))
    if token is not None:
        at = draw(st.integers(0, len(lines) - 1))
        tokens = lines[at].split(" ")
        tokens.insert(draw(st.integers(0, len(tokens))), token)
        lines[at] = " ".join(tokens)
    return "\n".join(lines)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.one_of(token_soup, near_valid()))
@example("kind ( zz ) ;")
@example("function Foo . infix + ( A , B : Foo ) : Foo ; "
         "begin Return := A end ;")
@example("function infix + ( A , B : Foo ) : Foo ; begin Return := A end ;")
@example("var x , y : Algebra ;\nprint ( Complex . ( x * y ) ) ;")
def test_every_run_ends_in_an_exit_code_with_a_located_diagnostic(source):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.psi"
        path.write_text(source)
        for trace in (False, True):
            out, err = io.StringIO(), io.StringIO()
            code = run_file(str(path), trace=trace, stdout=out, stderr=err)
            assert code in (0, 1, 2, 3)
            if code == 0:
                assert err.getvalue() == ""
            else:
                located = re.match(r"error: (\d+):\d+: ", err.getvalue())
                assert located, err.getvalue()
                # the line is one of the program's, never the prelude's
                assert 1 <= int(located[1]) <= source.count("\n") + 1, \
                    err.getvalue()
