"""Outside input that used to end in a traceback: a relations file that is
not UTF-8, an integer literal longer than Python converts, and a result
coefficient longer than Python prints.  Each ends in its documented exit
code with one line on stderr."""

import sys

import pytest

from test_cli import run
from whiteprod import rewrite
from whiteprod.cli import main
from whiteprod.errors import ExprSyntaxError
from whiteprod.parser import parse

# 0 where the interpreter has no int-string limit or it is switched off
INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_limit = pytest.mark.skipif(
    not INT_LIMIT, reason="this interpreter has no int-string limit")


@pytest.mark.parametrize("argv", [("eval", "eta_4"), ("scenario", "prop-3.2"),
                                  ("tables",)])
def test_a_relations_file_that_is_not_utf8_exits_4(tmp_path, capsys, argv):
    rel = tmp_path / "bad.rel"
    rel.write_bytes(b"\xff\xfegen eta_2 dom=3 cod=S2 order=0\n")
    code, out, err = run(capsys, "--relations", str(rel), *argv)
    assert code == 4 and out == ""
    assert err == f"error: {rel}:1: not UTF-8 text (invalid start byte)\n"


def test_a_bad_byte_is_reported_on_its_line(tmp_path, capsys):
    rel = tmp_path / "bad.rel"
    rel.write_bytes(b"# fine\n# fine too\nrel \xc3( = 0\n")
    code, _, err = run(capsys, "--relations", str(rel), "eval", "eta_4")
    assert code == 4
    assert err == f"error: {rel}:3: not UTF-8 text (invalid continuation byte)\n"


@needs_limit
@pytest.mark.parametrize("template,column", [("{} iota_4", 1), ("eta_4^{}", 7),
                                             ("S^{} eta_4", 3)])
def test_an_integer_past_the_int_string_limit_is_a_syntax_error(
        capsys, template, column):
    digits = "1" * (INT_LIMIT + 700)
    message = (f"an integer of {len(digits)} digits exceeds Python's limit of "
               f"{INT_LIMIT} digits (line 1, column {column})")
    with pytest.raises(ExprSyntaxError) as info:
        parse(template.format(digits))
    assert (info.value.line, info.value.column) == (1, column)
    code, out, err = run(capsys, "eval", template.format(digits))
    assert code == 1 and out == "" and err == f"syntax error: {message}\n"


@needs_limit
@pytest.mark.parametrize("before,after", [((), ()), (("--format", "json"), ()),
                                          ((), ("--trace",))])
def test_a_result_coefficient_past_the_limit_exits_2(capsys, before, after):
    n = "9" * (INT_LIMIT * 7 // 10)  # parses, but n * n does not print
    code, out, err = run(capsys, *before, "eval", f"({n} iota_4) . ({n} iota_4)",
                         *after)
    assert code == 2 and out == ""
    assert err == ("error: a coefficient of the result has more digits than "
                   f"Python's limit of {INT_LIMIT} for printing an integer "
                   "(sys.set_int_max_str_digits)\n")


def test_another_value_error_while_printing_is_not_caught(capsys, monkeypatch):
    def broken(self):
        raise ValueError("not an int-string limit")
    monkeypatch.setattr(rewrite.NormalForm, "display", broken)
    with pytest.raises(ValueError, match="not an int-string limit"):
        main(["eval", "eta_4"])
