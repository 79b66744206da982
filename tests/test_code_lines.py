"""tools/code_lines.py, the code-line count that gates the library's size."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)


@pytest.mark.parametrize("source, count", [
    pytest.param('"""Module docstring,\nover two lines."""\n', 0, id="module-docstring"),
    pytest.param('class Box:\n    """Class docstring."""\n\n    size = 1\n', 2, id="class-docstring"),
    pytest.param('def f():\n    """Function docstring,\n\n    over three lines."""\n    return 1\n', 2,
                 id="function-docstring"),
    pytest.param("# a comment\n\nx = 1  # a trailing comment\n\n\n# another\n", 1, id="comments-and-blanks"),
    pytest.param('x = 1\ntext = """a string that is not a docstring\n\nspans four lines,\nthe blank one too"""\n', 5,
                 id="multi-line-string"),
    pytest.param('def f():\n    x = 1\n    """a string after the first statement is no docstring"""\n', 3,
                 id="late-string"),
])
def test_counts_only_code_lines(tmp_path, source, count):
    path = tmp_path / "sample.py"
    path.write_text(source)
    assert code_lines.code_lines(path) == count


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n')
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["2", "0", "2"]
    assert lines[-1].split()[1] == "total"
