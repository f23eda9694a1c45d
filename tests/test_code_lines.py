"""scripts/code_lines.py, the count that every code-size figure reads."""

import importlib.util
import os
import pkgutil

import artifact

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "code_lines.py")
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line

import os  # a comment after code


class C:
    """Class docstring."""

    def f(self, x):
        """Function docstring,

        with a blank line inside."""
        return os.path.join(x,
                            "a",
                            "b")


TEXT = """a string that is not a docstring
spans two lines"""
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    # import, class, def, the three lines of the call, and the two lines of
    # the assigned string: 8
    assert code_lines.code_lines(SOURCE) == 8
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0


def test_counts_lists_every_module_of_the_package():
    table = code_lines.counts()
    modules = {m.name + ".py" for m in pkgutil.iter_modules(artifact.__path__)}
    assert set(table) == modules | {"__init__.py"}
    assert all(n > 0 for n in table.values())
