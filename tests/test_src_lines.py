"""``tools/src_lines.py``, the line count every simplification reports.

Code lines are the lines that hold a token other than a comment; blank
lines, comment lines and module, class and function docstrings are not
code, and a statement over several lines counts each of them.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import src_lines  # noqa: E402

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not make a line a comment line


# a comment line
class Box:
    """Class docstring."""

    def size(self):
        """Function
        docstring."""
        return sum(
            [1, 2],
        )
'''


def test_count_lines_counts_code_apart_from_docstrings_comments_and_blanks():
    # code: the import, the class and def lines, and the three lines of the return
    assert src_lines.count_lines(SOURCE) == (16, 6)
