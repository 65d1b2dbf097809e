"""No line of the package is longer than 110 characters, so that a count of
its lines measures code rather than how tightly it is packed."""

import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "treelie"
MAX_LINE = 110


def test_no_source_line_over_the_limit():
    long_lines = [
        "%s:%d (%d characters)" % (path.name, number, len(line))
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert not long_lines, long_lines
