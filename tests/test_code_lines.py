"""The code-line counter skips blanks, comments and docstrings only."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring
over two lines."""

# A comment.
import os  # trailing comment


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring."""
        text = """not a docstring,
        but a value"""
        return (text,
                os.sep)
'''


def test_counts_code_lines_of_a_sample():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # import, class, def, two string lines, two return lines.
    assert module.code_lines(SAMPLE) == 7


def test_closed_stdout_pipe_exits_quietly():
    process = subprocess.Popen(
        [sys.executable, str(TOOL)], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    # The reader goes away before the first write, as "| head -c 0" would.
    process.stdout.close()
    stderr = process.stderr.read().decode()
    assert process.wait(timeout=60) == 1
    assert stderr == ""
