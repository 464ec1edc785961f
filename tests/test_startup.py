"""What a fresh ``pgfactor`` process loads before it answers.

Every command runs in a process of its own, so each standard-library module
on the import path is paid for on every call.  The probe runs in a new
interpreter started with ``-S``, so no ``.pth`` file in site-packages preloads
anything (on some installs one preloads ``typing``).  It first imports FLOOR:
the modules that the package, argparse and the probe itself import by name,
which a start-up through ``site`` often loads anyway.  Then it records
``sys.modules``, imports ``pgfactor.cli``, answers one command and prints the
standard-library modules that came in.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

FLOOR = ("collections", "collections.abc", "contextlib", "functools", "io", "itertools", "math",
         "operator", "os", "re", "shutil", "warnings")

ARGV = ["count", "--type", "1,0,0", "--p", "2"]


def _added_modules(argv):
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        f"import {', '.join(FLOOR)}\n"
        "before = set(sys.modules)\n"
        "import pgfactor.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = pgfactor.cli.main({argv!r})\n"
        "added = sorted(m for m in set(sys.modules) - before if m.split('.')[0] != 'pgfactor')\n"
        "print(code, *added)\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, *added = proc.stdout.split()
    assert code == "0", proc.stdout
    return set(added)


def test_count_loads_only_argparse_and_its_locale_modules():
    added = _added_modules(ARGV)
    assert added <= {"__future__", "argparse", "gettext", "locale", "_locale"}, sorted(added)


def test_json_output_is_what_loads_json():
    assert "json" in _added_modules(ARGV + ["--format", "json"])
    assert "json" not in _added_modules(ARGV + ["--format", "csv"])
