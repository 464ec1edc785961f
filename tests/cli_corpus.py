"""A byte-for-byte corpus of pgfactor commands: what each prints, pinned by digest.

``cli_corpus.txt`` lists the commands, one per line as the arguments to
``pgfactor``, with ``#`` comments and blank lines between them.
``cli_corpus.sha256`` holds one line per command, the SHA-256 digest of
its exit code and stdout (and stderr for an exit-3 report, which is
pgfactor's own text; argparse's usage text differs between Python
versions), then the command.  ``test_cli_corpus`` runs every command
in-process through ``cli.main`` and names each one whose digest changed.

Rewrite the digests only from a commit whose output is known good:

    PYTHONPATH=src python tests/cli_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMMANDS = HERE / "cli_corpus.txt"
DIGESTS = HERE / "cli_corpus.sha256"


def commands() -> list[str]:
    """The command lines of ``cli_corpus.txt``, in order."""
    lines = (line.strip() for line in COMMANDS.read_text().splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def digest(command: str) -> str:
    """SHA-256 of the exit code, stdout and, on exit 3 only, stderr of one in-process run."""
    from pgfactor.cli import EXIT_CAP, main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(command))
    text = f"{code}\n{out.getvalue()}" + (err.getvalue() if code == EXIT_CAP else "")
    return hashlib.sha256(text.encode()).hexdigest()


def pinned() -> dict[str, str]:
    """command -> digest, as ``cli_corpus.sha256`` records them."""
    return dict(reversed(line.split("  ", 1)) for line in DIGESTS.read_text().splitlines())


def write_digests() -> None:
    DIGESTS.write_text("".join(f"{digest(command)}  {command}\n" for command in commands()))


if __name__ == "__main__":
    write_digests()
