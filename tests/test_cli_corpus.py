import time

import cli_corpus


def test_corpus_lists_each_command_once_with_its_digest():
    commands = cli_corpus.commands()
    assert len(set(commands)) == len(commands)
    assert list(cli_corpus.pinned()) == commands


def test_corpus_commands_print_their_pinned_bytes():
    start = time.perf_counter()
    changed = [command for command, pinned in cli_corpus.pinned().items()
               if cli_corpus.digest(command) != pinned]
    assert changed == []
    assert time.perf_counter() - start < 1.5
