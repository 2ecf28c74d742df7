"""Import the package before anything imports numpy, so that the suite runs
under the package's one-thread BLAS pin, as the command line does; and the
``reads_only`` fixture, which runs a command's config reading alone."""

import schurlsd  # noqa: F401  (first: pins BLAS before numpy loads)

import pytest

import schurlsd.cli as cli


class WorkStarted(Exception):
    """Raised in place of a command's work: its config was read and accepted."""


@pytest.fixture
def reads_only(monkeypatch):
    """Make every command raise ``WorkStarted`` where its work would begin,
    after ``main`` has closed its config; returns that exception class."""

    def stop():
        raise WorkStarted

    def reader(command):
        def read(ctx):
            command(ctx)
            return stop

        return read

    for name, command in list(cli.COMMANDS.items()):
        monkeypatch.setitem(cli.COMMANDS, name, reader(command))
    return WorkStarted
