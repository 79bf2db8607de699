"""The package has no knob that selects nothing.

It reads no environment variable: every behaviour is chosen by arguments,
so a report depends on its config alone and each code path that can run is
the one the tests run.  And every command-line option is read by the
handler of its subcommand and admits more than one value, so no option is
parsed only to be ignored.
"""

import argparse
import inspect
import re
from pathlib import Path

from wonderland import cli

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wonderland"


def test_no_environment_reads():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    hits = [
        "%s:%d: %s" % (path.name, n, line.strip())
        for path in sources
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"environ|getenv", line)
    ]
    assert hits == []


def _parsers(parser, name="wonderland"):
    yield name, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub, child in action.choices.items():
                yield from _parsers(child, "%s %s" % (name, sub))


def test_every_option_is_read_by_its_handler():
    checked = 0
    unread = []
    for name, parser in _parsers(cli.build_parser()):
        handler = parser.get_default("func")
        body = inspect.getsource(handler) if handler else ""
        for action in parser._actions:
            if not action.option_strings or isinstance(
                action, (argparse._HelpAction, argparse._VersionAction)
            ):
                continue
            checked += 1
            dest = re.escape(action.dest)
            if not re.search(r'args\.%s\b|getattr\(args, "%s"' % (dest, dest), body):
                unread.append("%s %s" % (name, action.option_strings[0]))
            if action.choices is not None and len(action.choices) < 2:
                unread.append("%s %s (one value)" % (name, action.option_strings[0]))
    assert checked > 20
    assert unread == []
