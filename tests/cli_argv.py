"""What every documented ``flick`` command line parses to, as JSON.

Each ``flick ...`` / ``python -m repro.tools.cli ...`` line of the CI
workflow, README.md, ``examples/`` and ``scripts/multiproc_smoke.py``
goes through the real parser: a ``serve`` or ``gateway`` line becomes
the :class:`~repro.runtime.service.ServiceConfig` it would start (its
JSON document) plus the driver flags, any other verb its namespace.
Each verb's ``--help`` option strings are recorded beside them.

``tests/test_cli.py`` pins both against ``tests/golden/cli_argv.json``;
regenerate that file after an intended change with::

    PYTHONPATH=src python -m tests.cli_argv golden
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import sys

from repro import documents
from repro.errors import FlickError
from repro.tools import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "cli_argv.json")
SOURCES = (".github/workflows/ci.yml", "README.md", "examples")
#: Loop variables of the CI lines, bound to one of the values they take.
SHELL_VALUES = {"$schema": "examples/idl/mail.idl", "$pass": "chunk_atoms"}
#: scripts/multiproc_smoke.py builds its argv as a Python list.
SMOKE_LINE = ("serve live.idl --impl mail_servant:MailServant --workers 4"
              " --port 0 --metrics-port 0")
_COMMAND = re.compile(
    r"^\s*(?:[A-Z]+=\S+\s+)?(?:flick|python -m repro\.tools\.cli)"
    r"\s+([a-z]+\b.*)$")


def _lines(text):
    """Physical lines with backslash continuations joined."""
    pending = ""
    for line in text.splitlines():
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        yield pending + line
        pending = ""


def _argv(rest):
    """The words of one shell command, up to a redirection or a pipe."""
    rest = re.sub(r"(?<=\s)\d>", ">", rest)  # ``2> file`` is a redirection
    lexer = shlex.shlex(rest, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    words = []
    for word in lexer:
        if set(word) <= set("|&;<>()"):
            break
        words.append(SHELL_VALUES.get(word, word))
    return words


def documented_lines():
    """Every documented command line, as ``shlex.join``-ed argv."""
    paths = []
    for source in SOURCES:
        top = os.path.join(ROOT, source)
        if os.path.isdir(top):
            paths += sorted(os.path.join(directory, name)
                            for directory, _dirs, names in os.walk(top)
                            for name in names if "__pycache__" not in
                            directory)
        else:
            paths.append(top)
    found = [SMOKE_LINE]
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except UnicodeDecodeError:
            continue
        for line in _lines(text):
            match = _COMMAND.match(line)
            if match:
                found.append(shlex.join(_argv(match.group(1))))
    return sorted(set(found))


def _verbs(parser):
    (subparsers,) = [action for action in parser._actions
                     if isinstance(action.choices, dict)]
    return subparsers.choices


def option_strings():
    """``{verb: sorted option strings}`` as ``--help`` lists them."""
    return {verb: sorted(string for action in sub._actions
                         for string in action.option_strings)
            for verb, sub in _verbs(cli.build_parser()).items()}


def _plain(value):
    return json.loads(json.dumps(value))


def parsed(line):
    """What *line* parses to, as plain JSON values."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = cli.build_parser().parse_args(shlex.split(line))
    except SystemExit as exit_:
        return {"usage_error": exit_.code}
    if args.command not in ("serve", "gateway"):
        # ``run`` is the verb's handler, not an option's dest.
        return {"namespace": _plain({
            dest: value for dest, value in vars(args).items()
            if dest != "run"})}
    try:
        config = documents.write(cli.service_config(args))
    except FlickError as error:
        return {"error": str(error)}
    config["sys_paths"] = [os.path.relpath(path)
                           for path in config["sys_paths"]]
    result = {"config": config, "workers": args.workers,
              "duration": args.duration}
    if args.command == "gateway":
        result["check"] = args.check
    return _plain(result)


def golden():
    return {"help": option_strings(),
            "lines": {line: parsed(line) for line in documented_lines()}}


def main(argv):
    if argv[1:] == ["golden"]:
        with open(GOLDEN, "w") as handle:
            json.dump(golden(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        return
    json.dump(golden(), sys.stdout, indent=1, sort_keys=True)


if __name__ == "__main__":
    main(sys.argv)
