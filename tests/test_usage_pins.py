"""Frozen argument parsing: every --help text and usage error, byte for byte.

`cli_usage_pins.json` was recorded from the parser that built all seven
groups and their sixteen commands in every process, under Python 3.11 with
80 columns: each entry is an argv with its exit code, stdout and stderr.
Any change to how the parser is built must leave every entry unchanged.
"""

import contextlib
import io
import json
import os
import re

import pytest

from boundlab import cli

with open(os.path.join(os.path.dirname(__file__), "cli_usage_pins.json"), encoding="utf-8") as fh:
    PINS = json.load(fh)

# Python 3.12.7+ and 3.13.1+ list the choices of an invalid-choice error
# bare instead of quoted; the pins hold the quoted spelling.
_CHOICES = re.compile(r"\(choose from ([^)']*)\)")


def _quoted(text):
    return _CHOICES.sub(lambda m: "(choose from %s)" % ", ".join(repr(c) for c in m[1].split(", ")), text)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # --help exits through argparse
            code = e.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": _quoted(err.getvalue())}


def test_the_pins_cover_every_command_and_usage_error():
    helps = [p["argv"] for p in PINS if p["argv"][-1:] in (["-h"], ["--help"])]
    assert len(helps) == 1 + 1 + 7 + 16 + 2
    errors = [p for p in PINS if p["code"] == 64]
    assert len(errors) == 22
    assert all(p["stdout"] == "" for p in errors)


@pytest.mark.parametrize("pin", PINS, ids=[" ".join(p["argv"]) or "(none)" for p in PINS])
def test_help_and_usage_errors_are_unchanged(pin, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(pin["argv"]) == pin
