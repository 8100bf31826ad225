"""The CLI's surface against committed data: every parser action and the
stdout of a forward run and of a two-mode sweep.

Actions are compared field by field, not as `--help` text, whose layout
varies across Python versions and with the terminal width.  The CSV is
compared byte for byte with the runtime_ms column blanked, as is one error
message and its exit code.  A change that moves the surface on purpose
regenerates the file and says why:

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from mxfft.cli import build_parser, main

DATA = Path(__file__).parent / "data" / "cli_surface.json"

RUNS = {
    "forward": ["forward", "--size", "16", "--seeds", "2", "--coils", "1"],
    "sweep": ["sweep", "--mode", "fp16,e4m3", "--block", "8,2", "--size", "16", "--seeds", "1",
              "--coils", "1"],
    "bad-size": ["forward", "--size", "12", "--seeds", "1"],
}


def _action(a: argparse.Action) -> dict:
    choices = a.choices
    if isinstance(choices, dict):  # the subcommands: name -> help
        choices = {c.dest: c.help for c in a._choices_actions}
    elif choices is not None:
        choices = list(choices)
    return {
        "option_strings": list(a.option_strings),
        "dest": a.dest,
        "required": a.required,
        "default": a.default,
        "type": getattr(a.type, "__name__", a.type),
        "choices": choices,
        "help": a.help,
    }


def _parsers():
    """(name, parser) of the top-level parser and of every subcommand."""
    top = build_parser()
    yield "mxfft", top
    for a in top._actions:
        if isinstance(a, argparse._SubParsersAction):
            yield from a.choices.items()


def _blank_runtime(csv_text: str) -> str:
    """The CSV with each data row's last field, runtime_ms, emptied."""
    header, *rows = csv_text.split("\r\n")
    return "\r\n".join([header] + [r.rsplit(",", 1)[0] + "," if r else r for r in rows])


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": _blank_runtime(out.getvalue()), "stderr": err.getvalue()}


def surface() -> dict:
    return {
        "parsers": {
            name: {"description": p.description, "actions": [_action(a) for a in p._actions]}
            for name, p in _parsers()
        },
        "runs": {name: _run(argv) for name, argv in RUNS.items()},
    }


def test_parser_actions_match_data():
    assert surface()["parsers"] == json.loads(DATA.read_text())["parsers"]


def test_run_output_matches_data():
    want = json.loads(DATA.read_text())["runs"]
    for name, argv in RUNS.items():
        assert _run(argv) == want[name], name


if __name__ == "__main__":
    DATA.write_text(json.dumps(surface(), indent=1) + "\n")
