"""README's library example runs as written, and its subcommand table lists the parser's options."""
import argparse
import re
from pathlib import Path

from trendlab.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(example, f"{README}:library-use", "exec"), {"__name__": "readme_example"})
    assert "LogNormalParams(" in capsys.readouterr().out


def test_subcommand_table_lists_every_option():
    table = README.read_text(encoding="utf-8").split("| subcommand   | options |\n", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[1:]]
    documented = {re.findall(r"`([^`]+)`", name)[0]: re.findall(r"`([^`]+)`", options) for name, options in rows}
    [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {
        name: [option for action in parser._actions for option in action.option_strings if option not in ("-h", "--help")]
        for name, parser in subparsers.choices.items()
    }
    assert documented == declared
