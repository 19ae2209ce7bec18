"""Golden test: every command line in the README's usage block, run through
the CLI, prints exactly the stdout, stderr and exit code pinned in
tests/data/readme_cli.json.  Outputs longer than PIN_CHARS are pinned by
their SHA-256 digest (the relaxed lamp-claim report is about 9 MB).  The
README's Budgets table is checked against the module constants, and each of
its edge inputs must exit 2.

Regenerate the data (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_readme_cli.py
"""

import argparse
import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from lampgeo.cli import EXIT_USAGE, build_parser, run

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data" / "readme_cli.json"
PIN_CHARS = 4096

# pinned besides the README lines: the n=3 qi path and the bilip error path
EXTRA = [
    ["map", "qi-distortion", "--n", "3", "--map", "shift:1", "--radius", "3"],
    ["map", "bilip", "--map", "shift:1"],
]


def readme_commands() -> list[list[str]]:
    """argv of each `lampgeo ...` line of the README's sh blocks, with
    continuations joined, comments dropped and `> FILE` redirections cut."""
    text = (ROOT / "README.md").read_text()
    out = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] != ["lampgeo"]:
                continue
            if ">" in argv:
                argv = argv[:argv.index(">")]
            out.append(argv[1:])
    return out


def _pin(text: str) -> str:
    if len(text) <= PIN_CHARS:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(list(argv), stdout=out)
    return {"argv": list(argv), "exit": code, "stdout": _pin(out.getvalue()),
            "stderr": err.getvalue()}


def _golden():
    return {tuple(case["argv"]): case for case in json.loads(DATA.read_text())["cases"]}


def test_readme_has_usage_lines():
    assert len(readme_commands()) > 20


@pytest.mark.parametrize("argv", readme_commands() + EXTRA, ids=" ".join)
def test_cli_output_matches_golden(argv):
    expected = _golden().get(tuple(argv))
    assert expected is not None, "command line has no golden entry; regenerate the data"
    assert invoke(argv) == expected


@pytest.mark.parametrize("argv", [
    ["dist", "--u", "|0", "--v", "0:1|0", "--seed", "1"],
    ["verify", "lamp-claim", "--S", "2", "--window", "10", "--chunks", "2"],
    ["ball", "--radius", "2", "--format", "dot"],
    ["ball", "--radius", "2", "--format", "text"],
    ["export-dot", "--radius", "2", "--format", "json"],
], ids=" ".join)
def test_removed_options_are_usage_errors(argv):
    got = invoke(argv)
    assert got["exit"] == EXIT_USAGE and got["stdout"] == ""
    assert got["stderr"].startswith("usage: lampgeo")
    assert "Traceback" not in got["stderr"]


def _leaf_commands(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [path]
    return [leaf for name, sub in subs[0].choices.items() for leaf in _leaf_commands(sub, path + (name,))]


def test_readme_runs_every_subcommand():
    leaves = _leaf_commands(build_parser())
    assert len(leaves) == 17
    documented = {tuple(argv[:len(leaf)]) for argv in readme_commands() for leaf in leaves}
    assert [" ".join(leaf) for leaf in leaves if leaf not in documented] == []


def _defined_budgets() -> dict[str, str]:
    """{name: module} of every module-level MAX_* budget of src/lampgeo."""
    defined = {}
    for path in sorted((ROOT / "src" / "lampgeo").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                defined.update((t.id, f"lampgeo.{path.stem}") for t in node.targets
                               if isinstance(t, ast.Name) and re.fullmatch(r"MAX_[A-Z_]+", t.id))
    return defined


def budget_rows() -> list[tuple[str, str, int, list[str]]]:
    """(name, module, value, edge argv) of each row of the README's Budgets
    table; a value is written `2^k` or as a plain integer."""
    section = (ROOT / "README.md").read_text().split("\n## Budgets\n", 1)[-1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        if len(cells) != 5 or not cells[0].startswith("MAX_"):
            continue
        name, module, value, _, edge = cells
        number = re.fullmatch(r"(\d+)(?:\^(\d+))?", value)
        argv = shlex.split(edge)
        assert number and argv[0] == "lampgeo", line
        rows.append((name, module, int(number[1]) ** int(number[2] or 1), argv[1:]))
    return rows


def test_readme_documents_every_budget():
    # the Budgets table has one row per budget, in its module, at its value
    defined = _defined_budgets()
    assert len(defined) >= 10
    rows = budget_rows()
    table = {name: (module, value) for name, module, value, _ in rows}
    assert len(table) == len(rows), "a budget has more than one row"
    assert sorted(set(defined) - set(table)) == [], "budgets with no row"
    assert sorted(set(table) - set(defined)) == [], "rows naming no budget"
    for name, (module, value) in table.items():
        assert module == defined[name], name
        assert getattr(importlib.import_module(module), name) == value, name


@pytest.mark.parametrize("value, argv", [row[2:] for row in budget_rows()], ids=[row[0] for row in budget_rows()])
def test_budget_edge_input_exits_2(value, argv):
    # in a child process, so that an input past a lost budget is killed at
    # the timeout; the refusal names the budget's value
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "lampgeo.cli", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=20)
    assert proc.returncode == EXIT_USAGE and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert str(value) in proc.stderr


if __name__ == "__main__":
    cases = [invoke(argv) for argv in readme_commands() + EXTRA]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {DATA}")
