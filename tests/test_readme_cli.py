"""Golden test: every command line in the README's usage block, run through
the CLI, prints exactly the stdout, stderr and exit code pinned in
tests/data/readme_cli.json.  Outputs longer than PIN_CHARS are pinned by
their SHA-256 digest (the relaxed lamp-claim report is about 9 MB).

Regenerate the data (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_readme_cli.py
"""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import re
import shlex
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


def test_readme_documents_every_budget():
    # every module-level MAX_* budget of src/lampgeo is named in the README
    names = []
    for path in sorted((ROOT / "src" / "lampgeo").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                names += [t.id for t in node.targets
                          if isinstance(t, ast.Name) and re.fullmatch(r"MAX_[A-Z_]+", t.id)]
    assert len(names) >= 10
    readme = (ROOT / "README.md").read_text()
    assert [name for name in names if name not in readme] == []


if __name__ == "__main__":
    cases = [invoke(argv) for argv in readme_commands() + EXTRA]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {DATA}")
