"""The README's examples run as written and do what the README says they do.

Every Python block is executed; a ``print`` line ending in a comment that
holds a Python literal states what it prints. Every JSON document is fed
to ``invcert.cli.main``, and every backticked ``invcert.`` name must
resolve, so the README cannot name something the package no longer has;
every name ``invcert`` exports must be named in it.
"""

import ast
import contextlib
import importlib
import io
import json
import re
from pathlib import Path

import pytest

import invcert
from invcert.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def stated_prints(code: str) -> list[str]:
    """What the commented ``print`` lines of a block say they print, in order."""
    stated = []
    for line in code.splitlines():
        match = re.match(r"\s*print\(.*\)\s*#\s*(.+)$", line)
        if match:
            stated.append(str(ast.literal_eval(match.group(1))))
    return stated


def test_blocks_were_found():
    assert len(blocks("python")) == 2
    assert [json.loads(doc)["mode"] for doc in blocks("json")] == \
        ["bb-patch", "bb-grid", "matrix-family"]


@pytest.mark.parametrize("code", blocks("python"), ids=["map", "matrix-family"])
def test_python_block_prints_what_it_states(code):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    lines = iter(out.getvalue().splitlines())
    stated = stated_prints(code)
    assert stated
    # The stated lines appear in the output in order.
    assert all(any(line == want for line in lines) for want in stated), out.getvalue()


@pytest.mark.parametrize("doc", blocks("json"), ids=["bb-patch", "bb-grid", "matrix-family"])
def test_json_document_is_certified(doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(doc)
    per_patch = ["--per-patch"] if json.loads(doc)["mode"] == "bb-grid" else []
    assert main(["--input", str(path)] + per_patch) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "verdict: STRICT-V-FAMILY" in captured.out
    if per_patch:
        cells = [line for line in captured.out.splitlines() if line.startswith("cell ")]
        assert len(cells) == 4
        assert all(line.endswith(": STRICT-V-FAMILY") for line in cells)


@pytest.mark.parametrize("name", sorted(set(re.findall(r"`(invcert(?:\.\w+)+)`", README))))
def test_named_object_exists(name):
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return
    pytest.fail(f"{name} does not resolve")


@pytest.mark.parametrize("name", invcert.__all__)
def test_exported_name_is_named(name):
    assert re.search(rf"\b{name}\b", README), f"{name} is exported but the README never names it"
