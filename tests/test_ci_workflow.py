"""The CI workflows parse the same way under every YAML reader.

A step with a repeated key (two ``run:`` blocks, say) is kept last-wins
by lenient parsers, which silently drops the first script, and rejected
outright by strict ones.  CI installs no YAML library, so the workflows
are scanned as text: every ``- key:`` list item under ``steps:`` opens a
step, and its keys are the lines at the item's key indentation.
"""

import re
from pathlib import Path
from typing import Dict, List, Tuple

WORKFLOWS = Path(__file__).resolve().parents[1] / ".github" / "workflows"

_ITEM = re.compile(r"^(\s*)- ([A-Za-z_][\w-]*):")
_KEY = re.compile(r"^(\s*)([A-Za-z_][\w-]*):")


def _step_keys(text: str) -> List[Tuple[int, List[str]]]:
    """``(line number, keys)`` of every step in a workflow's text."""
    steps: List[Tuple[int, List[str]]] = []
    key_indent = None
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        indent = len(line) - len(line.lstrip())
        item = _ITEM.match(line)
        if item:
            key_indent = len(item.group(1)) + 2
            steps.append((number, [item.group(2)]))
            continue
        if key_indent is None:
            continue
        if indent < key_indent:
            key_indent = None
            continue
        key = _KEY.match(line)
        if key and indent == key_indent:
            steps[-1][1].append(key.group(2))
    return steps


def _duplicate_keys(text: str) -> Dict[int, List[str]]:
    return {
        number: sorted({key for key in keys if keys.count(key) > 1})
        for number, keys in _step_keys(text)
        if len(set(keys)) < len(keys)
    }


def test_scanner_finds_a_repeated_run_key():
    text = (
        "jobs:\n"
        "  test:\n"
        "    steps:\n"
        "      - name: first\n"
        "        run: |\n"
        "          echo one\n"
        "          run: not a key, part of the script\n"
        "        run: echo two\n"
        "      - name: second\n"
        "        run: echo three\n"
    )
    assert [keys for _, keys in _step_keys(text)] == [
        ["name", "run", "run"], ["name", "run"]]
    assert _duplicate_keys(text) == {4: ["run"]}


def test_no_workflow_step_repeats_a_key():
    files = sorted(WORKFLOWS.glob("*.yml"))
    assert files, f"no workflows under {WORKFLOWS}"
    for path in files:
        text = path.read_text()
        assert _step_keys(text), f"{path.name}: no steps found"
        assert _duplicate_keys(text) == {}, path.name

