"""The README's python examples run as written against the installed API."""
import re

import pytest

from helpers import REPO_ROOT

README = REPO_ROOT / "README.md"
_TEXT = README.read_text(encoding="utf-8")
# Each block is padded with the newlines above it, so tracebacks name README lines.
BLOCKS = [
    "\n" * _TEXT.count("\n", 0, match.start(1)) + match.group(1)
    for match in re.finditer(r"^```python\n(.*?)^```$", _TEXT, re.DOTALL | re.MULTILINE)
]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{k}" for k in range(1, len(BLOCKS) + 1)])
def test_readme_python_block_runs(block, tmp_path, monkeypatch):
    # Run in a scratch directory so the files an example writes stay out of the repo.
    (tmp_path / "scenarios").symlink_to(REPO_ROOT / "scenarios", target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
