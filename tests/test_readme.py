"""The README's library quick start runs as written."""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_block_runs(monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks, "README.md has no python block"
    monkeypatch.chdir(ROOT)  # the quick start reads tests/data/ by relative path
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})
