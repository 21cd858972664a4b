"""The README's library quick start and its typical shell session run as written."""
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_block_runs(monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks, "README.md has no python block"
    monkeypatch.chdir(ROOT)  # the quick start reads tests/data/ by relative path
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


def test_readme_shell_session_runs(tmp_path):
    # The session runs in a scratch directory holding a copy of tests/data/,
    # with `ddlti` and `python3` resolving to this interpreter on the source
    # tree; any command that exits non-zero fails it.
    session = re.search(r"Typical session:\n\n```sh\n(.*?)```", (ROOT / "README.md").read_text(),
                        re.S)
    assert session, "README.md has no typical session"
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, command in (("ddlti", "-m ddlti.cli"), ("python3", "")):
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {command} "$@"\n')
        shim.chmod(0o755)
    work = tmp_path / "work"
    shutil.copytree(ROOT / "tests" / "data", work / "tests" / "data")
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    run = subprocess.run(["sh", "-e", "-c", session.group(1)], cwd=work, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    for name in ("reactor.json", "gain.json", "reactor.dat-s", "model.json"):
        assert (work / name).stat().st_size, name
