"""Claims that name their tests: a behaviour sentence of the README names
the test that pins it as `(test: tests/test_x.py::name)`, and every test
so named must be one that pytest collects."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
CLAIM = re.compile(r"\(test:\s+([^)]*)\)")
TEST_ID = re.compile(r"tests/[\w/]+\.py::\w+")
# the module bullets whose every behaviour sentence names a test
NAMED_BULLETS = ("scanner", "cycle", "plcsim")


def named_tests(text: str) -> list[str]:
    """The test ids the claims of `text` name, each once, in order."""
    ids = (test for claim in CLAIM.findall(text) for test in TEST_ID.findall(claim))
    return list(dict.fromkeys(ids))


def bullet(text: str, module: str) -> str:
    """The README's bullet for one module, up to the next bullet."""
    match = re.search(rf"^- \*\*`{module}`\*\*.*?(?=^- |\Z)", text, re.MULTILINE | re.DOTALL)
    assert match, f"no README bullet for {module}"
    return match.group(0)


def collected(files: list[str]) -> set[str]:
    """The ids of the tests that pytest collects from `files`, parameters
    dropped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return {line.split("[")[0] for line in result.stdout.splitlines() if "::" in line}


def test_the_scanner_and_cycle_bullets_name_their_tests():
    text = README.read_text(encoding="utf-8")
    for module in NAMED_BULLETS:
        assert len(named_tests(bullet(text, module))) >= 5, module


def test_every_test_the_readme_names_is_collected():
    named = named_tests(README.read_text(encoding="utf-8"))
    assert named
    found = collected(sorted({test.split("::")[0] for test in named}))
    assert [test for test in named if test not in found] == []
