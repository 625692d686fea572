"""The public API: `orispec.__all__` against the package root, and the
README's Library example."""

import contextlib
import inspect
import io
import re
from pathlib import Path

import orispec

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_has_no_duplicates():
    assert len(orispec.__all__) == len(set(orispec.__all__))


def test_all_is_every_public_name_of_the_root():
    public = {
        name
        for name, value in vars(orispec).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(orispec.__all__) == public


def test_every_entry_resolves():
    for name in orispec.__all__:
        assert getattr(orispec, name, None) is not None, name


def test_readme_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().strip()
