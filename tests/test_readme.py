"""README's library example runs and prints what its comments say, and
its API table is the package's ``__all__``."""

import contextlib
import importlib
import io
from pathlib import Path

import stieltjes

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python block under README's ``## Library example``."""
    section = README.read_text().split("\n## Library example\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_prints_what_its_comments_say():
    code = library_example()
    # Each print's comment opens with the line it prints, up to a comma.
    expected = [line.split("#", 1)[1].split(",", 1)[0].strip()
                for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert out.getvalue().splitlines() == expected == ["0.5 0.0", "0.0", "True True"]


def api_rows() -> list[tuple[str, str]]:
    """(name, module) of each row of the table under README's ``## API``."""
    section = README.read_text().split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    return [(name.strip().strip("`"), module.strip().strip("`")) for name, module in rows]


def test_the_api_table_is_the_package_all():
    rows = api_rows()
    names = [name for name, _ in rows]
    # No name twice in either list, and the same names in both.
    assert sorted(names) == sorted(set(names)) == sorted(stieltjes.__all__)
    for name, module in rows:
        # The module the row names holds the very object the package exports.
        assert getattr(importlib.import_module(f"stieltjes.{module}"), name) is getattr(stieltjes, name)
