import pathlib

from conftest import two_cluster_db

README = pathlib.Path(__file__).parent.parent / "README.md"


def _library_snippet() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs():
    points, labels = two_cluster_db(20, 100, gap=1, seed=5)
    scope = {"points": points, "labels": labels}
    exec(compile(_library_snippet(), str(README), "exec"), scope)
    assert scope["label"] in (0, 1)
    assert scope["bit"] in (0, 1)
    assert scope["pp"].n == len(points) == scope["ring"].n
