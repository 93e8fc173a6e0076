"""The package as a user installs it: its own modules, outside the checkout, without the test extra.

Every command runs in a child ``python -I``, which ignores ``PYTHONPATH``,
the user site and the script's directory, through an entry script that
stands in for the ``storybeam`` console script. The entry script puts a
copy of ``src/storybeam/*.py`` first on ``sys.path`` and blocks
``pytest``, ``_pytest``, ``hypothesis`` and the tests' ``reference``
module, so a shipped module that imports test-only code fails here. CI's
"Installed package without the test extra" step runs the same commands
through pip and the real console script.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import storybeam

from test_pinned_outputs import DATA, MODEL_PINS, MODEL_SETTINGS, README_TABLE_PINS

BLOCKED = ("pytest", "_pytest", "hypothesis", "reference")
PRELUDE = """\
import sys
sys.path.insert(0, {site!r})
for name in {blocked!r}:
    sys.modules[name] = None
"""
CONSOLE_SCRIPT = "from storybeam.cli import main\nsys.exit(main())\n"
FIVE = ["c1", "c2", "c3", "c4", "c5"]


@pytest.fixture(scope="module")
def bare(tmp_path_factory) -> Path:
    """A directory outside the checkout: the package copy, the entry scripts and README's table."""
    root = tmp_path_factory.mktemp("bare")
    package = root / "site" / "storybeam"
    package.mkdir(parents=True)
    for source in Path(storybeam.__file__).parent.glob("*.py"):
        shutil.copy(source, package / source.name)
    prelude = PRELUDE.format(site=str(root / "site"), blocked=BLOCKED)
    (root / "bin").mkdir()
    (root / "bin" / "storybeam").write_text(prelude + CONSOLE_SCRIPT, encoding="utf-8")
    (root / "bin" / "library").write_text(prelude + "exec(sys.argv[1])\n", encoding="utf-8")
    shutil.copy(DATA / "table.yaml", root / "bare-table.yaml")
    return root


def run(bare: Path, script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``bin/<script>`` with ``args`` in a child ``python -I``, in ``bare``."""
    return subprocess.run([sys.executable, "-I", str(bare / "bin" / script), *args],
                          cwd=bare, capture_output=True, timeout=60)


def storybeam_ok(bare: Path, *args: str) -> bytes:
    result = run(bare, "storybeam", *args)
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def test_every_export_resolves_from_the_copy(bare):
    result = run(bare, "library", "import storybeam\n"
                 "[getattr(storybeam, name) for name in storybeam.__all__]\n"
                 "print(storybeam.__file__)\n"
                 "print(sorted(name for name in sys.modules if name.split('.')[0] in "
                 f"{BLOCKED!r} and sys.modules[name] is not None))")
    assert result.returncode == 0, result.stderr.decode()
    path, loaded = result.stdout.decode().splitlines()
    assert Path(path).parent == bare / "site" / "storybeam"
    assert loaded == "[]"


def test_readme_table_decodes_to_a_file_and_to_stdout(bare):
    storybeam_ok(bare, "decode", "--model", "bare-table.yaml", "--conditions", *FIVE,
                 "--beam-width", "1", "--max-len", "2", "--out", "bare.json")
    text = (bare / "bare.json").read_bytes()
    assert hashlib.sha256(text).hexdigest() == README_TABLE_PINS["default"]
    assert json.loads(text)["segments"][1]["tokens"] == ["b", "b"]
    # the entry point freezes the heap at exit; a story on stdout still arrives whole
    stdout = storybeam_ok(bare, "decode", "--model", "bare-table.yaml", "--conditions",
                          "c1", "c2", "c3", "--beam-width", "1", "--max-len", "2")
    assert len(json.loads(stdout)["segments"]) == 3


def test_conditions_file_decodes_one_segment_per_non_blank_line(bare):
    # README's five conditions with a blank line among them: the blank line
    # names no segment, so the story is the one --conditions decodes
    (bare / "conditions.txt").write_text("c1\nc2\n\nc3\nc4\nc5\n", encoding="utf-8")
    storybeam_ok(bare, "decode", "--model", "bare-table.yaml", "--conditions-file",
                 "conditions.txt", "--beam-width", "1", "--max-len", "2", "--out", "file.json")
    text = (bare / "file.json").read_bytes()
    assert [seg["condition"] for seg in json.loads(text)["segments"]] == FIVE
    assert hashlib.sha256(text).hexdigest() == README_TABLE_PINS["default"]


def test_batch_decode_and_eval(bare):
    (bare / "stories.txt").write_text("c1 c2\nc3\n", encoding="utf-8")
    storybeam_ok(bare, "decode", "--model", "bare-table.yaml", "--batch", "stories.txt",
                 "--beam-width", "1", "--max-len", "2", "--out", "batch")
    assert sorted(path.name for path in (bare / "batch").iterdir()) == [
        "story_0000.json", "story_0001.json"]
    report = json.loads(storybeam_ok(bare, "eval", "batch/story_0000.json"))
    assert "repeated_segment_pairs" in report


@pytest.mark.parametrize("args", [
    ["decode", "--model", "missing.yaml", "--conditions", "c1"],
    ["decode", "--conditions", "c1"],
], ids=["missing-model", "usage-error"])
def test_errors_exit_2(bare, args):
    assert run(bare, "storybeam", *args).returncode == 2


def test_train_lm_writes_the_pinned_model(bare):
    storybeam_ok(bare, "train-lm", str(DATA / "corpus.txt"), *MODEL_SETTINGS["benchmark"],
                 "--out", "bare-model.json")
    digest = hashlib.sha256((bare / "bare-model.json").read_bytes()).hexdigest()
    assert digest == MODEL_PINS["benchmark"]
