"""Byte-for-byte reference outputs of the CLI studies and the demos.

``reference/configs.json`` holds one config per CLI study.  Each study runs
in process and its table must equal the stored file byte for byte; each
demo's standard output must equal its stored transcript.  On a mismatch the
failure names the largest numeric move per column: the CSV header for
tables, the key for JSON, and the position of a number within its line for
demo transcripts.

Run this file as a script to rewrite every reference from the current code
(see ``reference/README.md``).
"""

import contextlib
import csv
import io
import json
import math
import re
import runpy
import tempfile
from pathlib import Path

import pytest

from rydsense import cli

REFERENCE = Path(__file__).resolve().parent / "reference"
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"
STUDIES = json.loads((REFERENCE / "configs.json").read_text())

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run_study(name: str, directory: Path) -> bytes:
    study = STUDIES[name]
    config = directory / "config.json"  # named apart from every output
    config.write_text(json.dumps(study["config"]))
    output = directory / study["output"]
    assert cli.main([name, "--config", str(config), "--output", str(output)]) == 0
    return output.read_bytes()


def run_demo(path: Path) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue().encode()


def demo_reference(path: Path) -> str:
    return f"demo_{path.stem}.txt"


def _columns(text: str, kind: str) -> dict:
    """Cells of an output keyed by column, each column a list in reading order."""
    columns: dict = {}
    if kind == ".csv":
        header, *rows = csv.reader(io.StringIO(text, newline=""))
        for row in rows:
            for name, cell in zip(header, row):
                columns.setdefault(name, []).append(cell)
    elif kind == ".json":
        for key, value in json.loads(text).items():
            columns[key] = [json.dumps(value)]
    else:
        for line in text.splitlines():
            columns.setdefault("text", []).append(_NUMBER.sub("#", line))
            for i, number in enumerate(_NUMBER.findall(line)):
                columns.setdefault(f"number {i + 1} of a line", []).append(number)
    return columns


def largest_moves(expected: str, actual: str, kind: str) -> list:
    """Largest absolute move per changed column; a non-numeric change counts as inf."""
    old, new = _columns(expected, kind), _columns(actual, kind)
    report = []
    for name in [*old, *(name for name in new if name not in old)]:
        a, b = old.get(name, []), new.get(name, [])
        if len(a) != len(b):
            report.append(f"{name}: {len(a)} cells -> {len(b)}")
            continue
        moves = []
        for x, y in zip(a, b):
            if x != y:
                try:
                    moves.append(abs(float(y) - float(x)))
                except ValueError:
                    moves.append(math.inf)
        if moves:
            report.append(f"{name}: {max(moves):.3g} over {len(moves)} cells")
    return report


def assert_matches_reference(actual: bytes, filename: str):
    expected = (REFERENCE / filename).read_bytes()
    if actual != expected:
        moves = largest_moves(expected.decode(), actual.decode(), Path(filename).suffix)
        pytest.fail(
            f"{filename} differs from its reference; largest move per column: "
            + ("; ".join(moves) or "none, only line ends or spacing")
        )


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_table_matches_reference(name, tmp_path):
    assert_matches_reference(run_study(name, tmp_path), STUDIES[name]["output"])


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_rewrite_of_a_longer_file_leaves_no_stale_tail(name, tmp_path):
    # an existing output is overwritten in place, so it must be cut to the
    # new length; 64 KiB of ASCII junk is longer than every reference
    (tmp_path / STUDIES[name]["output"]).write_bytes(b"9," * 32768)
    assert_matches_reference(run_study(name, tmp_path), STUDIES[name]["output"])


def test_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_output_matches_reference(path):
    assert_matches_reference(run_demo(path), demo_reference(path))


def test_mismatch_reports_largest_move_per_column():
    expected = "a,b,c\r\n1.5,x,2\r\n2.5,y,3\r\n"
    actual = "a,b,c\r\n1.5,z,2\r\n2.75,y,3\r\n"
    assert largest_moves(expected, actual, ".csv") == [
        "a: 0.25 over 1 cells",
        "b: inf over 1 cells",
    ]
    assert largest_moves('{"f": 1.0, "s": "x"}', '{"f": 1.5, "s": "x"}', ".json") == [
        "f: 0.5 over 1 cells"
    ]
    assert largest_moves("F = 1.000 at 2\n", "F = 1.002 at 2\n", ".txt") == [
        "number 1 of a line: 0.002 over 1 cells"
    ]


def readme_study_rows() -> dict:
    """README's subcommand table: study -> (required keys, output columns)."""
    section = README.read_text().split("### Subcommands and output schemas", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        study, required, columns = (re.findall(r"`([^`]*)`", cell) for cell in line.split(" | "))
        rows[study[0]] = (required, columns[0].split(", "))
    return rows


def test_readme_table_matches_schemas_and_references():
    rows = readme_study_rows()
    assert sorted(rows) == sorted(cli.SCHEMAS) == sorted(STUDIES)
    for study, (required, columns) in rows.items():
        schema = cli.SCHEMAS[study]
        assert required == [key for key, spec in schema.items() if spec.required], study
        text = (REFERENCE / STUDIES[study]["output"]).read_text()
        if study == "sensitivity":
            header = [key for key in json.loads(text) if key not in ("schema", "version")]
        else:
            header = text.splitlines()[0].split(",")
        assert columns == header, study


def test_readme_quickstart_runs():
    # the python block of README's "Library quickstart" runs, as the demos do
    section = README.read_text().split("## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md (Library quickstart)", "exec"), namespace)
    assert namespace["result"].fi_per_shot > 0.0


def regenerate():
    """Rewrite every reference file from the current code."""
    with tempfile.TemporaryDirectory() as directory:
        for name, study in STUDIES.items():
            (REFERENCE / study["output"]).write_bytes(run_study(name, Path(directory)))
    for path in DEMOS:
        (REFERENCE / demo_reference(path)).write_bytes(run_demo(path))


if __name__ == "__main__":
    regenerate()
