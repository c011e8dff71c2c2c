"""The identity run, pinned: the bundled grid x L1-L4, 3 replicates, at
seeds 0, 7, 99 and 2024, for scripted:power_law at 100 experiments and 5
tests and scripted:random at 200 and 5, must write the same 8 run.jsonl
logs byte for byte, and `eqgym report --by-difficulty --overlap` must
print the same text and write the same report.json for each.

identity_run.json holds each log's sha256, the sha256 of the report's
text and of its report.json, and, for each of the log's lines, one byte
of the sha256 of the line and of each top-level field, so that a
mismatch names the first cell and field that differ.  A change that alters
the logs on purpose rewrites that file with

    PYTHONPATH=src python tests/test_identity_run.py

and says which verdicts or report figures changed."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from eqgym.agents import agent_from_spec
from eqgym.environment import LEVELS, bundled_environments
from eqgym.harness import RunPlan, execute, main

PINNED = Path(__file__).with_name("identity_run.json")
SEEDS = (0, 7, 99, 2024)
AGENTS = (("power_law", 100), ("random", 200))


def _plans():
    envs = bundled_environments()
    for seed in SEEDS:
        for agent, quota in AGENTS:
            yield f"{agent}-{seed}", RunPlan(
                envs, tuple(LEVELS), (agent_from_spec(f"scripted:{agent}"),),
                experiments_quota=quota, test_quota=5, seed=seed, replicates=3,
            )


def _byte(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:2]


def _lines(log: bytes) -> list[str]:
    """Per line: a byte of the line's digest, then one per field, in hex."""
    lines = []
    for line in log.splitlines():
        fields = json.loads(line).items()
        lines.append(_byte(line) + "".join(_byte(json.dumps([k, v]).encode()) for k, v in fields))
    return lines


def _cell(doc: dict) -> str:
    if doc.get("kind") == "transcript":
        return f"cell {doc['env_id']} {doc['level']} replicate {doc['replicate']}"
    return " ".join(str(doc[k]) for k in ("kind", "env_id") if k in doc)


def _first_difference(log: bytes, pinned: list[str]) -> str:
    got = _lines(log)
    for number, (line, now, then) in enumerate(zip(log.splitlines(), got, pinned), 1):
        if now != then:
            doc = json.loads(line)
            fields = [key for i, key in enumerate(doc, 1) if now[2 * i:2 * i + 2] != then[2 * i:2 * i + 2]]
            where = f"field {fields[0]!r}" if fields else "its bytes or field order"
            return f"line {number}, {_cell(doc)}: {where} differs"
    return f"{len(got)} lines, {len(pinned)} pinned"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report(run_dir: Path) -> dict[str, str]:
    """The digests of what `eqgym report --by-difficulty --overlap` prints
    for a run directory and of the report.json it writes there."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        status = main(["report", "--run", str(run_dir), "--by-difficulty", "--overlap"])
    assert status == 0
    return {
        "report_sha256": _sha256(printed.getvalue().encode("utf-8")),
        "report_json_sha256": _sha256((run_dir / "report.json").read_bytes()),
    }


def _run(out: Path) -> dict[str, tuple[bytes, dict[str, str]]]:
    """Each log's bytes and its report's digests."""
    runs = {}
    for name, plan in _plans():
        execute(plan, out / name)
        runs[name] = (out / name / "run.jsonl").read_bytes(), _report(out / name)
    return runs


def test_the_identity_run_writes_the_pinned_logs(tmp_path):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    runs = _run(tmp_path)
    assert list(runs) == list(pinned)
    differences = []
    for name, (log, report) in runs.items():
        if _sha256(log) != pinned[name]["sha256"]:
            differences.append(f"{name}: {_first_difference(log, pinned[name]['lines'])}")
        differences += [f"{name}: {key} differs" for key, digest in report.items()
                        if digest != pinned[name][key]]
    assert not differences, "\n".join(differences)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        runs = _run(Path(work))
    PINNED.write_text(json.dumps({
        name: {"sha256": _sha256(log), **report, "lines": _lines(log)}
        for name, (log, report) in runs.items()
    }, indent=1) + "\n", encoding="utf-8")
