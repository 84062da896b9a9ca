"""Tests for the stdlib docs-vs-snapshot checker behind the CI docs-check
job."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_bench_docs.py"
_spec = importlib.util.spec_from_file_location("check_bench_docs", _TOOL)
check_bench_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench_docs)

PAGE = """# Benchmarks

### `sparse` — sparse algebra

| key | meaning |
|---|---|
| `sparse_speedup` | **gated ≥5×**: 14.48× in `BENCH_8.json` (26.87, 20.68 in `BENCH_6`–`BENCH_7`) |
| `a_qps` vs `b_qps`, `ratio` | (2.09× in `BENCH_8.json`) |

### `faults` — failures

Failing fast costs `fail_fast_ms` 3.0 ms in `BENCH_8.json`.
`BENCH_8.json` has `sparse_f32_speedup` 0.91 (slower) and
`storage` 1.49, a claim wrapped over two lines.

```bash
echo "99.99× in `BENCH_8.json` is code, not a claim"
```
"""


@pytest.fixture
def doc_tree(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "BENCHMARKS.md").write_text(PAGE, encoding="utf-8")
    snapshots = {
        6: {"sparse": {"sparse_speedup": 26.87}},
        7: {"sparse": {"sparse_speedup": 20.68}},
        8: {"sparse": {"sparse_speedup": 14.48, "ratio": 2.0912},
            "faults": {"fail_fast_ms": 3.018},
            # A same-named key in another section must not be picked.
            "shard": {"ratio": 7.0},
            "precision": {"sparse_f32_speedup": 0.91, "storage": 1.49}},
    }
    for index, snapshot in snapshots.items():
        (tmp_path / f"BENCH_{index}.json").write_text(json.dumps(snapshot))
    return tmp_path


def test_matching_tree_passes(doc_tree, capsys):
    assert check_bench_docs.main(["check_bench_docs.py", str(doc_tree)]) == 0
    assert "all 7 quoted snapshot numbers match" in capsys.readouterr().out


@pytest.mark.parametrize("quoted, altered", [
    ("14.48×", "14.49×"),                 # table row, row key
    ("26.87, 20.68", "26.87, 20.69"),     # series over BENCH_6–BENCH_7
    ("(2.09×", "(2.10×"),                 # last key of a multi-key row
    ("3.0 ms", "3.1 ms"),                 # prose, nearest key before it
    ("`storage` 1.49", "`storage` 1.48"),  # "BENCH_N.json has" phrasing
])
def test_a_wrong_number_fails_with_diagnostic(doc_tree, capsys, quoted,
                                              altered):
    page = doc_tree / "docs" / "BENCHMARKS.md"
    page.write_text(PAGE.replace(quoted, altered), encoding="utf-8")
    assert check_bench_docs.main(["check_bench_docs.py", str(doc_tree)]) == 1
    err = capsys.readouterr().err
    assert "1 of 7 quoted snapshot numbers do not match" in err
    assert "BENCHMARKS.md:" in err


def test_unknown_snapshot_or_key_fails(doc_tree):
    page = doc_tree / "docs" / "BENCHMARKS.md"
    page.write_text(PAGE.replace("`BENCH_8.json` has", "`BENCH_9.json` has"),
                    encoding="utf-8")
    _, mismatches = check_bench_docs.check(doc_tree)
    assert len(mismatches) == 2
    assert all("BENCH_9.json does not exist" in line for line in mismatches)


def test_repo_docs_match_their_snapshots():
    """The repository's own benchmark page must quote its snapshots."""
    root = Path(__file__).resolve().parent.parent
    checked, mismatches = check_bench_docs.check(root)
    assert mismatches == []
    assert checked > 0
