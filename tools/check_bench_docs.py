#!/usr/bin/env python
"""Fail when ``docs/BENCHMARKS.md`` quotes a number its snapshot lacks.

Usage::

    python tools/check_bench_docs.py [ROOT]

Every number the page attributes to a perf snapshot (``BENCH_N.json`` in
ROOT, which defaults to the repository root) must equal the named key's
value in that file, at the precision the page writes it (``0.784`` must
be ``0.784`` rounded to three decimals; ``3.0 ms`` matches ``3.018``).
Three phrasings are understood:

* ``14.48× in `BENCH_8.json``` inside a table row: the key is the last
  backticked name in the row's first cell that the snapshot has;
  in prose, the nearest backticked name before the number in its
  paragraph;
* ``(26.87, 20.68 in `BENCH_4`–`BENCH_5`)``: a series, one number per
  snapshot of the range, for the same key;
* ```BENCH_8.json` has `sparse_f32_speedup` 0.91 and `other_key` 1.49``:
  each backticked key followed by its number, up to the end of the
  sentence.

Keys are looked up in the snapshot section named by the nearest
``### `section``` heading above, else in whichever section holds them.
Exit status 0 when every quoted number matches, 1 otherwise (one
diagnostic line per mismatch) — the CI ``docs-check`` job gates on it.

Standard library only, like ``tools/check_links.py``.
"""

import json
import re
import sys
from pathlib import Path

DOC = Path("docs") / "BENCHMARKS.md"

_NUMBER = r"(\d+(?:\.\d+)?)"
_SECTION = re.compile(r"^#+\s+`([A-Za-z_]\w*)`")
_BACKTICKED = re.compile(r"`([A-Za-z_]\w*)`")
#: ``14.48× in `BENCH_8.json```, with an optional unit between.
_IN_SNAPSHOT = re.compile(
    _NUMBER + r"\s*(?:×|x|ms|s)?\s+in\s+`BENCH_(\d+)\.json`")
#: ``(26.87, 20.68, 20.93 in `BENCH_4`–`BENCH_6`)``.
_IN_SERIES = re.compile(
    r"((?:\d+(?:\.\d+)?,\s*)+\d+(?:\.\d+)?)\s+in\s+"
    r"`BENCH_(\d+)(?:\.json)?`\s*[–-]\s*`BENCH_(\d+)(?:\.json)?`")
#: ```BENCH_8.json` has ...`` up to the end of the sentence or cell.
_HAS = re.compile(r"`BENCH_(\d+)\.json`\s+has\s+([^.|]*(?:\.\d[^.|]*)*)")
_KEY_NUMBER = re.compile(r"`([A-Za-z_]\w*)`\s+" + _NUMBER)


def _blocks(lines):
    """``(line_number, text)`` of each heading, table row and prose
    paragraph (its lines joined, numbered by its first line), outside
    fenced code blocks."""
    in_fence = False
    paragraph = []  # (line_number, line) of the open prose paragraph
    for number, line in enumerate(lines, 1):
        fence = line.lstrip().startswith(("```", "~~~"))
        single = line.lstrip().startswith(("|", "#"))
        if (fence or single or not line.strip()) and paragraph:
            yield paragraph[0][0], " ".join(text for _, text in paragraph)
            paragraph = []
        if fence:
            in_fence = not in_fence
        elif in_fence or not line.strip():
            continue
        elif single:
            yield number, line
        else:
            paragraph.append((number, line.strip()))
    if paragraph:
        yield paragraph[0][0], " ".join(text for _, text in paragraph)


def _matches(value, text):
    """Does ``value`` print as ``text`` at ``text``'s precision?"""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    decimals = len(text.partition(".")[2])
    return f"{value:.{decimals}f}" == text


class Snapshots:
    """The ``BENCH_N.json`` files under one root, loaded on first use."""

    def __init__(self, root: Path):
        self.root = root
        self._loaded = {}

    def lookup(self, index, section, candidates):
        """``(key, value)`` of the first candidate the snapshot holds
        (preferring ``section``), or ``(None, reason)``."""
        name = f"BENCH_{index}.json"
        if name not in self._loaded:
            path = self.root / name
            self._loaded[name] = (json.loads(path.read_text())
                                  if path.exists() else None)
        snapshot = self._loaded[name]
        if snapshot is None:
            return None, f"{name} does not exist"
        for key in candidates:
            if isinstance(snapshot.get(section), dict) \
                    and key in snapshot[section]:
                return key, snapshot[section][key]
            holders = [values[key] for values in snapshot.values()
                       if isinstance(values, dict) and key in values]
            if len(holders) == 1:
                return key, holders[0]
        return None, f"{name} has none of {list(candidates) or 'no key'}"


def check(root: Path):
    """``(checked, mismatches)`` for the page under ``root``; each mismatch
    is one diagnostic line."""
    snapshots = Snapshots(root)
    checked, mismatches = 0, []
    section = None
    for number, line in _blocks(
            (root / DOC).read_text(encoding="utf-8").splitlines()):
        heading = _SECTION.match(line)
        if heading:
            section = heading.group(1)
            continue
        row_keys = []
        if line.lstrip().startswith("|"):
            first_cell = line.strip().strip("|").split("|")[0]
            row_keys = _BACKTICKED.findall(first_cell)[::-1]
        claims = []  # (snapshot index, candidate keys, quoted text)
        for match in _IN_SERIES.finditer(line):
            values = [v.strip() for v in match.group(1).split(",")]
            first, last = int(match.group(2)), int(match.group(3))
            if last - first + 1 != len(values):
                mismatches.append(
                    f"{DOC}:{number}: {len(values)} numbers for the "
                    f"{last - first + 1} snapshots BENCH_{first}–BENCH_{last}")
                continue
            claims.extend((first + offset, row_keys, value)
                          for offset, value in enumerate(values))
        for match in _IN_SNAPSHOT.finditer(line):
            before = _BACKTICKED.findall(line[:match.start()])[::-1]
            claims.append((int(match.group(2)), row_keys or before,
                           match.group(1)))
        for match in _HAS.finditer(line):
            claims.extend((int(match.group(1)), [key], value)
                          for key, value in _KEY_NUMBER.findall(match.group(2)))
        for index, candidates, text in claims:
            checked += 1
            key, value = snapshots.lookup(index, section, candidates)
            if key is None:
                mismatches.append(f"{DOC}:{number}: {text} cannot be checked: "
                                  f"{value}")
            elif not _matches(value, text):
                mismatches.append(
                    f"{DOC}:{number}: the page quotes {key} = {text}, but "
                    f"BENCH_{index}.json has {value}")
    return checked, mismatches


def main(argv):
    root = Path(argv[1]).resolve() if len(argv) > 1 else \
        Path(__file__).resolve().parent.parent
    if not (root / DOC).exists():
        print(f"no {DOC} under {root}", file=sys.stderr)
        return 1
    checked, mismatches = check(root)
    for line in mismatches:
        print(line, file=sys.stderr)
    if mismatches:
        print(f"{len(mismatches)} of {checked} quoted snapshot numbers do "
              "not match", file=sys.stderr)
        return 1
    print(f"all {checked} quoted snapshot numbers match ({DOC})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
