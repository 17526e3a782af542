"""Documentation checker: links must resolve, module references must import.

Walks README.md and docs/*.md and fails if

* any relative markdown link targets a missing file (web URLs and pure
  anchors are ignored), or
* any dotted ``repro.*`` reference in the prose does not resolve to an
  importable module (plus, optionally, an attribute chain on it — e.g.
  ``repro.serve.server.ModelServer.poll``).  Docs drift silently when a
  module is renamed; imports do not.
* any catalog table drifted from the code it documents (via the
  linter's phase-1 project facts, see ``docs/static_analysis.md``):
  the ``docs/observability.md`` instrument/event tables must name only
  instruments the code actually emits, the ``docs/robustness.md`` site
  table must match ``repro.common.faults.KNOWN_SITES`` exactly, and
  the ``docs/experiments.md`` column reference must match the fixed
  run-table schema in both directions.
* any backticked ``make <target>`` names a target the Makefile does
  not define — a retired target otherwise lingers in the prose.

This is the `make docs` target and runs in CI — it keeps the README's
promise that every paper artifact is reachable from it, and that every
module path the docs name still exists.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)]*)?\)")
MODULE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
BACKTICK = re.compile(r"`([^`]+)`")
COLUMN_TOKEN = re.compile(r"^[a-z][a-z0-9_]*$")
MAKE_REF = re.compile(r"`make ([A-Za-z0-9_.-]+)[^`]*`")
MAKE_RULE = re.compile(r"^([A-Za-z0-9_-][A-Za-z0-9_.-]*):", re.MULTILINE)

REPO = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tools"))

from lint_smoke import load_lint  # noqa: E402  (needs tools/ on path)


def check_links(markdown: Path) -> list[str]:
    errors = []
    text = markdown.read_text(encoding="utf-8")
    for target in LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        resolved = (markdown.parent / target).resolve()
        if not resolved.exists():
            errors.append(f"{markdown.relative_to(REPO)}: broken link {target}")
    return errors


def check_make_targets(markdown: Path, targets: set[str]) -> list[str]:
    text = markdown.read_text(encoding="utf-8")
    return [
        f"{markdown.relative_to(REPO)}: `make {target}` is not a "
        f"Makefile target"
        for target in sorted(set(MAKE_REF.findall(text)) - targets)
    ]


def _reference_resolves(ref: str, cache: dict[str, bool]) -> bool:
    """Whether ``ref`` names an importable module / attribute chain.

    Tries the longest importable module prefix, then walks the remaining
    components as attributes (classes, functions, methods, constants).
    """
    if ref in cache:
        return cache[ref]
    parts = ref.split(".")
    resolved = False
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        resolved = True
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                resolved = False
                break
            obj = getattr(obj, attr)
        break
    cache[ref] = resolved
    return resolved


def check_module_refs(markdown: Path, cache: dict[str, bool]) -> list[str]:
    text = markdown.read_text(encoding="utf-8")
    return [
        f"{markdown.relative_to(REPO)}: unresolvable module reference {ref}"
        for ref in sorted(set(MODULE.findall(text)))
        if not _reference_resolves(ref, cache)
    ]


def _table_first_cells(text: str, header: str) -> list[str]:
    """First-cell contents of every row of tables whose header's first
    cell is exactly ``header``."""
    cells: list[str] = []
    active = False
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped.startswith("|"):
            active = False
            continue
        first = stripped.strip("|").split("|", 1)[0].strip()
        if set(first) <= {"-", ":", " "}:
            continue  # |---| separator
        if not active:
            active = first == header
            continue
        cells.append(first)
    return cells


def _backtick_tokens(cells: list[str], pattern: re.Pattern) -> set[str]:
    return {token for cell in cells
            for token in BACKTICK.findall(cell)
            if pattern.match(token)}


def check_catalogs() -> list[str]:
    """Validate the docs' catalog tables against the code's live
    catalogs, through the linter's phase-1 facts."""
    lint = load_lint()
    facts = lint.build_facts(root=REPO)
    errors: list[str] = []

    # docs/observability.md: every documented exact instrument/event
    # name must still be emitted somewhere under src/repro.  (The code
    # side — every emission is documented — is lint rule `instruments`.)
    emitted: set[str] = set()
    prefixes: set[str] = set()
    for mod in facts.src_modules():
        emitted |= mod.site_literals
        for inst in mod.instruments:
            (prefixes if inst.prefix else emitted).add(inst.name)
    catalog = facts.instrument_catalog
    for name in sorted(catalog.exact):
        if name in emitted or any(name.startswith(p) for p in prefixes):
            continue
        errors.append(f"docs/observability.md: catalogued instrument "
                      f"`{name}` is not emitted anywhere in src/repro")
    for prefix in sorted(catalog.wildcard_prefixes):
        if not any(n.startswith(prefix) for n in emitted | prefixes):
            errors.append(f"docs/observability.md: wildcard entry "
                          f"`{prefix}*` matches no emitted instrument")

    # docs/robustness.md: the site table is KNOWN_SITES, exactly.
    site_pattern = lint.facts.SITE_RE
    robustness = (REPO / "docs" / "robustness.md").read_text("utf-8")
    documented_sites = _backtick_tokens(
        _table_first_cells(robustness, "site"), site_pattern)
    known = set(facts.known_sites)
    for site in sorted(documented_sites - known):
        errors.append(f"docs/robustness.md: documented fault site "
                      f"`{site}` is not in KNOWN_SITES")
    for site in sorted(known - documented_sites):
        errors.append(f"docs/robustness.md: KNOWN_SITES entry `{site}` "
                      f"is missing from the site table")

    # Column-reference tables (docs/experiments.md is the authoritative
    # one, checked both ways; any other doc's `column` table must be a
    # subset of the schema).
    schema = set(facts.run_table_columns)
    for doc in sorted((REPO / "docs").glob("*.md")):
        documented = _backtick_tokens(
            _table_first_cells(doc.read_text("utf-8"), "column"),
            COLUMN_TOKEN)
        rel = doc.relative_to(REPO)
        for column in sorted(documented - schema):
            errors.append(f"{rel}: documented column `{column}` is not "
                          f"in the run-table schema")
        if doc.name == "experiments.md":
            for column in sorted(schema - documented):
                errors.append(f"{rel}: run-table column `{column}` is "
                              f"missing from the column reference")
    return errors


def main() -> int:
    sources = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
    missing = [str(s.relative_to(REPO)) for s in sources if not s.exists()]
    if missing:
        print("missing documentation files:", ", ".join(missing))
        return 1
    cache: dict[str, bool] = {}
    targets = set(MAKE_RULE.findall(
        (REPO / "Makefile").read_text(encoding="utf-8")))
    errors = [
        error
        for source in sources
        for error in (*check_links(source),
                      *check_module_refs(source, cache),
                      *check_make_targets(source, targets))
    ]
    errors.extend(check_catalogs())
    for error in errors:
        print(error)
    checked = len(sources)
    refs = len(cache)
    if errors:
        print(f"FAIL: {len(errors)} problem(s) across {checked} files")
        return 1
    print(f"OK: all local links resolve, all {refs} repro.* references "
          f"import, every `make` target exists, and all catalog tables "
          f"match the code across {checked} documentation files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
