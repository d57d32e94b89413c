#!/usr/bin/env python3
"""Self-test for tools/tm_analyze.py: seeded-violation fixtures, each of which
must produce exactly the expected finding (and nothing else), plus clean
fixtures that must produce none. Run from the repo root (ctest target
`tools_test` does):

    python3 tools/tm_analyze_selftest.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ANALYZER = REPO / "tools" / "tm_analyze.py"

GLOSSARY = """\
// Edge glossary fixture.
//
//  [pub]  (minimal: release/acquire)
//         A publication edge.
//  [dekker]  (minimal: seq_cst)
//         A store-buffering exclusion.
"""

# A well-formed [pub] edge over a raw atomic.
CLEAN = """\
#include <atomic>
std::atomic<int> x{0};
void f() {
  // mo: release — [pub] publish x.
  x.store(1, std::memory_order_release);
  // mo: acquire — [pub] observe x.
  (void)x.load(std::memory_order_acquire);
}
"""

# Each fixture: (name, source text, expected set of finding rules[, path]).
# The source is written at `path` (default fixture.cc) under a scratch
# directory, and the analyzer runs there, so a path like src/sync/x.cc reads
# as a library file.
FIXTURES = [
    ("clean", CLEAN, set()),

    ("orphan_tag", """\
#include <atomic>
std::atomic<int> x{0};
void f() {
  // mo: release — [pub] publish x.
  x.store(1, std::memory_order_release);
  // mo: acquire — [pub] observe x; also names [nonexistent-edge].
  (void)x.load(std::memory_order_acquire);
}
""", {"orphan-tag"}),

    ("release_only_edge", """\
#include <atomic>
std::atomic<int> x{0};
void f() {
  // mo: release — [pub] publish x; nobody ever acquires it.
  x.store(1, std::memory_order_release);
}
""", {"one-sided-edge"}),

    ("unjustified_seq_cst", """\
#include <atomic>
std::atomic<int> x{0};
void f() {
  // mo: seq_cst — [pub] publish x with a blanket order and no reason.
  x.store(1, std::memory_order_seq_cst);
  // mo: acquire — [pub] observe x.
  (void)x.load(std::memory_order_acquire);
}
""", {"unjustified-seq_cst"}),

    ("implicit_order_op", """\
#include <atomic>
std::atomic<int> x{0};
void f() {
  // mo: release — [pub] publish x.
  x.store(1, std::memory_order_release);
  // mo: acquire — [pub] observe x.
  (void)x.load(std::memory_order_acquire);
  (void)x.load();
}
""", {"implicit-order"}),

    ("dead_glossary_entry", """\
#include <atomic>
std::atomic<int> x{0};
void f() {
  // mo: release — [pub] publish x.
  x.store(1, std::memory_order_release);
  // mo: acquire — [pub] observe x.
  (void)x.load(std::memory_order_acquire);
}
// [dekker] is declared in the glossary but no site references it.
""", {"dead-edge"}),

    ("missing_annotation", """\
#include <atomic>
std::atomic<int> x{0};
void f() {
  x.store(1, std::memory_order_release);
  // mo: acquire — [pub] observe x.
  (void)x.load(std::memory_order_acquire);
}
""", {"mo-justification", "one-sided-edge"}),

    ("order_mismatch", """\
#include <atomic>
std::atomic<int> x{0};
void f() {
  // mo: release — [pub] the annotation argues release but the code relaxed.
  x.store(1, std::memory_order_relaxed);
  // mo: acquire — [pub] observe x.
  (void)x.load(std::memory_order_acquire);
}
""", {"order-mismatch"}),  # the endpoint registers under its *claimed* order

    ("one_legged_dekker", """\
#include <atomic>
std::atomic<int> x{0};
void f() {
  // mo: seq_cst — [dekker] only one leg present.
  // seq_cst-required: store-buffering exclusion fixture.
  x.store(1, std::memory_order_seq_cst);
  // mo: release — [pub] publish x.
  x.store(2, std::memory_order_release);
  // mo: acquire — [pub] observe x.
  (void)x.load(std::memory_order_acquire);
}
""", {"one-sided-edge"}),

    ("local_edge_decl", """\
#include <atomic>
// mo-edge: [local-flag] (minimal: release/acquire) — file-local handshake.
std::atomic<int> x{0};
void f() {
  // mo: release — [local-flag] publish x.
  x.store(1, std::memory_order_release);
  // mo: acquire — [local-flag] observe x.
  (void)x.load(std::memory_order_acquire);
}
""", {"dead-edge"}),  # the glossary [pub] has no endpoints in this fixture

    ("atomic_outside_allowlist", CLEAN, {"atomics-allowlist"},
     "src/sync/fixture.cc"),

    ("atomic_in_tests_allowed", CLEAN, set(), "tests/fixture_test.cc"),

    ("dcheck_in_hot_loop", """\
// lint:hot-path — per-access fast path fixture.
#define TCS_DCHECK(c) (void)(c)
int sum(const int* v, int n) {
  int s = 0;
  for (int i = 0; i < n; ++i) {
    TCS_DCHECK(v[i] >= 0);
    s += v[i];
  }
  return s;
}
""", {"no-dcheck-in-hot-loop"}),
]


def run_fixture(name, source, expected, path="fixture.cc"):
    with tempfile.TemporaryDirectory(prefix=f"tmsel_{name}_") as td:
        tdir = Path(td)
        glossary = tdir / "glossary.h"
        glossary.write_text(GLOSSARY, encoding="utf-8")
        src = tdir / path
        src.parent.mkdir(parents=True, exist_ok=True)
        src.write_text(source, encoding="utf-8")
        report = tdir / "report.json"
        proc = subprocess.run(
            [sys.executable, str(ANALYZER), path,
             "--glossary", str(glossary), "--report", str(report)],
            capture_output=True, text=True, cwd=tdir)
        rep = json.loads(report.read_text(encoding="utf-8"))
        # The [dekker] glossary entry is unused by most fixtures; ignore its
        # dead-edge finding unless the fixture expects dead-edge findings.
        rules = set()
        for f in rep["findings"]:
            if f["rule"] == "dead-edge" and "dead-edge" not in expected:
                continue
            rules.add(f["rule"])
        errors = []
        if rules != expected:
            errors.append(f"finding rules {sorted(rules)}, "
                          f"expected {sorted(expected)}")
        want_exit = 1 if rep["findings"] else 0
        if proc.returncode != want_exit:
            errors.append(f"exit {proc.returncode}, expected {want_exit}")
        if rep["budget"]["seq_cst_unjustified"] != (
                1 if "unjustified-seq_cst" in expected else 0):
            errors.append("budget seq_cst_unjustified miscounted: "
                          f"{rep['budget']}")
        return errors, rep


def main():
    failures = 0
    for fixture in FIXTURES:
        errors, rep = run_fixture(*fixture)
        status = "ok" if not errors else "FAIL"
        print(f"[{status}] {fixture[0]}")
        for e in errors:
            failures += 1
            print(f"       {e}")
            for f in rep["findings"]:
                print(f"       > {f['file']}:{f['line']}: "
                      f"[{f['rule']}] {f['message']}")

    # Report-shape check on the clean fixture: edges and budget must be
    # present and structurally sane for the CI gate to consume.
    _, rep = run_fixture(*FIXTURES[0])
    for key in ("schema_version", "files", "edges", "budget", "findings"):
        if key not in rep:
            failures += 1
            print(f"[FAIL] report missing key `{key}`")
    pub = rep["edges"].get("pub", {})
    if pub.get("release_side", 0) < 1 or pub.get("acquire_side", 0) < 1:
        failures += 1
        print(f"[FAIL] clean fixture [pub] edge sides miscounted: {pub}")

    if failures:
        print(f"tm_analyze_selftest: {failures} failure(s)", file=sys.stderr)
        return 1
    print(f"tm_analyze_selftest: all {len(FIXTURES)} fixtures pass",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
